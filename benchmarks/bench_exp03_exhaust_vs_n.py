"""EXP-03 — exhausted key-node ratio vs. network size (the headline figure).

Paper anchor: the abstract's claim that CSA "can exhaust at least 80% of
key nodes", across network sizes, against the planning baselines.  All
attackers share the same stealth envelope and cover-traffic behaviour;
only the TIDE planner differs, so the gap is pure planning quality.

Runs as the built-in ``exp03`` campaign (a ``csa-baseline`` scenario
grid): the grid executes through the crash-isolated executor and the
printed table is reassembled from per-trial metrics in the original
sweep order.
"""

from _common import (
    BENCH_CONFIG,
    CONTROLLER_LABELS,
    bench_executor,
    emit,
    emit_json,
    grid_axis,
    mean_ratio,
    series_sidecar,
)

from repro.analysis.tables import series_table
from repro.campaign import run_campaign
from repro.campaign.experiments import resolve_spec

SPEC = resolve_spec("exp03")
NODE_COUNTS = grid_axis(SPEC, "node_count")
SEEDS = grid_axis(SPEC, "seed")
CONTROLLERS = grid_axis(SPEC, "controller")


def run_experiment():
    result = run_campaign(SPEC, executor=bench_executor())
    return {
        CONTROLLER_LABELS[name]: [
            result.values("exhausted_key_ratio", node_count=n, controller=name)
            for n in NODE_COUNTS
        ]
        for name in CONTROLLERS
    }


def bench_exp03_exhaust_vs_n(benchmark):
    series = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    formatted = {
        name: [mean_ratio(cell) for cell in cells]
        for name, cells in series.items()
    }
    table = series_table(
        "nodes",
        NODE_COUNTS,
        formatted,
        title=(
            "EXP-03: exhausted key-node ratio vs network size "
            f"(key nodes = {BENCH_CONFIG.key_count}, seeds = {len(SEEDS)})"
        ),
    )
    emit("exp03_exhaust_vs_n", table)
    emit_json(
        "exp03_exhaust_vs_n",
        series_sidecar("nodes", NODE_COUNTS, series),
    )

    # Shape assertions: CSA >= 0.8 everywhere and dominates every
    # baseline on average.
    csa_means = [sum(c) / len(c) for c in series["CSA"]]
    assert all(m >= 0.8 for m in csa_means)
    for name, cells in series.items():
        if name == "CSA":
            continue
        other_means = [sum(c) / len(c) for c in cells]
        assert sum(csa_means) >= sum(other_means) - 1e-9
