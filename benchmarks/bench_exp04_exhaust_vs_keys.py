"""EXP-04 — exhausted ratio vs. number of key nodes targeted.

Paper anchor: the evaluation sweep over attack ambition.  More targets
spread the same charger budget and crowd the stealth windows, so the
exhausted *ratio* degrades gracefully while the absolute kill count
rises; CSA stays ahead of the window-blind greedy throughout.

Runs as the built-in ``exp04`` campaign (a ``csa-baseline`` scenario
grid); the printed table is reassembled from per-trial metrics in the
original sweep order.
"""

from _common import (
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

SPEC = resolve_spec("exp04")
KEY_COUNTS = grid_axis(SPEC, "key_count")
SEEDS = grid_axis(SPEC, "seed")


def run_experiment():
    result = run_campaign(SPEC, executor=bench_executor())

    def cells(metric, controller):
        return [
            result.values(metric, key_count=k, controller=controller)
            for k in KEY_COUNTS
        ]

    return (
        cells("exhausted_key_ratio", "csa"),
        cells("exhausted_key_ratio", "greedy-weight"),
        cells("exhausted_key_count", "csa"),
    )


def bench_exp04_exhaust_vs_keys(benchmark):
    csa_cells, greedy_cells, kill_cells = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    table = series_table(
        "key_nodes",
        KEY_COUNTS,
        {
            "CSA_ratio": [mean_ratio(c) for c in csa_cells],
            "Greedy_ratio": [mean_ratio(c) for c in greedy_cells],
            "CSA_kills": [f"{sum(c) / len(c):.1f}" for c in kill_cells],
        },
        title="EXP-04: exhaustion vs number of key nodes targeted (N=150)",
    )
    emit("exp04_exhaust_vs_keys", table)
    emit_json(
        "exp04_exhaust_vs_keys",
        series_sidecar(
            "key_nodes",
            KEY_COUNTS,
            {
                "CSA_ratio": csa_cells,
                "Greedy_ratio": greedy_cells,
                "CSA_kills": kill_cells,
            },
        ),
    )

    csa_means = [sum(c) / len(c) for c in csa_cells]
    greedy_means = [sum(c) / len(c) for c in greedy_cells]
    # CSA at least matches greedy overall, and absolute kills grow with
    # ambition.
    assert sum(csa_means) >= sum(greedy_means) - 1e-9
    kill_means = [sum(c) / len(c) for c in kill_cells]
    assert kill_means[-1] > kill_means[0]
