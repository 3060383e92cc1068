"""EXP-07 — detection rate vs. defender audit intensity.

Paper anchor: the "without being detected" claim, made falsifiable.
Sweeps the voltage auditor's mean interval and measures the fraction of
runs caught for three attackers: CSA (full stealth), the same planner
with the stealth windows stripped, and the blatant pretender.  The
paper-shaped result: CSA's curve hugs zero while both ablations are
caught at every realistic audit intensity.

Runs as the built-in ``exp07`` campaign (a ``csa-baseline`` scenario
grid over ``audit_interval_s``); the printed table is reassembled from
per-trial metrics in the original sweep order.
"""

from _common import (
    CONTROLLER_LABELS,
    bench_executor,
    emit,
    emit_json,
    grid_axis,
    series_sidecar,
)

from repro.analysis.tables import series_table
from repro.campaign import run_campaign
from repro.campaign.experiments import resolve_spec

SPEC = resolve_spec("exp07")
AUDIT_INTERVALS_S = grid_axis(SPEC, "audit_interval_s")
AUDIT_INTERVALS_H = [s / 3600.0 for s in AUDIT_INTERVALS_S]
SEEDS = grid_axis(SPEC, "seed")
CONTROLLERS = grid_axis(SPEC, "controller")


def run_experiment():
    result = run_campaign(SPEC, executor=bench_executor())

    def cells(metric):
        return {
            CONTROLLER_LABELS[name]: [
                result.values(metric, audit_interval_s=s, controller=name)
                for s in AUDIT_INTERVALS_S
            ]
            for name in CONTROLLERS
        }

    return cells("detected"), cells("exhausted_key_ratio")


def bench_exp07_detection(benchmark):
    detect_cells, exhaust_cells = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    avg = lambda c: sum(c) / len(c)
    rates = {name: [avg(c) for c in cells] for name, cells in detect_cells.items()}
    exhaustion = {
        name: [avg(c) for c in cells] for name, cells in exhaust_cells.items()
    }
    table = series_table(
        "audit_interval_h",
        AUDIT_INTERVALS_H,
        {
            **{f"det[{k}]": [f"{v:.2f}" for v in vs] for k, vs in rates.items()},
            "exh[CSA]": [f"{v:.2f}" for v in exhaustion["CSA"]],
        },
        title=(
            "EXP-07: detection rate vs voltage-audit intensity "
            f"({len(SEEDS)} seeds per point)"
        ),
    )
    emit("exp07_detection", table)
    emit_json(
        "exp07_detection",
        series_sidecar(
            "audit_interval_h",
            AUDIT_INTERVALS_H,
            {
                **{f"det[{k}]": cells for k, cells in detect_cells.items()},
                "exh[CSA]": exhaust_cells["CSA"],
            },
        ),
    )

    # Shape: the blatant attacker is always caught (by telemetry, audit-
    # rate independent); stripping the windows is caught at every audit
    # intensity except possibly the laziest; CSA stays far below both.
    assert all(r == 1.0 for r in rates["Blatant"])
    assert sum(rates["CSA-no-windows"][:3]) >= 2.0
    assert sum(rates["CSA"]) <= 0.5 * sum(rates["CSA-no-windows"])
    # And stealth does not blunt the damage.
    assert min(exhaustion["CSA"]) >= 0.7
