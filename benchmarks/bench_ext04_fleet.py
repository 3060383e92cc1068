"""EXT-04 — one compromised charger inside an honest fleet.

Extension experiment: multi-charger WRSNs are the norm in this
literature; what happens to CSA when the compromised charger is one of
several?  Honest co-chargers race the attacker to every requester — a
genuinely recharged victim's stealth window evaporates — so the attacker
must *claim* its victims the moment they request and camp at them until
the stealth window opens.  Even so, while it camps at one victim the
honest fleet rescues others: fleet redundancy passively blunts the
attack with no detector involved.

Runs as the built-in ``ext04`` campaign (a ``csa-baseline`` scenario
grid over ``honest_chargers``); the printed table is reassembled from
per-trial metrics in the original sweep order.
"""

from _common import bench_executor, emit, emit_json, grid_axis, series_sidecar

from repro.analysis.tables import series_table
from repro.campaign import run_campaign
from repro.campaign.experiments import resolve_spec

SPEC = resolve_spec("ext04")
HONEST_COUNTS = grid_axis(SPEC, "honest_chargers")
SEEDS = grid_axis(SPEC, "seed")


def run_experiment():
    result = run_campaign(SPEC, executor=bench_executor())
    exhaust_cells = [
        result.values("exhausted_key_ratio", honest_chargers=h)
        for h in HONEST_COUNTS
    ]
    detect_cells = [
        [float(v) for v in result.values("detected", honest_chargers=h)]
        for h in HONEST_COUNTS
    ]
    spoof_cells = [
        result.values("spoof_services", honest_chargers=h) for h in HONEST_COUNTS
    ]
    return exhaust_cells, detect_cells, spoof_cells


def bench_ext04_fleet(benchmark):
    exhaust_cells, detect_cells, spoof_cells = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    avg = lambda c: sum(c) / len(c)
    table = series_table(
        "honest_co_chargers",
        HONEST_COUNTS,
        {
            "exhausted_ratio": [f"{avg(c):.2f}" for c in exhaust_cells],
            "detection_rate": [f"{avg(c):.2f}" for c in detect_cells],
            "spoofs": [f"{avg(c):.1f}" for c in spoof_cells],
        },
        title=(
            "EXT-04: CSA vs honest fleet redundancy "
            f"({len(SEEDS)} seeds per point)"
        ),
    )
    emit("ext04_fleet", table)
    emit_json(
        "ext04_fleet",
        series_sidecar(
            "honest_co_chargers",
            HONEST_COUNTS,
            {
                "exhausted_ratio": exhaust_cells,
                "detection_rate": detect_cells,
                "spoofs": spoof_cells,
            },
        ),
    )

    # Solo matches the headline experiment.
    assert avg(exhaust_cells[0]) >= 0.8
    # Redundancy blunts (never amplifies) the attack...
    assert avg(exhaust_cells[-1]) <= avg(exhaust_cells[0]) + 1e-9
    # ...and the attacker still does real damage against one co-charger.
    assert avg(exhaust_cells[1]) >= 0.3
