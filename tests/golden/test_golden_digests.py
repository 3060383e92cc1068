"""Golden digests: pinned full-trace sha256 + outcome per controller and
per registry scenario.

Each case runs one small simulation (N=40, 42 days) and compares a
sha256 over every trace record (floats exact, as hex) plus the run's
outcome — deaths, exhausted key-node ratio, alarms — against
``digests.json``.  Controller cases run each catalogue controller at
seed 1 with no detectors; scenario cases run every registry scenario at
seeds 1 and 2 with its own detectors, audit interval and twin, so they
pin the detection and twin paths too.  A refactor that claims to
preserve behaviour must leave every digest untouched; update a digest
only in a change that says why.

Regenerate with ``PYTHONPATH=src python tests/golden/test_golden_digests.py``.
"""

from __future__ import annotations

import enum
import hashlib
import json
import pathlib
from dataclasses import fields
from typing import Any

import pytest

from repro.campaign.experiments import BENCH_CONFIG
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import build_controller
from repro.sim.runner import run_attack
from repro.sim.wrsn_sim import SimulationResult

DIGESTS = pathlib.Path(__file__).with_name("digests.json")

#: 42 days (the bench horizon): at 20 or 30 days two controllers' traces
#: still coincide, so their digests would not tell them apart.
CFG = BENCH_CONFIG.with_(node_count=40)
SEED = 1

#: Case name -> (catalogue controller, honest co-chargers).
CASES = {
    "benign": ("benign", 0),
    "csa": ("csa", 0),
    "blatant": ("blatant", 0),
    "command-spoof": ("command-spoof", 0),
    "csa-no-windows": ("csa-no-windows", 0),
    "greedy-weight": ("greedy-weight", 0),
    "nearest-first": ("nearest-first", 0),
    "random": ("random", 0),
    "csa+2-honest": ("csa", 2),
}

#: Case name -> (registry scenario, seed).
SCENARIO_CASES = {
    f"scenario:{name}@{seed}": (name, seed)
    for name in scenario_names()
    for seed in (1, 2)
}


def _run(controller: str, honest: int) -> SimulationResult:
    cfg = CFG.with_(honest_chargers=honest)
    return run_attack(
        cfg, SEED, controller=build_controller(controller, cfg.key_count, SEED)
    )


def _run_scenario(name: str, seed: int) -> SimulationResult:
    """Run one registry scenario the way perfbench's run kernel does."""
    spec = get_scenario(name)
    cfg = spec.resolve_config(CFG)
    return run_attack(
        cfg,
        seed,
        controller=spec.build_controller(cfg, seed),
        detectors=spec.detectors,
        audit_interval_s=spec.audit_interval_s,
        twin=spec.twin,
    )


def _run_case(case: str) -> SimulationResult:
    if case in SCENARIO_CASES:
        return _run_scenario(*SCENARIO_CASES[case])
    return _run(*CASES[case])


def _canon(value: Any) -> str:
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, float):
        return value.hex()
    return repr(value.item() if hasattr(value, "item") else value)


def _digest(result: SimulationResult) -> dict[str, Any]:
    h = hashlib.sha256()
    for event in result.trace:
        parts = (f"{f.name}={_canon(getattr(event, f.name))}" for f in fields(event))
        h.update((type(event).__name__ + "(" + ",".join(parts) + ")\n").encode())
    return {
        "trace_sha256": h.hexdigest(),
        "deaths": len(result.trace.deaths()),
        "exhausted_key_ratio": result.exhausted_key_ratio().hex(),
        "alarms": len(result.detections),
    }


@pytest.fixture(scope="module")
def pinned() -> dict[str, Any]:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("case", sorted([*CASES, *SCENARIO_CASES]))
def test_golden_digest(case: str, pinned: dict[str, Any]) -> None:
    assert _digest(_run_case(case)) == pinned[case]


def test_every_case_is_pinned(pinned: dict[str, Any]) -> None:
    assert set(pinned) == {*CASES, *SCENARIO_CASES}


if __name__ == "__main__":
    cases = sorted([*CASES, *SCENARIO_CASES])
    payload = {case: _digest(_run_case(case)) for case in cases}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} digests to {DIGESTS}")
