"""Workload definitions, the per-run kernel and its output checks.

A workload is a list of registry scenarios at one scale.  The benchmark's
``--seed`` picks the simulation seeds (unless the workload pins them), so
the program only ever sees the generated
:class:`~repro.sim.scenario.ScenarioConfig` and seed; every run goes
through the public :func:`repro.sim.runner.run_attack` kernel.

Each run is checked:

* its trace and outcome must be self-consistent (deaths, alarms, horizon);
* a run repeated in the same process must reproduce its digest exactly;
* the untimed warm-up runs, and every run at the default seed, must equal
  the digests and outcomes checked in beside this file
  (``references.json``).
"""

from __future__ import annotations

import enum
import gc
import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.campaign.experiments import BENCH_CONFIG
from repro.scenarios.registry import get_scenario
from repro.scenarios.trials import DEFAULT_MATRIX
from repro.sim.runner import run_attack
from repro.sim.scenario import ScenarioConfig
from repro.sim.wrsn_sim import SimulationResult

REFERENCES = Path(__file__).with_name("references.json")

#: The seed whose digests are pinned in ``references.json``.
DEFAULT_SEED = 1

#: Scale of the untimed warm-up runs (one per scenario of a workload), at
#: the default node density.  Their digests are pinned too, so every run
#: checks the program against a reference whatever its ``--seed``.
WARMUP_OVERRIDES: Mapping[str, Any] = {
    "node_count": 40,
    "field_width_m": 45.0,
    "field_height_m": 45.0,
    "horizon_days": 20.0,
}
WARMUP_SEED = 7


@dataclass(frozen=True)
class Run:
    """One simulation: a registry scenario, its config overrides, a seed."""

    scenario: str
    seed: int
    overrides: tuple[tuple[str, Any], ...] = ()

    def config(self) -> ScenarioConfig:
        spec = get_scenario(self.scenario)
        return spec.resolve_config(BENCH_CONFIG).with_(**dict(self.overrides))

    @property
    def label(self) -> str:
        return f"{self.scenario}@{self.seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple[str, ...]
    overrides: Mapping[str, Any]
    seed_count: int
    pinned_seed: int | None = None

    def seed_for(self, seed: int) -> int:
        """The base simulation seed ``--seed`` selects."""
        return seed if self.pinned_seed is None else self.pinned_seed

    def runs(self, seed: int) -> list[Run]:
        """The workload's runs, scenario-major, for ``--seed`` ``seed``."""
        items = tuple(sorted(self.overrides.items()))
        base = self.seed_for(seed)
        return [
            Run(name, base + k, items)
            for name in self.scenarios
            for k in range(self.seed_count)
        ]

    def warmup_runs(self) -> list[Run]:
        items = tuple(sorted({**self.overrides, **WARMUP_OVERRIDES}.items()))
        return [Run(name, WARMUP_SEED, items) for name in self.scenarios]


# The 316 m field keeps the default node density (200 nodes per 100 m x
# 100 m) at N = 2 000.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="matrix-n200",
            why=(
                "the paper-shape EXP-13 sweep users run: all 7 registry "
                "scenarios x 3 seeds at N=200, 42 days; planner, key-node and "
                "set-up changes show here"
            ),
            scenarios=DEFAULT_MATRIX,
            overrides={"node_count": 200},
            seed_count=3,
        ),
        Workload(
            name="churn-n2000",
            why=(
                "csa-baseline, N=2000, 316 m field, 42 days, seed pinned to 1 "
                "as cost tracks deaths (142-284 over seeds 1-3); each of the "
                "142 deaths rebuilds routing, most of the run"
            ),
            scenarios=("csa-baseline",),
            overrides={
                "node_count": 2000,
                "field_width_m": 316.0,
                "field_height_m": 316.0,
            },
            seed_count=1,
            pinned_seed=DEFAULT_SEED,
        ),
        Workload(
            name="fpr-longrun-n200",
            why=(
                "benign-on-demand, N=200, 365 days x 3 seeds: no deaths, so "
                "routing is built once and ledger, heap and twin carry it; "
                "the bypass for routing changes"
            ),
            scenarios=("benign-on-demand",),
            overrides={"node_count": 200, "horizon_days": 365.0},
            seed_count=3,
        ),
    )
}


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def _canon(value: Any) -> str:
    """A stable text form of one trace field (floats exact, as hex)."""
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, float):
        return value.hex()
    return repr(value.item() if hasattr(value, "item") else value)


def _record(event: Any) -> str:
    parts = (f"{f.name}={_canon(getattr(event, f.name))}" for f in fields(event))
    return type(event).__name__ + "(" + ",".join(parts) + ")"


def trace_digest(result: SimulationResult) -> str:
    """sha256 over every trace record, in order."""
    h = hashlib.sha256()
    for event in result.trace:
        h.update(_record(event).encode())
        h.update(b"\n")
    return h.hexdigest()


def outcome(result: SimulationResult) -> list[Any]:
    """The run's outcome tuple: deaths, exhausted-key ratio, alarms."""
    return [
        len(result.trace.deaths()),
        result.exhausted_key_ratio(),
        len(result.detections),
    ]


def consistency_errors(result: SimulationResult, cfg: ScenarioConfig) -> list[str]:
    """Checks a run must pass whatever its seed."""
    errors = []
    deaths = len(result.trace.deaths())
    dead = len(result.network.dead_ids())
    if deaths != dead:
        errors.append(f"trace has {deaths} deaths but {dead} nodes are dead")
    alarms = len(result.trace.detections())
    if alarms != len(result.detections):
        errors.append(f"trace has {alarms} alarms, result {len(result.detections)}")
    if result.ended_at != cfg.horizon_s:
        errors.append(f"run ended at {result.ended_at}, horizon {cfg.horizon_s}")
    if len(result.network.nodes) != cfg.node_count:
        errors.append("node count changed during the run")
    return errors


# ----------------------------------------------------------------------
# Execution and bookkeeping
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    run: Run
    wall_s: float
    node_days: float
    digest: str
    outcome: list[Any]
    trace_events: int


@dataclass
class Ledger:
    """Counts attempted and failed runs; keeps each failure's reason."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed_runs: int = 0
    digests: dict[Run, str] = field(default_factory=dict)

    def fail(self, run: Run | None, reason: str) -> None:
        self.failed_runs += 1
        label = run.label if run is not None else "-"
        self.problems.append(f"{label}: {reason}")

    def execute(
        self, run: Run, after: Callable[[], None] | None = None
    ) -> RunRecord | None:
        """Run one simulation; time only the ``run_attack`` call.

        A run that raises or fails a check is counted as failed and
        yields ``None``.  A digest differing from an earlier run of the
        same :class:`Run` in this process is a failure too.
        """
        self.attempted += 1
        cfg = run.config()
        spec = get_scenario(run.scenario)
        controller = spec.build_controller(cfg, run.seed)
        gc.collect()
        try:
            start = time.perf_counter()
            result = run_attack(
                cfg,
                run.seed,
                controller=controller,
                detectors=spec.detectors,
                audit_interval_s=spec.audit_interval_s,
                twin=spec.twin,
            )
            wall = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - every failure is counted and reported
            self.fail(run, "raised " + traceback.format_exc())
            return None
        finally:
            if after is not None:
                after()
        errors = consistency_errors(result, cfg)
        digest = trace_digest(result)
        seen = self.digests.setdefault(run, digest)
        if seen != digest:
            errors.append(f"digest {digest[:12]} differs from earlier {seen[:12]}")
        if errors:
            self.fail(run, "; ".join(errors))
            return None
        return RunRecord(
            run=run,
            wall_s=wall,
            node_days=cfg.node_count * result.ended_at / 86_400.0,
            digest=digest,
            outcome=outcome(result),
            trace_events=len(result.trace),
        )

    def check_references(
        self, key: str, records: list[RunRecord], references: Mapping[str, Any]
    ) -> None:
        """Compare records with ``references[key]``; mismatches fail."""
        expected = {(e["scenario"], e["seed"]): e for e in references.get(key, [])}
        if not expected:
            self.fail(None, f"no references recorded for {key!r}")
            return
        for record in records:
            ref = expected.get((record.run.scenario, record.run.seed))
            if ref is None:
                self.fail(record.run, f"no reference in {key!r}")
            elif ref["digest"] != record.digest or ref["outcome"] != record.outcome:
                self.fail(
                    record.run,
                    f"output differs from reference {key!r}: digest "
                    f"{record.digest[:12]} vs {ref['digest'][:12]}, outcome "
                    f"{record.outcome} vs {ref['outcome']}",
                )


def reference_entries(records: list[RunRecord]) -> list[dict[str, Any]]:
    return [
        {
            "scenario": r.run.scenario,
            "seed": r.run.seed,
            "digest": r.digest,
            "outcome": r.outcome,
        }
        for r in records
    ]


def load_references() -> dict[str, Any]:
    return json.loads(REFERENCES.read_text())
