"""Tests of the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS, Ledger, Run, RunRecord  # noqa: E402

#: N=20 for 2 days at the default node density.
TINY = Run(
    "csa-baseline",
    3,
    (("field_height_m", 32.0), ("field_width_m", 32.0), ("horizon_days", 2.0), ("node_count", 20)),
)


def _class_namespaces() -> dict[tuple[type, str], object]:
    """Every (class, attribute) the tracer may touch, with its current value."""
    roots = [
        layers.Network, layers.SensorNode, layers.Deployment, layers.EventQueue,
        layers.WrsnSimulation, layers.SimStreamPublisher, layers.MissionController,
        layers.Planner, layers.CsaPlanner, layers.Detector,
    ]
    seen = {}
    for root in roots:
        for cls in layers._subclasses(root):
            for name, value in vars(cls).items():
                seen[(cls, name)] = value
    return seen


def test_restore_puts_back_every_original_function():
    before = _class_namespaces()
    tracer = layers.Tracer().install()
    try:
        assert layers.Network.__dict__["recompute_consumption"] is not before[
            (layers.Network, "recompute_consumption")
        ]
        assert len(tracer._saved) > 10
    finally:
        tracer.restore()
    assert _class_namespaces() == before
    assert all(value is before[key] for key, value in _class_namespaces().items())


def test_install_twice_is_refused():
    with layers.Tracer() as tracer:
        with pytest.raises(RuntimeError):
            tracer.install()


def test_self_time_excludes_nested_spans_and_reentry():
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))
    outer, inner = tracer.stats["attack.controller"], tracer.stats["core.planner"]

    def plan(_self):
        return "plan"

    nested = tracer._span(lambda _s: inner, plan)

    def decide(_self, depth=0):
        if depth == 0:
            return reentered(_self, 1)  # same layer again: no second span
        return nested(_self)

    reentered = tracer._span(lambda _s: outer, decide)
    assert reentered(object()) == "plan"
    # Clock reads: outer start 0, inner start 1, inner end 2, outer end 3.
    assert (outer.calls, outer.busy, outer.self_) == (1, 3.0, 2.0)
    assert (inner.calls, inner.busy, inner.self_) == (1, 1.0, 1.0)


def test_stale_pop_identity_holds():
    ledger = Ledger()
    with layers.Tracer() as tracer:
        record = ledger.execute(TINY, after=tracer.end_run)
    assert record is not None and not ledger.problems
    assert tracer.pushes > tracer.live_pops > 0
    stale = tracer.pushes - tracer.live_pops - tracer.left_in_queue
    assert stale == tracer.stale_pops_seen
    assert tracer.stale_frac() == stale / tracer.pushes
    assert list(tracer.metrics(passes=1, overhead_frac=0.0)) == list(layers.METRIC_UNITS)


def test_digest_is_stable_across_runs_and_tracing():
    ledger = Ledger()
    first = ledger.execute(TINY)
    second = ledger.execute(TINY)
    with layers.Tracer() as tracer:
        traced = ledger.execute(TINY, after=tracer.end_run)
    assert first and second and traced
    assert first.digest == second.digest == traced.digest
    assert first.outcome == second.outcome
    assert (ledger.attempted, ledger.failed_runs) == (3, 0)


def test_injected_digest_mismatch_counts_as_failure():
    ledger = Ledger()
    record = ledger.execute(TINY)
    good = {"scenario": TINY.scenario, "seed": TINY.seed,
            "digest": record.digest, "outcome": record.outcome}
    ledger.check_references("tiny", [record], {"tiny": [good]})
    assert ledger.failed_runs == 0

    ledger.check_references("tiny", [record], {"tiny": [{**good, "digest": "0" * 64}]})
    assert ledger.failed_runs == 1 and "differs from reference" in ledger.problems[0]

    ledger.digests[TINY] = "f" * 64  # an earlier run "produced" another trace
    assert ledger.execute(TINY) is None
    assert ledger.failed_runs == 2 and ledger.attempted == 2


def test_throughput_takes_each_runs_median_wall_clock():
    def record(run, wall):
        return RunRecord(run, wall, node_days=100.0, digest="", outcome=[], trace_events=0)

    a, b = Run("benign", 1), Run("benign", 2)
    passes = [[record(a, 1.0), record(b, 2.0)],
              [record(a, 9.0), record(b, 2.2)],  # a slow spell hit run a
              [record(a, 1.2), record(b, 1.8)]]
    assert bench.throughput(passes) == pytest.approx(200.0 / (1.2 + 2.0))
    assert bench.throughput(passes[:1]) == pytest.approx(200.0 / 3.0)


def test_benchmark_json_names_match_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRIC_UNITS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-n200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
