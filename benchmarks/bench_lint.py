"""LINT — reprolint engine throughput: cold serial vs warm cache.

Times the full lint of ``src/repro`` two ways and persists the series
in ``BENCH_lint.json``:

* **cold serial** — no cache: the reference every other mode is
  compared against;
* **warm cached** — every per-file result served from the
  content-addressed cache, so only cache lookups and the cross-module
  project passes run.

The warm-cache run must beat the cold serial run (``_SPEEDUP_FLOOR``)
and agree with it finding-for-finding, so the speed never comes at the
cost of a dropped diagnostic.

A third timing runs the registry *minus* the concurrency pack
(RL-C001..C005): the call-graph + CFG layers must not inflate a cold
run beyond ``_PACK_OVERHEAD_CEILING`` of the pack-free time.  A fourth
does the same for the array-semantics pack (RL-N001): a syntactic check
riding the engine's one AST walk, so it too must stay within the
ceiling.
"""

import pathlib
import time

import pytest
from _common import emit, emit_json

from repro.analysis.tables import format_table
from repro.lint import LintCache, LintEngine
from repro.lint.registry import ruleset_signature

SRC_TREE = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: Required cold-serial / warm-cache speedup.  The warm path skips every
#: per-file AST walk, so the cold per-file cost disappears and only the
#: (uncacheable) project passes re-run; the floor leaves headroom for
#: scheduler noise on shared runners.
_SPEEDUP_FLOOR = 1.3

#: Maximum cold-serial slowdown an analysis pack (concurrency RL-C,
#: array semantics RL-N) may cost relative to the same registry without
#: it.  The call graph, CFGs, and the narrow-dtype check are linear
#: passes over ASTs the engine parses anyway, so each must stay a
#: fraction of total lint time, not a multiple of it.
_PACK_OVERHEAD_CEILING = 1.5

#: Timed repetitions per mode; the minimum is reported to damp scheduler
#: noise on shared CI runners.
_ROUNDS = 3

_RESULTS: dict[str, float] = {}


def _time_modes(modes):
    """Best-of-``_ROUNDS`` wall time and the findings of each mode.

    ``modes`` maps a name to ``(engine, cache)``.  The modes run
    interleaved within each round, so a slow spell on a shared host
    lands on every mode alike instead of on whichever mode it overlaps.
    """
    best = dict.fromkeys(modes, float("inf"))
    findings = {}
    for _ in range(_ROUNDS):
        for name, (engine, cache) in modes.items():
            start = time.perf_counter()
            findings[name] = engine.lint_paths([SRC_TREE], cache=cache)
            best[name] = min(best[name], time.perf_counter() - start)
    return best, findings


def _engine_without_pack(prefix):
    from repro.lint.registry import all_project_rules, all_rules

    return LintEngine(
        rules=[c for c in all_rules() if not c.rule_id.startswith(prefix)],
        project_rules=[
            c for c in all_project_rules()
            if not c.rule_id.startswith(prefix)
        ],
    )


def bench_lint_modes(tmp_path, benchmark):
    warm_cache = LintCache(tmp_path / "warm", ruleset_signature())
    LintEngine().lint_paths([SRC_TREE], cache=warm_cache)  # populate
    seconds, findings = _time_modes(
        {
            "cold serial": (LintEngine(), None),
            "warm cached": (LintEngine(), warm_cache),
            "cold serial (no RL-C pack)": (_engine_without_pack("RL-C"), None),
            "cold serial (no RL-N pack)": (_engine_without_pack("RL-N"), None),
        }
    )
    assert warm_cache.hits > 0

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    serial_findings = findings["cold serial"]
    as_rows = lambda fs: [f.format() for f in fs]  # noqa: E731
    assert as_rows(findings["warm cached"]) == as_rows(serial_findings)

    _RESULTS.update(seconds)
    serial_s = seconds["cold serial"]
    warm_s = seconds["warm cached"]
    no_c_s = seconds["cold serial (no RL-C pack)"]
    no_n_s = seconds["cold serial (no RL-N pack)"]

    speedup = serial_s / warm_s
    assert speedup >= _SPEEDUP_FLOOR, (
        f"warm-cache lint only {speedup:.2f}x faster than cold serial, "
        f"below the {_SPEEDUP_FLOOR:.1f}x floor"
    )

    concurrency_overhead = serial_s / no_c_s
    assert concurrency_overhead <= _PACK_OVERHEAD_CEILING, (
        f"concurrency pack costs {concurrency_overhead:.2f}x of a "
        f"pack-free cold run, above the {_PACK_OVERHEAD_CEILING:.1f}x "
        "ceiling"
    )

    numerics_overhead = serial_s / no_n_s
    assert numerics_overhead <= _PACK_OVERHEAD_CEILING, (
        f"array-semantics pack costs {numerics_overhead:.2f}x of a "
        f"pack-free cold run, above the {_PACK_OVERHEAD_CEILING:.1f}x "
        "ceiling"
    )

    rows = [
        [mode, f"{seconds * 1e3:.1f}", f"{serial_s / seconds:.2f}x"]
        for mode, seconds in _RESULTS.items()
    ]
    emit(
        "lint",
        format_table(
            ["mode", "time (ms)", "speedup"],
            rows,
            title=(
                f"reprolint over src/repro ({len(serial_findings)} findings, "
                f"best of {_ROUNDS})"
            ),
        ),
    )
    emit_json(
        "lint",
        {
            "modes": {mode: seconds for mode, seconds in _RESULTS.items()},
            "rounds": _ROUNDS,
            "speedup_warm_vs_cold_serial": speedup,
            "speedup_floor": _SPEEDUP_FLOOR,
            "concurrency_pack_overhead": concurrency_overhead,
            "numerics_pack_overhead": numerics_overhead,
            "pack_overhead_ceiling": _PACK_OVERHEAD_CEILING,
            "findings": len(serial_findings),
        },
    )


if __name__ == "__main__":
    pytest.main([__file__, "--benchmark-only"])
