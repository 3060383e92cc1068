"""Whole-campaign benchmark: simulated node-days per second.

Drives registry scenarios through :func:`repro.sim.runner.run_attack`,
back to back, from one process with one thread (a closed loop with one
client).  Run from the repository root::

    python3 perfbench/run.py --workload matrix-n200 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table

``--trace 0`` reports the end-to-end metrics (``node_days_per_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of :mod:`layers`.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-references`` reruns the default seed of every workload and the
warm-up runs, and rewrites ``references.json``.
"""

from __future__ import annotations

import os

# One thread: pin the numeric libraries before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"node_days_per_s": "node-days/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Set-up is timed in windows spread over the run, at least this many
#: builds and this long each, one every ``SETUP_EVERY_S`` at most: one
#: window can fall in one of the host's slow spells, most will not.
SETUP_WINDOW_BUILDS = 4
SETUP_WINDOW_S = 0.25
SETUP_EVERY_S = 5.0


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(runs: list, samples: list[float]) -> None:
    """One window of ``ScenarioConfig.build_network(seed)`` timings."""
    count, spent = 0, 0.0
    while count < SETUP_WINDOW_BUILDS or spent < SETUP_WINDOW_S:
        run = runs[len(samples) % len(runs)]
        cfg = run.config()
        start = time.perf_counter()
        cfg.build_network(seed=run.seed)
        samples.append(time.perf_counter() - start)
        count, spent = count + 1, spent + samples[-1]


def _room_for_another(start: float, passes: int, seconds: float) -> bool:
    """Whether one more pass, at the mean pass time so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def run_pass(ledger, runs: list, after=None) -> list:
    """Every run of the workload once; failed runs are left out."""
    records = [ledger.execute(run, after=after) for run in runs]
    return [r for r in records if r is not None]


def throughput(passes: list[list]) -> float:
    """Node-days over the summed wall-clock of the ``run_attack`` calls.

    Each run's wall-clock is its median over the passes.  The host's
    slow spells last about a second, shorter than most runs' repeats, so
    the median drops them where a mean over the whole run would not.
    """
    walls: dict = {}
    node_days: dict = {}
    for records in passes:
        for r in records:
            walls.setdefault(r.run, []).append(r.wall_s)
            node_days[r.run] = r.node_days
    wall = sum(statistics.median(w) for w in walls.values())
    return sum(node_days.values()) / wall if wall else 0.0


def end_to_end(ledger, runs: list, seconds: float) -> tuple[dict, list]:
    """Untraced passes back to back, with set-up timed between them."""
    setup: list[float] = []
    time_setup(runs, setup)
    start = last_setup = time.perf_counter()
    passes: list[list] = []
    while not passes or _room_for_another(start, len(passes), seconds):
        passes.append(run_pass(ledger, runs))
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            time_setup(runs, setup)
            last_setup = time.perf_counter()
    time_setup(runs, setup)
    rates = " ".join(f"{throughput([p]):.1f}" for p in passes)
    print(f"passes node_days_per_s {rates}")
    values = {
        "node_days_per_s": throughput(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, passes[0]


def per_layer(ledger, runs: list, seconds: float) -> tuple[dict, list]:
    """Pairs of an untraced and a traced pass; layer metrics per pass."""
    from layers import LAYERS, METRIC_UNITS, Tracer

    tracer = Tracer()
    pairs, plain_s, traced_s = 0, 0.0, 0.0
    first_pass: list = []
    start = time.perf_counter()
    while not pairs or _room_for_another(start, pairs, seconds):
        plain = run_pass(ledger, runs)
        first_pass = first_pass or plain
        # A traced run whose digest differs from the untraced one fails
        # the ledger's repeat check: tracing must not perturb the run.
        with tracer:
            traced = run_pass(ledger, runs, after=tracer.end_run)
        for record in traced:
            tracer.add_result(record.wall_s, record.trace_events)
        pairs += 1
        plain_s += sum(r.wall_s for r in plain)
        traced_s += sum(r.wall_s for r in traced)
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    values = tracer.metrics(pairs, overhead)
    for layer in LAYERS:
        share = values[f"{layer.name}.share"]
        print(f"layer {layer.name} share {share:.3f}; should move {layer.moves}")
    return {k: {"value": v, "unit": METRIC_UNITS[k]} for k, v in values.items()}, first_pass


def measure(workload, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    from workloads import DEFAULT_SEED, Ledger

    ledger = Ledger()
    runs = workload.runs(seed)
    key = workload.name

    # Untimed warm-up: imports and lazy set-up stay out of the first
    # timed run, and its digests are checked whatever the seed.
    warm = run_pass(ledger, workload.warmup_runs())
    ledger.check_references(f"warmup/{key}", warm, references)

    metrics, first_pass = (per_layer if trace else end_to_end)(ledger, runs, seconds)

    for record in first_pass:
        print(f"digest {key} {record.run.label} {record.digest} outcome {record.outcome}")
    if workload.seed_for(seed) == DEFAULT_SEED:
        ledger.check_references(key, first_pass, references)
    for problem in ledger.problems:
        print(f"FAILED {key}: {problem}")
    return {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed_runs,
        "metrics": metrics,
    }


def write_references() -> None:
    from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS, Ledger, reference_entries

    references: dict[str, list] = {}
    for name, workload in WORKLOADS.items():
        ledger = Ledger()
        for key, runs in (
            (f"warmup/{name}", workload.warmup_runs()),
            (name, workload.runs(DEFAULT_SEED)),
        ):
            records = run_pass(ledger, runs)
            if ledger.problems:
                sys.exit("\n".join(ledger.problems))
            references[key] = reference_entries(records)
            print(f"{key}: {len(records)} runs", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Each workload in its own process, so peak memory does not leak across."""
    results, status = {}, 0
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        results[name] = result = json.loads(lines[-1])
        failed_frac = result["failed"] / result["attempted"]
        print(f"{name}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
        print(f"  {'failed_frac':34s} {failed_frac:14.6g} fraction")
        status |= 0 if result["correct"] else 1
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, load_references

    if args.write_references:
        write_references()
        return 0
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or 'all'")
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), load_references()
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
