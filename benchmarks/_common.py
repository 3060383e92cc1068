"""Shared plumbing for the benchmark suite.

Each ``bench_expNN_*.py`` regenerates one of the paper's tables or
figures (see DESIGN.md §5): it sweeps the figure's x-axis, runs the
relevant pipeline across seeds, prints the same rows/series the paper
reports, and persists them under ``benchmarks/results/``.  Timing runs
through pytest-benchmark so ``pytest benchmarks/ --benchmark-only``
exercises everything.

The shared trial kernel (:func:`repro.sim.runner.run_attack`) and the
benchmark scenario (:data:`repro.campaign.experiments.BENCH_CONFIG`)
live in the library so campaign worker processes can import them; this
module re-exports them for the benchmark scripts.  Campaign-backed
experiments (exp03/exp04/exp07/ext04) resolve their built-in spec
by name, read its axes back with :func:`grid_axis`, and run through
:func:`repro.campaign.run_campaign` — ``bench_executor`` picks the
process-pool executor unless ``REPRO_BENCH_SERIAL=1``.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.analysis.aggregate import mean_ci
from repro.campaign.executor import ParallelExecutor, SerialExecutor
from repro.campaign.experiments import BENCH_CONFIG
from repro.sim.runner import run_attack

__all__ = [
    "BENCH_CONFIG",
    "CONTROLLER_LABELS",
    "RESULTS_DIR",
    "bench_executor",
    "emit",
    "emit_json",
    "grid_axis",
    "mean_ratio",
    "run_attack",
    "series_sidecar",
]

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Table labels for catalogue controller names (the paper's names).
CONTROLLER_LABELS = {
    "csa": "CSA",
    "csa-no-windows": "CSA-no-windows",
    "blatant": "Blatant",
    "greedy-weight": "Greedy-Weight",
    "nearest-first": "Nearest-First",
    "random": "Random",
}


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict) -> None:
    """Persist machine-readable series data as ``BENCH_<name>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def series_sidecar(x_name, x_values, cells_by_series) -> dict:
    """JSON sidecar payload: raw per-seed cells plus mean±CI per point."""
    series = {}
    for series_name, cells in cells_by_series.items():
        stats = [mean_ci(list(cell)) for cell in cells]
        series[series_name] = {
            "cells": [[float(v) for v in cell] for cell in cells],
            "mean": [s.mean for s in stats],
            "ci_half_width": [s.ci_half_width for s in stats],
        }
    return {"x": {"name": x_name, "values": list(x_values)}, "series": series}


def bench_executor():
    """The campaign executor benchmarks use (parallel unless overridden)."""
    if os.environ.get("REPRO_BENCH_SERIAL"):
        return SerialExecutor()
    return ParallelExecutor()


def grid_axis(spec, name: str) -> list:
    """One axis of a campaign grid: its distinct values, in grid order."""
    return list(dict.fromkeys(point[name] for point in spec.grid))


def mean_ratio(values) -> str:
    """Format a list of ratios as mean ± CI."""
    stats = mean_ci(list(values))
    return f"{stats.mean:.2f}±{stats.ci_half_width:.2f}"
