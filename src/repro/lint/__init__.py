"""reprolint — domain-aware static analysis for the reproduction.

An AST-based lint engine with rule packs tailored to this codebase:

* **determinism** (``RL-D...``): no legacy global-state RNG, no unseeded
  generators, no wall-clock seeding, seed plumbing through
  :func:`repro.utils.rng.coerce_rng`, and cross-module RNG-taint rules
  (raw Generators crossing module boundaries, unvalidated external
  seeds);
* **physics / unit-safety** (``RL-P...``): no float equality in the
  physical layers, no dBm/watt arithmetic mixing (suffix-level and
  inferred across assignments/call boundaries), validated numeric
  constructor parameters;
* **API hygiene** (``RL-H...``): no mutable defaults, no bare ``except``,
  ``__all__`` in public modules (and only real, consumed names in it),
  no builtin shadowing in signatures, no top-level import cycles.

* **concurrency / resource safety** (``RL-C...``): sqlite connections
  crossing threads, unguarded shared writes, non-reentrant calls in
  signal handlers, CFG may-leak of handles/connections/sockets, and
  thread-join / ``acquire``-``try/finally`` discipline — built on a
  project-wide call graph with thread/signal/process entry-point
  reachability (:mod:`repro.lint.callgraph`) and per-function CFGs
  (:mod:`repro.lint.cfg`).

Per-file rules see one module; *project* rules (:mod:`repro.lint.flow`,
:mod:`repro.lint.rules.concurrency`)
see the whole tree through :class:`repro.lint.project.ProjectModel`.
Run it as ``python -m repro lint [paths]`` or programmatically via
:func:`lint_paths` / :func:`lint_source` / :func:`lint_sources`.
Findings on a line carrying a ``# reprolint: disable=RL-XXXX`` comment —
any physical line of the offending statement — are suppressed.

Production niceties: a content-addressed per-file result cache
(:mod:`repro.lint.cache`) and a SARIF 2.1.0 renderer for code scanning.
The source tree is held to zero findings: there is no baseline of
tolerated debt.
"""

from repro.lint.cache import LintCache
from repro.lint.callgraph import CallGraph, EntryPoint, conflict
from repro.lint.cfg import CFG, CFGNode, build_cfg
from repro.lint.engine import LintEngine, lint_paths, lint_source, lint_sources
from repro.lint.findings import Finding
from repro.lint.flow import (
    CrossModuleUnitMix,
    ExportSurfaceIntegrity,
    ExternalSeedTaint,
    NoImportCycles,
    RawGeneratorCrossesModules,
)
from repro.lint.project import ProjectModel
from repro.lint.registry import (
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    get_rule,
    register,
    register_project,
)
from repro.lint.reporting import (
    render_json,
    render_sarif,
    render_statistics,
    render_text,
)

__all__ = [
    "CFG",
    "CFGNode",
    "CallGraph",
    "CrossModuleUnitMix",
    "EntryPoint",
    "ExportSurfaceIntegrity",
    "ExternalSeedTaint",
    "Finding",
    "LintCache",
    "LintEngine",
    "NoImportCycles",
    "ProjectModel",
    "ProjectRule",
    "RawGeneratorCrossesModules",
    "Rule",
    "all_project_rules",
    "all_rules",
    "build_cfg",
    "conflict",
    "get_rule",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
    "register_project",
    "render_json",
    "render_sarif",
    "render_statistics",
    "render_text",
]
