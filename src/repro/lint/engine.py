"""The reprolint engine: per-file AST walks plus whole-project passes.

Per file, the engine parses the module, tokenizes it once to collect
``# reprolint: disable=...`` suppression comments, then performs a single
:class:`ast.NodeVisitor` pass.  At each node it first updates the shared
:class:`ModuleContext` bookkeeping (import aliases, lexical scope stack)
and then dispatches the node to every registered rule subscribed to that
node type.

Across files, the engine builds one :class:`~repro.lint.project.ProjectModel`
and runs the registered :class:`~repro.lint.registry.ProjectRule` passes
(:mod:`repro.lint.flow`) over it, so violations spanning import and call
boundaries are caught too.  Findings landing on a suppressed line — any
physical line of the offending statement may carry the comment — are
dropped at collection time, so reporters never see them.

The per-file pass is content-addressed: ``lint_paths``/``lint_files``
accept a :class:`~repro.lint.cache.LintCache` that skips the walk for
unchanged files.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path, PurePosixPath
from time import perf_counter
from typing import Iterable, Sequence

from repro.lint.findings import Finding, sort_findings
from repro.lint.registry import (
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
)

__all__ = [
    "LintEngine",
    "ModuleContext",
    "collect_suppressions",
    "lint_paths",
    "lint_source",
    "lint_sources",
]

#: Pseudo rule id used for files that fail to parse.
PARSE_ERROR_ID = "RL-E001"

_SUPPRESS_PATTERN = re.compile(
    r"#\s*reprolint:\s*"
    r"(?:disable(?P<next>-next)?=(?P<ids>[A-Za-z0-9_,\- ]+)"
    r"|ignore(?P<bracket_next>-next)?\[(?P<bracket_ids>[A-Za-z0-9_,\- ]+)\])"
)

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


def collect_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed on that line.

    ``# reprolint: disable=RL-XXXX[,RL-YYYY]`` and its bracketed alias
    ``# reprolint: ignore[RL-XXXX,RL-YYYY]`` suppress on the comment's
    own line; ``disable-next=`` / ``ignore-next[...]`` suppress on the
    following line (for statements too long to carry a trailing
    comment).  The special token ``all`` suppresses every rule.
    Comments are found with :mod:`tokenize`, so a ``#`` inside a string
    literal is never mistaken for a suppression.
    """
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_PATTERN.search(tok.string)
            if match is None:
                continue
            raw_ids = match.group("ids") or match.group("bracket_ids")
            ids = {
                part.strip()
                for part in raw_ids.split(",")
                if part.strip()
            }
            if ids:
                is_next = bool(
                    match.group("next") or match.group("bracket_next")
                )
                line = tok.start[0] + (1 if is_next else 0)
                suppressions.setdefault(line, set()).update(ids)
    except tokenize.TokenError:
        # Unterminated constructs: the ast parse will report the real error.
        pass
    return suppressions


def _suppressed_ids(
    suppressions: dict[int, set[str]], start: int, end: int
) -> set[str]:
    """Union of suppressions across the statement's physical lines.

    A trailing comment on *any* line of a multi-line statement suppresses
    the whole statement, so wrapped calls and parenthesised expressions
    can carry the comment wherever it is readable.
    """
    ids: set[str] = set()
    for line in range(start, max(start, end) + 1):
        ids |= suppressions.get(line, set())
    return ids


class ModuleContext:
    """Everything rules may want to know about the module being linted."""

    def __init__(self, path: str, source: str) -> None:
        self.path = str(PurePosixPath(Path(path).as_posix()))
        self.source = source
        self._parts = PurePosixPath(self.path).parts
        self._stem = PurePosixPath(self.path).stem
        #: ``import numpy as np`` -> {"np": "numpy"}
        self.module_aliases: dict[str, str] = {}
        #: ``from numpy.random import default_rng as mk`` ->
        #: {"mk": ("numpy.random", "default_rng")}
        self.imported_names: dict[str, tuple[str, str]] = {}
        #: Enclosing FunctionDef/AsyncFunctionDef/ClassDef/Lambda nodes.
        self.scope_stack: list[ast.AST] = []

    # ------------------------------------------------------------------
    # Path classification
    # ------------------------------------------------------------------
    @property
    def is_test_code(self) -> bool:
        """Test/benchmark modules are exempt from simulation-only rules."""
        in_test_tree = any(p in ("tests", "benchmarks") for p in self._parts)
        test_file = (
            self._stem.startswith(("test_", "bench_")) or self._stem == "conftest"
        )
        return in_test_tree or test_file

    def has_dir(self, *names: str) -> bool:
        """Whether any path component equals one of ``names``."""
        return any(p in names for p in self._parts[:-1])

    def path_endswith(self, suffix: str) -> bool:
        """Posix-style suffix match on the module path."""
        return self.path.endswith(suffix)

    @property
    def module_stem(self) -> str:
        """Filename without extension (``engine`` for ``lint/engine.py``)."""
        return self._stem

    # ------------------------------------------------------------------
    # Name resolution across imports
    # ------------------------------------------------------------------
    def record_imports(self, node: ast.AST) -> None:
        """Track ``import``/``from ... import`` bindings as they are met."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                self.module_aliases[bound] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                self.imported_names[bound] = (node.module, alias.name)

    def resolve_call_name(self, func: ast.AST) -> str | None:
        """Fully-qualified dotted name of a call target, if resolvable.

        ``np.random.rand`` with ``import numpy as np`` resolves to
        ``"numpy.random.rand"``; a bare name imported via
        ``from numpy.random import rand`` resolves the same way.  Returns
        ``None`` for dynamic targets (subscripts, call results, ...).
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = parts[0]
        if root in self.module_aliases:
            parts[0] = self.module_aliases[root]
        elif root in self.imported_names:
            module, original = self.imported_names[root]
            parts[0:1] = [module, original]
        return ".".join(parts)

    # ------------------------------------------------------------------
    # Scope helpers
    # ------------------------------------------------------------------
    @property
    def enclosing_function(self) -> ast.AST | None:
        """Innermost enclosing function/lambda node, if any."""
        for frame in reversed(self.scope_stack):
            if isinstance(frame, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return frame
        return None


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


class _Dispatcher(ast.NodeVisitor):
    """Single-pass visitor feeding each node to the subscribed rules."""

    def __init__(
        self,
        ctx: ModuleContext,
        rules: Sequence[Rule],
        timings: dict[str, float] | None = None,
    ) -> None:
        self.ctx = ctx
        self.findings: list[tuple[ast.AST, str, str]] = []
        self.timings = timings if timings is not None else {}
        self._by_type: dict[type, list[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._by_type.setdefault(node_type, []).append(rule)

    def visit(self, node: ast.AST) -> None:
        self.ctx.record_imports(node)
        for rule in self._by_type.get(type(node), ()):
            start = perf_counter()
            for offending, message in rule.check(node, self.ctx):
                self.findings.append((offending, rule.rule_id, message))
            self.timings[rule.rule_id] = (
                self.timings.get(rule.rule_id, 0.0) + perf_counter() - start
            )
        if isinstance(node, _SCOPE_NODES):
            self.ctx.scope_stack.append(node)
            try:
                self.generic_visit(node)
            finally:
                self.ctx.scope_stack.pop()
        else:
            self.generic_visit(node)


def resolve_lint_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files and directory trees into a deduplicated file list.

    Overlapping targets (``src`` and ``src/repro``, a directory plus a
    file inside it, the same path twice) resolve to each file exactly
    once, so no finding is ever double-reported.  Raises
    :class:`FileNotFoundError` for a target that is neither.
    """
    files: list[Path] = []
    seen: set[Path] = set()
    for target in paths:
        target = Path(target)
        if target.is_dir():
            candidates = [
                file
                for file in sorted(target.rglob("*.py"))
                if not any(
                    part in _SKIP_DIR_NAMES or part.endswith(".egg-info")
                    for part in file.parts
                )
            ]
        elif target.is_file():
            candidates = [target]
        else:
            raise FileNotFoundError(f"no such file or directory: {target}")
        for file in candidates:
            key = file.resolve()
            if key not in seen:
                seen.add(key)
                files.append(file)
    return files


class LintEngine:
    """Runs the registered rules over sources, files, and trees."""

    def __init__(
        self,
        rules: Sequence[type[Rule]] | None = None,
        project_rules: Sequence[type[ProjectRule]] | None = None,
    ) -> None:
        self._rule_classes = tuple(rules) if rules is not None else all_rules()
        self._project_rule_classes = (
            tuple(project_rules) if project_rules is not None
            else all_project_rules()
        )
        #: Cumulative wall time spent inside each rule (rule id -> seconds),
        #: accumulated across every lint call on this engine.  Cached files
        #: contribute nothing — the rules never ran for them.
        self.rule_timings: dict[str, float] = {}

    @property
    def rule_classes(self) -> tuple[type[Rule], ...]:
        """The per-file rule classes this engine runs."""
        return self._rule_classes

    @property
    def project_rule_classes(self) -> tuple[type[ProjectRule], ...]:
        """The whole-project rule classes this engine runs."""
        return self._project_rule_classes

    # ------------------------------------------------------------------
    # Per-file pass
    # ------------------------------------------------------------------
    def _run_file_rules(self, source: str, path: str) -> list[Finding]:
        """The cacheable per-file pass: parse once, dispatch, suppress."""
        ctx = ModuleContext(path, source)
        try:
            tree = ast.parse(source, filename=ctx.path)
        except SyntaxError as exc:
            return [
                Finding(
                    path=ctx.path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule_id=PARSE_ERROR_ID,
                    message=f"file does not parse: {exc.msg}",
                )
            ]
        suppressions = collect_suppressions(source)
        active = [cls() for cls in self._rule_classes]
        active = [rule for rule in active if rule.applies_to(ctx)]
        dispatcher = _Dispatcher(ctx, active, self.rule_timings)
        dispatcher.visit(tree)

        findings: list[Finding] = []
        for node, rule_id, message in dispatcher.findings:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            end_line = getattr(node, "end_lineno", None) or line
            suppressed = _suppressed_ids(suppressions, line, end_line)
            if rule_id in suppressed or "all" in suppressed:
                continue
            findings.append(
                Finding(
                    path=ctx.path, line=line, col=col,
                    rule_id=rule_id, message=message,
                )
            )
        return sort_findings(findings)

    # ------------------------------------------------------------------
    # Whole-project pass
    # ------------------------------------------------------------------
    def _run_project_rules(
        self, items: Sequence[tuple[str, str]]
    ) -> list[Finding]:
        if not self._project_rule_classes:
            return []
        from repro.lint.project import ProjectModel

        project = ProjectModel.from_sources(items)
        by_path = {record.path: record for record in project}
        findings: list[Finding] = []
        seen: set[tuple[str, int, int, str, str]] = set()
        for cls in self._project_rule_classes:
            rule = cls()
            start = perf_counter()
            results = list(rule.check_project(project))
            self.rule_timings[cls.rule_id] = (
                self.rule_timings.get(cls.rule_id, 0.0) + perf_counter() - start
            )
            for path, anchor, message in results:
                if isinstance(anchor, int):
                    line, col, end_line = anchor, 0, anchor
                elif anchor is not None:
                    line = getattr(anchor, "lineno", 1)
                    col = getattr(anchor, "col_offset", 0)
                    end_line = getattr(anchor, "end_lineno", None) or line
                else:
                    line, col, end_line = 1, 0, 1
                record = by_path.get(path)
                if record is not None:
                    suppressed = _suppressed_ids(
                        record.suppressions, line, end_line
                    )
                    if cls.rule_id in suppressed or "all" in suppressed:
                        continue
                key = (path, line, col, cls.rule_id, message)
                if key in seen:
                    continue  # nested scopes may re-derive the same flow
                seen.add(key)
                findings.append(
                    Finding(
                        path=path, line=line, col=col,
                        rule_id=cls.rule_id, message=message,
                    )
                )
        return findings

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one module given as a source string (full rule set: the
        project passes run on the single-module project)."""
        return self.lint_sources([(path, source)])

    def lint_sources(
        self,
        items: Sequence[tuple[str, str]],
        *,
        cache: "LintCache | None" = None,  # noqa: F821 - lazy import below
    ) -> list[Finding]:
        """Lint ``(path, source)`` pairs as one project.

        ``cache`` (a :class:`repro.lint.cache.LintCache`) skips the
        per-file pass for unchanged content.
        """
        items = [
            (str(PurePosixPath(Path(str(path)).as_posix())), source)
            for path, source in items
        ]
        findings: list[Finding] = []
        for path, source in items:
            file_findings = (
                cache.get(path, source) if cache is not None else None
            )
            if file_findings is None:
                file_findings = self._run_file_rules(source, path)
                if cache is not None:
                    cache.put(path, source, file_findings)
            findings.extend(file_findings)
        # The cross-module pass is cached as one project-level entry
        # keyed on every module's content (see LintCache.get_project):
        # an edit to any file re-runs the import-graph/call-graph rules,
        # which is exactly the cross-file invalidation they require.
        project_findings = (
            cache.get_project(items) if cache is not None else None
        )
        if project_findings is None:
            project_findings = self._run_project_rules(items)
            if cache is not None:
                cache.put_project(items, project_findings)
        findings.extend(project_findings)
        return sort_findings(findings)

    def lint_file(self, path: str | Path) -> list[Finding]:
        """Lint one file on disk."""
        text = Path(path).read_text(encoding="utf-8")
        return self.lint_source(text, str(path))

    def lint_files(
        self,
        files: Sequence[str | Path],
        *,
        cache: "LintCache | None" = None,  # noqa: F821
    ) -> list[Finding]:
        """Lint an explicit file list as one project."""
        items = [
            (str(file), Path(file).read_text(encoding="utf-8"))
            for file in files
        ]
        return self.lint_sources(items, cache=cache)

    def lint_paths(
        self,
        paths: Iterable[str | Path],
        *,
        cache: "LintCache | None" = None,  # noqa: F821
    ) -> list[Finding]:
        """Lint files and directory trees; directories are walked for .py."""
        return self.lint_files(resolve_lint_files(paths), cache=cache)


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint a source string with all registered rules."""
    return LintEngine().lint_source(source, path)


def lint_sources(items: Sequence[tuple[str, str]]) -> list[Finding]:
    """Lint ``(path, source)`` pairs as one project with all rules."""
    return LintEngine().lint_sources(items)


def lint_paths(paths: Iterable[str | Path], **kwargs) -> list[Finding]:
    """Lint files/trees with all registered rules (see ``LintEngine.lint_paths``)."""
    return LintEngine().lint_paths(paths, **kwargs)
