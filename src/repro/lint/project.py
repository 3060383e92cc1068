"""The reprolint project model: whole-tree view for cross-module passes.

The per-file engine sees one module at a time, so any invariant spanning
a call or import boundary is invisible to it.  This module builds the
shared substrate the flow-analysis passes (:mod:`repro.lint.flow`) run
on: one :class:`ModuleRecord` per parsed module (AST, import tables,
top-level symbol table, ``__all__``, suppression map) and a
:class:`ProjectModel` aggregating them into an import graph and a
cross-module name-resolution service built on the same
``resolve_call_name`` machinery the per-file rules use.

Module names are derived from paths: everything after the last ``src``
path component (``src/repro/em/waves.py`` -> ``repro.em.waves``), falling
back to the first ``repro`` component, then to the bare stem.  This keeps
virtual fixture paths, relative CLI paths, and absolute test paths all
landing on the same dotted names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ModuleRecord",
    "ProjectModel",
]


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path (best effort, see module docs)."""
    posix = PurePosixPath(Path(path).as_posix())
    parts = list(posix.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    anchored: list[str] | None = None
    if "src" in parts:
        idx = len(parts) - 1 - parts[::-1].index("src")
        anchored = parts[idx + 1 :]
    elif "repro" in parts:
        anchored = parts[parts.index("repro") :]
    if anchored:
        return ".".join(anchored)
    return parts[-1] if parts else ""


def _is_type_checking_guard(test: ast.expr) -> bool:
    """Whether an ``if`` test is the ``TYPE_CHECKING`` import-cycle guard."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


@dataclass
class ModuleRecord:
    """Everything the project passes need to know about one module."""

    path: str
    name: str
    source: str
    tree: ast.Module
    ctx: "ModuleContext"  # noqa: F821 - imported lazily to avoid a cycle
    is_package: bool
    #: Lazily tokenized suppression map (see :attr:`suppressions`).
    _suppressions: dict[int, set[str]] | None = field(
        default=None, repr=False
    )
    #: Names bound at module top level (defs, classes, assigns, imports).
    symbols: set[str] = field(default_factory=set)
    #: ``__all__`` string entries, or ``None`` when absent/not statically
    #: resolvable (computed ``__all__`` disables the export checks).
    dunder_all: list[str] | None = None
    #: The assignment node carrying ``__all__`` (for finding locations).
    dunder_all_node: ast.stmt | None = None
    #: Top-level imported dotted targets with their linenos, in order.
    top_imports: list[tuple[str, int]] = field(default_factory=list)
    #: Local qualname (``func`` / ``Class.method``) -> function node.
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )

    @property
    def is_test_code(self) -> bool:
        return self.ctx.is_test_code

    @property
    def suppressions(self) -> dict[int, set[str]]:
        """Line -> suppressed rule ids (same shape as ``collect_suppressions``).

        Tokenizing every module costs more than the flow passes
        themselves, and only modules that actually produce findings need
        their suppression map — so it is built on first access.
        """
        if self._suppressions is None:
            from repro.lint.engine import collect_suppressions

            self._suppressions = collect_suppressions(self.source)
        return self._suppressions


class ProjectModel:
    """Import graph + symbol tables + call resolution over a module set."""

    def __init__(self, records: Sequence[ModuleRecord]) -> None:
        self.modules: dict[str, ModuleRecord] = {}
        for record in records:
            # Duplicate dotted names (e.g. two trees linted together) keep
            # the first record; per-file rules still cover the shadowed one.
            self.modules.setdefault(record.name, record)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sources(cls, items: Iterable[tuple[str, str]]) -> "ProjectModel":
        """Build the model from ``(path, source)`` pairs, skipping files
        that do not parse (the per-file pass reports those as RL-E001)."""
        from repro.lint.engine import ModuleContext

        records: list[ModuleRecord] = []
        for path, source in items:
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue
            ctx = ModuleContext(str(path), source)
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    ctx.record_imports(node)
            record = ModuleRecord(
                path=ctx.path,
                name=module_name_for_path(ctx.path),
                source=source,
                tree=tree,
                ctx=ctx,
                is_package=ctx.path.endswith("__init__.py"),
            )
            _index_top_level(record)
            _index_functions(record)
            records.append(record)
        return cls(records)

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def module_of(self, dotted: str | None) -> ModuleRecord | None:
        """Project module owning a fully-qualified dotted name, if any.

        Longest-prefix match: ``repro.em.waves.two_wave_rf_power`` resolves
        to the ``repro.em.waves`` module when that module is in the model.
        """
        if not dotted:
            return None
        name = dotted
        while True:
            record = self.modules.get(name)
            if record is not None:
                return record
            cut = name.rfind(".")
            if cut < 0:
                return None
            name = name[:cut]

    def resolve_symbol(
        self, dotted: str | None
    ) -> tuple[ModuleRecord, str] | None:
        """Split a dotted name into (owning module, local symbol path)."""
        record = self.module_of(dotted)
        if record is None or dotted is None:
            return None
        if dotted == record.name:
            return record, ""
        return record, dotted[len(record.name) + 1 :]

    def resolve_function(
        self, dotted: str | None
    ) -> tuple[ModuleRecord, ast.FunctionDef | ast.AsyncFunctionDef] | None:
        """Resolve a dotted call target to a project function definition."""
        resolved = self.resolve_symbol(dotted)
        if resolved is None:
            return None
        record, symbol = resolved
        node = record.functions.get(symbol)
        if node is None:
            return None
        return record, node

    # ------------------------------------------------------------------
    # Import graph
    # ------------------------------------------------------------------
    def import_edges(self) -> dict[str, dict[str, int]]:
        """Project-internal import graph: src -> {dst: first lineno}.

        Only *top-level* imports count (lazy function-level imports are the
        sanctioned way to break a cycle on purpose), and ``TYPE_CHECKING``
        blocks are excluded for the same reason.  Edges point at the
        deepest project module the import statement names; the implicit
        package ``__init__`` executions Python performs on the way down are
        not edges, because cycles through a package init that only touches
        submodules are benign at runtime.
        """
        edges: dict[str, dict[str, int]] = {}
        for record in self.modules.values():
            out = edges.setdefault(record.name, {})
            for target, lineno in record.top_imports:
                dst = self.module_of(target)
                if dst is None or dst.name == record.name:
                    continue
                out.setdefault(dst.name, lineno)
        return edges

    def import_cycles(self) -> list[list[str]]:
        """Cycles in the top-level import graph, as sorted module lists.

        Returns one entry per strongly connected component of size > 1
        (plus self-loops), each sorted for deterministic reporting.
        """
        edges = {src: set(dsts) for src, dsts in self.import_edges().items()}
        cycles = [sorted(scc) for scc in _tarjan_sccs(edges) if len(scc) > 1]
        for src, dsts in edges.items():
            if src in dsts:
                cycles.append([src])
        return sorted(cycles)

    # ------------------------------------------------------------------
    # Cross-module reference index
    # ------------------------------------------------------------------
    def external_references(self) -> dict[str, set[str]]:
        """Map module name -> symbols referenced from *other* modules.

        A symbol counts as referenced when another module imports it
        (``from m import name``) or reaches it through a module alias
        (``import m as x; x.name``).
        """
        refs: dict[str, set[str]] = {name: set() for name in self.modules}
        for record in self.modules.values():
            for module, original in record.ctx.imported_names.values():
                owner = self.module_of(f"{module}.{original}")
                if owner is not None and owner.name != record.name:
                    remainder = f"{module}.{original}"[len(owner.name) + 1 :]
                    head = remainder.split(".", 1)[0] if remainder else ""
                    if head:
                        refs[owner.name].add(head)
            for node in ast.walk(record.tree):
                if not isinstance(node, ast.Attribute):
                    continue
                dotted = _attribute_dotted_name(node, record.ctx)
                owner = self.module_of(dotted)
                if owner is None or owner.name == record.name or dotted is None:
                    continue
                remainder = dotted[len(owner.name) + 1 :]
                head = remainder.split(".", 1)[0] if remainder else ""
                if head:
                    refs[owner.name].add(head)
        return refs

    def __len__(self) -> int:
        return len(self.modules)

    def __iter__(self) -> Iterator[ModuleRecord]:
        return iter(self.modules.values())


# ----------------------------------------------------------------------
# Record indexing helpers
# ----------------------------------------------------------------------
def _attribute_dotted_name(node: ast.Attribute, ctx: "ModuleContext") -> str | None:  # noqa: F821
    """Resolve an attribute chain through the module's import aliases."""
    return ctx.resolve_call_name(node)


def _bound_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _iter_top_level(
    body: Sequence[ast.stmt], *, skip_type_checking: bool
) -> Iterator[ast.stmt]:
    """Statements executed at import time, descending into if/try/with."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, ast.If):
            if skip_type_checking and _is_type_checking_guard(stmt.test):
                children: list[ast.stmt] = list(stmt.orelse)
            else:
                children = [*stmt.body, *stmt.orelse]
            yield from _iter_top_level(children, skip_type_checking=skip_type_checking)
        elif isinstance(stmt, ast.Try):
            children = [*stmt.body, *stmt.orelse, *stmt.finalbody]
            for handler in stmt.handlers:
                children.extend(handler.body)
            yield from _iter_top_level(children, skip_type_checking=skip_type_checking)
        elif isinstance(stmt, (ast.With, ast.AsyncWith, ast.For, ast.AsyncFor, ast.While)):
            yield from _iter_top_level(stmt.body, skip_type_checking=skip_type_checking)


def _resolve_relative(record: ModuleRecord, node: ast.ImportFrom) -> str | None:
    """Absolute dotted base for a relative ``from ... import`` statement."""
    package_parts = record.name.split(".")
    if not record.is_package:
        package_parts = package_parts[:-1]
    drop = node.level - 1
    if drop > len(package_parts):
        return None
    base_parts = package_parts[: len(package_parts) - drop]
    base = ".".join(base_parts)
    if node.module:
        base = f"{base}.{node.module}" if base else node.module
    return base or None


def _index_top_level(record: ModuleRecord) -> None:
    """Populate symbols, ``__all__``, and the top-level import list."""
    for stmt in _iter_top_level(record.tree.body, skip_type_checking=True):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            record.symbols.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                record.symbols.update(_bound_names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            record.symbols.update(_bound_names(stmt.target))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            record.symbols.update(_bound_names(stmt.target))
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                record.symbols.add(alias.asname or alias.name.split(".", 1)[0])
                record.top_imports.append((alias.name, stmt.lineno))
        elif isinstance(stmt, ast.ImportFrom):
            base = (
                stmt.module
                if stmt.level == 0
                else _resolve_relative(record, stmt)
            )
            for alias in stmt.names:
                if alias.name != "*":
                    record.symbols.add(alias.asname or alias.name)
                if base is not None and alias.name != "*":
                    record.top_imports.append((f"{base}.{alias.name}", stmt.lineno))
            if base is not None:
                record.top_imports.append((base, stmt.lineno))
    _extract_dunder_all(record)


def _extract_dunder_all(record: ModuleRecord) -> None:
    entries: list[str] = []
    node_found: ast.stmt | None = None
    resolvable = True
    for stmt in _iter_top_level(record.tree.body, skip_type_checking=True):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [stmt.target], stmt.value
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        node_found = stmt
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in value.elts
        ):
            entries.extend(e.value for e in value.elts)  # type: ignore[misc]
        else:
            resolvable = False
    if node_found is not None and resolvable:
        record.dunder_all = entries
        record.dunder_all_node = node_found


def _index_functions(record: ModuleRecord) -> None:
    for stmt in record.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            record.functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    record.functions[f"{stmt.name}.{inner.name}"] = inner


# ----------------------------------------------------------------------
# Strongly connected components (iterative Tarjan)
# ----------------------------------------------------------------------
def _tarjan_sccs(edges: dict[str, set[str]]) -> list[list[str]]:
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in sorted(edges):
        if root in index_of:
            continue
        work: list[tuple[str, Iterator[str]]] = [
            (root, iter(sorted(edges.get(root, ()))))
        ]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in edges and child not in index_of:
                    continue
                if child not in index_of:
                    index_of[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(edges.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs
