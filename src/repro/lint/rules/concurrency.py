"""Concurrency & resource-safety rules (RL-C001..RL-C005).

The campaign service (PR 5) made the reproduction concurrent: worker
heartbeat threads, SIGTERM handlers, multiprocess fleets, a threaded
HTTP control plane, and shared SQLite state.  These rules police exactly
that surface:

* **RL-C001/C002/C003** are project rules on the
  :class:`~repro.lint.callgraph.CallGraph` context-reachability
  analysis.  They demand positive *sharing evidence* before reporting —
  a sqlite connection is only cross-thread if some single instance
  provably escapes onto another execution context (a bound
  ``self.method`` thread target, an instance stored on shared state) —
  so the service's open-one-connection-per-thread discipline is
  recognised as safe rather than baselined.
* **RL-C004/C005** are per-file rules (cached):
  RL-C004 runs the path-sensitive may-leak analysis on the per-function
  :mod:`~repro.lint.cfg` CFG; RL-C005 enforces thread-join and
  ``acquire``/``try/finally`` discipline syntactically, covering the
  exception edges the CFG deliberately does not model outside ``try``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import (
    CallGraph,
    ClassInfo,
    EntryPoint,
    FunctionInfo,
    _walk_scope,
    conflicting_pair,
)
from repro.lint.cfg import build_cfg
from repro.lint.engine import ModuleContext
from repro.lint.project import ModuleRecord, ProjectModel
from repro.lint.registry import (
    ProjectRule,
    Rule,
    register,
    register_project,
)

__all__ = [
    "AcquireWithoutRelease",
    "ResourceLeakOnPath",
    "SignalHandlerUnsafeCall",
    "SqliteCrossThread",
    "UnguardedSharedWrite",
]

_LOCK_CTORS = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
}

_LOG_METHODS = {
    "debug", "info", "warning", "warn", "error", "exception", "critical", "log",
}

_THREADLIKE_CTORS = {
    "threading.Thread": "thread",
    "threading.Timer": "timer",
    "multiprocessing.Process": "process",
    "multiprocessing.context.Process": "process",
    "multiprocessing.process.Process": "process",
}


# ----------------------------------------------------------------------
# Shared class-shape helpers
# ----------------------------------------------------------------------
def _self_attr_assigns(
    info: FunctionInfo,
) -> Iterator[tuple[str, ast.expr | None, ast.stmt]]:
    """``self.attr = value`` statements in one method's own scope."""
    for node in info.scope_nodes:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value: ast.expr | None = node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, value, node


def _self_attr_refs(info: FunctionInfo) -> set[str]:
    """All ``self.<attr>`` names touched (read or written) by a method."""
    cached = getattr(info, "_self_refs", None)
    if cached is None:
        cached = {
            node.attr
            for node in info.scope_nodes
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        }
        info._self_refs = cached
    return cached


def _is_sqlite_connect(value: ast.expr | None, record: ModuleRecord) -> bool:
    """``sqlite3.connect(...)`` without ``check_same_thread=False``."""
    if not isinstance(value, ast.Call):
        return False
    if record.ctx.resolve_call_name(value.func) != "sqlite3.connect":
        return False
    for kw in value.keywords:
        if kw.arg == "check_same_thread":
            if isinstance(kw.value, ast.Constant) and kw.value.value is False:
                return False
    return True


def _method_infos(graph: CallGraph, cls: ClassInfo) -> list[FunctionInfo]:
    return [
        graph.functions[key]
        for key in cls.methods.values()
        if key in graph.functions
    ]


def _self_thread_entries(graph: CallGraph, cls: ClassInfo) -> list[EntryPoint]:
    """Thread entries whose target is a bound method of this class.

    A ``threading.Thread(target=self.m)`` inside the class means the
    *instance itself* escapes onto the new thread — the only statically
    certain single-instance sharing.  Process targets are excluded: the
    instance is pickled into the child, so memory is not shared.
    """
    method_keys = set(cls.methods.values())
    return [
        entry
        for entry in graph.entries
        if entry.kind == "thread" and entry.via_self and entry.key in method_keys
    ]


def _thread_side(
    graph: CallGraph, cls: ClassInfo, entry: EntryPoint
) -> set[str]:
    """Methods of ``cls`` that may run on the entry's thread."""
    method_keys = set(cls.methods.values())
    return ({entry.key} | graph.reachable_from(entry.key)) & method_keys


def _lock_attrs(graph: CallGraph, cls: ClassInfo) -> set[str]:
    """Attributes of the class assigned from ``threading`` lock ctors."""
    attrs: set[str] = set()
    for info in _method_infos(graph, cls):
        for attr, value, _node in _self_attr_assigns(info):
            if isinstance(value, ast.Call):
                resolved = info.record.ctx.resolve_call_name(value.func)
                if resolved in _LOCK_CTORS:
                    attrs.add(attr)
    return attrs


# ----------------------------------------------------------------------
# RL-C001 — sqlite connections must not cross threads
# ----------------------------------------------------------------------
@register_project
class SqliteCrossThread(ProjectRule):
    """RL-C001: sqlite3 connections are bound to their creating thread
    (``check_same_thread``); using one from another thread raises — or
    corrupts state if the check is disabled without locking.  Flagged on
    sharing evidence only: a connection-owning instance that escapes to
    a thread via a bound-method target, an owner instance stored on
    state whose readers span conflicting contexts, or a module-global
    connection touched from thread-reachable code.  Per-invocation
    connections (each thread opens its own) are recognised as safe."""

    rule_id = "RL-C001"
    title = "sqlite3 connections must not be shared across threads"

    def check_project(
        self, project: ProjectModel
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        graph = CallGraph.of(project)
        owners = self._connection_owners(graph)
        yield from self._check_self_escape(graph, owners)
        yield from self._check_stored_instances(graph, owners)
        yield from self._check_module_globals(graph, owners)

    # -- evidence helpers ----------------------------------------------
    def _connection_owners(
        self, graph: CallGraph
    ) -> dict[str, dict[str, ast.stmt]]:
        """class key -> {attr holding a thread-bound connection: site}."""
        owners: dict[str, dict[str, ast.stmt]] = {}
        for cls in graph.classes.values():
            if cls.record.is_test_code:
                continue
            attrs: dict[str, ast.stmt] = {}
            for info in _method_infos(graph, cls):
                for attr, value, node in _self_attr_assigns(info):
                    if _is_sqlite_connect(value, info.record):
                        attrs.setdefault(attr, node)
            if attrs:
                owners[cls.key] = attrs
        return owners

    def _check_self_escape(
        self, graph: CallGraph, owners: dict[str, dict[str, ast.stmt]]
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        for cls_key, attrs in owners.items():
            cls = graph.classes[cls_key]
            method_keys = set(cls.methods.values())
            for entry in _self_thread_entries(graph, cls):
                thread_side = _thread_side(graph, cls, entry)
                other_side = method_keys - thread_side
                for attr, site in attrs.items():
                    used_on_thread = any(
                        attr in _self_attr_refs(graph.functions[key])
                        for key in thread_side
                    )
                    used_elsewhere = any(
                        attr in _self_attr_refs(graph.functions[key])
                        for key in other_side
                    )
                    if used_on_thread and used_elsewhere:
                        entry_name = entry.key.rsplit(":", 1)[-1]
                        yield (
                            cls.record.path,
                            site,
                            f"sqlite3 connection `self.{attr}` of "
                            f"`{cls.qualname}` is created on one thread but "
                            f"also used by `{entry_name}`, which runs on its "
                            "own thread (Thread target bound to self); open "
                            "one connection per thread or pass "
                            "check_same_thread=False with explicit locking",
                        )

    def _check_stored_instances(
        self, graph: CallGraph, owners: dict[str, dict[str, ast.stmt]]
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        if not owners:
            return
        for cls in graph.classes.values():
            if cls.record.is_test_code:
                continue
            for info in _method_infos(graph, cls):
                for attr, value, node in _self_attr_assigns(info):
                    stored = _instance_class(graph, value, info)
                    if stored is None or stored.key not in owners:
                        continue
                    labels: set[str] = set()
                    for other in _method_infos(graph, cls):
                        if attr in _self_attr_refs(other):
                            labels |= graph.contexts_of(other.key)
                    pair = conflicting_pair(labels)
                    if pair is not None:
                        yield (
                            cls.record.path,
                            node,
                            f"`self.{attr}` stores a `{stored.qualname}` "
                            "instance owning a thread-bound sqlite3 "
                            f"connection, and is reachable from conflicting "
                            f"execution contexts ({pair[0]} vs {pair[1]}); "
                            "open one connection per thread instead",
                        )

    def _check_module_globals(
        self, graph: CallGraph, owners: dict[str, dict[str, ast.stmt]]
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        for record in graph.project:
            if record.is_test_code:
                continue
            for stmt in record.tree.body:
                if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                    continue
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                is_conn = _is_sqlite_connect(stmt.value, record)
                stored = (
                    _instance_class_in_record(graph, stmt.value, record)
                    if not is_conn
                    else None
                )
                if not is_conn and (stored is None or stored.key not in owners):
                    continue
                for key, info in graph.functions.items():
                    if info.record is not record:
                        continue
                    reads = any(
                        isinstance(node, ast.Name) and node.id == target.id
                        for node in info.scope_nodes
                    )
                    if not reads:
                        continue
                    labels = graph.contexts_of(key) | {"main"}
                    pair = conflicting_pair(labels)
                    if pair is not None:
                        yield (
                            record.path,
                            stmt,
                            f"module-global `{target.id}` holds a "
                            "thread-bound sqlite3 connection created at "
                            "import time (main thread) but is used from "
                            f"`{info.qualname}`, reachable on context "
                            f"{pair[0] if pair[0] != 'main' else pair[1]}; "
                            "open one connection per thread instead",
                        )
                        break


def _instance_class(
    graph: CallGraph, value: ast.expr | None, info: FunctionInfo
) -> ClassInfo | None:
    """Class whose instance ``value`` evaluates to, through one factory."""
    if not isinstance(value, ast.Call):
        return None
    direct = graph.resolve_class(value.func, info.record)
    if direct is not None:
        return direct
    factory = graph.resolve_callable(
        value.func, info.record, info.class_qual, None, info.qualname
    )
    if factory is None:
        return None
    for node in factory.scope_nodes:
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
            made = graph.resolve_class(node.value.func, factory.record)
            if made is not None:
                return made
    return None


def _instance_class_in_record(
    graph: CallGraph, value: ast.expr | None, record: ModuleRecord
) -> ClassInfo | None:
    if not isinstance(value, ast.Call):
        return None
    return graph.resolve_class(value.func, record)


# ----------------------------------------------------------------------
# RL-C002 — shared mutable state written without a lock
# ----------------------------------------------------------------------
@register_project
class UnguardedSharedWrite(ProjectRule):
    """RL-C002: when a class provably shares one instance with a thread
    (a ``Thread(target=self.m)`` escape), attribute writes outside
    ``__init__`` that are read from the other side of the thread
    boundary race unless guarded by a ``with <lock>`` on a
    ``threading`` lock attribute.  Use a Lock, or coordinate through
    ``threading.Event`` (method calls, not attribute writes)."""

    rule_id = "RL-C002"
    title = "shared mutable state is written under a lock"

    def check_project(
        self, project: ProjectModel
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        graph = CallGraph.of(project)
        for cls in graph.classes.values():
            if cls.record.is_test_code:
                continue
            entries = _self_thread_entries(graph, cls)
            if not entries:
                continue
            locks = _lock_attrs(graph, cls)
            method_keys = set(cls.methods.values())
            for entry in entries:
                thread_side = _thread_side(graph, cls, entry)
                other_side = method_keys - thread_side
                for side, opposite in (
                    (thread_side, other_side),
                    (other_side, thread_side),
                ):
                    yield from self._check_side(
                        graph, cls, locks, side, opposite
                    )

    def _check_side(
        self,
        graph: CallGraph,
        cls: ClassInfo,
        locks: set[str],
        side: set[str],
        opposite: set[str],
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        opposite_refs: set[str] = set()
        for key in opposite:
            opposite_refs |= _self_attr_refs(graph.functions[key])
        for key in sorted(side):
            info = graph.functions[key]
            if info.name == "__init__":
                continue  # construction happens-before the thread starts
            for attr, node in _unguarded_self_writes(info, locks):
                if attr in locks or attr not in opposite_refs:
                    continue
                yield (
                    cls.record.path,
                    node,
                    f"`self.{attr}` of `{cls.qualname}` is written in "
                    f"`{info.name}` and read across a thread boundary "
                    "without a lock; guard the write with `with "
                    "self.<lock>:` or coordinate via threading.Event",
                )


def _unguarded_self_writes(
    info: FunctionInfo, locks: set[str]
) -> Iterator[tuple[str, ast.stmt]]:
    """``self.attr = ...`` statements not under a ``with <lock>`` guard."""

    def is_lock_guard(item: ast.withitem) -> bool:
        expr = item.context_expr
        return (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in locks
        )

    def walk(stmts: list[ast.stmt], guarded: bool) -> Iterator[tuple[str, ast.stmt]]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                if not guarded:
                    targets = (
                        stmt.targets
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            yield target.attr, stmt
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = guarded or any(is_lock_guard(i) for i in stmt.items)
                yield from walk(stmt.body, inner)
            elif isinstance(stmt, ast.Try):
                for suite in (stmt.body, stmt.orelse, stmt.finalbody):
                    yield from walk(suite, guarded)
                for handler in stmt.handlers:
                    yield from walk(handler.body, guarded)
            elif isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor)):
                yield from walk(stmt.body, guarded)
                yield from walk(stmt.orelse, guarded)

    yield from walk(info.node.body, False)


# ----------------------------------------------------------------------
# RL-C003 — signal handlers must be async-signal-safe
# ----------------------------------------------------------------------
@register_project
class SignalHandlerUnsafeCall(ProjectRule):
    """RL-C003: a Python signal handler interrupts the main thread at an
    arbitrary bytecode boundary.  Calling logging (which takes a lock),
    acquiring locks, touching sqlite, or doing blocking I/O from code
    reachable from a ``signal.signal`` registration can deadlock or
    re-enter non-reentrant state.  Handlers should only set a flag or
    ``threading.Event`` and return."""

    rule_id = "RL-C003"
    title = "no non-reentrant calls reachable from signal handlers"

    def check_project(
        self, project: ProjectModel
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        graph = CallGraph.of(project)
        for key in sorted(graph.functions):
            info = graph.functions[key]
            if info.record.is_test_code:
                continue
            signal_labels = sorted(
                label
                for label in graph.contexts_of(key)
                if label.startswith("signal:")
            )
            if not signal_labels:
                continue
            handler = signal_labels[0].split(":", 1)[1].rsplit(":", 1)[-1]
            loggers = _module_loggers(info.record)
            for node in info.scope_nodes:
                if not isinstance(node, ast.Call):
                    continue
                reason = _unsafe_in_handler(node, info.record, loggers)
                if reason is not None:
                    yield (
                        info.record.path,
                        node,
                        f"{reason} inside code reachable from signal "
                        f"handler `{handler}`; handlers are not "
                        "async-signal-safe call sites — set a flag or "
                        "threading.Event and act on it in the main loop",
                    )


def _module_loggers(record: ModuleRecord) -> set[str]:
    """Top-level names bound to ``logging.getLogger(...)``."""
    cached = getattr(record, "_logger_names", None)
    if cached is None:
        cached = set()
        for stmt in record.tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                resolved = record.ctx.resolve_call_name(stmt.value.func)
                if resolved == "logging.getLogger":
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            cached.add(target.id)
        record._logger_names = cached
    return cached


def _unsafe_in_handler(
    call: ast.Call, record: ModuleRecord, loggers: set[str]
) -> str | None:
    resolved = record.ctx.resolve_call_name(call.func)
    if resolved is not None:
        if resolved.startswith("logging."):
            return f"logging call `{resolved}` (takes the logging lock)"
        if resolved.startswith("sqlite3."):
            return f"sqlite call `{resolved}`"
        if resolved in ("print", "builtins.print", "input", "builtins.input",
                        "open", "builtins.open"):
            return f"blocking I/O call `{resolved.rsplit('.', 1)[-1]}()`"
    if isinstance(call.func, ast.Attribute):
        receiver = call.func.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in loggers
            and call.func.attr in _LOG_METHODS
        ):
            return (
                f"logging call `{receiver.id}.{call.func.attr}` "
                "(takes the logging lock)"
            )
        if call.func.attr == "acquire":
            return "lock acquisition"
    return None


# ----------------------------------------------------------------------
# RL-C004 — resources released on every CFG path
# ----------------------------------------------------------------------
_RESOURCE_CALLS = {
    "open": "open()",
    "builtins.open": "open()",
    "sqlite3.connect": "sqlite3.connect()",
    "socket.socket": "socket.socket()",
    "socket.create_connection": "socket.create_connection()",
}

_RELEASE_METHODS = {"close", "shutdown", "release", "terminate"}


@register
class ResourceLeakOnPath(Rule):
    """RL-C004: a file handle, sqlite connection, or socket bound to a
    local name must be released on *every* path out of the function —
    including early returns and the exception edges of any enclosing
    ``try``.  Solved as a forward may-leak dataflow problem on the
    per-function CFG; returning/yielding the handle or storing it on
    object state transfers ownership and is not a leak.  Prefer
    ``with``."""

    rule_id = "RL-C004"
    title = "resources are released on every path (prefer with)"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def applies_to(self, ctx: "ModuleContext") -> bool:
        return not ctx.is_test_code

    def check(
        self, node: ast.AST, ctx: "ModuleContext"
    ) -> Iterator[tuple[ast.AST, str]]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        # Cheap gate: most functions acquire nothing, so skip the CFG
        # construction and fixpoint unless an acquisition site exists.
        if not any(
            isinstance(sub, ast.Call)
            and _acquisition_desc(sub, ctx) is not None
            for sub in ast.walk(node)
        ):
            return
        cfg = build_cfg(node)
        sites: dict[str, tuple[str, ast.stmt, str]] = {}

        def transfer(stmt: ast.stmt, facts: frozenset[str]) -> frozenset[str]:
            return _resource_transfer(stmt, facts, ctx, sites)

        in_sets, _out = cfg.forward_may(transfer)
        leaked = in_sets[cfg.exit.id]
        reported: set[int] = set()
        for fact in sorted(leaked):
            if fact not in sites:
                continue
            name, site, desc = sites[fact]
            if id(site) in reported:
                continue
            reported.add(id(site))
            yield (
                site,
                f"resource from {desc} bound to `{name}` may not be "
                "released on every path out of the function (early "
                "return, exception); use `with` or close it in a "
                "try/finally",
            )


def _acquisition_desc(call: ast.Call, ctx: "ModuleContext") -> str | None:
    resolved = ctx.resolve_call_name(call.func)
    if resolved in _RESOURCE_CALLS:
        return _RESOURCE_CALLS[resolved]
    if isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        root = call.func.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and (
            root.id in ctx.module_aliases or root.id in ctx.imported_names
        ):
            return None  # module-level open (gzip.open handled by name above)
        return ".open()"
    return None


def _names_in(expr: ast.AST | None) -> set[str]:
    if expr is None:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _kill(facts: set[str], name: str) -> None:
    for fact in [f for f in facts if f.startswith(f"{name}@")]:
        facts.discard(fact)


def _resource_transfer(
    stmt: ast.stmt,
    facts_in: frozenset[str],
    ctx: "ModuleContext",
    sites: dict[str, tuple[str, ast.stmt, str]],
) -> frozenset[str]:
    facts = set(facts_in)
    # Context-manager entry: `with name:` / `with closing(name):` is the
    # release; `with open(...) as f:` is managed and never tracked.
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Name):
                _kill(facts, expr.id)
            elif isinstance(expr, ast.Call):
                resolved = ctx.resolve_call_name(expr.func)
                if resolved in ("contextlib.closing", "closing"):
                    for name in _names_in(expr):
                        _kill(facts, name)
        return frozenset(facts)
    # Ownership transfer out of the function.
    if isinstance(stmt, ast.Return):
        for name in _names_in(stmt.value):
            _kill(facts, name)
        return frozenset(facts)
    if isinstance(stmt, ast.Expr) and isinstance(
        stmt.value, (ast.Yield, ast.YieldFrom, ast.Await)
    ):
        for name in _names_in(stmt.value):
            _kill(facts, name)
        return frozenset(facts)
    if isinstance(stmt, ast.Delete):
        for name in _names_in(stmt):
            _kill(facts, name)
        return frozenset(facts)
    # Nested defs capture by closure: ownership becomes non-local.
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        for name in {
            n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
        }:
            _kill(facts, name)
        return frozenset(facts)
    exprs = _evaluated_exprs(stmt)
    # Releases: name.close()/shutdown()/release() anywhere in the stmt.
    for expr in exprs:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASE_METHODS
                and isinstance(node.func.value, ast.Name)
            ):
                _kill(facts, node.func.value.id)
    # Assignments: acquisitions, aliases, and escapes to object state.
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        value = stmt.value
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if isinstance(value, ast.Name):
            _kill(facts, value.id)  # aliased: lifetime no longer tracked
        for target in targets:
            if isinstance(target, ast.Name):
                _kill(facts, target.id)  # rebinding drops the old resource
                if isinstance(value, ast.Call):
                    desc = _acquisition_desc(value, ctx)
                    if desc is not None:
                        fact = f"{target.id}@{stmt.lineno}:{stmt.col_offset}"
                        sites[fact] = (target.id, stmt, desc)
                        facts.add(fact)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                for name in _names_in(value):
                    _kill(facts, name)  # stored on longer-lived state
    return frozenset(facts)


def _evaluated_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """Expressions evaluated *at* a CFG node for a (compound) statement."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


# ----------------------------------------------------------------------
# RL-C005 — thread-join and acquire/try-finally discipline
# ----------------------------------------------------------------------
@register
class AcquireWithoutRelease(Rule):
    """RL-C005: a non-daemon thread/process that is started but never
    joined in its creating scope (and never handed to the caller)
    outlives the function invisibly; a bare ``lock.acquire()`` without
    an immediate ``try/finally: release()`` deadlocks every other
    thread if anything in between raises.  ``with lock:`` and daemon
    threads are the sanctioned idioms."""

    rule_id = "RL-C005"
    title = "threads are joined; acquire is paired with try/finally release"
    node_types = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

    #: A module can only have a finding if its text names a thread-like
    #: constructor or calls ``acquire``; the rest of the tree skips the
    #: per-scope walks, which otherwise dominate the pack's cost.
    _TRIGGERS = ("acquire", *sorted({c.rsplit(".", 1)[1] for c in _THREADLIKE_CTORS}))

    def applies_to(self, ctx: "ModuleContext") -> bool:
        return not ctx.is_test_code and any(t in ctx.source for t in self._TRIGGERS)

    def check(
        self, node: ast.AST, ctx: "ModuleContext"
    ) -> Iterator[tuple[ast.AST, str]]:
        body = node.body  # type: ignore[attr-defined]
        scope = list(_walk_scope(body))
        yield from self._check_threads(scope, ctx)
        findings: list[tuple[str, ast.Call]] = []
        _check_acquires(body, frozenset(), findings)
        for receiver, call in findings:
            yield (
                call,
                f"`{receiver}.acquire()` without a guaranteed release: "
                "follow it immediately with try/finally calling "
                f"`{receiver}.release()`, or use `with {receiver}:`",
            )

    def _check_threads(
        self, scope: list[ast.AST], ctx: "ModuleContext"
    ) -> Iterator[tuple[ast.AST, str]]:
        created: dict[str, tuple[ast.stmt, str]] = {}
        started: set[str] = set()
        joined: set[str] = set()
        escaped: set[str] = set()
        for node in scope:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if isinstance(target, ast.Name) and isinstance(value, ast.Call):
                    resolved = ctx.resolve_call_name(value.func)
                    kind = _THREADLIKE_CTORS.get(resolved or "")
                    if kind is not None and not _is_daemon(value):
                        created[target.id] = (node, kind)
                        continue
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    for name in _names_in(node.value):
                        escaped.add(name)
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) and isinstance(
                    node.func.value, ast.Name
                ):
                    name = node.func.value.id
                    if node.func.attr == "start":
                        started.add(name)
                        continue
                    if node.func.attr in ("join", "cancel"):
                        joined.add(name)
                        continue
                # A thread passed to any other call (list.append, a
                # registry, ...) is owned elsewhere — not this scope's
                # join responsibility.
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    escaped.update(_names_in(arg))
            elif isinstance(node, ast.Return):
                escaped.update(_names_in(node.value))
        for name, (site, kind) in created.items():
            if name in started and name not in joined and name not in escaped:
                yield (
                    site,
                    f"{kind} `{name}` is started but never joined in this "
                    "scope and never handed to a caller; join it (with a "
                    "timeout) or mark it daemon=True if fire-and-forget "
                    "is intended",
                )


def _is_daemon(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "daemon":
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            )
    return False


def _dotted_text(expr: ast.AST) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted_text(expr.value)
        return f"{base}.{expr.attr}" if base else None
    return None


def _acquire_calls(stmt: ast.stmt) -> list[tuple[str, ast.Call]]:
    """``<receiver>.acquire(...)`` calls evaluated at this statement."""
    out: list[tuple[str, ast.Call]] = []
    for expr in _evaluated_exprs(stmt):
        if isinstance(expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                receiver = _dotted_text(node.func.value)
                if receiver is not None:
                    out.append((receiver, node))
    return out


def _finally_releases(try_stmt: ast.Try) -> frozenset[str]:
    out: set[str] = set()
    for node in _walk_scope(try_stmt.finalbody):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
        ):
            receiver = _dotted_text(node.func.value)
            if receiver is not None:
                out.add(receiver)
    return frozenset(out)


def _check_acquires(
    stmts: list[ast.stmt],
    protected: frozenset[str],
    out: list[tuple[str, ast.Call]],
) -> None:
    for index, stmt in enumerate(stmts):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for receiver, call in _acquire_calls(stmt):
            if receiver in protected:
                continue
            following = stmts[index + 1] if index + 1 < len(stmts) else None
            if isinstance(following, ast.Try) and receiver in _finally_releases(
                following
            ):
                continue
            out.append((receiver, call))
        if isinstance(stmt, ast.Try):
            inner = protected | _finally_releases(stmt)
            _check_acquires(stmt.body, inner, out)
            _check_acquires(stmt.orelse, inner, out)
            for handler in stmt.handlers:
                _check_acquires(handler.body, inner, out)
            _check_acquires(stmt.finalbody, protected, out)
        elif isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor)):
            _check_acquires(stmt.body, protected, out)
            _check_acquires(stmt.orelse, protected, out)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            _check_acquires(stmt.body, protected, out)
