"""Per-function control-flow graphs for path-sensitive lint checks.

The flow passes in :mod:`repro.lint.flow` are deliberately
flow-insensitive; resource-safety questions ("is this handle closed on
*every* path out of the function?") are not answerable that way.  This
module builds a small statement-level CFG per function (or module body)
with distinguished ENTRY/EXIT sentinels, and provides a generic forward
*may* dataflow solver over it, so rules like RL-C004 can ask whether an
acquired resource may still be live when control reaches EXIT.

Modelled control flow: statement sequencing, ``if``/``elif``/``else``,
``while``/``for`` (including ``else`` clauses, ``break`` and
``continue``), ``with``, ``return``/``raise``, and ``try``/``except``/
``else``/``finally``.  Exceptions are modelled *only* for statements
lexically inside a ``try``: every such statement gets an edge into each
handler and into the ``finally`` suite, which is exactly the property
the must-release checks need (``acquire(); try: ... finally: release()``
releases on the exception path).  An arbitrary call raising outside any
``try`` is *not* an edge — modelling it would make every statement an
exit and drown the analysis in noise; RL-C005's syntactic try/finally
discipline covers that gap for locks.

Nested function and class definitions are opaque single statements:
their bodies get their own CFGs.
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, Sequence

__all__ = ["CFG", "CFGNode", "build_cfg"]


class CFGNode:
    """One CFG vertex: a statement, or the ENTRY/EXIT sentinel."""

    __slots__ = ("id", "stmt", "kind", "successors")

    def __init__(self, node_id: int, stmt: ast.stmt | None, kind: str) -> None:
        self.id = node_id
        self.stmt = stmt
        self.kind = kind  # "entry" | "exit" | "stmt"
        self.successors: list[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.kind if self.stmt is None else type(self.stmt).__name__
        return f"CFGNode({self.id}, {label}, ->{self.successors})"


class CFG:
    """A per-function control-flow graph with a forward may-solver."""

    def __init__(
        self, nodes: list[CFGNode], entry: CFGNode, exit_node: CFGNode
    ) -> None:
        self.nodes = nodes
        self.entry = entry
        self.exit = exit_node

    def predecessors(self) -> dict[int, list[int]]:
        """Inverted edge map: node id -> predecessor ids."""
        preds: dict[int, list[int]] = {node.id: [] for node in self.nodes}
        for node in self.nodes:
            for succ in node.successors:
                preds[succ].append(node.id)
        return preds

    def forward_may(
        self,
        transfer: Callable[[ast.stmt, FrozenSet[str]], FrozenSet[str]],
    ) -> tuple[dict[int, FrozenSet[str]], dict[int, FrozenSet[str]]]:
        """Solve a forward *may* dataflow problem to fixpoint.

        ``transfer(stmt, facts_in) -> facts_out`` is applied at each
        statement node; sentinels are identity.  Facts at a join are the
        union over predecessors ("may" semantics).  Returns
        ``(in_sets, out_sets)`` keyed by node id; the facts that may
        survive to function exit are ``in_sets[cfg.exit.id]``.
        """
        in_sets: dict[int, FrozenSet[str]] = {
            node.id: frozenset() for node in self.nodes
        }
        out_sets: dict[int, FrozenSet[str]] = dict(in_sets)
        by_id = {node.id: node for node in self.nodes}
        visited: set[int] = set()
        worklist = [self.entry.id]
        while worklist:
            node_id = worklist.pop()
            node = by_id[node_id]
            facts = in_sets[node_id]
            if node.kind == "stmt" and node.stmt is not None:
                facts = transfer(node.stmt, facts)
            if node_id in visited and facts == out_sets[node_id]:
                continue  # fixpoint reached at this node
            visited.add(node_id)
            out_sets[node_id] = facts
            for succ in node.successors:
                merged = in_sets[succ] | facts
                if succ not in visited or merged != in_sets[succ]:
                    in_sets[succ] = merged
                    worklist.append(succ)
        return in_sets, out_sets


class _Builder:
    """Recursive-descent CFG construction over a statement list."""

    def __init__(self) -> None:
        self.nodes: list[CFGNode] = []
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")
        # (break_targets, continue_targets) collectors, innermost last.
        self._loops: list[tuple[list[CFGNode], list[CFGNode]]] = []
        # Abnormal-exit nodes (return/raise) awaiting the innermost
        # enclosing ``finally`` suite, innermost collector last; with no
        # enclosing finally they connect straight to EXIT.
        self._finallies: list[list[CFGNode]] = []

    def _new(self, stmt: ast.stmt | None, kind: str = "stmt") -> CFGNode:
        node = CFGNode(len(self.nodes), stmt, kind)
        self.nodes.append(node)
        return node

    @staticmethod
    def _connect(sources: Sequence[CFGNode], target: CFGNode) -> None:
        for source in sources:
            if target.id not in source.successors:
                source.successors.append(target.id)

    def _abnormal_exit(self, node: CFGNode) -> None:
        """Route a return/raise through the innermost finally, or to EXIT."""
        if self._finallies:
            self._finallies[-1].append(node)
        else:
            self._connect([node], self.exit)

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        frontier = self._sequence(body, [self.entry])
        self._connect(frontier, self.exit)
        return CFG(self.nodes, self.entry, self.exit)

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def _sequence(
        self, body: Sequence[ast.stmt], frontier: list[CFGNode]
    ) -> list[CFGNode]:
        for stmt in body:
            if not frontier:
                break  # unreachable code after return/raise/break
            frontier = self._statement(stmt, frontier)
        return frontier

    def _statement(
        self, stmt: ast.stmt, frontier: list[CFGNode]
    ) -> list[CFGNode]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        node = self._new(stmt)
        self._connect(frontier, node)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._abnormal_exit(node)
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][0].append(node)
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._loops[-1][1].append(node)
            return []
        return [node]

    def _if(self, stmt: ast.If, frontier: list[CFGNode]) -> list[CFGNode]:
        test = self._new(stmt)
        self._connect(frontier, test)
        then_frontier = self._sequence(stmt.body, [test])
        else_frontier = self._sequence(stmt.orelse, [test]) if stmt.orelse else [test]
        return [*then_frontier, *else_frontier]

    def _loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, frontier: list[CFGNode]
    ) -> list[CFGNode]:
        header = self._new(stmt)
        self._connect(frontier, header)
        breaks: list[CFGNode] = []
        continues: list[CFGNode] = []
        self._loops.append((breaks, continues))
        try:
            body_frontier = self._sequence(stmt.body, [header])
        finally:
            self._loops.pop()
        self._connect(body_frontier, header)  # back edge
        self._connect(continues, header)
        # Normal loop exit (condition false / iterator exhausted) runs
        # the else clause; break jumps past it.
        after = self._sequence(stmt.orelse, [header]) if stmt.orelse else [header]
        return [*after, *breaks]

    def _with(
        self, stmt: ast.With | ast.AsyncWith, frontier: list[CFGNode]
    ) -> list[CFGNode]:
        node = self._new(stmt)  # context-manager entry (item evaluation)
        self._connect(frontier, node)
        return self._sequence(stmt.body, [node])

    def _try(self, stmt: ast.Try, frontier: list[CFGNode]) -> list[CFGNode]:
        has_finally = bool(stmt.finalbody)
        abnormal: list[CFGNode] = []
        if has_finally:
            self._finallies.append(abnormal)
        first_inner = len(self.nodes)
        try:
            body_frontier = self._sequence(stmt.body, list(frontier))
            # A protected statement that raises did *not* complete, so
            # the exception edge must carry the facts *entering* it, not
            # its own effects (``handle = open(...)`` raising acquires
            # nothing).  Handlers and finally are therefore fed by the
            # predecessors of protected nodes — which include the
            # pre-try frontier via the existing edges into the first
            # protected statement.
            inner_ids = {
                n.id for n in self.nodes[first_inner:] if n.kind == "stmt"
            }
            raise_sources = [
                node
                for node in self.nodes
                if any(succ in inner_ids for succ in node.successors)
            ]
            # ``else`` runs only when the body did not raise; it is not
            # protected by the handlers.
            if stmt.orelse:
                body_frontier = self._sequence(stmt.orelse, body_frontier)
            merged = list(body_frontier)
            for handler in stmt.handlers:
                handler_frontier = self._sequence(
                    handler.body, list(raise_sources)
                )
                merged.extend(handler_frontier)
        finally:
            if has_finally:
                self._finallies.pop()
        if not has_finally:
            return merged
        # The finally suite runs on the normal paths, on the exception
        # path of every protected statement (even with no handler), and
        # on return/raise paths collected in ``abnormal``.
        fin_entry = [*merged, *abnormal]
        if not stmt.handlers:
            fin_entry.extend(raise_sources)
        fin_frontier = self._sequence(stmt.finalbody, fin_entry)
        if abnormal:
            # After the finally, a pending return/raise keeps propagating.
            for node in fin_frontier:
                self._abnormal_exit(node)
        return fin_frontier


def build_cfg(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
) -> CFG:
    """Build the CFG for one function body (or a module's top level)."""
    return _Builder().build(func.body)
