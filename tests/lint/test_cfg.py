"""Unit tests for the per-function CFG and its forward may-solver.

The transfer function used throughout models a toy resource protocol:
``h = acquire()`` generates the fact ``h``; ``release(h)`` kills it; a
``with h:`` statement kills it (context-managed).  ``leaks(src)`` is the
fact set that may survive to function EXIT — exactly how RL-C004
consumes the solver.
"""

import ast
from textwrap import dedent

from repro.lint.cfg import build_cfg


def _transfer(stmt, facts):
    out = set(facts)
    if (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "acquire"
        and isinstance(stmt.targets[0], ast.Name)
    ):
        out.add(stmt.targets[0].id)
    elif (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "release"
        and stmt.value.args
        and isinstance(stmt.value.args[0], ast.Name)
    ):
        out.discard(stmt.value.args[0].id)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if isinstance(item.context_expr, ast.Name):
                out.discard(item.context_expr.id)
    return frozenset(out)


def _cfg(source):
    func = ast.parse(dedent(source)).body[0]
    return build_cfg(func)


def leaks(source):
    cfg = _cfg(source)
    in_sets, _out_sets = cfg.forward_may(_transfer)
    return set(in_sets[cfg.exit.id])


class TestStructure:
    def test_entry_and_exit_sentinels_exist(self):
        cfg = _cfg("def f():\n    x = 1\n")
        kinds = {node.kind for node in cfg.nodes}
        assert {"entry", "exit", "stmt"} == kinds
        assert cfg.entry.stmt is None and cfg.exit.stmt is None

    def test_predecessors_invert_successors(self):
        cfg = _cfg("def f():\n    if c:\n        x = 1\n    y = 2\n")
        preds = cfg.predecessors()
        for node in cfg.nodes:
            for succ in node.successors:
                assert node.id in preds[succ]

    def test_unreachable_code_after_return_is_disconnected(self):
        cfg = _cfg("def f():\n    return 1\n    x = acquire()\n")
        in_sets, _ = cfg.forward_may(_transfer)
        assert in_sets[cfg.exit.id] == frozenset()


class TestLinear:
    def test_release_on_the_straight_line_is_clean(self):
        assert leaks(
            """
            def f():
                h = acquire()
                use(h)
                release(h)
            """
        ) == set()

    def test_missing_release_leaks(self):
        assert leaks(
            """
            def f():
                h = acquire()
                use(h)
            """
        ) == {"h"}


class TestBranches:
    def test_release_on_only_one_branch_may_leak(self):
        assert leaks(
            """
            def f(c):
                h = acquire()
                if c:
                    release(h)
            """
        ) == {"h"}

    def test_release_on_both_branches_is_clean(self):
        assert leaks(
            """
            def f(c):
                h = acquire()
                if c:
                    release(h)
                else:
                    release(h)
            """
        ) == set()

    def test_early_return_bypassing_release_leaks(self):
        assert leaks(
            """
            def f(c):
                h = acquire()
                if c:
                    return None
                release(h)
            """
        ) == {"h"}


class TestLoops:
    def test_release_after_loop_is_clean(self):
        assert leaks(
            """
            def f(items):
                h = acquire()
                for item in items:
                    use(h, item)
                release(h)
            """
        ) == set()

    def test_break_bypasses_the_loop_else_release(self):
        # ``else`` runs only on normal loop exit; the break path leaks.
        assert leaks(
            """
            def f(items):
                h = acquire()
                for item in items:
                    if bad(item):
                        break
                else:
                    release(h)
            """
        ) == {"h"}

    def test_return_inside_loop_leaks(self):
        assert leaks(
            """
            def f(items):
                h = acquire()
                while True:
                    if done():
                        return None
                    release(h)
                    h = acquire()
            """
        ) == {"h"}

    def test_continue_keeps_the_back_edge(self):
        assert leaks(
            """
            def f(items):
                h = acquire()
                for item in items:
                    if skip(item):
                        continue
                    use(h)
                release(h)
            """
        ) == set()


class TestWith:
    def test_with_statement_releases_the_managed_name(self):
        assert leaks(
            """
            def f():
                h = acquire()
                with h:
                    use(h)
            """
        ) == set()


class TestTry:
    def test_finally_release_covers_normal_and_return_paths(self):
        assert leaks(
            """
            def f():
                h = acquire()
                try:
                    use(h)
                    return done()
                finally:
                    release(h)
            """
        ) == set()

    def test_finally_release_covers_the_raise_path(self):
        assert leaks(
            """
            def f():
                h = acquire()
                try:
                    raise ValueError("boom")
                finally:
                    release(h)
            """
        ) == set()

    def test_nested_finallies_chain_abnormal_exits(self):
        assert leaks(
            """
            def f():
                h = acquire()
                try:
                    try:
                        return early()
                    finally:
                        tidy()
                finally:
                    release(h)
            """
        ) == set()

    def test_handler_return_after_acquisition_leaks(self):
        # use(h) may raise after the acquisition succeeded, so the
        # handler's return path carries the live fact.
        assert leaks(
            """
            def f():
                try:
                    h = acquire()
                    use(h)
                except ValueError:
                    return None
                release(h)
            """
        ) == {"h"}

    def test_failed_acquisition_does_not_reach_the_handler(self):
        # If acquire() itself raises, nothing was acquired: the
        # exception edge carries the facts *entering* the statement.
        assert leaks(
            """
            def f():
                try:
                    h = acquire()
                except OSError:
                    return None
                with h:
                    use(h)
            """
        ) == set()

    def test_else_clause_runs_on_the_no_raise_path(self):
        assert leaks(
            """
            def f():
                h = acquire()
                try:
                    use(h)
                except ValueError:
                    release(h)
                else:
                    release(h)
            """
        ) == set()


class TestSolver:
    def test_out_sets_reflect_statement_effects(self):
        cfg = _cfg("def f():\n    h = acquire()\n    release(h)\n")
        in_sets, out_sets = cfg.forward_may(_transfer)
        gen_node = next(
            n for n in cfg.nodes if isinstance(n.stmt, ast.Assign)
        )
        assert out_sets[gen_node.id] == frozenset({"h"})
        assert in_sets[cfg.exit.id] == frozenset()

    def test_loop_reaches_a_fixpoint(self):
        # A loop that re-acquires under a different name every pass must
        # terminate with both facts at exit (may-union over iterations).
        assert leaks(
            """
            def f(c):
                a = acquire()
                while c:
                    b = acquire()
            """
        ) == {"a", "b"}
