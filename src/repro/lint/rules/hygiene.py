"""API hygiene rule pack (RL-H003..RL-H005).

Language-level footguns that bite library consumers: public modules
without an explicit export surface, signatures that shadow builtins,
and per-element Python loops feeding ``np.array`` in hot-path numeric
code.  Mutable/call defaults and bare ``except:`` are ruff's
``B006``/``B008`` and ``E722``, enforced by the CI ``ruff check .`` job.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from repro.lint.engine import ModuleContext
from repro.lint.registry import Rule, register

__all__ = [
    "NoBuiltinShadowing",
    "NoScalarKernelListComp",
    "PublicModuleHasAll",
]

_BUILTIN_NAMES = frozenset(
    name for name in dir(builtins) if not name.startswith("_")
)

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _all_params(args: ast.arguments) -> list[ast.arg]:
    extras = [a for a in (args.vararg, args.kwarg) if a is not None]
    return [*args.posonlyargs, *args.args, *args.kwonlyargs, *extras]


@register
class PublicModuleHasAll(Rule):
    """RL-H003: a public module without ``__all__`` has an accidental API —
    every helper leaks into ``import *`` and the docs surface."""

    rule_id = "RL-H003"
    title = "public modules declare __all__"
    node_types = (ast.Module,)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.is_test_code and not ctx.module_stem.startswith("_")

    def check(self, node: ast.Module, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                return
        yield node, (
            "public module does not declare __all__; make the export "
            "surface explicit"
        )


@register
class NoScalarKernelListComp(Rule):
    """RL-H005: ``np.array([f(x) for x in xs])`` maps a scalar kernel over
    the data one Python call at a time and only then boxes the result —
    the EM and network hot paths must feed the whole array to the
    vectorized kernel instead.  Gathering plain attributes or tuples into
    an array is fine; the smell is a *call* per element."""

    rule_id = "RL-H005"
    title = "no per-element scalar-kernel loops into np.array"
    node_types = (ast.Call,)

    _ARRAY_BUILDERS = frozenset({"numpy.array", "numpy.asarray"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.is_test_code and ctx.has_dir("em", "network")

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if ctx.resolve_call_name(node.func) not in self._ARRAY_BUILDERS:
            return
        for arg in node.args[:1]:
            if isinstance(arg, (ast.ListComp, ast.GeneratorExp)) and isinstance(
                arg.elt, ast.Call
            ):
                yield arg, (
                    "array built by calling a scalar kernel per element; "
                    "pass the array to the vectorized kernel instead "
                    "(Rectenna.harvest and two_wave_rf_power take ndarrays directly)"
                )


@register
class NoBuiltinShadowing(Rule):
    """RL-H004: a parameter named after a builtin (``id``, ``type``,
    ``filter``...) silently disables that builtin inside the function."""

    rule_id = "RL-H004"
    title = "no builtin shadowing in signatures"
    node_types = _FUNCTION_NODES

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        assert isinstance(node, _FUNCTION_NODES)
        for arg in _all_params(node.args):
            if arg.arg in _BUILTIN_NAMES:
                yield arg, (
                    f"parameter `{arg.arg}` shadows the builtin of the same "
                    "name; rename it (e.g. trailing underscore)"
                )
