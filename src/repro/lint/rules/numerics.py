"""Array-semantics rule pack (RL-N001).

Of the hazards planted into the real kernels to measure the pack, the
only one a rule caught and the tests and goldens missed was a narrowing
cast (an int32 grid-key cast overflows only far past every pinned field
size).  A syntactic check catches it, so the pack is one per-file rule
with no dataflow.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleContext
from repro.lint.registry import Rule, register

__all__ = ["DtypeNarrowing"]

_NARROW_DTYPES = frozenset(
    {
        "float16",
        "float32",
        "complex64",
        "half",
        "single",
        "int8",
        "int16",
        "int32",
        "intc",
        "uint8",
        "uint16",
        "uint32",
    }
)


def _narrow_message(dtype: str) -> str:
    return (
        f"narrow dtype `{dtype}` in a bit-for-bit layer; keep float64/int64 "
        "end to end (cast in analysis code outside em/, network/, core/, "
        "twin/ if a narrow copy is really needed)"
    )


@register
class DtypeNarrowing(Rule):
    """RL-N001: no narrow NumPy dtypes in the bit-for-bit layers.

    Flags every expression that resolves to a narrow NumPy dtype
    (``np.float32``, ``numpy.int32``, ``from numpy import half``, ...)
    and the same names as string literals passed as ``dtype=`` or to
    ``.astype(...)``.  One float32 cast diverges the golden traces by an
    ulp that snowballs across a run; one int32 cast on composite grid
    keys overflows silently at large fields.  The check is syntactic:
    it does not flag int/int true division or mixed-dtype ``np.where``,
    which need dtype inference to see.
    """

    rule_id = "RL-N001"
    title = "narrow NumPy dtype on a float64-carrying path"
    node_types = (ast.Attribute, ast.Name, ast.Call)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.is_test_code and ctx.has_dir("em", "network", "core", "twin")

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if isinstance(node, ast.Call):
            yield from self._string_dtypes(node)
            return
        resolved = ctx.resolve_call_name(node)
        if resolved is None or not resolved.startswith("numpy."):
            return
        dtype = resolved[len("numpy."):]
        if dtype in _NARROW_DTYPES:
            yield node, _narrow_message(f"np.{dtype}")

    @staticmethod
    def _string_dtypes(call: ast.Call) -> Iterator[tuple[ast.AST, str]]:
        literals = [kw.value for kw in call.keywords if kw.arg == "dtype"]
        if isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
            literals += call.args[:1]
        for literal in literals:
            if (
                isinstance(literal, ast.Constant)
                and isinstance(literal.value, str)
                and literal.value in _NARROW_DTYPES
            ):
                yield literal, _narrow_message(repr(literal.value))
