"""Fixtures for the array-semantics pack (RL-N001).

RL-N001 is scoped to the bit-for-bit layers, so its fixture lives under
``em/``; the ``suppressed`` variant exercises the bracketed
``# reprolint: ignore[...]`` suppression alias.

:data:`NARROWING_PLANTINGS` are the narrowing hazards planted into real
kernels when the pack was measured, cut down to the planted line and its
inputs and linted under the kernel's own path.  Each must fire RL-N001
exactly once, on the line holding ``hazard``.  The float32 casts also
break the golden traces; the int32 grid-key cast breaks no test at the
pinned field sizes, so this rule is the only check that sees it.
"""

from __future__ import annotations

from tests.lint.fixtures import RuleFixture, _src

NUMERICS_FIXTURES: tuple[RuleFixture, ...] = (
    RuleFixture(
        rule_id="RL-N001",
        path="src/repro/em/snippet.py",
        bad=_src(
            """
            import numpy as np

            __all__ = ["compact"]


            def compact(field_v_m: np.ndarray) -> np.ndarray:
                return field_v_m.astype(np.float32)
            """
        ),
        good=_src(
            """
            import numpy as np

            __all__ = ["compact"]


            def compact(field_v_m: np.ndarray) -> np.ndarray:
                return field_v_m.astype(np.float64)
            """
        ),
        suppressed=_src(
            """
            import numpy as np

            __all__ = ["compact"]


            def compact(field_v_m: np.ndarray) -> np.ndarray:
                return field_v_m.astype(np.float32)  # reprolint: ignore[RL-N001]
            """
        ),
    ),
)

#: name -> ``(path, source, hazard)``: RL-N001 must fire once, on the
#: line of ``source`` that contains ``hazard``.
NARROWING_PLANTINGS: dict[str, tuple[str, str, str]] = {
    "ledger-drained-float32": (
        "src/repro/network/energy_ledger.py",
        _src(
            """
            import numpy as np

            __all__ = ["drained_energy"]


            def drained_energy(
                consumption_w: np.ndarray, clock: np.ndarray, time: float
            ) -> np.ndarray:
                dt = np.maximum(0.0, time - clock)
                return (consumption_w * dt).astype(np.float32)
            """
        ),
        "astype(np.float32)",
    ),
    "spatial-dist-float32": (
        "src/repro/network/spatial.py",
        _src(
            """
            import numpy as np

            __all__ = ["pair_distances"]


            def pair_distances(deltas: np.ndarray) -> np.ndarray:
                dist = np.sqrt(deltas[:, 0] ** 2 + deltas[:, 1] ** 2)
                return dist.astype(np.float32)
            """
        ),
        "astype(np.float32)",
    ),
    "spatial-grid-key-int32": (
        "src/repro/network/spatial.py",
        _src(
            """
            import numpy as np

            __all__ = ["grid_keys"]


            def grid_keys(
                pts: np.ndarray, origin: np.ndarray, cell: float, stride: int
            ) -> np.ndarray:
                cells = np.floor((pts - origin) / cell).astype(np.int32)
                return cells[:, 0] * stride + cells[:, 1]
            """
        ),
        "astype(np.int32)",
    ),
}
