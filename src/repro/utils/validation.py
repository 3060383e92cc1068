"""Argument-validation helpers with precise error messages.

Model constructors across the reproduction take many physical parameters
(powers, distances, capacities).  Validating them eagerly at the boundary —
with the offending name and value in the message — turns silent physics
nonsense (negative battery capacity, probability 1.3) into immediate,
debuggable failures.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

__all__ = [
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_non_negative_array",
    "check_positive",
    "check_probability",
    "require_float64",
]


def _as_float(name: str, value: Any) -> float:
    try:
        result = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc
    return result


def check_finite(name: str, value: Any) -> float:
    """Return ``value`` as a float, requiring it to be finite."""
    result = _as_float(name, value)
    if not math.isfinite(result):
        raise ValueError(f"{name} must be finite, got {result!r}")
    return result


def check_positive(name: str, value: Any) -> float:
    """Return ``value`` as a float, requiring it to be finite and > 0."""
    result = check_finite(name, value)
    if result <= 0.0:
        raise ValueError(f"{name} must be > 0, got {result!r}")
    return result


def check_non_negative(name: str, value: Any) -> float:
    """Return ``value`` as a float, requiring it to be finite and >= 0."""
    result = check_finite(name, value)
    if result < 0.0:
        raise ValueError(f"{name} must be >= 0, got {result!r}")
    return result


def check_non_negative_array(name: str, value: Any) -> np.ndarray:
    """Return ``value`` as a float ndarray of finite, >= 0 entries.

    The batched counterpart of :func:`check_non_negative` for the
    vectorized EM kernels: one fused pass validates the whole array.
    """
    result = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(result)):
        raise ValueError(f"{name} must be finite everywhere")
    if np.any(result < 0.0):
        raise ValueError(f"{name} must be >= 0 everywhere")
    return result


#: Narrowed float dtypes rejected at the bit-for-bit kernel boundaries.
_NARROWED_DTYPES = (np.dtype(np.float16), np.dtype(np.float32), np.dtype(np.complex64))


def require_float64(arr: Any, name: str) -> np.ndarray:
    """Return ``arr`` as a float64 ndarray, rejecting narrowed floats.

    The vectorized :class:`~repro.network.energy_ledger.EnergyLedger`
    kernels must stay bit-for-bit faithful to the paper's tables, which requires float64 end
    to end.  Python scalars, sequences and integer arrays convert exactly
    and are accepted; float16/float32 (and complex64) input is *rejected*
    rather than silently widened, because the precision was already lost
    upstream and widening would only hide the divergence.
    """
    result = np.asarray(arr)
    if result.dtype == np.float64:
        return result
    if result.dtype in _NARROWED_DTYPES:
        raise TypeError(
            f"{name} must be float64, got {result.dtype}: the bit-for-bit "
            "kernels forbid narrowed floats — convert the upstream data "
            "to float64 before it reaches this boundary"
        )
    return np.asarray(arr, dtype=np.float64)


def check_probability(name: str, value: Any) -> float:
    """Return ``value`` as a float, requiring it to lie in [0, 1]."""
    result = check_finite(name, value)
    if not 0.0 <= result <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {result!r}")
    return result


def check_in_range(
    name: str,
    value: Any,
    low: float,
    high: float,
    inclusive: bool = True,
) -> float:
    """Return ``value`` as a float, requiring it to lie in the given range."""
    result = check_finite(name, value)
    if inclusive:
        if not low <= result <= high:
            raise ValueError(f"{name} must be in [{low}, {high}], got {result!r}")
    else:
        if not low < result < high:
            raise ValueError(f"{name} must be in ({low}, {high}), got {result!r}")
    return result
