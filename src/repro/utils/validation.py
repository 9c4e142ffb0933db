"""Lightweight argument validation helpers.

These helpers raise :class:`ValidationError` (a ``ValueError`` subclass) with
uniform, descriptive messages.  They are used at public API boundaries so that
user mistakes surface early with actionable errors instead of deep NumPy
broadcasting failures.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "require",
    "check_square",
    "check_shape",
    "check_positive",
    "check_probability",
    "check_in_range",
]


class ValidationError(ValueError):
    """Raised when an argument fails validation at a public API boundary."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` if ``condition`` is false."""
    if not condition:
        raise ValidationError(message)


def check_square(a: Any, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a square 2-D array; return it as complex ndarray."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{name} must be a square 2-D array, got shape {arr.shape!r}"
        )
    return np.asarray(arr, dtype=complex)


def check_shape(a: Any, shape: Sequence[int], name: str = "array") -> np.ndarray:
    """Validate that ``a`` has exactly the given ``shape``."""
    arr = np.asarray(a)
    if tuple(arr.shape) != tuple(shape):
        raise ValidationError(
            f"{name} must have shape {tuple(shape)!r}, got {arr.shape!r}"
        )
    return arr


def check_positive(value: float, name: str = "value", strict: bool = True) -> float:
    """Validate that a scalar is positive (strictly, by default)."""
    v = float(value)
    if strict and not v > 0:
        raise ValidationError(f"{name} must be > 0, got {v}")
    if not strict and not v >= 0:
        raise ValidationError(f"{name} must be >= 0, got {v}")
    return v


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that a scalar lies in the closed interval [0, 1]."""
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValidationError(f"{name} must be in [0, 1], got {v}")
    return v


def check_in_range(
    value: float,
    low: float,
    high: float,
    name: str = "value",
    inclusive: bool = True,
) -> float:
    """Validate that a scalar lies inside ``[low, high]`` (or ``(low, high)``)."""
    v = float(value)
    if inclusive:
        ok = low <= v <= high
    else:
        ok = low < v < high
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValidationError(
            f"{name} must be in {bracket[0]}{low}, {high}{bracket[1]}, got {v}"
        )
    return v
