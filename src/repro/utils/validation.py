"""Argument-validation helpers shared across the package.

These helpers centralise the error messages so that every module raises
the same :class:`~repro.exceptions.ConfigurationError` (for bad
parameters) or :class:`~repro.exceptions.DimensionMismatchError` (for
shape problems) with a consistent wording.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError

__all__ = [
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_delta",
    "check_vector",
    "check_matrix",
]


def check_positive(value: float, name: str) -> float:
    """Return ``value`` if it is a finite number > 0, else raise."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer >= 1, else raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Return ``value`` if it lies in the closed interval [0, 1]."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return value


def check_delta(value: float) -> float:
    """Validate the rNNR failure probability ``delta`` in the open (0, 1)."""
    value = check_probability(value, "delta")
    if value == 0.0 or value == 1.0:
        raise ConfigurationError(
            f"delta must be strictly inside (0, 1) for the approximate "
            f"rNNR problem, got {value}"
        )
    return value


def check_vector(x: np.ndarray, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a 1-d float array, optionally enforcing its length."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} has dimension {arr.shape[0]}, expected {dim}"
        )
    return arr


def check_matrix(x: np.ndarray, dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-d array, optionally enforcing its column count."""
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"{name} has {arr.shape[1]} columns, expected {dim}"
        )
    return arr
