"""Uniform argument validation helpers.

Every public entry point in the library validates its inputs through
these helpers so error messages are consistent and tests can assert on
them.  They are deliberately cheap: scalar checks are O(1) and matrix
checks are O(nnz) at worst (``check_symmetric``).
"""

from __future__ import annotations

import numbers
import sys

import numpy as np

__all__ = [
    "check_integer",
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "check_square",
    "check_symmetric",
]


def check_integer(value, name: str) -> int:
    """Return ``value`` as a Python int, rejecting non-integral input."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"{name} must be an integer, got {type(value).__name__}")


def check_positive(value, name: str) -> int:
    """Return ``value`` as int, requiring ``value >= 1``."""
    value = check_integer(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative(value, name: str) -> int:
    """Return ``value`` as int, requiring ``value >= 0``."""
    value = check_integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_probability(value, name: str) -> float:
    """Return ``value`` as float, requiring it lies in ``[0, 1]``."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_square(matrix, name: str = "matrix"):
    """Raise unless ``matrix`` is 2-D and square; return it unchanged."""
    shape = matrix.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be square, got shape {shape}")
    return matrix


def check_symmetric(matrix, name: str = "matrix"):
    """Raise unless sparse/dense ``matrix`` equals its transpose."""
    check_square(matrix, name)
    sparse = sys.modules.get("scipy.sparse")  # no sparse input unless scipy is loaded
    if sparse is not None and sparse.issparse(matrix):
        diff = (matrix - matrix.T).tocoo()
        if diff.nnz and np.any(diff.data != 0):
            raise ValueError(f"{name} must be symmetric (undirected graph)")
    else:
        arr = np.asarray(matrix)
        if not np.array_equal(arr, arr.T):
            raise ValueError(f"{name} must be symmetric (undirected graph)")
    return matrix
