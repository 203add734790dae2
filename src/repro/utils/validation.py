"""Argument-validation helpers shared across the library."""

from __future__ import annotations

from typing import Any

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive(value: float | int, name: str) -> None:
    """Ensure ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_square(matrix: np.ndarray, name: str = "matrix") -> None:
    """Ensure ``matrix`` is a two-dimensional square array."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")


def as_index_array(indices: Any) -> np.ndarray:
    """Convert ``indices`` to a 1-D ``int64`` array (without copying when possible).

    A non-empty array of a non-integer dtype raises :class:`IndexError` (the
    silent truncation of ``np.asarray(..., dtype=int64)`` would address the
    wrong entries); an empty array of any dtype is accepted.
    """
    arr = np.asarray(indices)
    if arr.ndim != 1:
        raise ValueError(f"index array must be one-dimensional, got shape {arr.shape}")
    if arr.dtype != np.int64:
        if arr.size and arr.dtype.kind not in "iu":
            raise IndexError(
                f"index arrays must be of integer type, got dtype {arr.dtype}"
            )
        arr = arr.astype(np.int64)
    return arr


def check_index_range(indices: np.ndarray, n: int) -> None:
    """Raise :class:`IndexError` naming the first index outside ``[0, n)``."""
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        bad = indices[(indices < 0) | (indices >= n)][0]
        raise IndexError(
            f"index {int(bad)} is out of bounds for a matrix of dimension {n}"
        )
