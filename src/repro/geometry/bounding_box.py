"""Axis-aligned bounding boxes.

The general admissibility condition of the paper (Eq. 1) is evaluated on the
bounding boxes of cluster pairs: a pair ``(s, t)`` is admissible when the
average of the two box diameters is at most ``eta`` times the distance between
the boxes.  :class:`BoundingBox` provides the diameter and box-to-box distance
used by :mod:`repro.tree.admissibility`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned bounding box in ``dim`` dimensions.

    Parameters
    ----------
    low, high:
        Arrays of shape ``(dim,)`` with the minimum and maximum coordinates.
    """

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        low = np.asarray(self.low, dtype=np.float64)
        high = np.asarray(self.high, dtype=np.float64)
        if low.shape != high.shape or low.ndim != 1:
            raise ValueError("low/high must be 1-D arrays of equal shape")
        if np.any(high < low):
            raise ValueError("bounding box must satisfy high >= low componentwise")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "BoundingBox":
        """Tight bounding box of a ``(n, dim)`` point set."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, dim) array")
        return cls(pts.min(axis=0), pts.max(axis=0))

    @property
    def dim(self) -> int:
        return int(self.low.shape[0])

    @property
    def extents(self) -> np.ndarray:
        """Edge lengths of the box along each axis."""
        return self.high - self.low

    def diameter(self) -> float:
        """Euclidean length of the box diagonal."""
        return float(np.linalg.norm(self.extents))

    def distance(self, other: "BoundingBox") -> float:
        """Minimum Euclidean distance between this box and ``other``.

        Zero when the boxes overlap or touch.
        """
        gap = np.maximum(
            0.0, np.maximum(self.low - other.high, other.low - self.high)
        )
        return float(np.linalg.norm(gap))

    def contains(self, points: np.ndarray, atol: float = 0.0) -> np.ndarray:
        """Boolean mask of which rows of ``points`` lie inside the box."""
        pts = np.asarray(points, dtype=np.float64)
        return np.all(
            (pts >= self.low - atol) & (pts <= self.high + atol), axis=1
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both boxes."""
        return BoundingBox(
            np.minimum(self.low, other.low), np.maximum(self.high, other.high)
        )
