"""Low-rank matrix objects.

Used for the third application of the paper: updating an existing H2
representation with an additional low-rank product ``U V^T`` (rank 32 in the
experiments) and recompressing the sum into a new H2 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import SeedLike, as_generator


@dataclass
class LowRankMatrix:
    """An explicit rank-``k`` matrix ``U @ V.T``.

    Attributes
    ----------
    left:
        ``(m, k)`` factor ``U``.
    right:
        ``(n, k)`` factor ``V``.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        self.left = np.asarray(self.left, dtype=np.float64)
        self.right = np.asarray(self.right, dtype=np.float64)
        if self.left.ndim != 2 or self.right.ndim != 2:
            raise ValueError("low-rank factors must be two-dimensional")
        if self.left.shape[1] != self.right.shape[1]:
            raise ValueError(
                "left and right factors must share the same rank, got "
                f"{self.left.shape[1]} and {self.right.shape[1]}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[0])

    @property
    def rank(self) -> int:
        return int(self.left.shape[1])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``(U V^T) x`` for a vector or block of vectors ``x``."""
        return self.left @ (self.right.T @ x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``(U V^T)^T x = V U^T x``."""
        return self.right @ (self.left.T @ x)

    def to_dense(self) -> np.ndarray:
        return self.left @ self.right.T

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The sub-block ``(U V^T)[rows, cols]`` without forming the dense matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return self.left[rows] @ self.right[cols].T


def random_low_rank(
    n: int,
    rank: int,
    seed: SeedLike = None,
    scale: float = 1.0,
    symmetric: bool = False,
) -> LowRankMatrix:
    """Generate a random rank-``rank`` matrix of size ``n x n``.

    The factors have unit-normal entries scaled by ``scale / sqrt(rank)`` so the
    spectral norm of the product is O(``scale * n / sqrt(rank)``) — comparable
    in magnitude to a kernel matrix block, which makes the low-rank update
    experiments (Fig. 5c) non-trivial.
    """
    if rank <= 0 or n <= 0:
        raise ValueError("n and rank must be positive")
    rng = as_generator(seed)
    u = scale / np.sqrt(rank) * rng.standard_normal((n, rank))
    if symmetric:
        return LowRankMatrix(u, u.copy())
    v = scale / np.sqrt(rank) * rng.standard_normal((n, rank))
    return LowRankMatrix(u, v)
