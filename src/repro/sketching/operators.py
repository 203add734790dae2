"""Black-box sketching operators ``Y = Kblk(Omega)``.

All operators act in the *cluster-tree permuted* ordering, because that is the
ordering Algorithm 1 works in; adapters that permute on the way in/out are
trivial to add on top when needed.  Every operator also counts how many sample
vectors it has produced (``samples_taken``), which the benchmarks report as the
"total samples" annotation of Fig. 5.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..kernels.base import KernelFunction, _upper_tiles
from ..linalg.low_rank import LowRankMatrix


class SketchingOperator(ABC):
    """Abstract black-box operator applying the matrix to a block of vectors."""

    def __init__(self) -> None:
        #: Total number of sample (column) vectors this operator has been applied to.
        self.samples_taken: int = 0
        #: Number of times the black-box was invoked.
        self.applications: int = 0

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of rows/columns of the (square) operator."""

    @abstractmethod
    def _multiply(self, omega: np.ndarray) -> np.ndarray:
        """Apply the operator to ``omega`` of shape ``(n, d)``."""

    def multiply(self, omega: np.ndarray) -> np.ndarray:
        """Apply the operator, recording sampling statistics."""
        omega = np.asarray(omega, dtype=np.float64)
        if omega.ndim == 1:
            omega = omega[:, None]
        if omega.shape[0] != self.n:
            raise ValueError(
                f"operator has dimension {self.n}, got block with {omega.shape[0]} rows"
            )
        self.samples_taken += omega.shape[1]
        self.applications += 1
        return self._multiply(omega)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Single (or blocked) matrix-vector product without altering statistics."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        y = self._multiply(x[:, None] if single else x)
        return y[:, 0] if single else y

    def reset_statistics(self) -> None:
        self.samples_taken = 0
        self.applications = 0


class DenseOperator(SketchingOperator):
    """Sketching operator backed by an explicit dense matrix (permuted ordering)."""

    def __init__(self, matrix: np.ndarray):
        super().__init__()
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("DenseOperator requires a square matrix")

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    def _multiply(self, omega: np.ndarray) -> np.ndarray:
        return self.matrix @ omega


class KernelMatVecOperator(SketchingOperator):
    """Exact kernel-matrix application streamed in square tiles.

    Computes ``K(points, points) @ omega`` without ever materialising the full
    N x N matrix or a slab of it: kernel values are generated one square tile
    of ``128 x 128`` entries (128 KiB) at a time and immediately multiplied,
    so an application allocates its ``(n, d)`` output plus a few tile-sized
    temporaries that stay in cache.  The matrix is symmetric, so only the
    tiles on or above the diagonal are evaluated: an off-diagonal tile ``T =
    K[I, J]`` is applied twice, ``out[I] += T @ omega[J]`` and ``out[J] +=
    T.T @ omega[I]``.  This plays the role of the paper's fast black-box
    sampler for the covariance/IE experiments (there the sampler was an
    existing H2Opus matrix); the cost is one evaluation of about N^2 / 2
    kernel entries per application, whatever the number of columns, which is
    fine at reproduction scale and keeps the operator exact so accuracy checks
    are meaningful.

    ``row_block`` is the side of the square tile (default 128).  The tiling
    never changes a kernel value: whatever the kernel derives from the whole
    point set (the coincident-point floor of the radial kernels) is computed
    once per application, not per tile.
    """

    def __init__(
        self, kernel: KernelFunction, points: np.ndarray, row_block: int | None = None
    ):
        super().__init__()
        self.kernel = kernel
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("points must be a (n, dim) array")
        self.row_block = None if row_block is None else max(1, int(row_block))

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    def _multiply(self, omega: np.ndarray) -> np.ndarray:
        tile = self.kernel._tile_function(self.points, self.points)
        out = np.zeros((self.n, omega.shape[1]), dtype=np.float64)
        for rows, cols in _upper_tiles(self.n, self.row_block):
            block = tile(rows, cols)
            out[rows] += block @ omega[cols]
            if cols != rows:
                out[cols] += block.T @ omega[rows]
        return out


class H2Operator(SketchingOperator):
    """Sketching operator wrapping an existing H2 matrix (O(N d) application)."""

    def __init__(self, h2matrix) -> None:
        super().__init__()
        self.h2matrix = h2matrix

    @property
    def n(self) -> int:
        return int(self.h2matrix.num_rows)

    def _multiply(self, omega: np.ndarray) -> np.ndarray:
        return self.h2matrix.matvec(omega, permuted=True)


class LowRankOperator(SketchingOperator):
    """Sketching operator wrapping an explicit low-rank matrix ``U V^T``."""

    def __init__(self, low_rank: LowRankMatrix):
        super().__init__()
        self.low_rank = low_rank
        if low_rank.shape[0] != low_rank.shape[1]:
            raise ValueError("LowRankOperator requires a square low-rank matrix")

    @property
    def n(self) -> int:
        return int(self.low_rank.shape[0])

    def _multiply(self, omega: np.ndarray) -> np.ndarray:
        return self.low_rank.matvec(omega)


class SumOperator(SketchingOperator):
    """Sum of several sketching operators (e.g. H2 matrix + low-rank update)."""

    def __init__(self, operators: Sequence[SketchingOperator]):
        super().__init__()
        if not operators:
            raise ValueError("SumOperator requires at least one operator")
        sizes = {op.n for op in operators}
        if len(sizes) != 1:
            raise ValueError(f"operators have inconsistent sizes: {sorted(sizes)}")
        self.operators = list(operators)

    @property
    def n(self) -> int:
        return int(self.operators[0].n)

    def _multiply(self, omega: np.ndarray) -> np.ndarray:
        result = self.operators[0]._multiply(omega)
        for op in self.operators[1:]:
            result = result + op._multiply(omega)
        return result
