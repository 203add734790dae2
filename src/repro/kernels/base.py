"""Kernel-function interface.

A kernel ``K(x, y)`` together with a point set defines the dense matrix
``A[i, j] = K(points[i], points[j])`` that the construction algorithms
compress.  Kernels only need to provide a vectorised pairwise evaluation;
sub-block assembly (the paper's ``batchedGen`` input) is handled by
:mod:`repro.sketching.entry_extractor` on top of this interface.
"""

from __future__ import annotations

import copy
import dataclasses
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, Tuple

import numpy as np


class KernelFunction(ABC):
    """A symmetric kernel function ``K(x, y)`` evaluated on coordinate arrays.

    ``K(x, y) == K(y, x)`` is required, not optional: the constructor
    compresses a symmetric matrix (one basis per cluster), and the kernel
    layer evaluates each mirrored pair of a point set once — the tiled sweeps
    of :meth:`matrix` and :class:`~repro.sketching.KernelMatVecOperator`
    write ``K(x_j, x_i)`` as the value computed for ``K(x_i, x_j)``.
    """

    @abstractmethod
    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pairwise kernel matrix between row points ``x`` and column points ``y``.

        Parameters
        ----------
        x, y:
            Arrays of shape ``(m, dim)`` and ``(n, dim)``.

        Returns
        -------
        numpy.ndarray
            The ``(m, n)`` matrix ``K(x_i, y_j)``.
        """

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.evaluate(np.atleast_2d(x), np.atleast_2d(y))

    def matrix(self, points: np.ndarray) -> np.ndarray:
        """The full dense kernel matrix over ``points`` (test/small problems only).

        Assembled from the tiles on or above the diagonal, each off-diagonal
        one mirrored, so the result is bitwise symmetric.
        """
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        return _tiled(n, n, self._tile_function(points, points), mirror=True)

    def _tile_function(self, x: np.ndarray, y: np.ndarray) -> _TileFunction:
        """``tile(rows, cols) == evaluate(x, y)[rows, cols]``, one block at a time.

        What a streaming consumer (``KernelMatVecOperator``) calls once per
        application; kernels override it to hoist whatever depends on the
        whole of ``x`` / ``y`` out of the tile loop.
        """
        return lambda rows, cols: self.evaluate(x[rows], y[cols])

    # --------------------------------------------------------- hyperparameters
    def rebind(self, **params: float) -> "KernelFunction":
        """A copy of this kernel with the given hyperparameters replaced.

        The canonical move of a hyperparameter sweep: the kernel *family* stays
        fixed while its parameters change, so everything geometric (cluster
        tree, block partition, sample seed) can be reused across the sweep.
        Dataclass kernels re-run their ``__post_init__`` validation; unknown
        parameter names raise :class:`TypeError`.
        """
        if dataclasses.is_dataclass(self):
            return dataclasses.replace(self, **params)
        clone = copy.copy(self)
        for name, value in params.items():
            if not hasattr(clone, name):
                raise TypeError(
                    f"{type(self).__name__} has no hyperparameter {name!r}"
                )
            setattr(clone, name, value)
        return clone

    def hyperparameters(self) -> Dict[str, float]:
        """Scalar hyperparameters of this kernel (dataclass fields by default)."""
        if dataclasses.is_dataclass(self):
            return {
                f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if isinstance(getattr(self, f.name), (int, float))
            }
        return {}


#: Side of one square evaluation tile: 128 x 128 float64 entries (128 KiB), so
#: a tile and the few temporaries of its distance/profile pass fit the L2
#: cache of one core together.  A 2 MiB band of whole rows (the earlier
#: tiling) does not: its temporaries left the cache on every pass and made
#: kernel evaluation two to three times slower.
_TILE_SIDE = 128

_TileFunction = Callable[[slice, slice], np.ndarray]


def _tiles(
    num_rows: int, num_cols: int, side: int | None = None
) -> Iterator[Tuple[slice, slice]]:
    """``(rows, cols)`` slices covering a ``(num_rows, num_cols)`` output in
    square tiles of ``side`` (default :data:`_TILE_SIDE`), row by row.

    An output thinner than one tile (a few test points against a training
    set) gets tiles of the same entry count, stretched along its long side.
    """
    side = _TILE_SIDE if side is None else max(1, int(side))
    area = side * side
    height = max(side, area // max(min(side, num_cols), 1))
    width = max(side, area // max(min(side, num_rows), 1))
    for start in range(0, num_rows, height):
        rows = slice(start, min(start + height, num_rows))
        for first in range(0, num_cols, width):
            yield rows, slice(first, min(first + width, num_cols))


def _upper_tiles(n: int, side: int | None = None) -> Iterator[Tuple[slice, slice]]:
    """The tiles of an ``(n, n)`` output on or above its diagonal: with the
    mirror images of the off-diagonal ones they cover a symmetric output."""
    for rows, cols in _tiles(n, n, side):
        if cols.start >= rows.start:
            yield rows, cols


def _tiled(
    num_rows: int, num_cols: int, tile: _TileFunction, mirror: bool = False
) -> np.ndarray:
    """The ``(num_rows, num_cols)`` array whose block ``[rows, cols]`` is
    ``tile(rows, cols)``, assembled tile by tile.

    ``mirror`` states that the output is symmetric (one point set against
    itself): only the tiles on or above the diagonal are evaluated and each
    off-diagonal one is also written transposed, so every symmetric pair is
    evaluated once.  An output that fits one tile is the single call on the
    whole index range, so small evaluations run exactly the untiled code;
    larger ones never hold more than the output and the temporaries of one
    tile.
    """
    if num_rows * num_cols <= _TILE_SIDE * _TILE_SIDE:
        return tile(slice(0, num_rows), slice(0, num_cols))
    out = np.empty((num_rows, num_cols), dtype=np.float64)
    if not mirror:
        for rows, cols in _tiles(num_rows, num_cols):
            out[rows, cols] = tile(rows, cols)
        return out
    for rows, cols in _upper_tiles(num_rows):
        block = tile(rows, cols)
        out[rows, cols] = block
        if cols != rows:
            out[cols, rows] = block.T
    return out


def _distance_tile(
    x: np.ndarray, y: np.ndarray, profile: Callable[[np.ndarray], np.ndarray]
) -> _TileFunction:
    """The tile function of ``profile(distances(x, y))``.

    The snap-to-zero floor is taken from the whole of ``x`` and ``y``, so which
    pairs count as coincident does not depend on the tile boundaries.
    """
    x_sq = np.einsum("ij,ij->i", x, x)
    y_sq = np.einsum("ij,ij->i", y, y)
    scale = float(x_sq.max(initial=0.0) + y_sq.max(initial=0.0))
    floor = 64.0 * np.finfo(np.float64).eps * max(scale, np.finfo(np.float64).tiny)

    def tile(rows: slice, cols: slice) -> np.ndarray:
        sq = x_sq[rows, None] + y_sq[None, cols] - 2.0 * (x[rows] @ y[cols].T)
        sq[sq < floor] = 0.0
        return profile(np.sqrt(sq, out=sq))

    return tile


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of ``x`` and ``y``.

    Uses the expanded-square formulation with a clamp at zero so it is a single
    BLAS-3 call plus elementwise work (the dominant cost of dense kernel
    assembly) instead of a Python loop; large outputs are produced in square
    tiles, so the only array of the output's size is the output.  The
    distances of one point set to itself (``x is y``) are evaluated on the
    tiles on or above the diagonal and mirrored.

    Squared distances below the round-off floor of the expansion
    (``~eps * (|x|^2 + |y|^2)``) are snapped to exactly zero so that coincident
    points are detected reliably — kernels singular at the origin substitute
    their configured self-interaction value for those entries.
    """
    same = x is y
    x = np.asarray(x, dtype=np.float64)
    y = x if same else np.asarray(y, dtype=np.float64)
    tile = _distance_tile(x, y, lambda r: r)
    return _tiled(x.shape[0], y.shape[0], tile, mirror=same)


def pairwise_distances_stacked(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched Euclidean distances between ``(g, p, dim)`` and ``(g, q, dim)`` stacks.

    Item ``i`` of the result equals ``pairwise_distances(x[i], y[i])`` —
    including the per-block round-off floor, which is derived from each block's
    own coordinate scale — but all ``g`` blocks are evaluated with one einsum /
    matmul / sqrt pass.  This is the distance kernel behind the batched entry
    generator (``EntryExtractor._extract_stacked`` /
    ``extract_blocks_into``): one launch evaluates the dense or coupling
    blocks of an entire tree level.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 3 or y.ndim != 3 or x.shape[0] != y.shape[0]:
        raise ValueError("stacked distances require (g, p, dim)/(g, q, dim) arrays")
    x_sq = np.einsum("gij,gij->gi", x, x)
    y_sq = np.einsum("gij,gij->gi", y, y)
    sq = x_sq[:, :, None] + y_sq[:, None, :] - 2.0 * np.matmul(x, y.transpose(0, 2, 1))
    tiny = np.finfo(np.float64).tiny
    scale = x_sq.max(axis=1, initial=0.0) + y_sq.max(axis=1, initial=0.0)
    floor = 64.0 * np.finfo(np.float64).eps * np.maximum(scale, tiny)
    sq[sq < floor[:, None, None]] = 0.0
    return np.sqrt(sq, out=sq)


class PairwiseKernel(KernelFunction):
    """Base class for radial kernels ``K(x, y) = f(|x - y|)``.

    Sub-classes implement :meth:`profile` acting elementwise on a distance
    array; optionally :attr:`diagonal_value` overrides the value at zero
    distance (needed for kernels singular at the origin such as the Helmholtz
    volume-IE kernel).  The substitution happens in exactly one place,
    :meth:`profile_with_diagonal`; a singular :meth:`profile` may return
    ``inf``/``nan`` at zero.
    """

    #: Value to use on the diagonal (distance exactly zero); ``None`` keeps
    #: the profile's own value at zero.
    diagonal_value: float | None = None

    @abstractmethod
    def profile(self, r: np.ndarray) -> np.ndarray:
        """Evaluate the radial profile ``f(r)`` elementwise on ``r >= 0``."""

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x is y:
            return self.matrix(x)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return _tiled(x.shape[0], y.shape[0], self._tile_function(x, y))

    def _tile_function(self, x: np.ndarray, y: np.ndarray) -> _TileFunction:
        return _distance_tile(x, y, self.profile_with_diagonal)

    def profile_with_diagonal(self, r: np.ndarray) -> np.ndarray:
        """Evaluate the profile on a distance array, honouring :attr:`diagonal_value`.

        The entry point for distance-reusing evaluation paths, which keep the
        distances fixed and re-evaluate only this function.
        """
        values = self.profile(r)
        if self.diagonal_value is not None:
            values = np.where(r == 0.0, self.diagonal_value, values)
        return values

    def value_at_zero(self) -> float:
        """The self-interaction value ``K(x, x)`` (prior variance of GP kernels)."""
        return float(np.asarray(self.profile_with_diagonal(np.zeros(1)))[0])

    # ------------------------------------------------------------- composition
    def __add__(self, other: "PairwiseKernel") -> "PairwiseKernel":
        from .composite import SumKernel

        if not isinstance(other, PairwiseKernel):
            return NotImplemented
        return SumKernel((self, other))

    def __mul__(self, scale: float) -> "PairwiseKernel":
        from .composite import ScaledKernel

        if not isinstance(scale, (int, float)):
            return NotImplemented
        return ScaledKernel(self, float(scale))

    def __rmul__(self, scale: float) -> "PairwiseKernel":
        return self.__mul__(scale)
