"""Nested-dissection multifrontal solve with sketch-compressed fronts.

This turns :mod:`repro.multifrontal` from a frontal-matrix *memory* study into
an actual sparse solver — the paper's application scenario: inside a
multifrontal factorization the large dense fronts (Schur complements of
nested-dissection separators) are compressed with the sketching constructor
and applied through their HSS factorization, trading exactness for near-linear
front memory so the resulting solver acts as a preconditioner
(STRUMPACK's mode of operation in the Fig. 6b comparison).

The recursion mirrors geometric nested dissection: a (sub-)grid is split by
an axis-aligned separator plane, both halves are factored recursively, and the
separator's frontal matrix

    F = A_ss - A_sl A_ll^{-1} A_ls - A_sr A_rr^{-1} A_rs

is formed by solving against the half-domain factorizations.  A front of size
``>= compress_min_size`` is (when ``compress_tolerance`` is set) clustered by
its separator geometry, compressed with the weak-admissibility sketching
constructor and factored on its own generators with
:class:`~repro.solvers.hss_factor.HSSFactorization`; small fronts use a
dense LU.  With ``compress_tolerance=None`` every front is dense and the solve
is exact (a true — if reproduction-scale — sparse direct solver).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..core.builder import H2Constructor
from ..core.config import ConstructionConfig
from ..multifrontal.poisson import grid_coordinates, poisson_grid_points
from ..sketching.entry_extractor import DenseEntryExtractor
from ..sketching.operators import DenseOperator
from ..tree.admissibility import WeakAdmissibility
from ..tree.block_partition import build_block_partition
from ..tree.cluster_tree import ClusterTree
from ..utils.rng import SeedLike, as_generator
from .hss_factor import factorize


@dataclass
class FrontReport:
    """Statistics of one factored front (separator Schur complement)."""

    level: int
    size: int
    compressed: bool
    dense_bytes: int
    factor_bytes: int
    rank_range: tuple = (0, 0)


class _LeafDomain:
    """A sub-grid factored directly with a sparse LU."""

    def __init__(self, indices: np.ndarray, matrix: sp.spmatrix):
        self.indices = indices
        self._lu = spla.splu(sp.csc_matrix(matrix[np.ix_(indices, indices)]))

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b)


class _SeparatorDomain:
    """Two recursively factored halves glued by a (possibly compressed) front."""

    def __init__(
        self,
        left: "_LeafDomain | _SeparatorDomain",
        right: "_LeafDomain | _SeparatorDomain",
        separator: np.ndarray,
        matrix: sp.spmatrix,
        front_solve: Callable[[np.ndarray], np.ndarray],
    ):
        self.left = left
        self.right = right
        self.separator = separator
        self.indices = np.concatenate([left.indices, right.indices, separator])
        self._front_solve = front_solve
        # Couplings between the separator and each half, in the halves' orders.
        self._a_sl = sp.csr_matrix(matrix[np.ix_(separator, left.indices)])
        self._a_ls = sp.csr_matrix(matrix[np.ix_(left.indices, separator)])
        self._a_sr = sp.csr_matrix(matrix[np.ix_(separator, right.indices)])
        self._a_rs = sp.csr_matrix(matrix[np.ix_(right.indices, separator)])

    def solve(self, b: np.ndarray) -> np.ndarray:
        nl = self.left.indices.shape[0]
        nr = self.right.indices.shape[0]
        bl, br, bs = b[:nl], b[nl : nl + nr], b[nl + nr :]
        zl = self.left.solve(bl)
        zr = self.right.solve(br)
        rs = bs - self._a_sl @ zl - self._a_sr @ zr
        xs = self._front_solve(rs)
        xl = zl - self.left.solve(self._a_ls @ xs)
        xr = zr - self.right.solve(self._a_rs @ xs)
        return np.concatenate([xl, xr, xs])


class MultifrontalSolver:
    """Multifrontal solver for grid-structured sparse matrices.

    Build with :meth:`build`; apply with :meth:`solve` (a direct solve when
    fronts are exact, an approximate solve — i.e. a preconditioner — when
    fronts are compressed).  Pass an instance directly as the ``M`` argument
    of the Krylov solvers.
    """

    def __init__(
        self,
        root: "_LeafDomain | _SeparatorDomain",
        n: int,
        fronts: List[FrontReport],
    ):
        self._root = root
        self.n = int(n)
        self.fronts = fronts
        self._scatter = np.empty(n, dtype=np.int64)
        self._scatter[root.indices] = np.arange(n)

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        matrix: sp.spmatrix,
        grid_shape: Sequence[int],
        max_levels: int = 3,
        min_size: int = 3,
        compress_tolerance: float | None = None,
        compress_min_size: int = 256,
        compress_leaf_size: int = 32,
        seed: SeedLike = 0,
    ) -> "MultifrontalSolver":
        """Factor ``matrix`` (a ``grid_shape`` finite-difference operator).

        Parameters mirror :func:`repro.multifrontal.nested_dissection.nested_dissection`
        (``max_levels``, ``min_size`` control the dissection) plus the front
        compression policy: fronts of at least ``compress_min_size`` unknowns
        are compressed with the sketching constructor at
        ``compress_tolerance`` (``None`` disables compression everywhere).
        """
        matrix = sp.csr_matrix(matrix)
        grid_shape = tuple(int(s) for s in grid_shape)
        n = matrix.shape[0]
        if n != int(np.prod(grid_shape)):
            raise ValueError(
                f"matrix has {n} rows but grid {grid_shape} has {int(np.prod(grid_shape))} points"
            )
        coords = np.stack(grid_coordinates(grid_shape), axis=1)
        points = poisson_grid_points(grid_shape)
        rng = as_generator(seed)
        fronts: List[FrontReport] = []

        def recurse(indices: np.ndarray, level: int):
            sub = coords[indices]
            extents = sub.max(axis=0) - sub.min(axis=0) + 1
            if level >= max_levels or np.all(extents < min_size):
                return _LeafDomain(indices, matrix)
            axis = int(np.argmax(extents))
            cut = int(sub[:, axis].min() + extents[axis] // 2)
            left_indices = indices[sub[:, axis] < cut]
            right_indices = indices[sub[:, axis] > cut]
            if left_indices.size == 0 or right_indices.size == 0:
                # A degenerate cut (extent <= 2 along the split axis) leaves an
                # empty half; stop dissecting and factor the sub-grid directly.
                return _LeafDomain(indices, matrix)
            separator = indices[sub[:, axis] == cut]
            left = recurse(left_indices, level + 1)
            right = recurse(right_indices, level + 1)

            # Assemble the frontal matrix by solving against the halves.
            a_ss = matrix[np.ix_(separator, separator)].toarray()
            a_sl = matrix[np.ix_(separator, left.indices)]
            a_sr = matrix[np.ix_(separator, right.indices)]
            front = (
                a_ss
                - a_sl @ left.solve(matrix[np.ix_(left.indices, separator)].toarray())
                - a_sr @ right.solve(matrix[np.ix_(right.indices, separator)].toarray())
            )
            front_solve, report = cls._factor_front(
                front,
                points[separator],
                level,
                compress_tolerance,
                compress_min_size,
                compress_leaf_size,
                rng,
            )
            fronts.append(report)
            return _SeparatorDomain(left, right, separator, matrix, front_solve)

        root = recurse(np.arange(n, dtype=np.int64), 0)
        return cls(root, n, sorted(fronts, key=lambda f: (f.level, -f.size)))

    @staticmethod
    def _factor_front(
        front: np.ndarray,
        separator_points: np.ndarray,
        level: int,
        compress_tolerance: float | None,
        compress_min_size: int,
        compress_leaf_size: int,
        rng: np.random.Generator,
    ):
        size = front.shape[0]
        compressible = (
            compress_tolerance is not None
            and size >= max(compress_min_size, 2 * compress_leaf_size)
        )
        if not compressible:
            lu, piv = sla.lu_factor(front, check_finite=False)
            report = FrontReport(
                level=level,
                size=size,
                compressed=False,
                dense_bytes=int(front.nbytes),
                factor_bytes=int(lu.nbytes + piv.nbytes),
            )
            return (
                lambda b: sla.lu_solve((lu, piv), b, check_finite=False),
                report,
            )
        tree = ClusterTree.build(separator_points, leaf_size=compress_leaf_size)
        permuted = front[np.ix_(tree.perm, tree.perm)]
        result = H2Constructor(
            build_block_partition(tree, WeakAdmissibility()),
            DenseOperator(permuted),
            DenseEntryExtractor(permuted),
            config=ConstructionConfig(
                tolerance=compress_tolerance,
                sample_block_size=min(64, max(8, size // 8)),
            ),
            seed=rng,
        ).construct()
        factorization = factorize(result.matrix)
        report = FrontReport(
            level=level,
            size=size,
            compressed=True,
            dense_bytes=int(front.nbytes),
            factor_bytes=int(factorization.memory_bytes()),
            rank_range=result.rank_range,
        )
        return factorization.solve, report

    # ------------------------------------------------------------------ solve
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (exactly, or approximately with compressed fronts)."""
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        if single:
            b = b[:, None]
        if b.shape[0] != self.n:
            raise ValueError(f"matrix has {self.n} rows, b has {b.shape[0]}")
        x = self._root.solve(b[self._root.indices])[self._scatter]
        return x[:, 0] if single else x

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.solve(b)

    # ------------------------------------------------------------- diagnostics
    @property
    def is_exact(self) -> bool:
        return not any(f.compressed for f in self.fronts)

    def front_report(self) -> List[FrontReport]:
        """Per-front statistics, root front first."""
        return list(self.fronts)

    def statistics(self) -> Dict[str, object]:
        dense = sum(f.dense_bytes for f in self.fronts)
        factored = sum(f.factor_bytes for f in self.fronts)
        return {
            "n": self.n,
            "num_fronts": len(self.fronts),
            "num_compressed": sum(1 for f in self.fronts if f.compressed),
            "largest_front": max((f.size for f in self.fronts), default=0),
            "front_dense_mb": dense / 2**20,
            "front_factor_mb": factored / 2**20,
            "exact": self.is_exact,
        }
