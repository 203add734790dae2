"""HSS factorization on the matrix's own generators: level-by-level skeleton elimination.

An :class:`~repro.hmatrix.h2matrix.H2Matrix` on the weak partition (an HSS
matrix) is, on every level, *block diagonal plus low rank in a nested basis*:

    A = blkdiag(D_tau) + blkdiag(W_tau) * R * blkdiag(W_tau)^T,

with ``D_tau`` the dense leaf block (or, higher up, what the level below left
over), ``W_tau`` the leaf basis (the stacked child transfers ``[E_c1; E_c2]``)
and ``R`` the same kind of matrix on the ranks — one level shorter.  The
constructor builds every ``W_tau`` with a row interpolative decomposition, so
``k`` of its rows are exact unit vectors: split the rows of a node into these
*skeleton* rows ``s`` (``W_s = I``) and the *redundant* rows ``r`` with
``T = W_r``.  The unit-determinant transform ``L = [[I, -T], [0, I]]``
annihilates ``W_r``, so after ``L A L^T`` the redundant rows of a node couple
to nothing but the node's own skeleton, through

    X_rs = D_rs - T D_ss,    X_sr = D_sr - D_ss T^T,
    X_rr = D_rr - T D_sr - X_rs T^T,

and are eliminated with one LU of ``X_rr`` (recursive skeletonization, Ho &
Greengard, SISC 34, 2012).  What is left on the skeleton,
``S = D_ss - X_sr G`` with ``G = X_rr^{-1} X_rs``, is the parent's diagonal
block: ``D_parent = [[S_c1, B_12], [B_21, S_c2]]`` with the stored couplings.
The root is one dense LU, the determinant the product over all pivot blocks.
No inner basis is ever expanded and nothing is re-solved per ancestor, which
is what the nested-basis expansion + recursive Woodbury route
(``convert(h2, "hodlr")`` + :class:`~repro.baselines.hodlr_factor.HODLRFactorization`,
the comparator and test oracle) pays for.

A basis without ``k`` unit rows (hand-built, or re-mixed ``W -> W G``) gets its
split from one partially pivoted LU of ``W`` instead: ``T = W_r W_s^{-1}`` is
read off the unit-lower factor and the elimination above runs unchanged,
except that the surviving ``W_s != I`` is folded into the parent's generators
(``E_c -> W_s E_c``, ``B_12 -> W_s1 B_12 W_s2^T``).

Everything runs for all nodes of a level at once on zero-padded stacks (pivot
blocks padded with identity; two stacks per level, of its lower- and its
higher-rank nodes, see :data:`RANK_BUCKETS`), and the data a solve needs is
kept in that form — the way :class:`~repro.batched.apply_plan.H2ApplyPlan`
compiles an apply:

    upsweep    v_r -= T v_s;   z_r = X_rr^{-1} v_r;   v_s -= X_sr z_r
    root       dense LU solve on the surviving skeleton
    downsweep  y_r = z_r - G y_s;   x_s = y_s - T^T y_r;   x_r = y_r

Every skeleton row *is* a row of the matrix, so all levels gather from and
scatter into one permuted vector (plus one zero row that padding points at).
A solve is five batched launches per stack plus the root solve — a function
of the level count only, except that a stack with nothing to eliminate
(full-rank leaves) is dropped — recorded on the launch counter of the matrix's
apply backend; its buffers are allocated per call, so concurrent solves on one
factorization are safe.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrf, dlaswp, dtrtrs

from ..batched.block_rows import pad_blocks
from ..core.recompression import _recompress_weak
from ..hmatrix.h2matrix import H2Matrix

#: Stacks per level: its nodes sorted by rank and cut into this many buckets.
#: One stack pads every node to the level's largest redundant count *and*
#: largest rank — on a loose 2D HSS (ranks 9-19 on 32-point leaves) 60 % more
#: than the blocks themselves, and more than the operator; two buckets halve
#: that.  A fixed number keeps the launches a function of the level count.
RANK_BUCKETS = 2
#: Batched launches of one stack in a solve (two GEMMs and one LU solve up,
#: two GEMMs down); the root adds one LU solve.
LAUNCHES_PER_STAGE = 5


@dataclass(frozen=True)
class _Front:
    """What is left to eliminate on one level: per node the diagonal block and
    where its rows live, stacked with one extra zero row/column (the last)
    that every padded index points at."""

    d: np.ndarray  # (g, m + 1, m + 1)
    idx: np.ndarray  # (g, m + 1) position in the permuted vector; n = padding
    #: ``W_s`` of the nodes below (``None``: all identity), still to be folded
    #: into this level's bases.
    child_mix: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _Stage:
    """Compiled elimination of one rank bucket of one level, stacked over its
    ``g`` nodes."""

    r_idx: np.ndarray  # (g, r) redundant rows, permuted positions (n = padding)
    s_idx: np.ndarray  # (g, k) skeleton rows
    t: np.ndarray  # (g, r, k)
    lu: np.ndarray  # (g, r, r) packed LU factors of the row-permuted pivot blocks
    perm: np.ndarray  # (g, r) that row permutation
    x_sr: np.ndarray  # (g, k, r)
    g: np.ndarray  # (g, r, k)


def _pivot_stack(count: int, size: int) -> np.ndarray:
    """An empty ``(count, size, size)`` stack whose items are Fortran-ordered,
    so LAPACK factors and solves with them in place."""
    return np.empty((count, size, size)).transpose(0, 2, 1)


class HSSFactorization:
    """Factor an HSS matrix (weak-partition :class:`H2Matrix`) for direct solves.

    Parameters
    ----------
    h2:
        The matrix to factor.  Must live on the weak partition (dense blocks on
        the leaf diagonal, couplings between siblings) — anything else raises
        :class:`ValueError`; :func:`factorize` re-compresses such matrices
        onto the weak partition first.  Couplings need not be symmetric.  The
        generators are only read, never written or kept (:attr:`matrix` is
        a weak reference).
    shift:
        Optional diagonal shift: factors ``A + shift * I``.

    The factorization runs on ``h2``'s binding (:meth:`H2Matrix.bind`): it
    records its launches on the apply backend's counter and its spans to
    the apply tracer — the build in a ``factor/hss`` span (``n``, ``shift``,
    ``levels``, ``stages``, ``eliminated``, ``root_size``, ``bytes``), every
    solve in a ``solve/hss`` span (``n``, ``k``, ``stages``, ``launches``).
    """

    def __init__(self, h2: H2Matrix, shift: float = 0.0):
        defect = h2.weak_partition_defect()
        if defect is not None:
            raise ValueError(
                f"{defect}: HSSFactorization needs a matrix on the "
                "weak-admissibility (HSS) partition"
            )
        self.tree = h2.tree
        self.shift = float(shift)
        self._matrix = weakref.ref(h2)
        self._tracer = h2.apply_tracer
        self._counter = h2.apply_backend.counter
        self._stages: List[_Stage] = []
        self._sign = 1.0
        self._logabsdet = 0.0
        with self._tracer.span(
            "factor/hss", category="factor",
            n=self.tree.num_points, shift=self.shift,
        ) as span:
            self._factor(h2)
            span.set(
                levels=self.tree.depth,
                stages=len(self._stages),
                eliminated=self.tree.num_points - self.root_size,
                root_size=self.root_size,
                bytes=self.memory_bytes(),
            )

    # ------------------------------------------------------------------ factor
    def _factor(self, h2: H2Matrix) -> None:
        tree = h2.tree
        front = self._leaf_front(h2)
        for level in range(tree.depth, 0, -1):
            w, ranks = self._level_basis(h2, level, front)
            s_loc, r_loc, t, mix = self._split(w, ranks, front.idx < tree.num_points)
            schur = np.zeros((s_loc.shape[0], s_loc.shape[1], s_loc.shape[1]))
            sentinel = front.d.shape[1] - 1
            r_count = np.count_nonzero(r_loc != sentinel, axis=1)
            # Nodes of similar rank share a stack, so that a level of uneven
            # ranks is not padded to its extremes in both directions at once.
            by_rank = np.argsort(r_count, kind="stable")
            for nodes in np.array_split(by_rank, min(by_rank.size, RANK_BUCKETS)):
                r, k = int(r_count[nodes].max()), int(ranks[nodes].max())
                schur[nodes, :k, :k] = self._eliminate(
                    front, nodes, s_loc[nodes, :k], r_loc[nodes, :r], t[nodes, :r, :k]
                )
            s_idx = np.take_along_axis(front.idx, s_loc, axis=1)
            front = self._parent_front(h2, level - 1, schur, s_idx, mix)
        # The root: one dense LU of what survived level 1 (a stack of one).
        rows = np.nonzero(front.idx[0] < tree.num_points)[0]
        self._root_idx = front.idx[0, rows]
        self._root_lu = _pivot_stack(1, rows.size)
        self._root_lu[0] = front.d[0][np.ix_(rows, rows)]
        self._root_perm = self._getrf(self._root_lu)

    def _leaf_front(self, h2: H2Matrix) -> _Front:
        tree = h2.tree
        n = tree.num_points
        leaves = tree.leaves()
        sizes = tree.level_sizes(tree.depth)
        m = int(sizes.max())
        blocks = [h2.dense.get((node, node)) for node in leaves]
        for node, block in zip(leaves, blocks):
            if block is None:
                raise ValueError(f"leaf {node} has no dense diagonal block")
        d = pad_blocks(blocks, m + 1, m + 1)
        local = np.arange(m + 1)
        real = local < sizes[:, None]
        nodes, rows = np.nonzero(real)
        d[nodes, rows, rows] += self.shift
        idx = tree.starts[np.asarray(leaves)][:, None] + local
        idx[~real] = n
        return _Front(d, idx)

    def _level_basis(
        self, h2: H2Matrix, level: int, front: _Front
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(W, ranks)`` of one level: ``W[i]`` is the leaf basis of node ``i``
        or its stacked (and, below a generic split, re-mixed) child transfers,
        laid out on the rows of ``front``."""
        tree, basis = h2.tree, h2.basis
        nodes = tree.nodes_at_level(level)
        ranks = np.array([basis.rank(node) for node in nodes], dtype=np.int64)
        rows, k = front.d.shape[1], int(ranks.max())
        if level == tree.depth:
            w = pad_blocks([basis.leaf_bases.get(node) for node in nodes], rows, k)
            return w, ranks
        # The children of a level are its nodes' sibling pairs in order, so
        # their padded transfers stack pairwise into ``[E_c1; E_c2]``.
        half = (rows - 1) // 2
        children = [child for node in nodes for child in tree.children(node)]
        w = np.zeros((len(nodes), rows, k))
        w[:, : 2 * half] = pad_blocks(
            [basis.transfers.get(child) for child in children], half, k
        ).reshape(len(nodes), 2 * half, k)
        mix = front.child_mix
        if mix is not None:
            w[:, :half] = self._gemm(mix[0::2], w[:, :half])
            w[:, half : 2 * half] = self._gemm(mix[1::2], w[:, half : 2 * half])
        return w, ranks

    @staticmethod
    def _split(
        w: np.ndarray, ranks: np.ndarray, valid: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Skeleton / redundant rows of every node and ``T`` with ``T W_s = W_r``.

        Returns local row indices ``s_loc`` ``(g, k)`` and ``r_loc`` ``(g, r)``
        (padding points at the sentinel row), ``T`` ``(g, r, k)`` and the
        stacked ``W_s`` — ``None`` when every node's skeleton rows are the unit
        rows of its row ID, i.e. ``W_s = I``.
        """
        g, rows, k = w.shape
        sentinel = rows - 1
        nodes = np.arange(g)[:, None]
        s_loc = np.full((g, k), -1, dtype=np.int64)
        if k:
            # The row ID wrote row J[j] of the basis as the unit vector e_j.
            one = w == 1.0
            gi, ri = np.nonzero(one.any(axis=2) & (np.count_nonzero(w, axis=2) == 1))
            s_loc[gi, one[gi, ri].argmax(axis=1)] = ri
        real = np.arange(k) < ranks[:, None]
        generic = np.nonzero((real & (s_loc < 0)).any(axis=1))[0]
        t_generic = {}
        for i in generic:
            # No unit rows: one partially pivoted LU of W picks the rows, and
            # T = L_r L_s^{-1} needs no inverse of W_s (which may be singular).
            node_rows = np.nonzero(valid[i])[0]
            rank = int(ranks[i])
            if node_rows.size < rank:
                raise ValueError(
                    f"an HSS basis has more columns ({rank}) than rows "
                    f"({node_rows.size})"
                )
            perm, lower, _ = sla.lu(w[i, node_rows, :rank], p_indices=True)
            order = node_rows[np.argsort(perm)]
            s_loc[i, :rank] = order[:rank]
            t_rows = np.zeros((rows, rank))
            if rank:
                t_rows[order[rank:]] = sla.solve_triangular(
                    lower[:rank], lower[rank:].T, trans="T", lower=True,
                    unit_diagonal=True,
                ).T
            t_generic[int(i)] = t_rows
        s_loc[~real] = sentinel

        redundant = valid.copy()
        redundant[nodes, s_loc] = False
        counts = redundant.sum(axis=1)
        r = int(counts.max())
        r_loc = np.argsort(~redundant, axis=1, kind="stable")[:, :r]
        r_loc[np.arange(r) >= counts[:, None]] = sentinel
        t = w[nodes, r_loc]
        if generic.size:
            # Columns beyond a node's rank are zero in ``w`` as in ``T``.
            t[generic] = pad_blocks(
                [t_generic[int(i)][r_loc[i]] for i in generic], r, k
            )
        mix = w[nodes, s_loc] if generic.size else None
        return s_loc, r_loc, t, mix

    def _eliminate(
        self, front: _Front, nodes: np.ndarray, s_loc: np.ndarray,
        r_loc: np.ndarray, t: np.ndarray,
    ) -> np.ndarray:
        """Eliminate the redundant rows of the given nodes of one level;
        returns the Schur complements ``S`` on their skeletons, ``(g, k, k)``."""
        g, r = r_loc.shape
        # One gather puts every block into [redundant; skeleton] order.
        order = np.concatenate([r_loc, s_loc], axis=1)
        d = front.d[nodes[:, None, None], order[:, :, None], order[:, None, :]]
        d_ss = d[:, r:, r:]
        if r == 0:  # nothing to eliminate on any of these nodes
            return d_ss
        d_sr = d[:, r:, :r]
        t_t = t.transpose(0, 2, 1)
        x_rs = d[:, :r, r:] - self._gemm(t, d_ss)
        x_sr = d_sr - self._gemm(d_ss, t_t)
        x_rr = _pivot_stack(g, r)
        np.subtract(
            d[:, :r, :r] - self._gemm(t, d_sr), self._gemm(x_rs, t_t), out=x_rr
        )
        padded = np.nonzero(r_loc == front.d.shape[1] - 1)
        x_rr[padded[0], padded[1], padded[1]] = 1.0
        perm = self._getrf(x_rr)
        gain = self._getrs(x_rr, perm, x_rs)
        idx = front.idx[nodes]
        self._stages.append(_Stage(
            r_idx=np.take_along_axis(idx, r_loc, axis=1),
            s_idx=np.take_along_axis(idx, s_loc, axis=1),
            t=t, lu=x_rr, perm=perm, x_sr=x_sr, g=gain,
        ))
        return d_ss - self._gemm(x_sr, gain)

    def _parent_front(
        self, h2: H2Matrix, level: int, schur: np.ndarray, s_idx: np.ndarray,
        mix: Optional[np.ndarray],
    ) -> _Front:
        """Merge sibling Schur complements and their couplings into the
        diagonal blocks ``[[S_c1, B_12], [B_21, S_c2]]`` of ``level``."""
        tree = h2.tree
        g, k = schur.shape[0] // 2, schur.shape[1]
        pairs = [tree.children(node) for node in tree.nodes_at_level(level)]
        d = np.zeros((g, 2 * k + 1, 2 * k + 1))
        d[:, :k, :k] = schur[0::2]
        d[:, k : 2 * k, k : 2 * k] = schur[1::2]
        d[:, :k, k : 2 * k] = pad_blocks([h2.coupling.get((c1, c2)) for c1, c2 in pairs], k, k)
        d[:, k : 2 * k, :k] = pad_blocks([h2.coupling.get((c2, c1)) for c1, c2 in pairs], k, k)
        if mix is not None:
            m1, m2 = mix[0::2], mix[1::2]
            m1_t, m2_t = m1.transpose(0, 2, 1), m2.transpose(0, 2, 1)
            d[:, :k, k : 2 * k] = self._gemm(self._gemm(m1, d[:, :k, k : 2 * k]), m2_t)
            d[:, k : 2 * k, :k] = self._gemm(self._gemm(m2, d[:, k : 2 * k, :k]), m1_t)
        padding = np.full((g, 1), tree.num_points, dtype=np.int64)
        idx = np.concatenate([s_idx[0::2], s_idx[1::2], padding], axis=1)
        return _Front(d, idx, child_mix=mix)

    # ------------------------------------------------------ batched primitives
    def _gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._counter.record("hss_gemm")
        return a @ b

    def _getrf(self, a: np.ndarray) -> np.ndarray:
        """LU-factor a :func:`_pivot_stack` in place with partial pivoting and
        fold the blocks into the determinant.  Returns the row permutations
        ``perm`` with ``a[i][perm[i]] = L_i U_i``."""
        count, size, _ = a.shape
        perm = np.empty((count, size), dtype=np.int64)
        identity = np.arange(size)
        rows = identity.astype(np.float64)[:, None]
        swaps = 0
        for i in range(count if size else 0):
            a[i], piv, _ = dgetrf(a[i], overwrite_a=1)
            swaps += np.count_nonzero(piv != identity)
            perm[i] = dlaswp(rows, piv)[:, 0]
        self._counter.record("hss_getrf")
        self._accumulate_slogdet(np.diagonal(a, axis1=1, axis2=2), swaps)
        return perm

    def _getrs(self, lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``lu[i]^{-1} b[i]`` for a stack of LU factors.

        There is no stacked ``getrs`` in NumPy/SciPy, so the batch is a loop
        over LAPACK calls (as ``batched_row_id`` is one over pivoted QRs): one
        launch.  It spells ``getrs`` as row permutation + two ``trtrs``: the
        ``getrs`` of the OpenBLAS that SciPy bundles corrupts the heap when
        several threads call it at once, ``trtrs`` does not.
        """
        x = np.take_along_axis(b, perm[:, :, None], axis=1)
        if x.size:
            for i in range(lu.shape[0]):
                y = dtrtrs(lu[i], x[i], lower=1, unitdiag=1)[0]
                x[i] = dtrtrs(lu[i], y, overwrite_b=1)[0]
        self._counter.record("hss_getrs")
        return x

    def _accumulate_slogdet(self, pivots: np.ndarray, swaps: int) -> None:
        """Fold the U diagonals of a stack of pivot blocks into the
        determinant; the transforms between the blocks have determinant 1."""
        # A zero pivot is a singular matrix; a non-finite one means an earlier
        # singular block already poisoned the Schur complements.
        if not np.all(np.isfinite(pivots)) or np.any(pivots == 0.0):
            self._sign, self._logabsdet = 0.0, -np.inf
        if self._sign == 0.0:
            return
        if (swaps + np.count_nonzero(pivots < 0.0)) % 2:
            self._sign = -self._sign
        self._logabsdet += float(np.sum(np.log(np.abs(pivots))))

    @property
    def matrix(self) -> Optional[H2Matrix]:
        """The factored matrix; ``None`` once collected (a re-compression)."""
        return self._matrix()

    # ------------------------------------------------------------------- solve
    @property
    def root_size(self) -> int:
        """Rows that survive to the dense root solve."""
        return int(self._root_idx.shape[0])

    @property
    def launches_per_solve(self) -> int:
        """Batched launches of one solve: ``5 * RANK_BUCKETS`` per level that
        eliminates rows, plus the root solve."""
        return LAUNCHES_PER_STAGE * len(self._stages) + (1 if self.root_size else 0)

    def solve(self, b: np.ndarray, permuted: bool = False) -> np.ndarray:
        """Solve ``(A + shift I) x = b`` for a vector or block of vectors.

        Like every format in the library the factorization lives in the
        cluster-tree ordering; by default ``b``/``x`` are in the original
        point ordering.
        """
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        if single:
            b = b[:, None]
        n = self.tree.num_points
        if b.ndim != 2 or b.shape[0] != n:
            raise ValueError(
                f"dimension mismatch: matrix has {n} rows, b has shape {b.shape}"
            )
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span(
                "solve/hss", category="solve", n=n, k=b.shape[1],
                stages=len(self._stages), launches=self.launches_per_solve,
            ):
                x = self._solve(b, permuted)
        else:
            x = self._solve(b, permuted)
        return x[:, 0] if single else x

    def _solve(self, b: np.ndarray, permuted: bool) -> np.ndarray:
        n = self.tree.num_points
        # The permuted vector plus the zero row that padded indices point at
        # (padded operand rows are zero, so it stays zero through the sweeps).
        v = np.empty((n + 1, b.shape[1]))
        v[:n] = b if permuted else b[self.tree.perm]
        v[n] = 0.0
        pending = []
        for stage in self._stages:
            v_s = v[stage.s_idx]
            z_r = v[stage.r_idx]
            z_r -= self._gemm(stage.t, v_s)
            z_r = self._getrs(stage.lu, stage.perm, z_r)
            v_s -= self._gemm(stage.x_sr, z_r)
            v[stage.s_idx] = v_s
            pending.append(z_r)
        if self.root_size:
            v[self._root_idx] = self._getrs(
                self._root_lu, self._root_perm, v[self._root_idx][None]
            )[0]
        for stage in reversed(self._stages):
            y_r = pending.pop()
            y_s = v[stage.s_idx]
            y_r -= self._gemm(stage.g, y_s)
            y_s -= self._gemm(stage.t.transpose(0, 2, 1), y_r)
            v[stage.s_idx] = y_s
            v[stage.r_idx] = y_r
        return v[:n] if permuted else v[self.tree.iperm]

    # ------------------------------------------------------------ determinants
    def slogdet(self) -> Tuple[float, float]:
        """``(sign, log|det|)`` of the factored matrix, as :func:`numpy.linalg.slogdet`."""
        return self._sign, self._logabsdet

    def logdet(self) -> float:
        """``log det(A + shift I)``; raises for a non-positive determinant."""
        if self._sign <= 0.0:
            raise ValueError(
                f"matrix determinant is not positive (sign {self._sign:+.0f})"
            )
        return self._logabsdet

    @property
    def determinant_sign(self) -> float:
        """Sign of the determinant: ``+1.0``, ``-1.0`` or ``0.0`` (singular)."""
        return self._sign

    # ----------------------------------------------------------------- memory
    def memory_bytes(self) -> int:
        """Bytes held by the factorization (stacked level operands, index
        tables, the root LU)."""
        total = self._root_lu.nbytes + self._root_perm.nbytes + self._root_idx.nbytes
        for stage in self._stages:
            total += sum(array.nbytes for array in vars(stage).values())
        return int(total)


def factorize(operator: object, shift: float = 0.0) -> HSSFactorization:
    """Factor the :class:`H2Matrix` ``operator + shift I``.

    * an :class:`H2Matrix` on the weak partition (HSS — what ``Session``,
      ``compress(format="hss")`` and the GP produce) is factored on its own
      generators by :class:`HSSFactorization`;
    * an :class:`H2Matrix` on a strong partition is first re-compressed onto
      the weak partition of its own tree with the sketching constructor
      (:func:`~repro.core.recompression.recompress_h2` at ``tol=1e-6``,
      ``seed=0``, so the factorization is only as accurate as that
      re-compression) and then factored by :class:`HSSFactorization`.

    Both run on the operator's binding (backend and tracer).

    Anything else raises :class:`TypeError`.
    """
    if not isinstance(operator, H2Matrix):
        raise TypeError(
            f"cannot factorize a {type(operator).__name__}: expected an H2Matrix"
        )
    if operator.weak_partition_defect() is not None:
        operator = _recompress_weak(operator)
    return HSSFactorization(operator, shift=shift)
