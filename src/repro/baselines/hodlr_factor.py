"""Recursive HODLR factorization: near-linear direct solves and log-determinants.

A HODLR matrix over a node ``s`` with children ``c1, c2`` has the 2x2 block
form

    A_s = [[A_c1,          U12 V12^T],
           [U21 V21^T,     A_c2     ]]
        = D_s + P_s Q_s^T,          D_s = blkdiag(A_c1, A_c2),

with the thin factors ``P_s = blkdiag(U12, U21)`` and
``Q_s = [[0, V21], [V12, 0]]``.  Block elimination via the Woodbury identity
reduces a solve with ``A_s`` to two child solves plus a dense solve with the
small capacitance matrix ``C_s = I + Q_s^T D_s^{-1} P_s``:

    A_s^{-1} b = D_s^{-1} b - (D_s^{-1} P_s) C_s^{-1} Q_s^T (D_s^{-1} b).

The factorization precomputes ``D_s^{-1} P_s`` (by recursive child solves) and
an LU of every ``C_s`` bottom-up, after which each solve costs
``O(N k log N)``.  The matrix determinant lemma gives the log-determinant for
free: ``det(A_s) = det(A_c1) det(A_c2) det(C_s)``, accumulated from the leaf
LUs and the capacitance LUs — the standard route to Gaussian-process
log-likelihoods with hierarchical covariance matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
import scipy.linalg as sla

from ..utils.validation import require
from .hodlr import HODLRMatrix


def _slogdet_from_lu(lu: np.ndarray, piv: np.ndarray) -> Tuple[float, float]:
    """``(sign, log|det|)`` of the matrix factored by :func:`scipy.linalg.lu_factor`."""
    diag = np.diag(lu)
    if diag.size == 0:
        return 1.0, 0.0
    # Non-finite pivots arise when an (exactly singular) earlier factor has
    # already poisoned the Woodbury data; report the matrix as singular.
    if not np.all(np.isfinite(diag)) or np.any(diag == 0.0):
        return 0.0, -np.inf
    swaps = int(np.sum(piv != np.arange(piv.shape[0])))
    sign = float((-1.0) ** swaps) * float(np.prod(np.sign(diag)))
    return sign, float(np.sum(np.log(np.abs(diag))))


@dataclass
class _LeafFactor:
    lu: np.ndarray
    piv: np.ndarray


@dataclass
class _NodeFactor:
    """Woodbury data of one internal node."""

    #: ``A_c1^{-1} U12`` and ``A_c2^{-1} U21`` (the two diagonal blocks of D^{-1}P).
    top: np.ndarray
    bottom: np.ndarray
    #: Right factors of the off-diagonal blocks (build ``Q^T z`` cheaply).
    v12: np.ndarray
    v21: np.ndarray
    cap_lu: np.ndarray
    cap_piv: np.ndarray


class HODLRFactorization:
    """Factor a :class:`~repro.baselines.hodlr.HODLRMatrix` for direct solves.

    Parameters
    ----------
    hodlr:
        The matrix to factor.  Must cover the whole cluster tree (every leaf
        has a dense diagonal block, every sibling pair a low-rank block —
        exactly what ``convert(h2, "hodlr")`` and the HODLR builders
        of :mod:`repro.baselines.hodlr` produce).  The library factors its own
        H2 matrices with :class:`~repro.solvers.hss_factor.HSSFactorization`
        (:func:`~repro.solvers.hss_factor.factorize`); this class is for
        HODLR input.
    shift:
        Optional diagonal shift: factors ``A + shift * I`` instead of ``A``
        (a nugget/regularization term, also the usual way to make a loose
        preconditioner factorization robustly invertible).
    tracer:
        Optional :class:`repro.observe.SpanTracer`; the factorization build
        runs inside a ``factor/hodlr`` span carrying ``n`` and ``shift``.
    """

    def __init__(self, hodlr: HODLRMatrix, shift: float = 0.0,
                 tracer: object | None = None):
        from ..observe.tracer import NOOP_TRACER

        self.hodlr = hodlr
        self.shift = float(shift)
        self.tree = hodlr.tree
        self._leaves: Dict[int, _LeafFactor] = {}
        self._nodes: Dict[int, _NodeFactor] = {}
        self._sign = 1.0
        self._logabsdet = 0.0
        tracer = tracer if tracer is not None else NOOP_TRACER
        with tracer.span(
            "factor/hodlr", category="factor",
            n=self.tree.num_points, shift=self.shift,
        ):
            self._factor(0)

    # ------------------------------------------------------------------ factor
    def _factor(self, node: int) -> None:
        tree = self.tree
        if tree.is_leaf(node):
            block = self.hodlr.diagonal.get(node)
            require(block is not None, f"leaf {node} has no dense diagonal block")
            a = np.array(block, dtype=np.float64)
            if self.shift:
                a[np.diag_indices_from(a)] += self.shift
            lu, piv = sla.lu_factor(a, check_finite=False)
            self._leaves[node] = _LeafFactor(lu=lu, piv=piv)
            self._accumulate_slogdet(*_slogdet_from_lu(lu, piv))
            return

        c1, c2 = tree.children(node)
        self._factor(c1)
        self._factor(c2)
        lr12 = self.hodlr.off_diagonal.get((c1, c2))
        lr21 = self.hodlr.off_diagonal.get((c2, c1))
        require(
            lr12 is not None and lr21 is not None,
            f"node {node} is missing an off-diagonal sibling block",
        )
        k1, k2 = lr12.rank, lr21.rank
        if k1 + k2 == 0:
            self._nodes[node] = _NodeFactor(
                top=np.zeros((tree.cluster_size(c1), 0)),
                bottom=np.zeros((tree.cluster_size(c2), 0)),
                v12=lr12.right,
                v21=lr21.right,
                cap_lu=np.zeros((0, 0)),
                cap_piv=np.zeros(0, dtype=np.int32),
            )
            return
        top = self._solve_node(c1, lr12.left)  # A_c1^{-1} U12, (n1, k1)
        bottom = self._solve_node(c2, lr21.left)  # A_c2^{-1} U21, (n2, k2)
        # C = I + Q^T D^{-1} P = [[I, V12^T bottom], [V21^T top, I]].
        cap = np.eye(k1 + k2)
        cap[:k1, k1:] += lr12.right.T @ bottom
        cap[k1:, :k1] += lr21.right.T @ top
        cap_lu, cap_piv = sla.lu_factor(cap, check_finite=False)
        self._accumulate_slogdet(*_slogdet_from_lu(cap_lu, cap_piv))
        self._nodes[node] = _NodeFactor(
            top=top,
            bottom=bottom,
            v12=lr12.right,
            v21=lr21.right,
            cap_lu=cap_lu,
            cap_piv=cap_piv,
        )

    def _accumulate_slogdet(self, sign: float, logabs: float) -> None:
        # Once any factor is singular the determinant is 0; keep the sign at
        # exactly 0.0 rather than letting NaNs from later factors propagate.
        self._sign = 0.0 if (sign == 0.0 or self._sign == 0.0) else self._sign * sign
        self._logabsdet += logabs

    # ------------------------------------------------------------------- solve
    def _solve_node(self, node: int, b: np.ndarray) -> np.ndarray:
        """Solve with the principal sub-matrix of cluster ``node`` (local rows)."""
        tree = self.tree
        if tree.is_leaf(node):
            factor = self._leaves[node]
            return sla.lu_solve((factor.lu, factor.piv), b, check_finite=False)
        c1, c2 = tree.children(node)
        n1 = tree.cluster_size(c1)
        z1 = self._solve_node(c1, b[:n1])
        z2 = self._solve_node(c2, b[n1:])
        data = self._nodes[node]
        k1 = data.top.shape[1]
        if k1 + data.bottom.shape[1] == 0:
            return np.concatenate([z1, z2], axis=0)
        rhs = np.concatenate([data.v12.T @ z2, data.v21.T @ z1], axis=0)
        y = sla.lu_solve((data.cap_lu, data.cap_piv), rhs, check_finite=False)
        x1 = z1 - data.top @ y[:k1]
        x2 = z2 - data.bottom @ y[k1:]
        return np.concatenate([x1, x2], axis=0)

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
        if b.shape[0] != self.tree.num_points:
            raise ValueError(
                f"dimension mismatch: matrix has {self.tree.num_points} rows, "
                f"b has {b.shape[0]}"
            )
        bp = b if permuted else b[self.tree.perm]
        xp = self._solve_node(0, bp)
        x = xp if permuted else xp[self.tree.iperm]
        return x[:, 0] if single else x

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
        """Bytes held by the factorization (leaf LUs + Woodbury data)."""
        total = sum(f.lu.nbytes + f.piv.nbytes for f in self._leaves.values())
        for data in self._nodes.values():
            total += data.top.nbytes + data.bottom.nbytes
            total += data.cap_lu.nbytes + data.cap_piv.nbytes
        return int(total)
