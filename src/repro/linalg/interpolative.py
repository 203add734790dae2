"""Interpolative decompositions (ID).

The column ID (Eq. 3) approximates an ``m x n`` matrix ``A`` by a linear
combination of ``k`` of its own columns, ``A ~= A[:, S] @ [I  T] @ P^T``; the
row ID is the column ID of ``A^T`` and produces the factorization used to
skeletonize the sample blocks in Algorithm 1:

    A ~= X @ A[J, :],     X[J, :] = I_k,     X[redundant, :] = T^T,

where ``J`` are the skeleton row indices and the remaining (redundant) rows
are expressed through the ``k x (m - k)`` coefficient matrix ``T`` (``X``
stacks ``T^T`` under an identity, up to the row permutation which we keep
explicit instead of assuming pre-sorted indices as the paper does for
presentation).

Both are computed from a column-pivoted QR that is never completed: LAPACK's
``geqp3`` leaves ``R`` and the pivots, ``T = R1^{-1} R2`` is one triangular
solve, and the orthogonal factor (``orgqr``: 10 of the 38 ms an economic QR
of a 585 x 448 sample block took) is not formed because nothing reads it.  The decomposition is
carried as ``(J, redundant, T)``: applying ``X^T`` to a block is
``block[J] + T @ block[redundant]``, which is how the construction sweep
projects its random inputs, and the dense ``X`` is materialised only where it
is stored as a basis or transfer matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.linalg.lapack import dgeqp3, dtrtrs

from .qr import _truncation_rank


@dataclass
class InterpolativeDecomposition:
    """Result of a row ID ``A ~= X @ A[skeleton, :]``.

    Attributes
    ----------
    skeleton:
        The ``k`` selected (skeletonization) row indices ``J``.
    redundant:
        The remaining ``m - k`` row indices, in pivot order.
    T:
        The ``(k, m - k)`` coefficients of the redundant rows:
        ``A[redundant] ~= T.T @ A[skeleton]``, hence
        ``X.T @ B == B[skeleton] + T @ B[redundant]``.
    rank:
        ``k``, the number of skeleton rows.
    """

    skeleton: np.ndarray
    redundant: np.ndarray
    T: np.ndarray
    rank: int

    @property
    def num_rows(self) -> int:
        return int(self.skeleton.shape[0] + self.redundant.shape[0])

    @property
    def interpolation(self) -> np.ndarray:
        """The dense ``(m, k)`` matrix ``X`` with ``X[skeleton, :] = I``.

        Assembled on every access (C-contiguous, owned by the caller): take it
        once where it is stored.
        """
        x = np.zeros((self.num_rows, self.rank), dtype=np.float64)
        x[self.skeleton, np.arange(self.rank)] = 1.0
        x[self.redundant] = self.T.T
        return x

    def reconstruct(self, skeleton_rows: np.ndarray) -> np.ndarray:
        """Rebuild the approximation ``X @ skeleton_rows``."""
        return self.interpolation @ skeleton_rows


def _pivoted_id(
    matrix: np.ndarray,
    rel_tol: float | None,
    abs_tol: float | None,
    max_rank: int | None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(S, rest, T, rank)`` of the column ID ``A[:, rest] ~= A[:, S] @ T``.

    ``S`` and ``rest`` are the leading ``rank`` and the remaining pivots of a
    column-pivoted QR truncated on its diagonal, as in Eq. 3.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    n = a.shape[1]
    if a.size == 0:
        none = np.zeros(0, dtype=np.int64)
        return none, np.arange(n, dtype=np.int64), np.zeros((0, n)), 0
    # geqp3 overwrites its operand: factor a private column-major copy, with
    # the workspace LAPACK asks for (what scipy.linalg.qr does before it goes
    # on to form Q).
    qr = np.array(a, order="F")
    if not np.isfinite(qr).all():
        raise ValueError("array must not contain infs or NaNs")
    lwork = int(dgeqp3(qr, lwork=-1, overwrite_a=True)[3][0])
    qr, pivots, _, _, info = dgeqp3(qr, lwork=lwork, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"geqp3 failed with info={info}")
    perm = pivots.astype(np.int64) - 1
    rank = _truncation_rank(np.abs(np.diagonal(qr)), rel_tol, abs_tol, max_rank)
    if 0 < rank < n:
        # R1 T = R2 as the transposed lower-triangular system: the variant
        # ``scipy.linalg.solve_triangular`` runs for a row-major R1, which is
        # what the economic-mode code this replaces handed it, so ``T`` keeps
        # its bits.  ``qr``'s strict lower triangle holds Householder vectors;
        # the solve reads R1's triangle only.
        t, info = dtrtrs(qr[:rank, :rank].T, qr[:rank, rank:], lower=1, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: resolution failed at diagonal {info - 1}"
            )
    else:
        t = np.zeros((rank, n - rank))
    return perm[:rank], perm[rank:], t, rank


def column_id(
    matrix: np.ndarray,
    rel_tol: float | None = None,
    abs_tol: float | None = None,
    max_rank: int | None = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Column interpolative decomposition ``A ~= A[:, S] @ coeffs``.

    Returns ``(S, coeffs, rank)`` with ``coeffs`` of shape ``(rank, n)`` and
    ``coeffs[:, S] = I`` so that ``A[:, S] @ coeffs`` approximates ``A`` to the
    requested tolerance (measured on the pivoted-QR diagonal, as in Eq. 3).
    """
    skeleton, rest, t, rank = _pivoted_id(matrix, rel_tol, abs_tol, max_rank)
    coeffs = np.zeros((rank, skeleton.shape[0] + rest.shape[0]))
    coeffs[np.arange(rank), skeleton] = 1.0
    coeffs[:, rest] = t
    return skeleton, coeffs, rank


def row_id(
    matrix: np.ndarray,
    rel_tol: float | None = None,
    abs_tol: float | None = None,
    max_rank: int | None = None,
) -> InterpolativeDecomposition:
    """Row interpolative decomposition ``A ~= X @ A[J, :]``.

    Implemented as the column ID of ``A^T`` (the GPU code batches exactly this:
    transpose the sample blocks, run a column-pivoted QR, form ``T = R1^{-1} R2``).

    Parameters
    ----------
    matrix:
        The ``(m, d)`` sample block ``Y_loc`` of a node.
    rel_tol:
        Relative truncation tolerance on the pivoted-QR diagonal.
    abs_tol:
        Absolute truncation tolerance (used when a global matrix-norm based
        threshold is requested, Section III-B).
    max_rank:
        Optional hard cap on the rank.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    skeleton, redundant, t, rank = _pivoted_id(a.T, rel_tol, abs_tol, max_rank)
    return InterpolativeDecomposition(
        skeleton=skeleton, redundant=redundant, T=t, rank=rank
    )
