"""Column-pivoted QR helpers.

Two uses in the construction algorithm:

* the **interpolative decomposition** (Section II-B) is computed from a
  column-pivoted QR whose triangular factor is truncated once its diagonal
  falls below the compression tolerance (:mod:`repro.linalg.interpolative`
  runs the factorization without forming ``Q``; :func:`truncated_pivoted_qr`
  here is for the baselines that read ``Q``);
* the **adaptive convergence test** (Section III-B) computes an (unpivoted)
  QR of every node's sample block and inspects the smallest absolute diagonal
  entry of ``R`` — if it is below the absolute threshold the samples already
  capture the block row to the requested accuracy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.linalg as sla


def truncated_pivoted_qr(
    matrix: np.ndarray,
    rel_tol: float | None = None,
    abs_tol: float | None = None,
    max_rank: int | None = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Column-pivoted QR with rank truncation.

    Computes ``matrix[:, perm] = Q @ R`` and the numerical rank ``k`` such that
    ``|R[k, k]|`` is the first diagonal entry below the truncation threshold.
    The threshold is ``max(rel_tol * |R[0, 0]|, abs_tol)`` where either
    tolerance may be omitted.

    Returns
    -------
    (Q, R, perm, rank):
        The full economic factors (not yet truncated) plus the numerical rank;
        callers slice ``Q[:, :rank]`` / ``R[:rank]`` as needed.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    m, n = a.shape
    if m == 0 or n == 0:
        return (
            np.zeros((m, 0)),
            np.zeros((0, n)),
            np.arange(n, dtype=np.int64),
            0,
        )
    q, r, perm = sla.qr(a, mode="economic", pivoting=True)
    rank = _truncation_rank(np.abs(np.diag(r)), rel_tol, abs_tol, max_rank)
    return q, r, perm.astype(np.int64), rank


def _truncation_rank(
    diag: np.ndarray,
    rel_tol: float | None,
    abs_tol: float | None,
    max_rank: int | None,
) -> int:
    """Numerical rank from the absolute diagonal of a pivoted ``R``: the index
    of the first entry at or below ``max(rel_tol * diag[0], abs_tol)``."""
    rank = int(diag.size)
    if rel_tol is not None or abs_tol is not None:
        threshold = 0.0
        if rel_tol is not None and diag.size:
            threshold = max(threshold, rel_tol * diag[0])
        if abs_tol is not None:
            threshold = max(threshold, abs_tol)
        below = np.nonzero(diag <= threshold)[0]
        if below.size:
            rank = int(below[0])
    if max_rank is not None:
        rank = min(rank, int(max_rank))
    return rank


def smallest_r_diagonal(matrix: np.ndarray) -> float:
    """Smallest absolute diagonal entry of ``R`` in a QR factorization of ``matrix``.

    This is the quantity the adaptive construction inspects to decide whether a
    node has received enough sample vectors: once the sample block is
    numerically rank deficient (smallest ``|R_ii|`` below the absolute
    tolerance) the current samples span the block row to the target accuracy.
    An empty matrix reports ``0.0`` (trivially converged).
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0.0
    if a.shape[0] < a.shape[1]:
        # Fewer rows than sample vectors: R is (m, d) upper-trapezoidal and the
        # trailing columns have no diagonal entry; the sample block cannot be
        # full column rank, so the node is converged by definition.
        return 0.0
    r = np.linalg.qr(a, mode="r")
    diag = np.abs(np.diag(r))
    if diag.size == 0:
        return 0.0
    return float(diag.min())


def householder_orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Return an orthonormal basis of the column space of ``matrix`` via QR.

    Used by the top-down peeling baseline to orthonormalise sampled blocks.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    q, _ = np.linalg.qr(a)
    return q
