"""Adaptive cross approximation (ACA) with partial pivoting.

ACA builds a low-rank approximation of a matrix block from O(k (m + n)) of its
entries.  It is the classical entry-evaluation-based compression scheme used
by H-matrix codes (HLIBpro, ButterflyPACK's entry-based mode, ...); in this
reproduction it powers the non-nested :class:`~repro.baselines.hmatrix.HMatrix`
and :class:`~repro.baselines.hodlr.HODLRMatrix` baselines that the paper
compares against.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

RowFunc = Callable[[int], np.ndarray]
ColFunc = Callable[[int], np.ndarray]


def aca_low_rank(
    row_func: RowFunc,
    col_func: ColFunc,
    num_rows: int,
    num_cols: int,
    tol: float = 1e-6,
    max_rank: int | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Partial-pivoted ACA of an ``num_rows x num_cols`` block.

    Parameters
    ----------
    row_func, col_func:
        Functions returning row ``i`` (length ``num_cols``) and column ``j``
        (length ``num_rows``) of the block.
    tol:
        Relative stopping tolerance: iteration stops once the norm of the new
        rank-one update falls below ``tol`` times the estimated block norm.
    max_rank:
        Optional hard cap on the rank.

    Returns
    -------
    (U, V):
        Factors with ``block ~= U @ V.T``; both have ``k`` columns.
    """
    if num_rows <= 0 or num_cols <= 0:
        return np.zeros((max(num_rows, 0), 0)), np.zeros((max(num_cols, 0), 0))
    cap = min(num_rows, num_cols)
    if max_rank is not None:
        cap = min(cap, int(max_rank))

    u_cols: list[np.ndarray] = []
    v_cols: list[np.ndarray] = []
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    frob_sq = 0.0
    pivot_row = 0

    for _ in range(cap):
        # Residual row at the pivot row.
        row = np.array(row_func(pivot_row), dtype=np.float64).reshape(-1)
        for u, v in zip(u_cols, v_cols):
            row = row - u[pivot_row] * v
        used_rows.add(pivot_row)

        # Column pivot: largest residual entry outside already-used columns.
        masked = np.abs(row.copy())
        for j in used_cols:
            masked[j] = -np.inf
        pivot_col = int(np.argmax(masked))
        pivot_val = row[pivot_col]
        if not np.isfinite(pivot_val) or abs(pivot_val) < np.finfo(np.float64).tiny:
            break
        used_cols.add(pivot_col)

        col = np.array(col_func(pivot_col), dtype=np.float64).reshape(-1)
        for u, v in zip(u_cols, v_cols):
            col = col - v[pivot_col] * u

        u_new = col / pivot_val
        v_new = row
        u_cols.append(u_new)
        v_cols.append(v_new)

        # Frobenius-norm bookkeeping for the stopping test.
        update_sq = float(np.dot(u_new, u_new) * np.dot(v_new, v_new))
        cross = 0.0
        for u, v in zip(u_cols[:-1], v_cols[:-1]):
            cross += float(np.dot(u, u_new) * np.dot(v, v_new))
        frob_sq += update_sq + 2.0 * cross
        frob_sq = max(frob_sq, update_sq)
        if np.sqrt(update_sq) <= tol * np.sqrt(max(frob_sq, np.finfo(np.float64).tiny)):
            break

        # Next row pivot: largest residual entry of the new column outside used rows.
        masked_col = np.abs(u_new.copy())
        for i in used_rows:
            masked_col[i] = -np.inf
        if np.all(~np.isfinite(masked_col)):
            break
        pivot_row = int(np.argmax(masked_col))

    if not u_cols:
        return np.zeros((num_rows, 0)), np.zeros((num_cols, 0))
    u = np.column_stack(u_cols)
    v = np.column_stack(v_cols)
    return u, v


def aca_from_entry_function(
    entries: Callable[[np.ndarray, np.ndarray], np.ndarray],
    row_indices: np.ndarray,
    col_indices: np.ndarray,
    tol: float = 1e-6,
    max_rank: int | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """ACA of the block ``entries(row_indices, col_indices)``.

    ``entries`` evaluates arbitrary sub-blocks given global row/column index
    arrays, which is the entry-extraction interface used across the library.
    """
    row_indices = np.asarray(row_indices, dtype=np.int64)
    col_indices = np.asarray(col_indices, dtype=np.int64)

    def row_func(i: int) -> np.ndarray:
        return entries(row_indices[i : i + 1], col_indices)[0]

    def col_func(j: int) -> np.ndarray:
        return entries(row_indices, col_indices[j : j + 1])[:, 0]

    return aca_low_rank(
        row_func,
        col_func,
        row_indices.shape[0],
        col_indices.shape[0],
        tol=tol,
        max_rank=max_rank,
    )
