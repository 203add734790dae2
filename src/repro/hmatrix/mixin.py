"""The apply shell of a hierarchical matrix: one permuted apply for every format.

:class:`HierarchicalOperatorMixin` derives ``matvec`` / ``matmat`` /
``rmatvec`` / ``rmatmat`` / ``@`` (input validation, the complex split and
the cluster-tree permutation), ``memory_bytes()`` and ``statistics()`` from a
format's core permuted block apply and storage accounting.
:class:`~repro.hmatrix.h2matrix.H2Matrix` is built on it, and so are the
comparators of :mod:`repro.baselines` (``HMatrix``, ``HODLRMatrix``), so the
permuted apply is written once.

The stored operators are real (float64); a complex input ``x_re + i x_im``
applies as ``A x_re + i A x_im`` in one real apply of the two parts side by
side, and the result is complex (:func:`_apply_complex_as_real`).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def _apply_complex_as_real(x: np.ndarray, apply) -> np.ndarray:
    """A real operator on a complex vector or block in one real apply.

    ``A (x_re + i x_im)`` is ``A [x_re | x_im]`` split back into ``A x_re +
    i A x_im``: the real and imaginary parts ride side by side as the columns
    of one ``(n, 2k)`` block, so a compiled apply runs its stages once.
    """
    block = x if x.ndim == 2 else x[:, None]
    k = block.shape[1]
    y = apply(np.hstack([block.real, block.imag]).astype(np.float64, copy=False))
    out = y[:, :k] + 1j * y[:, k:]
    return out if x.ndim == 2 else out[:, 0]


class HierarchicalOperatorMixin:
    """Derives the applies, ``memory_bytes()`` and ``statistics()`` from one core apply.

    A concrete format supplies

    * ``tree`` — the cluster tree (``perm`` / ``iperm`` / ``depth``),
    * ``shape`` — the ``(n, n)`` dimensions,
    * :meth:`_apply_permuted` — the forward/transpose apply on a permuted
      2-D block,
    * :meth:`_memory_components` — per-component byte counts,
    * :meth:`_block_counts` — ``(num_low_rank_blocks, num_dense_blocks)``,
    * ``rank_range()`` — ``(min, max)`` ranks,
    * ``format_name`` — the ``"format"`` of :meth:`statistics` (``"h2"``, ...),

    and inherits everything else.
    """

    # ------------------------------------------------------------------ basics
    @property
    def dtype(self) -> np.dtype:
        """Element dtype (float64 throughout this library)."""
        return np.dtype(np.float64)

    @property
    def num_rows(self) -> int:
        return int(self.shape[0])

    # ------------------------------------------------------------------- apply
    def _apply_permuted(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Apply to a 2-D block ``x`` in the permuted ordering (core hook)."""
        raise NotImplementedError  # pragma: no cover - abstract hook

    def _apply(self, x: np.ndarray, permuted: bool, transpose: bool) -> np.ndarray:
        x = np.asarray(x)
        if np.iscomplexobj(x):
            # The stored operator is real; a complex block applies to the
            # real and imaginary parts separately (scipy LinearOperator
            # semantics), side by side in one real apply.
            return _apply_complex_as_real(
                x, lambda block: self._apply(block, permuted, transpose)
            )
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.shape[0] != self.shape[1]:
            raise ValueError(
                f"dimension mismatch: matrix has {self.shape[1]} rows, "
                f"x has {x.shape[0]}"
            )
        xp = x if permuted else x[self.tree.perm]
        yp = self._apply_permuted(xp, transpose=transpose)
        y = yp if permuted else yp[self.tree.iperm]
        return y[:, 0] if single else y

    def matvec(self, x: np.ndarray, permuted: bool = False) -> np.ndarray:
        """Multiply by a vector ``(n,)`` or block ``(n, k)``.

        ``permuted=True`` means ``x`` is already in the cluster-tree ordering
        and the result is returned in that ordering; otherwise the original
        point ordering is used.
        """
        return self._apply(x, permuted=permuted, transpose=False)

    def matmat(self, x: np.ndarray, permuted: bool = False) -> np.ndarray:
        """Multiply by a block of vectors ``(n, k)`` in one batched apply."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"matmat expects a 2-D block, got shape {x.shape}")
        return self._apply(x, permuted=permuted, transpose=False)

    def rmatvec(self, x: np.ndarray, permuted: bool = False) -> np.ndarray:
        """Transpose apply ``A^T x``."""
        return self._apply(x, permuted=permuted, transpose=True)

    def rmatmat(self, x: np.ndarray, permuted: bool = False) -> np.ndarray:
        """Transpose apply to a block of vectors, ``A^T X``."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"rmatmat expects a 2-D block, got shape {x.shape}")
        return self._apply(x, permuted=permuted, transpose=True)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    # ----------------------------------------------------------------- memory
    def _memory_components(self) -> Dict[str, int]:
        """Per-component byte counts of the stored representation."""
        raise NotImplementedError  # pragma: no cover - abstract hook

    def memory_bytes(self) -> Dict[str, int]:
        """Byte accounting with the unified ``low_rank``/``dense``/``total`` keys.

        Format-specific component keys (e.g. ``basis``/``coupling`` for H2)
        are preserved alongside the unified ones; ``low_rank`` aggregates
        every non-dense component so cross-format memory comparisons (Fig. 6)
        read the same keys everywhere.
        """
        components = {k: int(v) for k, v in self._memory_components().items()}
        total = sum(components.values())
        dense = components.setdefault("dense", 0)
        components.setdefault("low_rank", total - dense)
        components["total"] = total
        return components

    def total_memory_mb(self) -> float:
        return self.memory_bytes()["total"] / (1024.0 * 1024.0)

    # ------------------------------------------------------------- statistics
    def _block_counts(self) -> Tuple[int, int]:
        """``(num_low_rank_blocks, num_dense_blocks)`` of the representation."""
        raise NotImplementedError  # pragma: no cover - abstract hook

    def _extra_statistics(self) -> Dict[str, object]:
        """Format-specific additions merged into :meth:`statistics`."""
        return {}

    def statistics(self) -> Dict[str, object]:
        """Summary statistics with the same keys for every format."""
        lo, hi = self.rank_range()
        low_rank_blocks, dense_blocks = self._block_counts()
        stats: Dict[str, object] = {
            "format": self.format_name,
            "n": int(self.shape[0]),
            "depth": int(self.tree.depth),
            "rank_min": int(lo),
            "rank_max": int(hi),
            "num_low_rank_blocks": int(low_rank_blocks),
            "num_dense_blocks": int(dense_blocks),
            "memory_mb": self.total_memory_mb(),
        }
        stats.update(self._extra_statistics())
        return stats
