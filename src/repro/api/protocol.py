"""The :class:`HierarchicalOperator` protocol: one contract for every format.

The library produces nested-basis H2 matrices (strong or weak/HSS
admissibility), and :mod:`repro.baselines` adds the non-nested H and HODLR
comparators; every downstream subsystem (Krylov solvers, factorizations,
Gaussian processes, diagnostics, benchmarks) only ever needs the same small
surface: shapes, forward/transpose applies for vectors and blocks, dense
reconstruction and memory/rank accounting, all with uniform ``permuted=``
semantics (operators act in the *original* point ordering by default; the
internal representation lives in the cluster-tree permuted ordering).

Two classes implement that contract:

:class:`HierarchicalOperator`
    The abstract protocol.  Its ``__subclasshook__`` makes ``isinstance``
    checks *structural*: any object providing the full method set conforms,
    whether or not it inherits from this class — so third-party formats
    registered through :mod:`repro.api` compose with the solvers without
    subclassing anything.

:class:`HierarchicalOperatorMixin`
    The shared implementation.  A concrete format only supplies its core
    permuted block apply (:meth:`~HierarchicalOperatorMixin._apply_permuted`)
    plus its storage accounting (:meth:`~HierarchicalOperatorMixin._memory_components`,
    :meth:`~HierarchicalOperatorMixin._block_counts`, ``rank_range``); the
    mixin derives ``matvec`` / ``matmat`` / ``rmatvec`` / ``rmatmat`` /
    ``__matmul__`` with input validation and permutation handling, and the
    unified ``memory_bytes()`` / ``statistics()`` dictionaries.

This module is import-light (NumPy only) so the format modules can depend on
it without dragging in the rest of the library.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Tuple

import numpy as np

#: Attributes an object must provide to pass the structural ``isinstance``
#: check of :class:`HierarchicalOperator`.
PROTOCOL_METHODS: Tuple[str, ...] = (
    "shape",
    "dtype",
    "matvec",
    "matmat",
    "rmatvec",
    "rmatmat",
    "to_dense",
    "memory_bytes",
    "statistics",
    "rank_range",
    "__matmul__",
)


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


class HierarchicalOperator(ABC):
    """Protocol of a square hierarchical operator over a cluster tree.

    Required surface (all of it provided by
    :class:`HierarchicalOperatorMixin` except the core apply and the storage
    accounting):

    ``shape`` / ``dtype``
        ``(n, n)`` dimensions and the element dtype (float64 throughout this
        library).
    ``matvec(x, permuted=False)`` / ``matmat(X, permuted=False)``
        Forward apply to a vector ``(n,)`` or block ``(n, k)``; ``matmat``
        requires a 2-D block and routes through the format's batched
        multi-RHS path.
    ``rmatvec`` / ``rmatmat``
        Exact transpose applies.  An H2 matrix runs its forward plan and
        raises ``ValueError`` unless its stored block pairs are exact
        transposes of each other.
    ``__matmul__``
        ``op @ x`` as an alias of the forward apply.
    ``to_dense(permuted=False)``
        Dense reconstruction (small problems / validation).
    ``memory_bytes()``
        Component-wise byte accounting; always contains the unified keys
        ``"low_rank"``, ``"dense"`` and ``"total"``.
    ``statistics()``
        Unified summary with at least ``format``, ``n``, ``depth``,
        ``rank_min``, ``rank_max``, ``num_low_rank_blocks``,
        ``num_dense_blocks`` and ``memory_mb``.
    ``rank_range()``
        ``(min, max)`` low-rank block / basis ranks.

    ``permuted=`` is uniform across every method that takes it: ``False``
    (default) means inputs and outputs use the original point ordering,
    ``True`` the cluster-tree ordering.

    **Complex-dtype contract.** The stored operators are real (float64).
    Applying one to a complex vector or block is still well defined and
    exact: ``A (x_re + i x_im) = A x_re + i A x_im``, so every apply method
    accepts complex inputs, applies the real operator to the real and
    imaginary parts (side by side, in one real apply), and returns a complex
    result — the same
    semantics as :class:`scipy.sparse.linalg.LinearOperator`.  Inputs are
    never silently cast to ``float64``; the imaginary part is never
    dropped.  (Real-valued subsystems that cannot honour this contract —
    the Krylov solvers — raise ``TypeError`` on complex data instead of
    returning wrong numbers.)
    """

    @classmethod
    def __subclasshook__(cls, subclass: type) -> bool:
        if cls is not HierarchicalOperator:
            return NotImplemented  # pragma: no cover - subclass hooks
        if all(any(m in b.__dict__ for b in subclass.__mro__) for m in PROTOCOL_METHODS):
            return True
        return NotImplemented

    # The abstract stubs below document the contract for real subclasses; the
    # structural hook above means conformance never *requires* inheriting.
    @property
    @abstractmethod
    def shape(self) -> Tuple[int, int]:
        """``(n, n)`` operator dimensions."""

    @abstractmethod
    def matvec(self, x: np.ndarray, permuted: bool = False) -> np.ndarray:
        """Forward apply to a vector or block of vectors."""

    @abstractmethod
    def to_dense(self, permuted: bool = False) -> np.ndarray:
        """Dense reconstruction."""


class HierarchicalOperatorMixin:
    """Derives the full :class:`HierarchicalOperator` surface from one core apply.

    A concrete format supplies

    * ``tree`` — the cluster tree (``perm`` / ``iperm`` / ``depth``),
    * ``shape`` — the ``(n, n)`` dimensions,
    * :meth:`_apply_permuted` — the forward/transpose apply on a permuted
      2-D block,
    * :meth:`_memory_components` — per-component byte counts,
    * :meth:`_block_counts` — ``(num_low_rank_blocks, num_dense_blocks)``,
    * ``rank_range()`` — ``(min, max)`` ranks,

    and inherits everything else.  Extra keyword arguments of the public
    applies (e.g. the per-call ``backend=`` of
    :class:`~repro.hmatrix.h2matrix.H2Matrix`) are forwarded verbatim to
    :meth:`_apply_permuted`.
    """

    #: Registry/statistics name of the format (``"h2"``, ``"hodlr"``, ...).
    format_name = "hierarchical"

    # ------------------------------------------------------------------ basics
    @property
    def dtype(self) -> np.dtype:
        """Element dtype (float64 throughout this library)."""
        return np.dtype(np.float64)

    @property
    def num_rows(self) -> int:
        return int(self.shape[0])

    # ------------------------------------------------------------------- apply
    def _apply_permuted(
        self, x: np.ndarray, transpose: bool = False, **kwargs: object
    ) -> np.ndarray:
        """Apply to a 2-D block ``x`` in the permuted ordering (core hook)."""
        raise NotImplementedError  # pragma: no cover - abstract hook

    def _apply(
        self, x: np.ndarray, permuted: bool, transpose: bool, **kwargs: object
    ) -> np.ndarray:
        x = np.asarray(x)
        if np.iscomplexobj(x):
            # The stored operator is real; a complex block applies to the
            # real and imaginary parts separately (scipy LinearOperator
            # semantics), side by side in one real apply.
            return _apply_complex_as_real(
                x, lambda block: self._apply(block, permuted, transpose, **kwargs)
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
        yp = self._apply_permuted(xp, transpose=transpose, **kwargs)
        y = yp if permuted else yp[self.tree.iperm]
        return y[:, 0] if single else y

    def matvec(
        self, x: np.ndarray, permuted: bool = False, **kwargs: object
    ) -> np.ndarray:
        """Multiply by a vector ``(n,)`` or block ``(n, k)``.

        ``permuted=True`` means ``x`` is already in the cluster-tree ordering
        and the result is returned in that ordering; otherwise the original
        point ordering is used.  Extra keyword arguments are forwarded to the
        format's core apply.
        """
        return self._apply(x, permuted=permuted, transpose=False, **kwargs)

    def matmat(
        self, x: np.ndarray, permuted: bool = False, **kwargs: object
    ) -> np.ndarray:
        """Multiply by a block of vectors ``(n, k)`` in one batched apply."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"matmat expects a 2-D block, got shape {x.shape}")
        return self._apply(x, permuted=permuted, transpose=False, **kwargs)

    def rmatvec(
        self, x: np.ndarray, permuted: bool = False, **kwargs: object
    ) -> np.ndarray:
        """Transpose apply ``A^T x`` (exact; see ``rmatvec`` in the protocol)."""
        return self._apply(x, permuted=permuted, transpose=True, **kwargs)

    def rmatmat(
        self, x: np.ndarray, permuted: bool = False, **kwargs: object
    ) -> np.ndarray:
        """Transpose apply to a block of vectors, ``A^T X``."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"rmatmat expects a 2-D block, got shape {x.shape}")
        return self._apply(x, permuted=permuted, transpose=True, **kwargs)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Write this operator to ``path`` in the :mod:`repro.persist` format.

        The artifact round-trips exactly: ``load(path).to_dense()`` is
        bitwise-equal to ``self.to_dense()``.  ``save`` is a convenience of
        the mixin, not part of :data:`PROTOCOL_METHODS` — third-party
        structural conformers are not required to provide it; use
        :func:`repro.persist.save` for any registered format.
        """
        from ..persist import save as _save

        _save(self, path)

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
        """Unified summary statistics shared by every hierarchical format."""
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
