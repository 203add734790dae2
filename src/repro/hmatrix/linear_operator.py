"""A minimal linear-operator abstraction for the matrix-free solvers.

The solver subsystem (:mod:`repro.solvers`) is matrix-free: Krylov methods and
norm estimators only ever apply ``A @ x``.  This module provides the single
adapter that turns an :class:`~repro.hmatrix.h2matrix.H2Matrix` — or any
other object with ``matvec`` and ``shape`` (the comparator formats of
:mod:`repro.baselines`, :class:`~repro.linalg.low_rank.LowRankMatrix`), a
sketching operator, a dense array, a SciPy sparse matrix or a bare callable —
into a uniform object with ``shape``, ``matvec``, ``matmat`` and ``@``, so
solvers never special-case formats.

Block right-hand sides are routed through the wrapped object's ``matmat``
when it provides one (the batched multi-RHS apply of ``H2Matrix``), so a
``(n, k)`` input costs one batched sweep instead of ``k`` column-at-a-time
matvecs; otherwise the block is handed to ``matvec`` unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .mixin import _apply_complex_as_real

MatVec = Callable[[np.ndarray], np.ndarray]


class LinearOperator:
    """A square linear operator defined by its action on (blocks of) vectors."""

    def __init__(
        self,
        shape: Tuple[int, int],
        matvec: MatVec,
        rmatvec: Optional[MatVec] = None,
        matmat: Optional[MatVec] = None,
        rmatmat: Optional[MatVec] = None,
        source: object = None,
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        self._matvec = matvec
        self._rmatvec = rmatvec
        self._matmat = matmat
        self._rmatmat = rmatmat
        #: The adapted object (when built by :func:`as_linear_operator`);
        #: lets diagnostics reach e.g. an ``H2Matrix``'s apply backend.
        self.source = source

    @property
    def n(self) -> int:
        return self.shape[1]

    @staticmethod
    def _split_complex(x: np.ndarray, apply, batched: bool) -> np.ndarray:
        """Apply the real operator to a complex input part-by-part.

        ``A (x_re + i x_im) = A x_re + i A x_im`` — the scipy
        ``LinearOperator`` semantics; the imaginary part is never silently
        dropped by a float64 cast.  With a ``batched`` block apply both parts
        go through it side by side in one call; a bare ``matvec`` callable
        is called once per part.
        """
        if batched:
            return _apply_complex_as_real(x, apply)
        real = apply(np.ascontiguousarray(x.real, dtype=np.float64))
        imag = apply(np.ascontiguousarray(x.imag, dtype=np.float64))
        return real + 1j * imag

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to a vector ``(n,)`` or block ``(n, k)``."""
        x = np.asarray(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError(
                f"operator has {self.shape[1]} columns, got input with {x.shape[0]} rows"
            )
        if np.iscomplexobj(x):
            return self._split_complex(x, self.matvec, self._matmat is not None)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2 and self._matmat is not None:
            return np.asarray(self._matmat(x))
        return np.asarray(self._matvec(x))

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Apply to a block ``(n, k)`` through the dedicated multi-RHS path."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"matmat expects a 2-D block, got shape {x.shape}")
        return self.matvec(x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the transpose ``A^T x`` (defaults to ``matvec`` when symmetric)."""
        x = np.asarray(x)
        if np.iscomplexobj(x):
            return self._split_complex(x, self.rmatvec, self._rmatmat is not None)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2 and self._rmatmat is not None:
            return np.asarray(self._rmatmat(x))
        if self._rmatvec is None:
            return self.matvec(x)
        return np.asarray(self._rmatvec(x))

    def rmatmat(self, x: np.ndarray) -> np.ndarray:
        """Transpose apply to a block ``(n, k)``."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"rmatmat expects a 2-D block, got shape {x.shape}")
        return self.rmatvec(x)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)


class ShiftedLinearOperator(LinearOperator):
    """``A + shift I`` as a matrix-free operator.

    The solver-side view of a nugget/regularization term: the base operator
    keeps iterating on its fast apply path (for an
    :class:`~repro.hmatrix.h2matrix.H2Matrix`, the compiled batched plan) and
    the shift is added as an axpy on the way out.  ``source`` forwards to the
    base operator's source so backend/launch diagnostics keep working.
    """

    def __init__(self, base: object, shift: float, n: int | None = None):
        base_op = as_linear_operator(base, n=n)
        self.base = base_op
        self.shift = float(shift)
        super().__init__(
            base_op.shape,
            lambda x: base_op.matvec(x) + self.shift * x,
            rmatvec=lambda x: base_op.rmatvec(x) + self.shift * x,
            matmat=lambda x: base_op.matmat(x) + self.shift * x,
            rmatmat=lambda x: base_op.rmatmat(x) + self.shift * x,
            source=base_op.source,
        )


def as_linear_operator(
    a: object, n: int | None = None, shift: float = 0.0
) -> LinearOperator:
    """Adapt ``a`` to a :class:`LinearOperator`.

    Accepted inputs, in the order they are recognised:

    * an existing :class:`LinearOperator` (returned unchanged);
    * any object with ``.matvec`` and ``.shape`` — an ``H2Matrix``, a
      comparator format, a :class:`~repro.linalg.low_rank.LowRankMatrix` —
      with ``.rmatvec``/``.matmat``/``.rmatmat`` picked up when present, so
      block right-hand sides route through the multi-RHS applies;
    * a sketching operator (``.matvec`` and ``.n``);
    * a dense :class:`numpy.ndarray` or a SciPy sparse matrix;
    * a bare callable ``x -> A @ x`` together with the dimension ``n``.

    A nonzero ``shift`` wraps the adapted operator as
    :class:`ShiftedLinearOperator`, i.e. the result applies ``A + shift I`` —
    the usual route to solving shifted (nugget-regularized) kernel systems
    without touching the stored matrix.

    Hierarchical matrices act in the *original* point ordering (their
    ``matvec`` default), so systems and right-hand sides never need manual
    permutation.
    """
    if shift:
        return ShiftedLinearOperator(a, shift, n=n)
    if isinstance(a, LinearOperator):
        return a
    matvec = getattr(a, "matvec", None)
    if callable(matvec):
        shape = getattr(a, "shape", None)
        if shape is None:
            size = getattr(a, "n", None)
            if size is None:
                raise TypeError(f"cannot infer the dimension of {type(a).__name__}")
            shape = (int(size), int(size))
        rmatvec = getattr(a, "rmatvec", None)
        matmat = getattr(a, "matmat", None)
        rmatmat = getattr(a, "rmatmat", None)
        return LinearOperator(
            tuple(shape),
            matvec,
            rmatvec if callable(rmatvec) else None,
            matmat if callable(matmat) else None,
            rmatmat if callable(rmatmat) else None,
            source=a,
        )
    if isinstance(a, np.ndarray):
        if a.ndim != 2:
            raise ValueError("dense operator must be a 2D array")
        mat = np.asarray(a, dtype=np.float64)
        return LinearOperator(
            mat.shape, lambda x: mat @ x, lambda x: mat.T @ x, source=a
        )
    if hasattr(a, "shape") and hasattr(a, "dot"):  # SciPy sparse matrix
        return LinearOperator(
            tuple(a.shape), lambda x: a @ x, lambda x: a.T @ x, source=a
        )
    if callable(a):
        if n is None:
            raise ValueError("a bare callable operator requires the dimension n")
        return LinearOperator((n, n), a, source=a)
    raise TypeError(f"cannot interpret {type(a).__name__} as a linear operator")
