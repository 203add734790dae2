"""The product's one operator type: H2 (nested bases), HSS on the weak partition.

:class:`H2Matrix` provides ``matvec``/``matmat``/``rmatvec``/``rmatmat``/
``to_dense``/``memory_bytes``/``statistics`` with ``permuted=`` semantics;
its applies come from the apply shell of :mod:`repro.hmatrix.mixin`, which
the non-nested comparator formats of :mod:`repro.baselines` (HODLR, H) share.
:func:`as_linear_operator` adapts it, and anything else with ``matvec``, for
the matrix-free solvers.
"""

from .basis_tree import BasisTree
from .h2matrix import H2Matrix
from .linear_operator import LinearOperator, ShiftedLinearOperator, as_linear_operator

__all__ = [
    "BasisTree",
    "H2Matrix",
    "LinearOperator",
    "ShiftedLinearOperator",
    "as_linear_operator",
]
