"""The product's one hierarchical format: H2 (nested bases), HSS on the weak partition.

:class:`H2Matrix` implements the shared
:class:`~repro.api.protocol.HierarchicalOperator` protocol (uniform
``matvec``/``matmat``/``rmatvec``/``rmatmat``/``to_dense``/``memory_bytes``/
``statistics`` with ``permuted=`` semantics).  The non-nested comparator
formats (HODLR, H) live in :mod:`repro.baselines`.
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
