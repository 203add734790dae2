"""Hierarchical matrix formats: H2 (nested bases), HODLR, HSS and H (non-nested).

Every format implements the shared
:class:`~repro.api.protocol.HierarchicalOperator` protocol (uniform
``matvec``/``matmat``/``rmatvec``/``rmatmat``/``to_dense``/``memory_bytes``/
``statistics`` with ``permuted=`` semantics); move between formats through
:func:`repro.api.conversion.convert`.
"""

from .aca import aca_low_rank
from .basis_tree import BasisTree
from .h2matrix import H2Matrix
from .hmatrix import HMatrix, build_hmatrix_aca
from .hodlr import HODLRMatrix, build_hodlr
from .linear_operator import LinearOperator, ShiftedLinearOperator, as_linear_operator

__all__ = [
    "BasisTree",
    "H2Matrix",
    "HMatrix",
    "HODLRMatrix",
    "build_hmatrix_aca",
    "build_hodlr",
    "aca_low_rank",
    "LinearOperator",
    "ShiftedLinearOperator",
    "as_linear_operator",
]
