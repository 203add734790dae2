"""Comparator algorithms and formats the paper evaluates against.

No product path imports this package: the product builds, factors and
persists H2 matrices only (HSS is the H2 format on the weak partition).

* :class:`TopDownPeelingConstructor` — the top-down peeling construction of
  Lin, Lu & Ying (2011) through a weak-admissibility (HODLR) intermediate, the
  algorithm implemented on GPUs by H2Opus.  Its sample count grows with the
  HODLR ranks (large for 3D geometries) and with log N, which is the source of
  the orders-of-magnitude runtime gap in Fig. 5.
* :class:`HMatrixSketchingConstructor` — a colored-probing sketching
  construction of a non-nested H matrix in the spirit of Levitt & Martinsson
  (2022) as implemented in ButterflyPACK, requiring O(Csp · r · log N) samples.
* :class:`HODLRMatrix` / :func:`build_hodlr` and :class:`HMatrix` /
  :func:`build_hmatrix_aca` — the non-nested formats (STRUMPACK's HODLR,
  ButterflyPACK's H) with their entry-based ACA builders
  (:func:`aca_low_rank`), the Fig. 6b comparators and test oracles;
* :func:`convert` — an H2 matrix as a HODLR matrix (exact on the weak
  partition, re-compressed first on a strong one), and
  :class:`HODLRFactorization`, its recursive Woodbury direct solver — the
  oracle of :class:`~repro.solvers.hss_factor.HSSFactorization`.
"""

from .aca import aca_low_rank
from .hmatrix import HMatrix, build_hmatrix_aca
from .hmatrix_sketch import HMatrixSketchResult, HMatrixSketchingConstructor
from .hodlr import HODLRMatrix, build_hodlr, convert
from .hodlr_factor import HODLRFactorization
from .topdown_peeling import PeelingResult, TopDownPeelingConstructor

__all__ = [
    "TopDownPeelingConstructor",
    "PeelingResult",
    "HMatrixSketchingConstructor",
    "HMatrixSketchResult",
    "HMatrix",
    "HODLRMatrix",
    "HODLRFactorization",
    "aca_low_rank",
    "build_hmatrix_aca",
    "build_hodlr",
    "convert",
]
