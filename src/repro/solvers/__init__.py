"""Solver subsystem: Krylov methods + hierarchical factorization.

Everything the library constructs (H2/HSS matrices, sketching
operators, dense and sparse matrices) plugs into the same three layers:

* :mod:`~repro.solvers.krylov` — matrix-free CG / GMRES(m) with residual
  histories and pluggable preconditioners;
* :mod:`~repro.solvers.hss_factor` — :func:`factorize`, the one entry point
  to a direct solver, and :class:`HSSFactorization`, which it runs on every
  H2 matrix: level-by-level skeleton elimination on the nested generators of
  the weak-admissibility (HSS) output of the constructor — a strong H2 matrix
  is first re-compressed onto the weak partition with the same constructor —
  near-linear direct solves and log-determinants in O(levels) batched
  launches.  A factorization is itself a valid ``M=`` preconditioner of the
  Krylov methods (a loose-tolerance one is a cheap ``M^{-1}``);
* :mod:`~repro.solvers.multifrontal_solve` — a nested-dissection sparse solve
  whose large fronts are compressed with the sketching constructor (the
  paper's application scenario);
* :mod:`~repro.solvers.ladder` — :func:`guarded_solve`, the one
  policy-guarded Krylov solve of an H2 matrix, which under a ``recover``
  :class:`~repro.resilience.RecoveryPolicy` escalates a non-converged solve
  through CG → preconditioned CG → GMRES(m) → direct, and
  :func:`direct_solve`, the one direct solve with a factorization.
"""

from .hss_factor import HSSFactorization, factorize
from .krylov import KrylovResult, cg, gmres
from .ladder import direct_solve, guarded_solve
from .multifrontal_solve import FrontReport, MultifrontalSolver

__all__ = [
    "cg",
    "gmres",
    "guarded_solve",
    "direct_solve",
    "KrylovResult",
    "HSSFactorization",
    "factorize",
    "MultifrontalSolver",
    "FrontReport",
]
