"""Solver subsystem: Krylov methods + hierarchical factorization/preconditioning.

Everything the library constructs (H2/HSS/HODLR/H matrices, sketching
operators, dense and sparse matrices) plugs into the same three layers:

* :mod:`~repro.solvers.krylov` — matrix-free CG / GMRES(m) / BiCGStab with
  residual histories and pluggable preconditioners;
* :mod:`~repro.solvers.hss_factor` — :func:`factorize`, the one entry point
  to a direct solver, and :class:`HSSFactorization`, which it runs on the
  weak-admissibility (HSS) output of the constructor: level-by-level skeleton
  elimination on the nested generators themselves, near-linear direct solves
  and log-determinants in O(levels) batched launches;
* :mod:`~repro.solvers.hodlr_factor` — the recursive Woodbury
  :class:`HODLRFactorization`, the route for non-nested input only
  (``build_hodlr``, ``convert(strong_h2, "hodlr")``);
* :mod:`~repro.solvers.preconditioner` — loose sketched constructions applied
  as ``M^{-1}`` inside the Krylov loop;
* :mod:`~repro.solvers.multifrontal_solve` — a nested-dissection sparse solve
  whose large fronts are compressed with the sketching constructor (the
  paper's application scenario);
* :mod:`~repro.solvers.ladder` — the resilience escalation ladder
  (CG → preconditioned CG → GMRES(m) → direct) entered on
  non-converged solves under a :class:`~repro.resilience.RecoveryPolicy`,
  and :func:`guarded_solve`, the one policy-guarded Krylov solve.
"""

from .hodlr_factor import HODLRFactorization
from .hss_factor import HSSFactorization, factorize
from .krylov import KrylovResult, bicgstab, cg, gmres
from .ladder import RungReport, escalation_ladder, guarded_solve
from .multifrontal_solve import FrontReport, MultifrontalSolver
from .preconditioner import HierarchicalPreconditioner

__all__ = [
    "cg",
    "gmres",
    "bicgstab",
    "escalation_ladder",
    "guarded_solve",
    "KrylovResult",
    "RungReport",
    "HODLRFactorization",
    "HSSFactorization",
    "factorize",
    "HierarchicalPreconditioner",
    "MultifrontalSolver",
    "FrontReport",
]
