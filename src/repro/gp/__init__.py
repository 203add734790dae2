"""Gaussian-process regression & model selection on compressed covariances.

The canonical consumer of every layer of the library: construction
(:mod:`repro.core`), the batched apply engine (:mod:`repro.batched`), the
HSS factorization and Krylov solvers (:mod:`repro.solvers`) and the
geometry-reuse sweep cache (:class:`repro.core.context.GeometryContext`)
compose into :class:`~repro.gp.regression.GaussianProcess`: exact-up-to-
tolerance marginal log-likelihoods, preconditioned-CG posteriors, seeded
prior/posterior sampling and grid + Nelder–Mead hyperparameter selection.
Every evaluated hyperparameter point leaves one :class:`GPFitReport` in
``GaussianProcess.fit_reports_``; :func:`gp_sweep_table` prints a sweep of
them.
"""

from .regression import GaussianProcess, NotPositiveDefiniteError
from .report import GPFitReport, gp_sweep_table
from .sweep import hyperparameter_grid, nelder_mead

__all__ = [
    "GPFitReport",
    "GaussianProcess",
    "NotPositiveDefiniteError",
    "gp_sweep_table",
    "hyperparameter_grid",
    "nelder_mead",
]
