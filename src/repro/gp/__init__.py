"""Gaussian-process regression & model selection on compressed covariances.

The canonical consumer of every layer of the library: construction
(:mod:`repro.core`), the batched apply engine (:mod:`repro.batched`), the
HSS factorization and Krylov solvers (:mod:`repro.solvers`) and the
geometry-reuse sweep cache (:class:`repro.core.context.GeometryContext`)
compose into :class:`~repro.gp.regression.GaussianProcess`: exact-up-to-
tolerance marginal log-likelihoods, preconditioned-CG posteriors, seeded
prior/posterior sampling and grid + Nelder–Mead hyperparameter selection.
"""

from .regression import GaussianProcess, NotPositiveDefiniteError
from .sweep import hyperparameter_grid, nelder_mead

__all__ = [
    "GaussianProcess",
    "NotPositiveDefiniteError",
    "hyperparameter_grid",
    "nelder_mead",
]
