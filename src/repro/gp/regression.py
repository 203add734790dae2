"""Gaussian-process regression on hierarchically compressed covariance matrices.

The end-to-end statistical workload the paper's covariance benchmarks point
at: a :class:`GaussianProcess` over ``n`` training points with a radial
covariance kernel and a noise (nugget) variance composes every layer of the
library —

* the covariance matrix ``K`` is compressed once per hyperparameter point with
  the sketching constructor, through a geometry-reusing
  :class:`~repro.api.facade.Session` (tree, partition and sample seed are
  shared across the sweep);
* the marginal log-likelihood uses the HSS factorization of the *shifted*
  covariance ``K + noise I`` (skeleton elimination on the nested generators,
  :class:`~repro.solvers.hss_factor.HSSFactorization`) for ``log det`` (the
  sum over its pivot blocks) and as the direct solver of the quadratic
  term (:func:`~repro.solvers.ladder.direct_solve`: the factorization is of
  the shifted covariance itself, so its answer is exact up to round-off);
* posterior mean/variance at test points reuse the same direct solve on a
  block of right-hand sides; prior and posterior sampling draw from a seeded
  generator so results are reproducible across execution backends.

The likelihood is "exact up to tolerance": with construction tolerance
``eps`` the returned value matches the dense
``numpy.linalg.slogdet``/``solve`` reference to a comparable relative error
(the acceptance tests pin ``<= 1e-6`` at ``n <= 2048``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..api.facade import Session
from ..api.policy import ExecutionPolicy
from ..kernels.base import KernelFunction, PairwiseKernel
from ..solvers.hss_factor import HSSFactorization, factorize
from ..solvers.ladder import DIRECT_TOL, direct_solve
from ..utils.rng import SeedLike, as_generator
from ..utils.validation import check_positive, require
from .report import GPFitReport
from .sweep import hyperparameter_grid, nelder_mead

LOG_2PI = float(np.log(2.0 * np.pi))


class NotPositiveDefiniteError(ValueError):
    """The shifted covariance ``K + noise I`` is not positive definite.

    Raised per hyperparameter point; grid sweeps treat it as "skip this
    point" while genuine configuration errors (wrong admissibility, invalid
    parameters) propagate as plain :class:`ValueError`/:class:`TypeError`.
    """


@dataclass
class _FittedState:
    """Everything tied to one evaluated hyperparameter point."""

    kernel: KernelFunction
    noise: float
    matrix: object  # H2Matrix
    factorization: HSSFactorization
    alpha: np.ndarray
    log_likelihood: float
    report: GPFitReport


class GaussianProcess:
    """GP regression with hierarchical covariance compression.

    Parameters
    ----------
    train_points:
        ``(n, dim)`` training inputs (original ordering; all public inputs and
        outputs use it).
    kernel:
        The covariance kernel, typically a
        :class:`~repro.kernels.base.PairwiseKernel` (optionally composed with
        :class:`~repro.kernels.composite.ScaledKernel` for a signal variance).
    noise:
        Observation-noise variance (the nugget), applied as a diagonal shift
        of the compressed covariance — never materialised in the kernel.
    tolerance:
        Construction tolerance of the compressed covariance; drives the
        accuracy of the log-likelihood and posterior.
    leaf_size, seed:
        Forwarded to the internally created :class:`~repro.api.facade.Session`
        (ignored when an explicit ``session`` is passed).  The session must
        use weak admissibility — the HSS factorization consumes its output
        directly.
    policy:
        :class:`~repro.api.policy.ExecutionPolicy` of the internally created
        session.  The GP runs under ``session.policy``: its constructions
        and solves read backend, tracer, recovery, faults and health from it,
        and its factorizations run on the binding the session gave each
        matrix.  A ``session`` with a different ``policy`` raises
        :class:`ValueError`.
    session:
        A :class:`~repro.api.facade.Session` over the same ``train_points``
        whose geometry, sample seed and caches the GP shares.
    """

    def __init__(
        self,
        train_points: np.ndarray,
        kernel: KernelFunction,
        noise: float = 1e-2,
        *,
        tolerance: float = 1e-8,
        leaf_size: int = 64,
        policy: "ExecutionPolicy | None" = None,
        seed: SeedLike = 0,
        session: Session | None = None,
    ):
        self.train_points = np.ascontiguousarray(train_points, dtype=np.float64)
        require(
            self.train_points.ndim == 2 and self.train_points.shape[0] > 0,
            "points must be a (n, dim) array",
        )
        check_positive(noise, "noise")
        check_positive(tolerance, "tolerance")
        self.kernel = kernel
        self.noise = float(noise)
        self.tolerance = float(tolerance)
        if session is None:
            session = Session(
                self.train_points, leaf_size=leaf_size, policy=policy, seed=seed
            )
        elif policy is not None and policy is not session.policy:
            raise ValueError(
                "policy differs from the session's policy; a GaussianProcess "
                "runs under the policy of its session"
            )
        elif session.points.shape != self.train_points.shape or not np.array_equal(
            session.points, self.train_points
        ):
            # Different points would make alpha/logdet silently describe a
            # different covariance than the one predict() cross-correlates with.
            raise ValueError(
                "session was built over different point coordinates than "
                "train_points"
            )
        self.session = session
        self.policy: ExecutionPolicy = session.policy
        self._state: Optional[_FittedState] = None
        self._y: Optional[np.ndarray] = None
        #: Fit reports of every hyperparameter point evaluated by the last
        #: :meth:`fit` call (sweep + optimizer), in evaluation order.
        self.fit_reports_: List[GPFitReport] = []

    # ------------------------------------------------------------------ basics
    @property
    def num_train(self) -> int:
        return int(self.train_points.shape[0])

    def _require_fit(self) -> _FittedState:
        if self._state is None:
            raise RuntimeError("call fit() before predicting or sampling")
        return self._state

    @property
    def log_marginal_likelihood_(self) -> float:
        """Log marginal likelihood of the fitted model."""
        return self._require_fit().log_likelihood

    @property
    def alpha_(self) -> np.ndarray:
        """The representer weights ``(K + noise I)^{-1} y`` of the fitted model."""
        return self._require_fit().alpha

    # -------------------------------------------------------------- evaluation
    def _evaluate(
        self, y: np.ndarray, kernel: KernelFunction, noise: float
    ) -> _FittedState:
        """Construct, factor and solve at one hyperparameter point, inside a
        ``gp/evaluate`` span whose children are the construction,
        factorization and solve spans of the layers below."""
        check_positive(noise, "noise")
        with self.policy.tracer.span(
            "gp/evaluate", category="gp",
            kernel=type(kernel).__name__, noise=float(noise),
        ) as span:
            stats = self.session.statistics
            hits_before = stats.result_cache_hits
            t_construct = time.perf_counter()
            result = self.session.construct(kernel, tol=self.tolerance)
            construct_seconds = time.perf_counter() - t_construct
            matrix = result.matrix
            result_reused = stats.result_cache_hits > hits_before

            defect = matrix.weak_partition_defect()
            if defect is not None:
                raise ValueError(
                    "GaussianProcess requires a weak-admissibility (HSS) session so "
                    f"the constructed covariance can be factored exactly ({defect})"
                )
            t0 = time.perf_counter()
            factorization = factorize(matrix, shift=noise)
            factor_seconds = time.perf_counter() - t0
            if factorization.determinant_sign <= 0.0:
                raise NotPositiveDefiniteError(
                    "shifted covariance is not positive definite at "
                    f"noise={noise:.3e}; increase the noise/nugget or loosen the "
                    "construction tolerance"
                )
            log_determinant = factorization.logdet()

            launches_before = matrix.apply_backend.counter.total()
            t0 = time.perf_counter()
            alpha = self._solve(matrix, factorization, noise, y)
            solve_seconds = time.perf_counter() - t0
            apply_launches = matrix.apply_backend.counter.total() - launches_before

            quadratic = float(y @ alpha)
            n = y.shape[0]
            log_likelihood = -0.5 * (quadratic + log_determinant + n * LOG_2PI)

            report = GPFitReport(
                n=n,
                kernel=type(kernel).__name__,
                params=kernel.hyperparameters(),
                noise=float(noise),
                log_marginal_likelihood=log_likelihood,
                log_determinant=log_determinant,
                quadratic_term=quadratic,
                construction_samples=result.total_samples,
                rank_range=result.rank_range,
                construction_launches=result.total_kernel_launches,
                apply_launches=int(apply_launches),
                result_reused=result_reused,
                construction_seconds=construct_seconds,
                factorization_seconds=factor_seconds,
                solve_seconds=solve_seconds,
            )
            state = _FittedState(
                kernel=kernel,
                noise=float(noise),
                matrix=matrix,
                factorization=factorization,
                alpha=alpha,
                log_likelihood=log_likelihood,
                report=report,
            )
            span.set(
                log_marginal_likelihood=log_likelihood,
                result_reused=result_reused,
            )
        return state

    def _solve(self, matrix, factorization, noise, b):
        """``(K + noise I) X = B`` by :func:`~repro.solvers.direct_solve`."""
        return direct_solve(
            matrix, b, factorization, shift=noise, tol=DIRECT_TOL,
            policy=self.policy, log_fields={"event": "gp-solve-not-converged"},
        ).x

    # --------------------------------------------------------------------- fit
    def fit(
        self,
        y: np.ndarray,
        length_scales: Sequence[float] | None = None,
        noises: Sequence[float] | None = None,
        optimize: bool = False,
        max_optimizer_evals: int = 25,
    ) -> "GaussianProcess":
        """Fit the GP to targets ``y``, optionally selecting hyperparameters.

        Without grids this evaluates the current ``(kernel, noise)`` point.
        With ``length_scales`` and/or ``noises`` the cartesian grid is swept
        (re-using the cached geometry at every point) and the maximizer of the
        marginal log-likelihood is selected; ``optimize=True`` then refines
        the winner with a Nelder–Mead search in log-parameter space.  All
        evaluated points are recorded in :attr:`fit_reports_`.
        """
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if y.shape[0] != self.num_train:
            raise ValueError(
                f"y has length {y.shape[0]}, expected {self.num_train}"
            )
        self.fit_reports_ = []
        best: Optional[_FittedState] = None
        for kernel, noise in hyperparameter_grid(
            self.kernel, self.noise, length_scales=length_scales, noises=noises
        ):
            try:
                state = self._evaluate(y, kernel, noise)
            except NotPositiveDefiniteError:
                continue  # skip this grid point, keep sweeping
            self.fit_reports_.append(state.report)
            if best is None or state.log_likelihood > best.log_likelihood:
                best = state
        if best is None:
            raise NotPositiveDefiniteError(
                "no hyperparameter point produced a positive-definite "
                "shifted covariance"
            )
        if optimize:
            best = self._optimize(y, best, max_optimizer_evals)
        self.kernel = best.kernel
        self.noise = best.noise
        self._state = best
        self._y = y
        return self

    def _optimize(
        self, y: np.ndarray, start: _FittedState, max_evals: int
    ) -> _FittedState:
        """Gradient-free refinement of ``(kernel params, noise)`` around ``start``."""
        params = start.kernel.hyperparameters()
        # Log-space search: only strictly positive parameters are optimizable
        # (e.g. a zero Helmholtz diagonal_value stays fixed).
        names = sorted(name for name, value in params.items() if value > 0)
        x0 = np.log(np.array([params[name] for name in names] + [start.noise]))
        # Running argmax: evaluated states hold a full factorization each, so
        # only the current best is kept alive during the search.
        best: List[_FittedState] = [start]

        def objective(x: np.ndarray) -> float:
            values = np.exp(x)
            kernel = start.kernel.rebind(
                **{name: float(v) for name, v in zip(names, values[:-1])}
            )
            noise = float(values[-1])
            try:
                state = self._evaluate(y, kernel, noise)
            except NotPositiveDefiniteError:
                return np.inf
            self.fit_reports_.append(state.report)
            if state.log_likelihood > best[0].log_likelihood:
                best[0] = state
            return -state.log_likelihood

        nelder_mead(objective, x0, initial_step=0.25, max_evals=max_evals)
        return best[0]

    def log_marginal_likelihood(
        self,
        y: np.ndarray | None = None,
        kernel: KernelFunction | None = None,
        noise: float | None = None,
    ) -> float:
        """Marginal log-likelihood, re-evaluated when any argument is given."""
        if y is None and kernel is None and noise is None:
            return self._require_fit().log_likelihood
        if y is None:
            if self._y is None:
                raise RuntimeError("no targets available; pass y or call fit() first")
            y = self._y
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        state = self._evaluate(
            y,
            kernel if kernel is not None else self.kernel,
            noise if noise is not None else self.noise,
        )
        return state.log_likelihood

    # ----------------------------------------------------------------- predict
    def _cross_covariance(self, points: np.ndarray) -> np.ndarray:
        return self.kernel.evaluate(points, self.train_points)

    def _prior_variance(self, points: np.ndarray) -> np.ndarray:
        if isinstance(self.kernel, PairwiseKernel):
            return np.full(points.shape[0], self.kernel.value_at_zero())
        return np.array(
            [float(self.kernel.evaluate(p[None], p[None])[0, 0]) for p in points]
        )

    def predict(
        self,
        points: np.ndarray,
        return_std: bool = False,
        include_noise: bool = False,
    ) -> np.ndarray | Tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and optionally standard deviation) at ``points``.

        ``include_noise=True`` returns the predictive deviation of noisy
        observations (adds the nugget variance) instead of the latent one.
        """
        state = self._require_fit()
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        k_cross = self._cross_covariance(points)
        mean = k_cross @ state.alpha
        if not return_std:
            return mean
        v = self._solve(state.matrix, state.factorization, state.noise, k_cross.T)
        variance = self._prior_variance(points) - np.einsum(
            "ij,ji->i", k_cross, v
        )
        if include_noise:
            variance = variance + self.noise
        return mean, np.sqrt(np.maximum(variance, 0.0))

    # ---------------------------------------------------------------- sampling
    @staticmethod
    def _cholesky(matrix: np.ndarray, jitter: float) -> np.ndarray:
        """Cholesky with escalating jitter (covariances are barely PD)."""
        bump = jitter
        eye = np.eye(matrix.shape[0])
        for _ in range(8):
            try:
                return np.linalg.cholesky(matrix + bump * eye)
            except np.linalg.LinAlgError:
                bump *= 100.0
        raise np.linalg.LinAlgError(
            "covariance is numerically indefinite even after jittering"
        )

    def sample_prior(
        self,
        points: np.ndarray,
        num_samples: int = 1,
        seed: SeedLike = None,
        jitter: float = 1e-12,
    ) -> np.ndarray:
        """Draw ``num_samples`` prior functions at ``points``: shape ``(m, num_samples)``.

        Backend-independent: the prior only involves the exact kernel, so the
        same seed yields bitwise-identical draws on every execution backend.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cov = self.kernel.evaluate(points, points)
        chol = self._cholesky(cov, jitter)
        z = as_generator(seed).standard_normal((points.shape[0], int(num_samples)))
        return chol @ z

    def sample_posterior(
        self,
        points: np.ndarray,
        num_samples: int = 1,
        seed: SeedLike = None,
        jitter: float = 1e-12,
    ) -> np.ndarray:
        """Draw posterior functions at ``points``: shape ``(m, num_samples)``.

        The posterior covariance is assembled densely at the ``m`` test points
        (``m`` is assumed small next to ``n``); the training-side solves run
        through the hierarchical machinery.
        """
        state = self._require_fit()
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        k_cross = self._cross_covariance(points)
        mean = k_cross @ state.alpha
        v = self._solve(state.matrix, state.factorization, state.noise, k_cross.T)
        cov = self.kernel.evaluate(points, points) - k_cross @ v
        cov = 0.5 * (cov + cov.T)
        chol = self._cholesky(cov, jitter)
        z = as_generator(seed).standard_normal((points.shape[0], int(num_samples)))
        return mean[:, None] + chol @ z
