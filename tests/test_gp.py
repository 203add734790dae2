"""Tests of the Gaussian-process subsystem (repro.gp).

The GP layer composes every subsystem — construction through a
:class:`~repro.api.facade.Session`, HSS factorization for the
log-determinant and the direct solves — so these tests pin its statistical
outputs against the dense
``numpy.linalg`` reference: marginal log-likelihood, posterior mean/variance,
hyperparameter selection and seeded sampling reproducibility across execution
backends.
"""

import numpy as np
import pytest

from repro import (
    ExecutionPolicy,
    ExponentialKernel,
    GaussianProcess,
    Matern32Kernel,
    Session,
    gp_sweep_table,
    uniform_cube_points,
)
from repro.gp import GPFitReport, hyperparameter_grid, nelder_mead

N = 800
NOISE = 5e-2
LENGTH_SCALE = 0.25
TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def gp_problem():
    """Training data drawn from the exact GP prior, plus the dense reference."""
    points = uniform_cube_points(N, dim=2, seed=31)
    kernel = ExponentialKernel(length_scale=LENGTH_SCALE)
    dense = kernel.matrix(points)
    shifted = dense + NOISE * np.eye(N)
    chol = np.linalg.cholesky(shifted + 1e-12 * np.eye(N))
    y = chol @ np.random.default_rng(5).standard_normal(N)
    sign, logdet = np.linalg.slogdet(shifted)
    alpha = np.linalg.solve(shifted, y)
    mll = -0.5 * (y @ alpha + logdet + N * np.log(2.0 * np.pi))
    return {
        "points": points,
        "kernel": kernel,
        "y": y,
        "dense": dense,
        "shifted": shifted,
        "alpha": alpha,
        "mll": mll,
    }


@pytest.fixture(scope="module")
def fitted_gp(gp_problem):
    gp = GaussianProcess(
        gp_problem["points"],
        gp_problem["kernel"],
        noise=NOISE,
        tolerance=TOLERANCE,
        seed=2,
    )
    return gp.fit(gp_problem["y"])


class TestLogLikelihood:
    def test_matches_dense_reference(self, fitted_gp, gp_problem):
        """Acceptance: mll matches numpy slogdet/solve to <= 1e-6 relative."""
        mll = fitted_gp.log_marginal_likelihood_
        rel = abs(mll - gp_problem["mll"]) / abs(gp_problem["mll"])
        assert rel <= 1e-6

    def test_alpha_matches_dense_solve(self, fitted_gp, gp_problem):
        err = np.linalg.norm(fitted_gp.alpha_ - gp_problem["alpha"])
        assert err / np.linalg.norm(gp_problem["alpha"]) < 1e-5

    def test_reevaluation_at_other_noise(self, fitted_gp, gp_problem):
        """log_marginal_likelihood(noise=...) recomputes against the new shift."""
        other = 0.2
        shifted = gp_problem["dense"] + other * np.eye(N)
        sign, logdet = np.linalg.slogdet(shifted)
        alpha = np.linalg.solve(shifted, gp_problem["y"])
        expected = -0.5 * (
            gp_problem["y"] @ alpha + logdet + N * np.log(2.0 * np.pi)
        )
        value = fitted_gp.log_marginal_likelihood(noise=other)
        assert abs(value - expected) / abs(expected) <= 1e-6

    def test_fit_report_recorded(self, fitted_gp):
        assert len(fitted_gp.fit_reports_) == 1
        report = fitted_gp.fit_reports_[0]
        assert report.n == N
        assert report.construction_samples > 0
        assert report.construction_launches > 0
        assert np.isfinite(report.log_determinant)
        assert report.total_seconds > 0

    def test_requires_fit_before_prediction(self, gp_problem):
        gp = GaussianProcess(gp_problem["points"], gp_problem["kernel"], noise=NOISE)
        with pytest.raises(RuntimeError):
            gp.predict(gp_problem["points"][:4])
        with pytest.raises(RuntimeError):
            _ = gp.log_marginal_likelihood_

    def test_rejects_wrong_target_length(self, gp_problem):
        gp = GaussianProcess(gp_problem["points"], gp_problem["kernel"], noise=NOISE)
        with pytest.raises(ValueError):
            gp.fit(np.ones(N + 1))

    def test_rejects_context_over_different_points(self, gp_problem):
        """A shared session must cover the same coordinates, not just the count."""
        other = uniform_cube_points(N, dim=2, seed=99)
        session = Session(other, leaf_size=32, seed=1)
        with pytest.raises(ValueError, match="different point coordinates"):
            GaussianProcess(
                gp_problem["points"], gp_problem["kernel"], session=session
            )
        fewer = Session(gp_problem["points"][:-1], leaf_size=32, seed=1)
        with pytest.raises(ValueError, match="different point coordinates"):
            GaussianProcess(gp_problem["points"], gp_problem["kernel"], session=fewer)

    def test_runs_under_the_policy_of_its_context(self, gp_problem):
        session = Session(gp_problem["points"], leaf_size=32, seed=1)
        with pytest.raises(ValueError, match="session's policy"):
            GaussianProcess(
                gp_problem["points"], gp_problem["kernel"], session=session,
                policy=ExecutionPolicy(),
            )
        gp = GaussianProcess(
            gp_problem["points"], gp_problem["kernel"], session=session,
            policy=session.policy,
        )
        assert gp.policy is session.policy
        assert gp.session is session

    def test_solves_directly_with_no_krylov_iteration(self, gp_problem, monkeypatch):
        """The factorization is of ``K + noise I`` itself, so every GP solve
        is its direct solve: no CG or GMRES runs in ``fit`` or ``predict``,
        and the GP has no iteration settings."""
        import repro.solvers.krylov
        import repro.solvers.ladder

        calls = []
        for module in (repro.solvers.krylov, repro.solvers.ladder):
            for name in ("cg", "gmres"):
                def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, spy)
        gp = GaussianProcess(
            gp_problem["points"], gp_problem["kernel"], noise=NOISE,
            tolerance=1e-7, seed=2,
        ).fit(gp_problem["y"])
        gp.predict(gp_problem["points"][:16], return_std=True)
        assert calls == []
        for option in ("solve_tol", "max_cg_iterations"):
            with pytest.raises(TypeError, match=option):
                GaussianProcess(
                    gp_problem["points"], gp_problem["kernel"], **{option: 1}
                )

    def test_configuration_errors_propagate_from_fit(self, gp_problem):
        """Only non-PD points are skipped; setup errors must surface."""
        from repro import GeneralAdmissibility

        session = Session(
            gp_problem["points"],
            leaf_size=32,
            admissibility=GeneralAdmissibility(eta=0.7),
            seed=1,
        )
        gp = GaussianProcess(
            gp_problem["points"], gp_problem["kernel"], noise=NOISE, session=session
        )
        with pytest.raises(ValueError, match="weak-admissibility"):
            gp.fit(gp_problem["y"])

    def test_best_sweep_point_survives_later_evaluations(self, gp_problem):
        """The selected state must stay valid when it is not the last one
        evaluated (plan refreshes of later points must not poison it)."""
        gp = GaussianProcess(
            gp_problem["points"],
            gp_problem["kernel"],
            noise=NOISE,
            tolerance=1e-7,
            seed=13,
        )
        # Best (true) noise first, then a worse point with identical structure
        # that triggers the result-cache/plan-reuse path afterwards.
        gp.fit(gp_problem["y"], noises=[NOISE, 0.8])
        assert gp.noise == NOISE
        mean = gp.predict(gp_problem["points"][:32])
        k_cross = gp_problem["kernel"].evaluate(
            gp_problem["points"][:32], gp_problem["points"]
        )
        expected = k_cross @ np.linalg.solve(gp_problem["shifted"], gp_problem["y"])
        assert np.linalg.norm(mean - expected) / np.linalg.norm(expected) < 1e-4


class TestPrediction:
    @pytest.fixture(scope="class")
    def test_points(self):
        return uniform_cube_points(64, dim=2, seed=77)

    def test_posterior_mean_matches_dense(self, fitted_gp, gp_problem, test_points):
        mean = fitted_gp.predict(test_points)
        k_cross = gp_problem["kernel"].evaluate(test_points, gp_problem["points"])
        expected = k_cross @ gp_problem["alpha"]
        assert np.linalg.norm(mean - expected) / np.linalg.norm(expected) < 1e-6

    def test_posterior_std_matches_dense(self, fitted_gp, gp_problem, test_points):
        _, std = fitted_gp.predict(test_points, return_std=True)
        k_cross = gp_problem["kernel"].evaluate(test_points, gp_problem["points"])
        solve = np.linalg.solve(gp_problem["shifted"], k_cross.T)
        var = 1.0 - np.einsum("ij,ji->i", k_cross, solve)
        expected = np.sqrt(np.maximum(var, 0.0))
        assert np.max(np.abs(std - expected)) < 1e-6

    def test_noisy_predictive_adds_nugget(self, fitted_gp, test_points):
        _, latent = fitted_gp.predict(test_points, return_std=True)
        _, noisy = fitted_gp.predict(test_points, return_std=True, include_noise=True)
        assert np.allclose(noisy**2 - latent**2, NOISE, atol=1e-8)

    def test_interpolates_training_targets_at_small_noise(self, gp_problem):
        """With a tiny nugget the posterior mean passes near the targets."""
        gp = GaussianProcess(
            gp_problem["points"],
            gp_problem["kernel"],
            noise=1e-8,
            tolerance=1e-10,
            seed=4,
        ).fit(gp_problem["y"])
        mean = gp.predict(gp_problem["points"])
        err = np.linalg.norm(mean - gp_problem["y"]) / np.linalg.norm(gp_problem["y"])
        assert err < 1e-4


class TestModelSelection:
    def test_grid_prefers_generating_length_scale(self, gp_problem):
        gp = GaussianProcess(
            gp_problem["points"],
            ExponentialKernel(length_scale=0.9),  # deliberately wrong start
            noise=NOISE,
            tolerance=1e-7,
            seed=6,
        )
        gp.fit(gp_problem["y"], length_scales=[0.05, LENGTH_SCALE, 1.5])
        assert gp.kernel.length_scale == LENGTH_SCALE
        assert len(gp.fit_reports_) == 3
        best = max(r.log_marginal_likelihood for r in gp.fit_reports_)
        assert gp.log_marginal_likelihood_ == best

    def test_noise_grid_sweeps_nugget(self, gp_problem):
        gp = GaussianProcess(
            gp_problem["points"],
            gp_problem["kernel"],
            noise=1.0,
            tolerance=1e-7,
            seed=6,
        )
        gp.fit(gp_problem["y"], noises=[NOISE, 1.0])
        assert gp.noise == NOISE
        # A noise-only sweep leaves K unchanged, so the context's result cache
        # serves the second point's construction.
        assert not gp.fit_reports_[0].result_reused
        assert gp.fit_reports_[1].result_reused

    def test_optimizer_refines_grid_winner(self, gp_problem):
        gp = GaussianProcess(
            gp_problem["points"],
            ExponentialKernel(length_scale=0.9),
            noise=0.3,
            tolerance=1e-7,
            seed=8,
        )
        gp.fit(gp_problem["y"], length_scales=[0.1, 0.5], optimize=True,
               max_optimizer_evals=10)
        grid_best = max(
            r.log_marginal_likelihood for r in gp.fit_reports_[:2]
        )
        assert gp.log_marginal_likelihood_ >= grid_best
        assert len(gp.fit_reports_) > 2  # optimizer evaluated extra points

    def test_sweep_table_renders(self, gp_problem):
        gp = GaussianProcess(
            gp_problem["points"], gp_problem["kernel"], noise=NOISE, tolerance=1e-7
        )
        gp.fit(gp_problem["y"], length_scales=[0.2, 0.4])
        table = gp_sweep_table(gp.fit_reports_)
        assert "length_scale" in table
        assert "log-lik" in table
        assert table.count("\n") >= 3

    def test_sweep_table_rows_follow_the_reports(self):
        def report(params, reused):
            return GPFitReport(
                n=10, kernel="exponential", params=params, noise=0.5,
                log_marginal_likelihood=-1.0, log_determinant=2.0,
                quadratic_term=3.0,
                construction_samples=64, rank_range=(2, 5),
                construction_launches=11, apply_launches=4,
                result_reused=reused, construction_seconds=0.25,
                factorization_seconds=0.125, solve_seconds=0.125,
            )

        reports = [report({"length_scale": 0.2}, False),
                   report({"length_scale": 0.4, "nu": 1.5}, True)]
        lines = gp_sweep_table(reports, title="sweep").splitlines()
        assert lines[0] == "sweep"
        assert lines[1].split()[:2] == ["length_scale", "nu"]
        first, second = (line.split() for line in lines[3:])
        assert len(lines) == 5
        # A parameter a point lacks is left blank; launches are summed.
        assert first[:1] == ["0.2"] and second[:2] == ["0.4", "1.5"]
        assert first[-3:] == ["15", "no", "0.5"]
        assert second[-3:] == ["15", "yes", "0.5"]

    def test_hyperparameter_grid_shapes(self):
        kernel = ExponentialKernel(0.2)
        points = list(hyperparameter_grid(kernel, 0.1, [0.1, 0.2], [1e-2, 1e-1]))
        assert len(points) == 4
        assert {k.length_scale for k, _ in points} == {0.1, 0.2}
        assert {nz for _, nz in points} == {1e-2, 1e-1}
        degenerate = list(hyperparameter_grid(kernel, 0.1))
        assert degenerate == [(kernel, 0.1)]

    def test_grid_rejects_kernel_without_length_scale(self):
        from repro import WhiteNoiseKernel

        with pytest.raises(TypeError):
            list(hyperparameter_grid(WhiteNoiseKernel(0.1), 0.1, [0.1]))


class TestNelderMead:
    def test_minimises_quadratic(self):
        x, fx = nelder_mead(
            lambda x: float(np.sum((x - 1.5) ** 2)),
            np.zeros(2),
            initial_step=0.5,
            max_evals=200,
            xtol=1e-8,
        )
        assert np.allclose(x, 1.5, atol=1e-3)
        assert fx < 1e-5

    def test_respects_eval_budget(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(np.sum(x**2))

        nelder_mead(f, np.ones(3), max_evals=12)
        # The budget bounds the search; the final simplex iteration may add at
        # most one evaluation per dimension before the optimizer notices.
        assert len(calls) <= 12 + 3 + 2

    def test_survives_infeasible_regions(self):
        def f(x):
            if x[0] < 0:
                return np.inf
            return float((x[0] - 0.5) ** 2)

        x, fx = nelder_mead(f, np.array([2.0]), initial_step=0.5, max_evals=100)
        assert abs(x[0] - 0.5) < 0.05


class TestSampling:
    @pytest.fixture(scope="class")
    def sample_points(self):
        return uniform_cube_points(40, dim=2, seed=55)

    def _gp(self, gp_problem, backend):
        return GaussianProcess(
            gp_problem["points"],
            gp_problem["kernel"],
            noise=NOISE,
            tolerance=TOLERANCE,
            policy=ExecutionPolicy(backend=backend),
            seed=9,
        )

    def test_prior_seed_reproducibility_across_backends(self, gp_problem, sample_points):
        draws = {
            backend: self._gp(gp_problem, backend).sample_prior(
                sample_points, num_samples=5, seed=123
            )
            for backend in ("serial", "vectorized")
        }
        assert draws["serial"].shape == (40, 5)
        # Prior sampling never touches the execution backend: bitwise equal.
        assert np.array_equal(draws["serial"], draws["vectorized"])

    def test_prior_seed_determinism(self, fitted_gp, sample_points):
        a = fitted_gp.sample_prior(sample_points, num_samples=3, seed=11)
        b = fitted_gp.sample_prior(sample_points, num_samples=3, seed=11)
        c = fitted_gp.sample_prior(sample_points, num_samples=3, seed=12)
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_prior_covariance_statistics(self, fitted_gp, sample_points):
        draws = fitted_gp.sample_prior(sample_points, num_samples=4000, seed=17)
        sample_cov = draws @ draws.T / draws.shape[1]
        exact = fitted_gp.kernel.evaluate(sample_points, sample_points)
        assert np.linalg.norm(sample_cov - exact) / np.linalg.norm(exact) < 0.15

    def test_posterior_seed_reproducibility_across_backends(
        self, gp_problem, sample_points
    ):
        draws = {}
        for backend in ("serial", "vectorized"):
            gp = self._gp(gp_problem, backend).fit(gp_problem["y"])
            draws[backend] = gp.sample_posterior(sample_points, num_samples=5, seed=42)
        assert draws["serial"].shape == (40, 5)
        # The posterior runs through backend-executed solves; same seed must
        # agree to solver tolerance even though the backends schedule
        # different launches.
        assert np.allclose(draws["serial"], draws["vectorized"], atol=1e-6)

    def test_posterior_concentrates_at_training_points(self, fitted_gp, gp_problem):
        at_train = gp_problem["points"][:25]
        draws = fitted_gp.sample_posterior(at_train, num_samples=600, seed=3)
        mean, std = fitted_gp.predict(at_train, return_std=True)
        # Empirical mean within a few standard errors of the posterior mean.
        scatter = np.abs(draws.mean(axis=1) - mean)
        tolerance = 4.0 * (std + 1e-3) / np.sqrt(600)
        assert np.all(scatter <= tolerance + 1e-6)


@pytest.mark.slow
class TestAcceptance:
    def test_likelihood_accuracy_at_2048(self):
        """Acceptance: <= 1e-6 relative mll error at N = 2048 (3D points)."""
        n = 2048
        points = uniform_cube_points(n, dim=3, seed=71)
        kernel = Matern32Kernel(length_scale=0.3)
        noise = 5e-2
        dense = kernel.matrix(points) + noise * np.eye(n)
        y = np.linalg.cholesky(dense + 1e-12 * np.eye(n)) @ np.random.default_rng(
            1
        ).standard_normal(n)
        sign, logdet = np.linalg.slogdet(dense)
        mll_dense = -0.5 * (
            y @ np.linalg.solve(dense, y) + logdet + n * np.log(2.0 * np.pi)
        )
        gp = GaussianProcess(points, kernel, noise=noise, tolerance=1e-9, seed=2)
        gp.fit(y)
        rel = abs(gp.log_marginal_likelihood_ - mll_dense) / abs(mll_dense)
        assert rel <= 1e-6
