"""Tests for the solver subsystem (Krylov, HODLR factorization, factorizations
as preconditioners, multifrontal solve) including the acceptance criteria on
the 4096-point SPD covariance system."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import (
    ClusterTree,
    DenseEntryExtractor,
    DenseOperator,
    ExponentialKernel,
    as_linear_operator,
    compress,
    cg,
    gmres,
    factorize,
    uniform_cube_points,
)
from repro.linalg import LowRankMatrix
from repro.solvers import MultifrontalSolver, bicgstab
from repro.baselines import HODLRFactorization, build_hodlr, convert
from repro.utils.tables import convergence_table, residual_series
from repro.multifrontal import poisson_matrix

from oracles import matvec_loop


@pytest.fixture(scope="module")
def spd_system():
    """A small dense SPD system."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((60, 60))
    a = a @ a.T + 60.0 * np.eye(60)
    b = rng.standard_normal(60)
    return a, b


@pytest.fixture(scope="module")
def covariance_4096():
    """The acceptance-criteria system: a 4096-point SPD covariance matrix.

    Exponential covariance over 4096 2D points plus a small nugget; returned
    in both the original ordering (``a``) and the cluster-tree ordering
    (``a_perm``), together with the tree and a right-hand side.
    """
    n = 4096
    points = uniform_cube_points(n, dim=2, seed=7)
    tree = ClusterTree.build(points, leaf_size=64)
    kernel = ExponentialKernel(length_scale=0.2)
    a = kernel.matrix(points) + 0.01 * np.eye(n)
    a_perm = a[np.ix_(tree.perm, tree.perm)]
    b = np.random.default_rng(3).standard_normal(n)
    return {"a": a, "a_perm": a_perm, "tree": tree, "b": b}


class TestLinearOperatorAdapter:
    def test_dense_array(self):
        a = np.arange(9.0).reshape(3, 3)
        op = as_linear_operator(a)
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(op @ x, a @ x)
        assert np.allclose(op.rmatvec(x), a.T @ x)

    def test_sparse_matrix(self):
        a = poisson_matrix((4, 4))
        op = as_linear_operator(a)
        x = np.ones(16)
        assert np.allclose(op.matvec(x), a @ x)

    def test_h2_matrix(self, cov_h2):
        op = as_linear_operator(cov_h2)
        x = np.random.default_rng(1).standard_normal(op.n)
        assert np.allclose(op.matvec(x), cov_h2.matvec(x))

    def test_low_rank(self):
        rng = np.random.default_rng(2)
        lr = LowRankMatrix(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
        op = as_linear_operator(lr)
        x = rng.standard_normal(8)
        assert np.allclose(op @ x, lr.to_dense() @ x)

    def test_callable_requires_dimension(self):
        with pytest.raises(ValueError):
            as_linear_operator(lambda x: x)
        op = as_linear_operator(lambda x: 2.0 * x, n=5)
        assert np.allclose(op.matvec(np.ones(5)), 2.0 * np.ones(5))

    def test_block_input(self):
        a = np.random.default_rng(3).standard_normal((6, 6))
        x = np.random.default_rng(4).standard_normal((6, 3))
        assert np.allclose(as_linear_operator(a).matvec(x), a @ x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            as_linear_operator(np.eye(4)).matvec(np.ones(5))

    def test_block_rhs_routed_through_matmat(self, cov_h2):
        """Block RHS must hit the batched multi-RHS apply, not k matvecs."""
        calls = {"matmat": 0}
        original = cov_h2.matmat

        class Spy:
            shape = cov_h2.shape

            def matvec(self, x):
                return cov_h2.matvec(x)

            def matmat(self, x):
                calls["matmat"] += 1
                return original(x)

        op = as_linear_operator(Spy())
        block = np.random.default_rng(5).standard_normal((cov_h2.num_rows, 3))
        out = op.matvec(block)
        assert calls["matmat"] == 1
        assert np.allclose(out, cov_h2.matmat(block))

    def test_gmres_iteration_counts_unchanged_by_matmat_routing(self, cov_h2):
        """GMRES(m) on the batched/matmat-routed operator must match the
        legacy column-wise loop operator iteration for iteration."""
        from repro.hmatrix.linear_operator import LinearOperator

        n = cov_h2.num_rows
        b = np.random.default_rng(9).standard_normal(n)
        shift = 0.2  # nugget: the raw covariance is near-singular
        legacy = LinearOperator((n, n), lambda x: matvec_loop(cov_h2, x) + shift * x)
        batched = LinearOperator(
            (n, n),
            lambda x: cov_h2.matvec(x) + shift * x,
            matmat=lambda x: cov_h2.matmat(x) + shift * x,
        )
        result_legacy = gmres(legacy, b, tol=1e-8, restart=25, maxiter=500)
        result_batched = gmres(batched, b, tol=1e-8, restart=25, maxiter=500)
        assert result_batched.converged and result_legacy.converged
        # The regression target: the same iteration count.  The two operators
        # compute the same product with reordered floating-point arithmetic,
        # so on an ill-conditioned system the residual may cross the tolerance
        # one step apart on a different BLAS; allow that single step of slack
        # while requiring the early descent to coincide tightly.
        assert abs(result_batched.iterations - result_legacy.iterations) <= 1
        assert abs(result_batched.matvecs - result_legacy.matvecs) <= 2
        assert np.allclose(
            result_batched.residual_norms[:20], result_legacy.residual_norms[:20],
            rtol=1e-6,
        )
        assert result_batched.final_residual <= 1e-8

    def test_krylov_records_apply_backend(self, cov_h2):
        b = np.random.default_rng(10).standard_normal(cov_h2.num_rows)
        result = cg(cov_h2, b, tol=1e-6, maxiter=2000)
        assert result.extra.get("apply_backend") == "vectorized"
        counter = result.extra["apply_launch_counter"]
        assert counter.total_calls() > 0

    def test_shift_kwarg_builds_shifted_operator(self):
        from repro.hmatrix import ShiftedLinearOperator

        a = np.random.default_rng(11).standard_normal((7, 7))
        op = as_linear_operator(a, shift=0.25)
        assert isinstance(op, ShiftedLinearOperator)
        x = np.random.default_rng(12).standard_normal(7)
        assert np.allclose(op.matvec(x), a @ x + 0.25 * x)
        assert np.allclose(op.rmatvec(x), a.T @ x + 0.25 * x)
        block = np.random.default_rng(13).standard_normal((7, 3))
        assert np.allclose(op.matmat(block), a @ block + 0.25 * block)
        # shift=0 stays on the plain adapter path.
        assert not isinstance(as_linear_operator(a), ShiftedLinearOperator)

    def test_shifted_h2_keeps_apply_diagnostics(self, cov_h2):
        """The shifted wrapper must not hide the H2 apply backend from solvers."""
        b = np.random.default_rng(14).standard_normal(cov_h2.num_rows)
        op = as_linear_operator(cov_h2, shift=0.05)
        result = cg(op, b, tol=1e-8, maxiter=2000)
        assert result.converged
        assert result.extra.get("apply_backend") == "vectorized"
        # The solution solves the shifted system, not the bare covariance.
        residual = b - (cov_h2.matvec(result.x) + 0.05 * result.x)
        assert np.linalg.norm(residual) / np.linalg.norm(b) <= 1e-7


class TestKrylov:
    @pytest.mark.parametrize("solver", [cg, gmres, bicgstab])
    def test_solves_spd_system(self, solver, spd_system):
        a, b = spd_system
        result = solver(a, b, tol=1e-10, maxiter=300)
        assert result.converged
        assert np.linalg.norm(a @ result.x - b) / np.linalg.norm(b) < 1e-9
        assert result.final_residual < 1e-10
        assert result.matvecs > 0

    @pytest.mark.parametrize("solver", [gmres, bicgstab])
    def test_nonsymmetric_system(self, solver):
        rng = np.random.default_rng(5)
        a = np.eye(40) + 0.3 * rng.standard_normal((40, 40))
        b = rng.standard_normal(40)
        result = solver(a, b, tol=1e-9, maxiter=400, restart=40) if solver is gmres else solver(
            a, b, tol=1e-9, maxiter=400
        )
        assert result.converged
        assert np.linalg.norm(a @ result.x - b) / np.linalg.norm(b) < 1e-8

    @pytest.mark.parametrize("solver", [cg, gmres, bicgstab])
    def test_zero_rhs(self, solver, spd_system):
        a, _ = spd_system
        result = solver(a, np.zeros(60))
        assert result.converged
        assert result.iterations == 0
        assert np.allclose(result.x, 0.0)

    def test_residual_history_tracks_convergence(self, spd_system):
        a, b = spd_system
        result = cg(a, b, tol=1e-10)
        assert result.residual_norms[0] == pytest.approx(1.0)
        assert result.residual_norms[-1] <= 1e-10
        assert result.iterations == result.residual_norms.shape[0] - 1

    def test_initial_guess(self, spd_system):
        a, b = spd_system
        x_star = np.linalg.solve(a, b)
        result = cg(a, b, tol=1e-12, x0=x_star)
        assert result.converged
        assert result.iterations == 0

    def test_exact_inverse_preconditioner(self, spd_system):
        a, b = spd_system
        a_inv = np.linalg.inv(a)
        result = cg(a, b, tol=1e-12, M=lambda r: a_inv @ r)
        assert result.converged
        assert result.iterations <= 2
        assert result.preconditioner_applications >= 1

    def test_operator_input(self, cov_h2):
        b = np.random.default_rng(8).standard_normal(cov_h2.num_rows)
        result = cg(cov_h2, b, tol=1e-6, maxiter=2000)
        assert result.converged
        assert np.linalg.norm(cov_h2.matvec(result.x) - b) / np.linalg.norm(b) < 1e-5

    def test_callback(self, spd_system):
        a, b = spd_system
        seen = []
        cg(a, b, tol=1e-8, callback=lambda k, r: seen.append((k, r)))
        assert seen and seen[-1][1] <= 1e-8

    def test_maxiter_reports_nonconvergence(self, spd_system):
        a, b = spd_system
        result = cg(a, b, tol=1e-14, maxiter=2)
        assert not result.converged
        assert result.iterations == 2

    @pytest.mark.parametrize("solver", [cg, gmres, bicgstab])
    def test_complex_rhs_rejected_loudly(self, solver, spd_system):
        """Complex b/x0 raise instead of being silently .real-truncated."""
        a, b = spd_system
        with pytest.raises(TypeError, match="complex"):
            solver(a, b.astype(np.complex128))
        with pytest.raises(TypeError, match="complex"):
            solver(a, b, x0=np.zeros_like(b, dtype=np.complex128))


class TestHODLRFactorization:
    @pytest.fixture(scope="class")
    def kernel_system(self):
        points = uniform_cube_points(700, dim=2, seed=21)
        tree = ClusterTree.build(points, leaf_size=32)
        kernel = ExponentialKernel(length_scale=0.3)
        a_perm = kernel.matrix(tree.points) + 0.05 * np.eye(700)
        return tree, a_perm

    @pytest.fixture(scope="class")
    def tight_hodlr(self, kernel_system):
        """The system's HODLR at ``tol=1e-12``, built once: a factorization
        only reads it."""
        tree, a_perm = kernel_system
        return build_hodlr(tree, lambda r, c: a_perm[np.ix_(r, c)], tol=1e-12)

    def test_direct_solve(self, kernel_system, tight_hodlr):
        tree, a_perm = kernel_system
        fact = HODLRFactorization(tight_hodlr)
        b = np.random.default_rng(1).standard_normal((700, 3))
        x = fact.solve(b, permuted=True)
        assert np.linalg.norm(a_perm @ x - b) / np.linalg.norm(b) < 1e-9

    def test_solve_in_original_ordering(self, kernel_system, tight_hodlr):
        tree, a_perm = kernel_system
        a_orig = a_perm[np.ix_(tree.iperm, tree.iperm)]
        fact = HODLRFactorization(tight_hodlr)
        b = np.random.default_rng(2).standard_normal(700)
        x = fact.solve(b)
        assert np.linalg.norm(a_orig @ x - b) / np.linalg.norm(b) < 1e-9

    def test_slogdet_matches_numpy(self, kernel_system, tight_hodlr):
        tree, a_perm = kernel_system
        fact = HODLRFactorization(tight_hodlr)
        sign_ref, logdet_ref = np.linalg.slogdet(a_perm)
        sign, logdet = fact.slogdet()
        assert sign == pytest.approx(sign_ref)
        assert logdet == pytest.approx(logdet_ref, rel=1e-8)
        assert fact.logdet() == pytest.approx(logdet_ref, rel=1e-8)
        assert fact.determinant_sign == pytest.approx(sign_ref)

    def test_negative_determinant_sign(self, kernel_system):
        """An indefinite shift flips eigenvalue signs; the sign must track numpy."""
        tree, a_perm = kernel_system
        shifted = a_perm - 1.05 * np.eye(700)
        hodlr = build_hodlr(tree, lambda r, c: shifted[np.ix_(r, c)], tol=1e-12)
        fact = HODLRFactorization(hodlr)
        sign_ref, logdet_ref = np.linalg.slogdet(shifted)
        sign, logdet = fact.slogdet()
        assert sign == pytest.approx(sign_ref)
        assert logdet == pytest.approx(logdet_ref, rel=1e-6)
        if sign_ref < 0:
            with pytest.raises(ValueError):
                fact.logdet()

    def test_diagonal_shift(self, kernel_system, tight_hodlr):
        tree, a_perm = kernel_system
        fact = HODLRFactorization(tight_hodlr, shift=0.5)
        b = np.random.default_rng(3).standard_normal(700)
        x = fact.solve(b, permuted=True)
        shifted = a_perm + 0.5 * np.eye(700)
        assert np.linalg.norm(shifted @ x - b) / np.linalg.norm(b) < 1e-9

    def test_factor_of_sketched_hss(self, kernel_system):
        """convert(h2, "hodlr") of a tight HSS construction supports direct solves."""
        tree, a_perm = kernel_system
        result = compress(
            format="hss",
            tree=tree,
            operator=DenseOperator(a_perm),
            extractor=DenseEntryExtractor(a_perm),
            tol=1e-10,
            seed=4,
            full_result=True,
        )
        fact = HODLRFactorization(convert(result.matrix, "hodlr"))
        b = np.random.default_rng(4).standard_normal(700)
        x = fact.solve(b, permuted=True)
        assert np.linalg.norm(a_perm @ x - b) / np.linalg.norm(b) < 1e-6

    def test_hodlr_conversion_recompresses_strong_partition(self, cov_h2, rel_err):
        """Strong-admissibility H2 converts by re-compression onto the weak
        partition with the sketching constructor (the internal weak-partition
        ValueError no longer leaks)."""
        hodlr = convert(cov_h2, "hodlr", tol=1e-8)
        assert rel_err(hodlr.to_dense(), cov_h2.to_dense()) < 1e-6

    def test_singular_matrix_sign_is_zero(self, kernel_system):
        tree, _ = kernel_system
        ones = np.ones((700, 700))  # rank 1: every leaf diagonal block singular
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fact = HODLRFactorization(
                    build_hodlr(tree, lambda r, c: ones[np.ix_(r, c)], tol=1e-10)
                )
        assert fact.determinant_sign == 0.0
        assert fact.slogdet()[1] == -np.inf
        with pytest.raises(ValueError):
            fact.logdet()

    def test_memory_accounting(self, kernel_system):
        tree, a_perm = kernel_system
        hodlr = build_hodlr(tree, lambda r, c: a_perm[np.ix_(r, c)], tol=1e-8)
        fact = HODLRFactorization(hodlr)
        assert fact.memory_bytes() > 0


class TestSlogdetRegression:
    """Pin the HODLR factor's slogdet()/logdet() against numpy on shifted
    SPD covariances.

    The Gaussian-process marginal likelihood rides on these values, so they
    are regression-tested across tree depths (leaf sizes) and shift values,
    including the ``shift=0`` edge case where the bare covariance is barely
    positive definite.
    """

    N = 640

    @pytest.fixture(scope="class")
    def covariance(self):
        points = uniform_cube_points(self.N, dim=2, seed=33)
        return points, ExponentialKernel(length_scale=0.25)

    @pytest.fixture(scope="class")
    def hodlr_at(self, covariance):
        """``leaf_size -> (a_perm, hodlr)``, built once per leaf size and
        shared by the shifts: a factorization only reads its HODLR."""
        points, kernel = covariance
        built = {}

        def build(leaf_size):
            if leaf_size not in built:
                tree = ClusterTree.build(points, leaf_size=leaf_size)
                a_perm = kernel.matrix(tree.points)
                hodlr = build_hodlr(tree, lambda r, c: a_perm[np.ix_(r, c)], tol=1e-12)
                built[leaf_size] = (a_perm, hodlr)
            return built[leaf_size]

        return build

    @pytest.mark.parametrize("leaf_size", [16, 40, 160])
    @pytest.mark.parametrize("shift", [0.0, 1e-6, 1e-2, 1.0])
    def test_matches_numpy_across_depths_and_shifts(self, hodlr_at, leaf_size, shift):
        a_perm, hodlr = hodlr_at(leaf_size)
        fact = HODLRFactorization(hodlr, shift=shift)

        shifted = a_perm + shift * np.eye(self.N)
        sign_ref, logdet_ref = np.linalg.slogdet(shifted)
        sign, logdet = fact.slogdet()
        assert sign == pytest.approx(sign_ref)
        assert logdet == pytest.approx(logdet_ref, rel=1e-8, abs=1e-8)
        assert fact.logdet() == pytest.approx(logdet_ref, rel=1e-8, abs=1e-8)

    def test_shift_zero_equals_unshifted_factorization(self, covariance):
        points, kernel = covariance
        tree = ClusterTree.build(points, leaf_size=32)
        a_perm = kernel.matrix(tree.points)
        entries = lambda r, c: a_perm[np.ix_(r, c)]  # noqa: E731
        plain = HODLRFactorization(build_hodlr(tree, entries, tol=1e-12))
        explicit = HODLRFactorization(build_hodlr(tree, entries, tol=1e-12), shift=0.0)
        assert plain.slogdet() == explicit.slogdet()

    def test_slogdet_of_sketched_gp_covariance(self, covariance):
        """End-to-end: constructor output -> HODLR -> slogdet vs numpy."""
        points, kernel = covariance
        tree = ClusterTree.build(points, leaf_size=32)
        a_perm = kernel.matrix(tree.points)
        result = compress(
            format="hss",
            tree=tree,
            operator=DenseOperator(a_perm),
            extractor=DenseEntryExtractor(a_perm),
            tol=1e-10,
            seed=11,
            full_result=True,
        )
        nugget = 5e-2
        fact = HODLRFactorization(convert(result.matrix, "hodlr"), shift=nugget)
        sign_ref, logdet_ref = np.linalg.slogdet(a_perm + nugget * np.eye(self.N))
        sign, logdet = fact.slogdet()
        assert sign == pytest.approx(sign_ref)
        assert logdet == pytest.approx(logdet_ref, rel=1e-7)


class TestAcceptance:
    """The ISSUE acceptance criteria on the 4096-point SPD covariance system."""

    def test_hss_preconditioned_cg_iteration_reduction(self, covariance_4096):
        a, a_perm, tree, b = (
            covariance_4096["a"],
            covariance_4096["a_perm"],
            covariance_4096["tree"],
            covariance_4096["b"],
        )
        plain = cg(a, b, tol=1e-8, maxiter=4000)
        assert plain.converged

        preconditioner = factorize(compress(
            tree=tree,
            operator=DenseOperator(a_perm),
            extractor=DenseEntryExtractor(a_perm),
            format="hss",
            tol=1e-4,
            seed=3,
        ))
        preconditioned = cg(a, b, tol=1e-8, maxiter=4000, M=preconditioner)
        assert preconditioned.converged
        assert preconditioned.final_residual <= 1e-8
        # The tentpole criterion: at least a 3x iteration reduction.
        assert preconditioned.iterations <= plain.iterations / 3
        # And the preconditioner did nontrivial work each iteration.
        assert preconditioned.preconditioner_applications >= preconditioned.iterations

    def test_hodlr_direct_solve_matches_dense_reference(self, covariance_4096):
        a, a_perm, tree, b = (
            covariance_4096["a"],
            covariance_4096["a_perm"],
            covariance_4096["tree"],
            covariance_4096["b"],
        )
        hodlr = build_hodlr(tree, lambda r, c: a_perm[np.ix_(r, c)], tol=1e-11)
        fact = HODLRFactorization(hodlr)
        x = fact.solve(b)
        reference = np.linalg.solve(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-6
        assert np.linalg.norm(x - reference) / np.linalg.norm(reference) <= 1e-6


class TestFactorizationPreconditioner:
    """A loose HSS factorization is itself the ``M=`` of the Krylov methods
    (CG is covered by ``TestAcceptance``)."""

    def test_loose_factorization_preconditions_gmres(self):
        points = uniform_cube_points(900, dim=2, seed=31)
        tree = ClusterTree.build(points, leaf_size=32)
        a = ExponentialKernel(length_scale=0.2).matrix(points) + 0.01 * np.eye(900)
        a_perm = a[np.ix_(tree.perm, tree.perm)]
        b = np.random.default_rng(6).standard_normal(900)
        preconditioner = factorize(compress(
            tree=tree, operator=DenseOperator(a_perm),
            extractor=DenseEntryExtractor(a_perm), format="hss", tol=1e-3, seed=1,
        ))
        plain = gmres(a, b, tol=1e-8, restart=30, maxiter=900)
        result = gmres(a, b, tol=1e-8, restart=30, maxiter=900, M=preconditioner)
        assert result.converged
        assert result.iterations < plain.iterations
        assert np.linalg.norm(a @ result.x - b) / np.linalg.norm(b) < 1e-7


class TestMultifrontalSolver:
    def test_exact_solve_2d(self):
        a = poisson_matrix((15, 15))
        solver = MultifrontalSolver.build(a, (15, 15), max_levels=3)
        assert solver.is_exact
        b = np.random.default_rng(0).standard_normal(225)
        x = solver.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-12

    def test_exact_solve_3d(self):
        a = poisson_matrix((7, 7, 7))
        solver = MultifrontalSolver.build(a, (7, 7, 7), max_levels=2)
        b = np.random.default_rng(1).standard_normal(343)
        x = solver.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-12

    def test_matches_sparse_direct(self):
        a = poisson_matrix((12, 12))
        solver = MultifrontalSolver.build(a, (12, 12), max_levels=2)
        b = np.random.default_rng(2).standard_normal(144)
        assert np.allclose(solver.solve(b), spla.spsolve(a.tocsc(), b), atol=1e-10)

    def test_multiple_rhs(self):
        a = poisson_matrix((10, 10))
        solver = MultifrontalSolver.build(a, (10, 10), max_levels=2)
        b = np.random.default_rng(3).standard_normal((100, 4))
        x = solver.solve(b)
        assert x.shape == (100, 4)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-12

    def test_front_report(self):
        a = poisson_matrix((15, 15))
        solver = MultifrontalSolver.build(a, (15, 15), max_levels=3)
        fronts = solver.front_report()
        assert len(fronts) == 7  # 1 + 2 + 4 separators over 3 levels
        assert fronts[0].level == 0
        assert fronts[0].size == 15  # root separator is a full grid line
        stats = solver.statistics()
        assert stats["num_fronts"] == 7
        assert stats["largest_front"] == 15

    @pytest.mark.slow
    def test_compressed_fronts_precondition_cg(self):
        """Compressed-front multifrontal solve works as a CG preconditioner."""
        shape = (31, 31)
        a = poisson_matrix(shape)
        n = a.shape[0]
        solver = MultifrontalSolver.build(
            a,
            shape,
            max_levels=2,
            compress_tolerance=1e-4,
            compress_min_size=24,
            compress_leaf_size=8,
        )
        assert any(f.compressed for f in solver.fronts)
        b = np.random.default_rng(4).standard_normal(n)
        plain = cg(a, b, tol=1e-10, maxiter=5000)
        preconditioned = cg(a, b, tol=1e-10, maxiter=5000, M=solver)
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations / 2

    def test_compressed_fronts_solve_to_the_compression_tolerance(self):
        """Fronts compressed through ``compress(format="hss")`` and factored
        by ``factorize``; at a tight tolerance the solve is near exact."""
        a = poisson_matrix((15, 15))
        solver = MultifrontalSolver.build(
            a, (15, 15), max_levels=2, compress_tolerance=1e-10,
            compress_min_size=8, compress_leaf_size=4,
        )
        assert not solver.is_exact
        b = np.random.default_rng(6).standard_normal(225)
        x = solver.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MultifrontalSolver.build(poisson_matrix((5, 5)), (6, 6))

    def test_degenerate_cuts_fall_back_to_leaves(self):
        """Deep dissection of a tiny grid (empty half-domains) stays exact."""
        a = poisson_matrix((5, 5))
        solver = MultifrontalSolver.build(a, (5, 5), max_levels=6, min_size=2)
        b = np.random.default_rng(5).standard_normal(25)
        x = solver.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-12


class TestSolverReporting:
    def test_convergence_table(self, spd_system):
        a, b = spd_system
        results = {"cg": cg(a, b, tol=1e-8), "gmres": gmres(a, b, tol=1e-8, restart=60)}
        text = convergence_table(results)
        assert "cg" in text and "gmres" in text
        assert "rel resid" in text

    def test_convergence_table_from_sequence(self, spd_system):
        a, b = spd_system
        text = convergence_table([cg(a, b, tol=1e-8)], title=None)
        assert "cg" in text

    def test_convergence_table_keeps_duplicate_methods(self, spd_system):
        a, b = spd_system
        runs = [cg(a, b, tol=1e-8), cg(a, b, tol=1e-8, M=lambda r: r)]
        text = convergence_table(runs, title=None)
        # one header + one separator + one row per run
        assert len(text.splitlines()) == 4

    def test_residual_series(self, spd_system):
        a, b = spd_system
        result = cg(a, b, tol=1e-8)
        text = residual_series({"cg": result}, every=5)
        assert "iteration" in text
        assert "cg" in text
