"""Tests for repro.linalg: pivoted QR, interpolative decomposition, low-rank
objects and randomized norm estimation."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import eigsh

from repro import (
    DenseOperator,
    ExponentialKernel,
    GaussianKernel,
    HelmholtzKernel,
    Matern32Kernel,
    uniform_cube_points,
)
from repro.linalg import (
    LowRankMatrix,
    construction_error,
    estimate_relative_error,
    estimate_spectral_norm,
    random_low_rank,
    row_id,
)
from repro.linalg.interpolative import column_id
from repro.linalg.norm_estimation import SKETCH_NORM_COLUMNS, sketched_spectral_norm
from repro.linalg.qr import (
    householder_orthonormalize,
    smallest_r_diagonal,
    truncated_pivoted_qr,
)

from oracles import dense_relative_error


def economic_mode_row_id(a, rel_tol=None, abs_tol=None, max_rank=None):
    """``row_id`` as it was computed from the *economic* pivoted QR (``Q``
    formed, then discarded): ``(skeleton, rank, dense interpolation)``.  The
    oracle of the ``Q``-free routine."""
    m = a.shape[0]
    _, r, perm, rank = truncated_pivoted_qr(
        a.T, rel_tol=rel_tol, abs_tol=abs_tol, max_rank=max_rank
    )
    coeffs = np.zeros((rank, m))
    if rank:
        coeffs[:, perm[:rank]] = np.eye(rank)
        if rank < m:
            coeffs[:, perm[rank:]] = sla.solve_triangular(
                r[:rank, :rank], r[:rank, rank:], lower=False
            )
    return perm[:rank], rank, coeffs.T


def random_rank_k(m, n, k, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    if noise:
        a = a + noise * rng.standard_normal((m, n))
    return a


class TestTruncatedPivotedQR:
    def test_exact_rank_detected(self):
        a = random_rank_k(40, 30, 5, seed=1)
        _, _, _, rank = truncated_pivoted_qr(a, rel_tol=1e-10)
        assert rank == 5

    def test_reconstruction(self):
        a = random_rank_k(25, 20, 8, seed=2)
        q, r, perm, rank = truncated_pivoted_qr(a, rel_tol=1e-12)
        recon = q[:, :rank] @ r[:rank]
        assert np.allclose(recon, a[:, perm], atol=1e-8)

    def test_abs_tol(self):
        a = np.diag([10.0, 1.0, 1e-8])
        _, _, _, rank = truncated_pivoted_qr(a, abs_tol=1e-4)
        assert rank == 2

    def test_max_rank_cap(self):
        a = random_rank_k(30, 30, 10, seed=3)
        _, _, _, rank = truncated_pivoted_qr(a, rel_tol=1e-12, max_rank=4)
        assert rank == 4

    def test_zero_matrix(self):
        _, _, _, rank = truncated_pivoted_qr(np.zeros((10, 7)), rel_tol=1e-10)
        assert rank == 0

    def test_empty_matrix(self):
        q, r, perm, rank = truncated_pivoted_qr(np.zeros((0, 5)))
        assert rank == 0 and perm.shape == (5,)

    def test_no_tolerance_full_rank(self):
        a = np.random.default_rng(4).standard_normal((12, 9))
        _, _, _, rank = truncated_pivoted_qr(a)
        assert rank == 9


class TestSmallestRDiagonal:
    def test_full_rank_positive(self):
        a = np.random.default_rng(5).standard_normal((20, 10))
        assert smallest_r_diagonal(a) > 1e-3

    def test_rank_deficient_small(self):
        a = random_rank_k(30, 10, 3, seed=6)
        assert smallest_r_diagonal(a) < 1e-8

    def test_wide_matrix_reports_converged(self):
        a = np.random.default_rng(7).standard_normal((5, 10))
        assert smallest_r_diagonal(a) == 0.0

    def test_empty(self):
        assert smallest_r_diagonal(np.zeros((0, 4))) == 0.0
        assert smallest_r_diagonal(np.zeros((4, 0))) == 0.0

    def test_orthonormalize(self):
        a = np.random.default_rng(8).standard_normal((15, 6))
        q = householder_orthonormalize(a)
        assert np.allclose(q.T @ q, np.eye(6), atol=1e-10)


class TestInterpolativeDecomposition:
    def test_row_id_exact_low_rank(self):
        a = random_rank_k(50, 30, 7, seed=9)
        dec = row_id(a, rel_tol=1e-10)
        assert dec.rank == 7
        assert np.allclose(dec.reconstruct(a[dec.skeleton]), a, atol=1e-7)

    def test_identity_on_skeleton_rows(self):
        a = random_rank_k(40, 25, 6, seed=10)
        dec = row_id(a, rel_tol=1e-10)
        assert np.allclose(dec.interpolation[dec.skeleton], np.eye(dec.rank), atol=1e-12)

    def test_skeleton_and_redundant_partition_rows(self):
        a = random_rank_k(30, 20, 5, seed=11)
        dec = row_id(a, rel_tol=1e-10)
        combined = np.sort(np.concatenate([dec.skeleton, dec.redundant]))
        assert np.array_equal(combined, np.arange(30))

    def test_tolerance_controls_error(self):
        a = random_rank_k(60, 40, 30, seed=12, noise=1e-9)
        for tol in (1e-2, 1e-4, 1e-6):
            dec = row_id(a, rel_tol=tol)
            err = np.linalg.norm(dec.reconstruct(a[dec.skeleton]) - a) / np.linalg.norm(a)
            # pivoted-QR based ID satisfies a tolerance up to a modest factor
            assert err <= 50 * tol

    def test_rank_monotone_in_tolerance(self):
        a = random_rank_k(60, 40, 30, seed=13, noise=1e-10)
        ranks = [row_id(a, rel_tol=tol).rank for tol in (1e-2, 1e-5, 1e-9)]
        assert ranks == sorted(ranks)

    def test_max_rank(self):
        a = random_rank_k(30, 30, 10, seed=14)
        dec = row_id(a, rel_tol=1e-12, max_rank=3)
        assert dec.rank == 3

    def test_zero_matrix_rank_zero(self):
        dec = row_id(np.zeros((20, 10)), rel_tol=1e-8)
        assert dec.rank == 0
        assert dec.interpolation.shape == (20, 0)

    def test_column_id(self):
        a = random_rank_k(20, 35, 6, seed=15)
        skeleton, coeffs, rank = column_id(a, rel_tol=1e-10)
        assert rank == 6
        assert np.allclose(a[:, skeleton] @ coeffs, a, atol=1e-7)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            row_id(np.zeros(5))

    @given(
        m=st.integers(1, 48),
        d=st.integers(1, 48),
        k=st.integers(0, 48),
        noise=st.sampled_from([0.0, 1e-9, 1e-3]),
        tolerances=st.sampled_from(
            [
                {"rel_tol": 1e-8},
                {"abs_tol": 1e-6},
                {"rel_tol": 1e-10, "abs_tol": 1e-7},
                {"rel_tol": 1e-12, "max_rank": 3},
            ]
        ),
        seed=st.integers(0, 10_000),
    )
    # rank == d: R1 fills the factored array, the layout in which a triangular
    # solve left to scipy would pick its other variant and lose the last bit.
    @example(m=11, d=10, k=10, noise=0.0, tolerances={"rel_tol": 1e-8}, seed=56)
    @example(m=39, d=38, k=40, noise=0.0, tolerances={"abs_tol": 1e-6}, seed=171)
    @settings(max_examples=150, deadline=None)
    def test_property_q_free_id_keeps_every_bit(self, m, d, k, noise, tolerances, seed):
        """Rank 0 (``k == 0``) to full rank, ``m < d`` and ``m > d``: the same
        skeleton and rank and, bit for bit, the same dense interpolation as the
        economic-mode code; and ``X^T B`` through ``(J, redundant, T)``."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, d))
        a += noise * rng.standard_normal((m, d))
        # A window of a wider buffer, as the packed sample stacks hand it in.
        window = np.zeros((m + 2, d + 3))
        window[:m, :d] = a
        dec = row_id(window[:m, :d], **tolerances)
        skeleton, rank, interpolation = economic_mode_row_id(a, **tolerances)
        assert dec.rank == rank
        assert np.array_equal(dec.skeleton, skeleton)
        assert dec.T.shape == (rank, m - rank)
        assert dec.interpolation.shape == interpolation.shape
        assert np.array_equal(dec.interpolation, interpolation)
        assert np.array_equal(window[:m, :d], a)  # the operand is not consumed
        block = rng.standard_normal((m, 5))
        projected = block[dec.skeleton] + dec.T @ block[dec.redundant]
        scale = (np.abs(interpolation).T @ np.abs(block)).max(initial=1.0)
        assert np.allclose(
            projected, interpolation.T @ block, rtol=0.0, atol=1e-14 * scale
        )

    def test_id_rejects_non_finite_blocks(self):
        a = random_rank_k(12, 9, 3, seed=2)
        a[4, 5] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            row_id(a, rel_tol=1e-8)

    @given(
        m=st.integers(5, 40),
        n=st.integers(5, 40),
        k=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_exact_recovery(self, m, n, k, seed):
        k = min(k, m, n)
        a = random_rank_k(m, n, k, seed=seed)
        dec = row_id(a, rel_tol=1e-9)
        assert dec.rank <= min(m, n)
        recon = dec.reconstruct(a[dec.skeleton])
        assert np.linalg.norm(recon - a) <= 1e-6 * max(np.linalg.norm(a), 1.0)


class TestLowRank:
    def test_shapes_and_rank(self):
        lr = random_low_rank(30, 4, seed=0)
        assert lr.shape == (30, 30)
        assert lr.rank == 4

    def test_matvec_matches_dense(self):
        lr = random_low_rank(25, 3, seed=1)
        x = np.random.default_rng(2).standard_normal((25, 5))
        assert np.allclose(lr.matvec(x), lr.to_dense() @ x)
        assert np.allclose(lr.rmatvec(x), lr.to_dense().T @ x)

    def test_entries(self):
        lr = random_low_rank(20, 2, seed=3)
        rows = np.array([1, 5, 7])
        cols = np.array([0, 19])
        assert np.allclose(lr.entries(rows, cols), lr.to_dense()[np.ix_(rows, cols)])

    def test_symmetric_generation(self):
        lr = random_low_rank(15, 3, seed=5, symmetric=True)
        dense = lr.to_dense()
        assert np.allclose(dense, dense.T)

    def test_rectangular_factors(self):
        rng = np.random.default_rng(6)
        lr = LowRankMatrix(rng.standard_normal((12, 3)), rng.standard_normal((7, 3)))
        assert lr.shape == (12, 7)
        dense = lr.to_dense()
        assert dense.shape == (12, 7)
        x = rng.standard_normal(7)
        assert np.allclose(lr.matvec(x), dense @ x)
        assert np.allclose(lr.entries(np.array([11]), np.array([0, 6])), dense[[11]][:, [0, 6]])

    def test_one_dimensional_factor_raises(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            LowRankMatrix(np.zeros(5), np.zeros((5, 1)))

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            LowRankMatrix(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_invalid_random_args(self):
        with pytest.raises(ValueError):
            random_low_rank(0, 3)
        with pytest.raises(ValueError):
            random_low_rank(5, 0)


class TestNormEstimation:
    def test_spectral_norm_of_diagonal(self):
        d = np.diag(np.array([5.0, 2.0, 1.0, 0.1]))
        est = estimate_spectral_norm(lambda x: d @ x, 4, num_iterations=30, seed=0)
        assert est == pytest.approx(5.0, rel=1e-3)

    def test_spectral_norm_nonsymmetric(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 30))
        est = estimate_spectral_norm(
            lambda x: a @ x, 30, rmatvec=lambda x: a.T @ x, num_iterations=60, seed=2
        )
        assert est == pytest.approx(np.linalg.norm(a, 2), rel=5e-2)

    def test_zero_operator(self):
        est = estimate_spectral_norm(lambda x: 0.0 * x, 10, num_iterations=5, seed=3)
        assert est == 0.0

    def test_relative_error_zero_for_identical(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((20, 20))
        err = estimate_relative_error(lambda x: a @ x, lambda x: a @ x, 20, seed=5)
        assert err < 1e-12

    def test_relative_error_detects_perturbation(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((40, 40))
        e = 1e-3 * rng.standard_normal((40, 40))
        err = estimate_relative_error(
            lambda x: a @ x, lambda x: (a + e) @ x, 40, num_iterations=20, seed=7
        )
        exact = np.linalg.norm(e, 2) / np.linalg.norm(a, 2)
        assert 0.2 * exact <= err <= 5 * exact

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            estimate_spectral_norm(lambda x: x, 0)

    def test_rmatvec_defaulted_assumes_symmetry(self):
        """Without rmatvec the power method runs on A A (not A^T A): exact for
        symmetric operators, generally wrong for nonsymmetric ones."""
        rng = np.random.default_rng(8)
        sym = rng.standard_normal((25, 25))
        sym = 0.5 * (sym + sym.T)
        defaulted = estimate_spectral_norm(lambda x: sym @ x, 25, num_iterations=60, seed=9)
        supplied = estimate_spectral_norm(
            lambda x: sym @ x, 25, rmatvec=lambda x: sym.T @ x, num_iterations=60, seed=9
        )
        assert defaulted == pytest.approx(supplied, rel=1e-10)
        assert defaulted == pytest.approx(np.linalg.norm(sym, 2), rel=1e-2)

    def test_rmatvec_supplied_fixes_nonsymmetric_bias(self):
        """A strongly non-normal matrix: the defaulted (symmetric) path
        underestimates the spectral norm, the rmatvec path recovers it."""
        a = np.array([[0.0, 100.0], [0.0, 0.01]])
        supplied = estimate_spectral_norm(
            lambda x: a @ x, 2, rmatvec=lambda x: a.T @ x, num_iterations=30, seed=10
        )
        defaulted = estimate_spectral_norm(lambda x: a @ x, 2, num_iterations=30, seed=10)
        assert supplied == pytest.approx(np.linalg.norm(a, 2), rel=1e-6)
        assert defaulted < 0.1 * supplied

    def test_relative_error_seed_reproducibility(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 30))
        b = a + 1e-4 * rng.standard_normal((30, 30))
        first = estimate_relative_error(lambda x: a @ x, lambda x: b @ x, 30, seed=12)
        second = estimate_relative_error(lambda x: a @ x, lambda x: b @ x, 30, seed=12)
        other = estimate_relative_error(lambda x: a @ x, lambda x: b @ x, 30, seed=13)
        assert first == second
        assert first > 0.0
        # A different seed gives a (generally) different estimate of the same
        # quantity — both must still be in the right ballpark.
        exact = np.linalg.norm(a - b, 2) / np.linalg.norm(a, 2)
        assert 0.2 * exact <= first <= 5 * exact
        assert 0.2 * exact <= other <= 5 * exact


    def test_construction_error_close_to_dense_error(self, cov_h2, dense_cov_2d):
        op = DenseOperator(dense_cov_2d)
        sketched = construction_error(cov_h2, op, num_iterations=10, seed=1)
        exact = dense_relative_error(cov_h2.to_dense(permuted=True), dense_cov_2d, norm="2")
        assert sketched <= 50 * max(exact, 1e-16)
        assert sketched < 1e-4

COVARIANCE = {
    "exponential": ExponentialKernel(0.2),
    "gaussian": GaussianKernel(0.2),
    "matern32": Matern32Kernel(0.2),
}
HELMHOLTZ = {"helmholtz3": HelmholtzKernel(3.0), "helmholtz10": HelmholtzKernel(10.0)}


class TestSketchedSpectralNorm:
    """The block estimate the constructor derives its threshold from."""

    @staticmethod
    def _ratios(matrix, true_norm, seeds=(0, 1, 2)):
        n = matrix.shape[0]
        ratios = []
        for seed in seeds:
            omega = np.random.default_rng(seed).standard_normal((n, SKETCH_NORM_COLUMNS))
            estimate = sketched_spectral_norm(lambda q: matrix @ q, matrix @ omega)
            ratios.append(estimate / true_norm)
        return ratios

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", [*COVARIANCE, *HELMHOLTZ])
    def test_calibration_against_the_dense_two_norm(self, name, dim, n):
        """estimate / ||K||_2 per kernel family: never above 1 (lower bound),
        >= 0.98 for covariance kernels, >= 0.75 for Helmholtz kernels."""
        kernel = {**COVARIANCE, **HELMHOLTZ}[name]
        matrix = kernel.matrix(uniform_cube_points(n, dim=dim, seed=n + dim))
        # K is symmetric: Lanczos gives max |lambda| = ||K||_2 to 1e-12 in a
        # fraction of the 2.4 s an SVD of a 2048 x 2048 matrix takes.
        true_norm = abs(
            eigsh(matrix, k=1, which="LM", return_eigenvectors=False, tol=1e-12)[0]
        )
        ratios = self._ratios(matrix, true_norm)
        assert max(ratios) <= 1.0 + 1e-12
        assert min(ratios) >= (0.98 if name in COVARIANCE else 0.75)

    def test_nonsymmetric_operators_need_no_adjoint(self):
        """Still a lower bound, and one step reaches about half the norm on the
        two matrices where the adjoint-free power iteration it replaced
        returned 0.15-0.28 of it (it iterated A^2)."""
        n = 300
        gaussian = np.random.default_rng(0).standard_normal((n, n))
        cases = {
            "strictly upper triangular": (np.triu(gaussian, 1), 0.5),
            "column scaled": (gaussian * np.logspace(0, -3, n)[None, :], 0.4),
        }
        for matrix, reached in cases.values():
            true_norm = np.linalg.norm(matrix, 2)
            ratios = self._ratios(matrix, true_norm, seeds=range(5))
            assert max(ratios) <= 1.0 + 1e-12
            assert min(ratios) >= reached

    def test_uses_at_most_the_fixed_column_count(self):
        matrix = np.diag(np.arange(1.0, 101.0))
        widths = []

        def apply(q):
            widths.append(q.shape[1])
            return matrix @ q

        rng = np.random.default_rng(3)
        for columns in (8, 3 * SKETCH_NORM_COLUMNS):
            sketched_spectral_norm(apply, matrix @ rng.standard_normal((100, columns)))
        assert widths == [8, SKETCH_NORM_COLUMNS]

    def test_zero_operator(self):
        zero = np.zeros((40, 40))
        assert sketched_spectral_norm(lambda q: zero @ q, np.zeros((40, 8))) == 0.0
