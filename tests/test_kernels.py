"""Tests for the kernel functions (covariance and volume-IE)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ExponentialKernel,
    GaussianKernel,
    HelmholtzKernel,
    LaplaceKernel,
    Matern32Kernel,
    Matern52Kernel,
    uniform_cube_points,
)
from repro.kernels import base as kernel_base
from repro.kernels.base import pairwise_distances
from repro import ScaledKernel, SumKernel, WhiteNoiseKernel

ALL_KERNELS = [
    ExponentialKernel(0.2),
    GaussianKernel(0.3),
    Matern32Kernel(0.25),
    Matern52Kernel(0.25),
    HelmholtzKernel(wavenumber=3.0, diagonal_value=1.0),
    LaplaceKernel(diagonal_value=2.0),
]


class TestPairwiseDistances:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        x, y = rng.random((20, 3)), rng.random((15, 3))
        naive = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
        assert np.allclose(pairwise_distances(x, y), naive, atol=1e-10)

    def test_zero_on_identical_points(self):
        x = np.random.default_rng(1).random((10, 3))
        d = pairwise_distances(x, x)
        assert np.allclose(np.diag(d), 0.0)

    @given(st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.random((8, 2)), rng.random((9, 2))
        assert np.all(pairwise_distances(x, y) >= 0.0)


class TestTiledEvaluation:
    """Large outputs are produced in square tiles of side ``_TILE_SIDE``; the
    result must not depend on where the tile boundaries fall, nor on whether
    a tile of one point set against itself is evaluated or mirrored."""

    @pytest.fixture()
    def clouds(self):
        """Row and column points with coincident pairs in every row band."""
        base = np.random.default_rng(5).random((40, 3))
        x = np.vstack([base, base[:15], base[10:20]])
        y = np.vstack([base[::-1], base[:7]])
        return x, y

    @pytest.mark.parametrize(
        "kernel",
        [
            ExponentialKernel(0.7),
            HelmholtzKernel(wavenumber=3.0, diagonal_value=1.5),
            LaplaceKernel(diagonal_value=2.0),
            HelmholtzKernel(3.0, diagonal_value=2.0) + WhiteNoiseKernel(0.5),
        ],
        ids=["exponential", "helmholtz", "laplace", "helmholtz+nugget"],
    )
    def test_tiled_equals_untiled(self, monkeypatch, clouds, kernel):
        x, y = clouds
        monkeypatch.setattr(kernel_base, "_TILE_SIDE", x.shape[0])  # one tile
        distances = pairwise_distances(x, y)
        values = kernel.evaluate(x, y)
        self_values = kernel.matrix(x)
        coincident = (x[:, None, :] == y[None, :, :]).all(axis=2)
        assert coincident.sum() == 79 and np.array_equal(distances == 0.0, coincident)
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(self_values))
        # Tiles of side 1, 3 and 7: boundaries cut through the duplicated rows.
        for side in (1, 3, 7):
            monkeypatch.setattr(kernel_base, "_TILE_SIDE", side)
            tiled = pairwise_distances(x, y)
            assert np.array_equal(tiled == 0.0, distances == 0.0)
            assert np.allclose(tiled, distances, rtol=0.0, atol=1e-13)
            assert np.allclose(kernel.evaluate(x, y), values, rtol=1e-13, atol=1e-13)
            mirrored = kernel.matrix(x)
            assert np.array_equal(mirrored, mirrored.T)
            assert np.allclose(mirrored, self_values, rtol=1e-13, atol=1e-13)

    def test_small_outputs_take_the_untiled_code(self, monkeypatch):
        """At most one tile: a single call on the whole index range."""
        calls = []

        def ones(rows, cols):
            calls.append((rows, cols))
            return np.ones((rows.stop - rows.start, cols.stop - cols.start))

        monkeypatch.setattr(kernel_base, "_TILE_SIDE", 3)
        result = kernel_base._tiled(3, 3, ones)
        assert calls == [(slice(0, 3), slice(0, 3))] and result.shape == (3, 3)
        calls.clear()
        result = kernel_base._tiled(7, 4, ones)
        assert calls == [
            (slice(i, min(i + 3, 7)), slice(j, min(j + 3, 4)))
            for i in (0, 3, 6)
            for j in (0, 3)
        ]
        assert np.array_equal(result, np.ones((7, 4)))

    def test_tiles_are_square_unless_the_output_is_thin(self, monkeypatch):
        monkeypatch.setattr(kernel_base, "_TILE_SIDE", 3)
        assert list(kernel_base._tiles(5, 7)) == [
            (slice(i, min(i + 3, 5)), slice(j, min(j + 3, 7)))
            for i in (0, 3)
            for j in (0, 3, 6)
        ]
        # Two rows: tiles of the same 9 entries, stretched along the columns.
        assert list(kernel_base._tiles(2, 10)) == [
            (slice(0, 2), slice(0, 4)), (slice(0, 2), slice(4, 8)), (slice(0, 2), slice(8, 10))
        ]
        assert list(kernel_base._tiles(10, 2)) == [
            (slice(0, 4), slice(0, 2)), (slice(4, 8), slice(0, 2)), (slice(8, 10), slice(0, 2))
        ]
        assert list(kernel_base._tiles(5, 30, side=4)) == [
            (slice(i, min(i + 4, 5)), slice(j, min(j + 4, 30)))
            for i in (0, 4)
            for j in range(0, 30, 4)
        ]
        assert np.array_equal(
            kernel_base._tiled(5, 30, lambda r, c: np.add.outer(np.r_[r], np.r_[c])),
            np.add.outer(np.arange(5), np.arange(30)),
        )

    def test_mirror_evaluates_the_upper_triangle_once(self, monkeypatch):
        """Seven points in tiles of three: the six tiles on or above the
        diagonal are evaluated, the three below are their transposes."""
        monkeypatch.setattr(kernel_base, "_TILE_SIDE", 3)
        calls = []

        def outer(rows, cols):
            calls.append((rows, cols))
            return np.add.outer(10.0 * np.r_[rows], np.r_[cols]) + np.add.outer(
                np.r_[rows], 10.0 * np.r_[cols]
            )

        full = np.add.outer(11.0 * np.arange(7), 11.0 * np.arange(7))
        assert np.array_equal(kernel_base._tiled(7, 7, outer, mirror=True), full)
        assert calls == list(kernel_base._upper_tiles(7)) == [
            (slice(i, min(i + 3, 7)), slice(j, min(j + 3, 7)))
            for i in (0, 3, 6)
            for j in (0, 3, 6)
            if j >= i
        ]


class TestKernelValues:
    def test_exponential_formula(self):
        k = ExponentialKernel(0.2)
        x = np.array([[0.0, 0.0, 0.0]])
        y = np.array([[0.3, 0.4, 0.0]])
        assert k(x, y)[0, 0] == pytest.approx(np.exp(-0.5 / 0.2))

    def test_exponential_diagonal_is_one(self):
        pts = uniform_cube_points(50, seed=0)
        mat = ExponentialKernel(0.2).matrix(pts)
        assert np.allclose(np.diag(mat), 1.0)

    def test_gaussian_formula(self):
        k = GaussianKernel(0.5)
        x, y = np.zeros((1, 2)), np.array([[0.5, 0.0]])
        assert k(x, y)[0, 0] == pytest.approx(np.exp(-0.5))

    def test_matern_decreasing_in_distance(self):
        for k in (Matern32Kernel(0.2), Matern52Kernel(0.2)):
            r = np.linspace(0, 2, 50)
            vals = k.profile(r)
            assert np.all(np.diff(vals) <= 1e-12)
            assert vals[0] == pytest.approx(1.0)

    def test_helmholtz_formula_offdiagonal(self):
        k = HelmholtzKernel(wavenumber=3.0)
        x, y = np.zeros((1, 3)), np.array([[0.5, 0.0, 0.0]])
        assert k(x, y)[0, 0] == pytest.approx(np.cos(1.5) / 0.5)

    def test_helmholtz_diagonal_value_used(self):
        k = HelmholtzKernel(wavenumber=3.0, diagonal_value=7.5)
        pts = uniform_cube_points(20, seed=1)
        mat = k.matrix(pts)
        assert np.allclose(np.diag(mat), 7.5)
        assert np.all(np.isfinite(mat))

    def test_laplace_diagonal_finite(self):
        mat = LaplaceKernel(diagonal_value=0.0).matrix(uniform_cube_points(20, seed=2))
        assert np.all(np.isfinite(mat))

    def test_scaled_kernel(self):
        base = ExponentialKernel(0.2)
        scaled = ScaledKernel(base, 3.0)
        r = np.linspace(0, 1, 10)
        assert np.allclose(scaled.profile(r), 3.0 * base.profile(r))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExponentialKernel(0.0)
        with pytest.raises(ValueError):
            GaussianKernel(-1.0)
        with pytest.raises(ValueError):
            HelmholtzKernel(wavenumber=-1.0)
        with pytest.raises(TypeError):
            ScaledKernel(None)


class TestKernelMatrices:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_symmetric(self, kernel):
        pts = uniform_cube_points(60, seed=3)
        mat = kernel.matrix(pts)
        assert np.allclose(mat, mat.T, atol=1e-12)

    @pytest.mark.parametrize(
        "kernel",
        [
            ExponentialKernel(0.2),
            HelmholtzKernel(3.0, diagonal_value=1.5),
            0.5 * ExponentialKernel(0.2) + WhiteNoiseKernel(1e-2),
        ],
        ids=["exponential", "helmholtz", "exponential+nugget"],
    )
    def test_bitwise_symmetric_across_tiles(self, kernel):
        """Each mirrored pair is one value: N spans several evaluation tiles."""
        pts = uniform_cube_points(700, dim=3, seed=3)
        mat = kernel.matrix(pts)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(pairwise_distances(pts, pts), pairwise_distances(pts, pts).T)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_finite(self, kernel):
        pts = uniform_cube_points(60, seed=4)
        assert np.all(np.isfinite(kernel.matrix(pts)))

    def test_exponential_is_positive_definite(self):
        pts = uniform_cube_points(80, seed=5)
        mat = ExponentialKernel(0.2).matrix(pts)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() > -1e-10

    def test_covariance_blocks_are_numerically_low_rank(self):
        """Well-separated blocks must be compressible — the premise of the paper."""
        rng = np.random.default_rng(6)
        left = rng.random((80, 3)) * 0.2
        right = rng.random((80, 3)) * 0.2 + np.array([0.8, 0.8, 0.8])
        block = ExponentialKernel(0.2).evaluate(left, right)
        s = np.linalg.svd(block, compute_uv=False)
        numerical_rank = int(np.sum(s > 1e-8 * s[0]))
        assert numerical_rank < 40

    def test_evaluate_rectangular(self):
        k = ExponentialKernel(0.2)
        a = uniform_cube_points(30, seed=7)
        b = uniform_cube_points(45, seed=8)
        assert k.evaluate(a, b).shape == (30, 45)


class TestRebinding:
    """Kernel-parameter rebinding — the sweep primitive of repro.gp."""

    @pytest.mark.parametrize(
        "kernel",
        [ExponentialKernel(0.2), GaussianKernel(0.3), Matern32Kernel(0.25)],
        ids=lambda k: type(k).__name__,
    )
    def test_rebind_length_scale(self, kernel):
        rebound = kernel.rebind(length_scale=0.5)
        assert type(rebound) is type(kernel)
        assert rebound.length_scale == 0.5
        assert kernel.length_scale != 0.5  # original untouched

    def test_rebind_validates(self):
        with pytest.raises(ValueError):
            ExponentialKernel(0.2).rebind(length_scale=-1.0)

    def test_rebind_rejects_unknown_parameter(self):
        with pytest.raises(TypeError):
            ExponentialKernel(0.2).rebind(bandwidth=1.0)

    def test_hyperparameters_lists_scalar_fields(self):
        assert ExponentialKernel(0.2).hyperparameters() == {"length_scale": 0.2}
        assert HelmholtzKernel(3.0, diagonal_value=1.0).hyperparameters() == {
            "wavenumber": 3.0,
            "diagonal_value": 1.0,
        }


class TestComposition:
    """Noise/nugget composition: scaled, sum and white-noise kernels."""

    def test_operator_sugar(self):
        composed = 0.5 * ExponentialKernel(0.2) + WhiteNoiseKernel(1e-2)
        assert isinstance(composed, SumKernel)
        pts = uniform_cube_points(40, seed=9)
        expected = 0.5 * ExponentialKernel(0.2).matrix(pts) + 1e-2 * np.eye(40)
        assert np.allclose(composed.matrix(pts), expected, atol=1e-14)

    def test_white_noise_only_touches_diagonal(self):
        pts = uniform_cube_points(30, seed=10)
        mat = WhiteNoiseKernel(0.7).matrix(pts)
        assert np.allclose(mat, 0.7 * np.eye(30))

    def test_scaled_kernel_rebind_routes_parameters(self):
        scaled = ScaledKernel(ExponentialKernel(0.2), 2.0)
        rebound = scaled.rebind(length_scale=0.4, variance=3.0)
        assert rebound.variance == 3.0
        assert rebound.kernel.length_scale == 0.4
        assert scaled.hyperparameters() == {"length_scale": 0.2, "variance": 2.0}

    def test_sum_kernel_rebind_routes_parameters(self):
        composed = ExponentialKernel(0.2) + WhiteNoiseKernel(1e-2)
        rebound = composed.rebind(length_scale=0.3, variance=1e-1)
        values = rebound.hyperparameters()
        assert values["length_scale"] == 0.3
        assert values["variance"] == 1e-1
        with pytest.raises(TypeError):
            composed.rebind(wavenumber=1.0)

    def test_colliding_names_are_qualified_not_merged(self):
        """Two variances in one model must stay distinct parameters.

        The README model 0.5*K + WhiteNoise has a ScaledKernel amplitude and a
        nugget both called 'variance'; reads and writes must agree on which is
        which, and the bare ambiguous name must be rejected.
        """
        composed = 0.5 * ExponentialKernel(0.2) + WhiteNoiseKernel(1e-2)
        params = composed.hyperparameters()
        assert params["variance.0"] == 0.5
        assert params["variance.1"] == 1e-2
        assert params["length_scale"] == 0.2
        assert "variance" not in params

        rebound = composed.rebind(**{"variance.0": 0.9, "variance.1": 0.3})
        assert rebound.kernels[0].variance == 0.9
        assert rebound.kernels[1].variance == 0.3

        with pytest.raises(TypeError, match="ambiguous"):
            composed.rebind(variance=1.0)
        with pytest.raises(TypeError):
            composed.rebind(**{"length_scale.1": 0.4})  # wrong component

    def test_hyperparameters_round_trip_through_rebind(self):
        """rebind(**hyperparameters()) must reproduce the same model."""
        for kernel in [
            ExponentialKernel(0.2),
            ScaledKernel(ExponentialKernel(0.3), 2.0),
            0.5 * ExponentialKernel(0.2) + WhiteNoiseKernel(1e-2),
            ScaledKernel(WhiteNoiseKernel(0.4), 3.0),  # nested variance collision
        ]:
            params = kernel.hyperparameters()
            rebound = kernel.rebind(**params)
            assert rebound.hyperparameters() == params
            r = np.linspace(0.0, 1.0, 7)
            assert np.allclose(
                rebound.profile_with_diagonal(r), kernel.profile_with_diagonal(r)
            )

    def test_sum_respects_diagonal_values(self):
        composed = HelmholtzKernel(3.0, diagonal_value=2.0) + WhiteNoiseKernel(0.5)
        pts = uniform_cube_points(25, seed=11)
        mat = composed.matrix(pts)
        assert np.allclose(np.diag(mat), 2.5)

    def test_value_at_zero(self):
        assert ExponentialKernel(0.2).value_at_zero() == 1.0
        assert WhiteNoiseKernel(0.3).value_at_zero() == 0.3
        assert (2.0 * ExponentialKernel(0.2)).value_at_zero() == 2.0

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            SumKernel(())

    def test_composite_works_in_construction(self):
        """A composed kernel runs through the full constructor unchanged."""
        from repro import Session

        pts = uniform_cube_points(300, dim=2, seed=12)
        kernel = 0.8 * Matern32Kernel(0.3)
        ctx = Session(pts, leaf_size=32, seed=2)
        result = ctx.construct(kernel, tol=1e-7)
        dense = kernel.matrix(ctx.tree.points)
        x = np.random.default_rng(3).standard_normal(300)
        err = np.linalg.norm(result.matrix.matvec(x, permuted=True) - dense @ x)
        assert err / np.linalg.norm(dense @ x) < 1e-5
