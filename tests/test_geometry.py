"""Tests for repro.geometry: bounding boxes and point-set generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import (
    BoundingBox,
    grid_points,
    plane_points,
    random_sphere_points,
    uniform_cube_points,
)


class TestBoundingBox:
    def test_from_points_tight(self):
        pts = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
        box = BoundingBox.from_points(pts)
        assert np.array_equal(box.low, [0.0, -1.0])
        assert np.array_equal(box.high, [2.0, 1.0])

    def test_diameter(self):
        box = BoundingBox(np.zeros(3), np.array([3.0, 4.0, 0.0]))
        assert box.diameter() == pytest.approx(5.0)

    def test_dim_and_extents(self):
        box = BoundingBox(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
        assert box.dim == 3
        assert np.array_equal(box.extents, [1.0, 2.0, 0.0])

    def test_distance_disjoint(self):
        a = BoundingBox(np.zeros(2), np.ones(2))
        b = BoundingBox(np.array([4.0, 5.0]), np.array([5.0, 6.0]))
        assert a.distance(b) == pytest.approx(np.sqrt(9 + 16))

    def test_distance_overlapping_is_zero(self):
        a = BoundingBox(np.zeros(2), np.ones(2))
        b = BoundingBox(np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        assert a.distance(b) == 0.0
        assert b.distance(a) == 0.0

    def test_distance_symmetric(self):
        a = BoundingBox(np.zeros(3), np.ones(3))
        b = BoundingBox(np.full(3, 2.0), np.full(3, 3.0))
        assert a.distance(b) == pytest.approx(b.distance(a))

    def test_contains(self):
        box = BoundingBox(np.zeros(2), np.ones(2))
        pts = np.array([[0.5, 0.5], [1.5, 0.5]])
        assert box.contains(pts).tolist() == [True, False]

    def test_union(self):
        a = BoundingBox(np.zeros(2), np.ones(2))
        b = BoundingBox(np.array([2.0, -1.0]), np.array([3.0, 0.5]))
        u = a.union(b)
        assert np.array_equal(u.low, [0.0, -1.0])
        assert np.array_equal(u.high, [3.0, 1.0])

    def test_invalid_box_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(np.ones(2), np.zeros(2))

    def test_empty_points_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points(np.zeros((0, 3)))

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_from_points_contains_all(self, raw_points):
        pts = np.array(raw_points, dtype=float)
        box = BoundingBox.from_points(pts)
        assert bool(np.all(box.contains(pts, atol=1e-12)))


class TestPointClouds:
    def test_uniform_cube_shape_and_range(self):
        pts = uniform_cube_points(100, dim=3, seed=0, side=2.0)
        assert pts.shape == (100, 3)
        assert pts.min() >= 0.0 and pts.max() <= 2.0

    def test_uniform_cube_reproducible(self):
        assert np.array_equal(
            uniform_cube_points(50, seed=7), uniform_cube_points(50, seed=7)
        )

    def test_uniform_cube_invalid_n(self):
        with pytest.raises(ValueError):
            uniform_cube_points(0)

    def test_grid_points(self):
        pts = grid_points((2, 3), spacing=0.5)
        assert pts.shape == (6, 2)
        assert np.array_equal(pts[0], [0.0, 0.0])
        assert np.array_equal(pts[-1], [0.5, 1.0])

    def test_grid_points_invalid(self):
        with pytest.raises(ValueError):
            grid_points((0, 3))

    def test_plane_points_embedded_in_3d(self):
        pts = plane_points(3, 4, spacing=1.0, z=2.5)
        assert pts.shape == (12, 3)
        assert np.all(pts[:, 2] == 2.5)

    def test_sphere_points_on_sphere(self):
        pts = random_sphere_points(200, seed=1, radius=2.0)
        radii = np.linalg.norm(pts, axis=1)
        assert np.allclose(radii, 2.0)

    def test_sphere_invalid_n(self):
        with pytest.raises(ValueError):
            random_sphere_points(-1)
