"""Tests for repro.utils: prefix sums, validation and RNG helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    as_generator,
    check_positive,
    check_square,
    exclusive_prefix_sum,
    require,
    spawn_generator,
)
from repro.utils.validation import as_index_array


class TestPrefixSum:
    def test_basic(self):
        assert exclusive_prefix_sum([2, 3, 1]).tolist() == [0, 2, 5]

    def test_empty(self):
        assert exclusive_prefix_sum([]).shape == (0,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            exclusive_prefix_sum([[1, 2]])

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30))
    def test_matches_numpy_cumsum(self, sizes):
        expected = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        assert np.array_equal(exclusive_prefix_sum(sizes), expected)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    def test_check_positive(self):
        check_positive(1, "x")
        with pytest.raises(ValueError):
            check_positive(0, "x")
        with pytest.raises(ValueError):
            check_positive(-3.0, "x")

    def test_check_square(self):
        check_square(np.eye(3))
        with pytest.raises(ValueError):
            check_square(np.zeros((2, 3)))

    def test_as_index_array(self):
        out = as_index_array([1, 2, 3])
        assert out.dtype == np.int64
        with pytest.raises(ValueError):
            as_index_array([[1, 2]])


class TestRng:
    def test_as_generator_passthrough(self):
        rng = np.random.default_rng(3)
        assert as_generator(rng) is rng

    def test_as_generator_seeded_reproducible(self):
        a = as_generator(42).standard_normal(5)
        b = as_generator(42).standard_normal(5)
        assert np.array_equal(a, b)

    def test_spawn_generator_independent_streams(self):
        rng = np.random.default_rng(0)
        a = spawn_generator(rng, 0).standard_normal(8)
        rng = np.random.default_rng(0)
        b = spawn_generator(rng, 1).standard_normal(8)
        assert not np.array_equal(a, b)
