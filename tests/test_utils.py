"""Tests for repro.utils: prefix sums, validation, RNG helpers and tables."""

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
from repro.solvers.krylov import KrylovResult
from repro.utils.tables import (
    convergence_table,
    format_series,
    format_table,
    residual_series,
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


class TestTables:
    def test_format_table(self):
        text = format_table(
            ["N", "time"], [[1024, 0.5], [2048, 1.25]], title="Construction time"
        )
        assert "Construction time" in text
        assert "1024" in text and "2048" in text
        assert len(text.splitlines()) == 5

    def test_format_series_missing_points(self):
        text = format_series(
            "N",
            {"ours": {1024: 0.1, 2048: 0.2}, "baseline": {1024: 1.0}},
            title="Fig 5",
        )
        assert "Fig 5" in text
        assert "-" in text  # the missing baseline point at N=2048

    def test_format_table_float_format(self):
        text = format_table(["x"], [[0.123456789]], float_format="{:.2f}")
        assert "0.12" in text

    @staticmethod
    def krylov_result(residuals, method="cg", converged=True):
        return KrylovResult(
            x=np.zeros(3),
            converged=converged,
            iterations=max(len(residuals) - 1, 0),
            residual_norms=np.asarray(residuals, dtype=np.float64),
            method=method,
            matvecs=9,
            preconditioner_applications=4,
            elapsed_seconds=0.5,
        )

    def test_convergence_table_row_is_the_summary(self):
        result = self.krylov_result([1.0, 0.5, 0.25], method="gmres", converged=False)
        lines = convergence_table({"run": result}, title=None).splitlines()
        assert len(lines) == 3
        assert lines[2].split() == ["run", "gmres", "2", "9", "4", "0.25", "NO", "0.5"]

    def test_residual_series_keeps_first_and_last_iteration(self):
        result = self.krylov_result(np.logspace(0, -7, 8))
        lines = residual_series({"cg": result}, every=3, title=None).splitlines()
        assert lines[0].split() == ["iteration", "cg"]
        assert [int(line.split()[0]) for line in lines[2:]] == [0, 3, 6, 7]
        assert lines[-1].split()[1] == "1.000e-07"

    def test_residual_series_skips_an_empty_history(self):
        full = self.krylov_result([1.0, 0.1])
        empty = self.krylov_result([])
        text = residual_series({"full": full, "empty": empty}, title=None)
        assert text.splitlines()[0].split() == ["iteration", "full"]
