"""Tests for diagnostics: error measurement, profiling, reporting."""

import time

import numpy as np
import pytest

from repro import DenseOperator, SpanTracer
from repro.diagnostics import (
    construction_error,
    dense_relative_error,
    format_series,
    format_table,
)
from repro.diagnostics.profiling import PHASE_ORDER, PhaseBreakdown
from repro.observe import NOOP_TRACER, MetricsRegistry, phase_span


class TestErrorMeasurement:
    def test_dense_relative_error(self):
        a = np.eye(5)
        b = np.eye(5) + 1e-3
        err = dense_relative_error(b, a)
        assert err == pytest.approx(np.linalg.norm(b - a) / np.linalg.norm(a))

    def test_dense_relative_error_spectral(self):
        a = np.diag([2.0, 1.0])
        b = np.diag([2.0, 1.5])
        assert dense_relative_error(b, a, norm="2") == pytest.approx(0.25)

    def test_identical_matrices(self):
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert dense_relative_error(a, a) == 0.0

    def test_zero_reference(self):
        assert dense_relative_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
        assert dense_relative_error(np.ones((2, 2)), np.zeros((2, 2))) == np.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense_relative_error(np.eye(2), np.eye(3))

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            dense_relative_error(np.eye(2), np.eye(2), norm="max")

    def test_construction_error_close_to_dense_error(self, cov_h2, dense_cov_2d):
        op = DenseOperator(dense_cov_2d)
        sketched = construction_error(cov_h2, op, num_iterations=10, seed=1)
        exact = dense_relative_error(cov_h2.to_dense(permuted=True), dense_cov_2d, norm="2")
        assert sketched <= 50 * max(exact, 1e-16)
        assert sketched < 1e-4


class TestPhaseBreakdown:
    def test_percentages_sum_to_100(self):
        breakdown = PhaseBreakdown(seconds={"id": 1.0, "sampling": 3.0, "misc": 0.5})
        pct = breakdown.percentages()
        assert abs(sum(pct.values()) - 100.0) < 1e-9

    def test_ordered_phases(self):
        breakdown = PhaseBreakdown(seconds={"id": 1.0, "sampling": 3.0, "custom": 0.5})
        ordered = breakdown.ordered()
        assert list(ordered)[: len(PHASE_ORDER)] == list(PHASE_ORDER)
        assert ordered["custom"] == 0.5
        assert ordered["convergence"] == 0.0

    def test_empty_breakdown(self):
        breakdown = PhaseBreakdown(seconds={})
        assert breakdown.total_seconds == 0.0
        assert breakdown.percentages() == {}

    def test_ordered_percentages_follow_phase_order(self):
        breakdown = PhaseBreakdown(seconds={"misc": 1.0, "id": 3.0, "custom": 1.0})
        pct = breakdown.ordered_percentages()
        assert list(pct) == [*PHASE_ORDER, "custom"]
        assert abs(sum(pct.values()) - 100.0) < 1e-9
        assert pct["id"] == pytest.approx(60.0)
        assert pct["sampling"] == 0.0


class TestPhaseBreakdownFromSpans:
    """The phase spans are the only record a breakdown is read from."""

    def test_repeated_phases_add_within_and_across_roots(self):
        tracer = SpanTracer(metrics=MetricsRegistry())
        for _ in range(2):
            with tracer.span("construct", category="construct"):
                with phase_span(tracer, "id"):
                    time.sleep(0.002)
                with phase_span(tracer, "sampling"):
                    pass
                with phase_span(tracer, "id"):
                    pass
        whole = PhaseBreakdown.from_span(tracer)
        parts = [PhaseBreakdown.from_span(root) for root in tracer.roots]
        assert len(parts) == 2
        assert set(whole.seconds) == {"id", "sampling"}
        for phase, seconds in whole.seconds.items():
            assert seconds == pytest.approx(sum(p.seconds[phase] for p in parts))
        assert whole.seconds["id"] >= 0.004 > whole.seconds["sampling"]
        assert whole.peak_bytes == {}

    def test_only_phase_spans_are_read(self):
        tracer = SpanTracer(metrics=MetricsRegistry())
        with tracer.span("construct", category="construct"):
            with tracer.span("level/1", category="construct.level"):
                with phase_span(tracer, "id"):
                    pass
            with tracer.span("apply", category="apply"):
                pass
            # A phase span without a ``phase`` attribute is keyed by its name.
            with tracer.span("custom", category="construct.phase"):
                pass
        breakdown = PhaseBreakdown.from_span(tracer)
        assert set(breakdown.seconds) == {"id", "custom"}
        (construct,) = tracer.roots
        assert breakdown.total_seconds <= construct.duration

    def test_a_disabled_tracer_records_no_phase(self):
        with phase_span(NOOP_TRACER, "sampling"):
            pass
        breakdown = PhaseBreakdown.from_span(NOOP_TRACER)
        assert breakdown.seconds == {} and breakdown.peak_bytes == {}
        assert breakdown.total_seconds == 0.0
        assert breakdown.ordered_percentages() == dict.fromkeys(PHASE_ORDER, 0.0)


class TestReporting:
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
