"""Tests for the numerical-health & resource telemetry layer.

Covers per-span peak-memory attribution, the stochastic compression-error
probe (including the acceptance case: an artificially degraded operator is
flagged), solver convergence triage, the OpenMetrics exposition, histogram
percentile edge cases, and the policy/facade/solver wiring that threads
everything through.  Every count is read from its owner: the health report,
the log records, the span attributes.
"""

from __future__ import annotations

import json
import logging
import math
import re
import sys

import numpy as np
import pytest

import repro
from repro import (
    ConstructionConfig,
    ExecutionPolicy,
    ExponentialKernel,
    Session,
    SpanTracer,
    uniform_cube_points,
)
from repro.observe import (
    Histogram,
    HealthEvent,
    HealthThresholds,
    MemorySampler,
    MetricsRegistry,
    NOOP_TRACER,
    PhaseBreakdown,
    check_operator_health,
    diagnose_convergence,
    estimate_compression_error,
    record_solver_health,
    render_openmetrics,
    rss_bytes,
    sanitize_metric_name,
    to_jsonl,
)
from repro.solvers.krylov import KrylovResult, cg

N = 256


def fresh_tracer(**kwargs):
    return SpanTracer(**kwargs)


#: What the sampler allocates itself inside a span: one ``[entry, peak]``
#: frame.  A sampled peak may read that much short of an array's bytes (under
#: a line tracer such as coverage's, the frame is allocated after the
#: baseline reading).
SAMPLER_SLACK = sys.getsizeof([0, 0])


def warnings_of(caplog, logger):
    return [record for record in caplog.records
            if record.name == logger and record.levelno == logging.WARNING]


# -------------------------------------------------- histogram edge cases (b)
class TestHistogramEdgeCases:
    def test_empty_reservoir_percentile_is_nan(self):
        hist = Histogram("lat")
        assert math.isnan(hist.percentile(50.0))
        assert math.isnan(hist.p50)
        assert math.isnan(hist.p95)
        assert math.isnan(hist.p99)

    def test_empty_summary_is_json_safe(self):
        hist = Histogram("lat")
        json.dumps(hist.summary())
        assert hist.summary()["count"] == 0

    def test_single_sample_is_every_percentile(self):
        hist = Histogram("lat")
        hist.observe(3.5)
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert hist.percentile(q) == 3.5
        assert hist.p50 == hist.p95 == hist.p99 == 3.5

    @pytest.mark.parametrize("samples", [[], [3.5], [4.0, 1.0, 3.0, 2.0]])
    def test_percentiles_agree_with_single_reads(self, samples):
        """One sorted copy serves every quantile: ``percentiles`` equals the
        single reads on every reservoir state (``NaN`` when empty)."""
        hist = Histogram("lat")
        for value in samples:
            hist.observe(value)
        qs = (0.0, 50.0, 95.0, 99.0, 100.0, 250.0)
        np.testing.assert_array_equal(
            hist.percentiles(qs), [hist.percentile(q) for q in qs]
        )

    def test_out_of_range_quantiles_clamp(self):
        hist = Histogram("lat")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.percentile(-10.0) == hist.percentile(0.0) == 1.0
        assert hist.percentile(250.0) == hist.percentile(100.0) == 3.0


# ----------------------------------------------------- per-span peak memory
class TestMemorySampler:
    def test_rss_bytes_positive_on_linux(self):
        assert rss_bytes() > 0

    def test_nested_spans_attribute_peaks(self):
        sampler = MemorySampler(sample_rss=False)
        try:
            tracer = fresh_tracer(memory=sampler)
            with tracer.span("outer") as outer:
                keep = np.ones(200_000)  # survives to span exit
                with tracer.span("inner") as inner:
                    transient = np.ones(400_000)  # peak only
                    del transient
            assert inner.attributes["mem_peak_bytes"] >= 400_000 * 8 - SAMPLER_SLACK
            # The child's peak happened inside the parent too.
            assert (outer.attributes["mem_peak_bytes"]
                    >= inner.attributes["mem_peak_bytes"])
            assert outer.attributes["mem_current_bytes"] >= 200_000 * 8
            assert "mem_rss_bytes" not in inner.attributes
            del keep
        finally:
            sampler.close()

    def test_rss_sampling_and_close(self):
        sampler = MemorySampler()
        try:
            tracer = fresh_tracer(memory=sampler)
            with tracer.span("work") as span:
                pass
            assert span.attributes["mem_rss_bytes"] > 0
        finally:
            sampler.close()
        sampler.close()  # idempotent

    def test_tracer_without_sampler_adds_no_attributes(self):
        tracer = fresh_tracer()
        with tracer.span("work") as span:
            np.ones(1000)
        assert "mem_peak_bytes" not in span.attributes

    def test_phase_peak_bytes_keep_max_per_phase(self):
        sampler = MemorySampler(sample_rss=False)
        try:
            tracer = fresh_tracer(memory=sampler)
            with tracer.span("construct", category="construct"):
                with tracer.span("p", category="construct.phase", phase="id"):
                    a = np.ones(100_000)
                    del a
                with tracer.span("p", category="construct.phase", phase="id"):
                    pass
            peaks = PhaseBreakdown.from_span(tracer).peak_bytes
            assert set(peaks) == {"id"}
            assert peaks["id"] >= 100_000 * 8 - SAMPLER_SLACK
        finally:
            sampler.close()

    def test_memory_attributes_survive_jsonl_export(self):
        # Exporter fidelity of the sampler's span attributes.
        sampler = MemorySampler()
        try:
            tracer = fresh_tracer(memory=sampler)
            with tracer.span("outer"):
                with tracer.span("inner"):
                    np.ones(50_000)
        finally:
            sampler.close()
        records = [json.loads(line) for line in to_jsonl(tracer).splitlines()]
        for original, record in zip(tracer.roots[0].walk(), records):
            assert record["attributes"] == original.attributes
            assert "mem_peak_bytes" in record["attributes"]
            assert "mem_rss_bytes" in record["attributes"]

    def test_phase_breakdown_carries_peaks(self):
        sampler = MemorySampler(sample_rss=False)
        try:
            tracer = fresh_tracer(memory=sampler)
            with tracer.span("construct", category="construct"):
                with tracer.span("p", category="construct.phase",
                                 phase="sampling"):
                    a = np.ones(50_000)
                    del a
        finally:
            sampler.close()
        breakdown = PhaseBreakdown.from_span(tracer)
        assert breakdown.peak_bytes["sampling"] >= 50_000 * 8 - SAMPLER_SLACK
        ordered = breakdown.ordered_peak_bytes()
        assert list(ordered)[:2] == ["sampling", "entry_generation"]
        assert ordered["entry_generation"] == 0


# ----------------------------------------------------------- policy wiring
class TestPolicyKnobs:
    def test_defaults_are_off(self):
        policy = ExecutionPolicy()
        assert policy.health is None
        assert policy.tracer is NOOP_TRACER

    def test_memory_sampling_is_a_tracer_option(self):
        """A policy has no memory knob (five init fields) and attaches no
        sampler to a tracer built without one: it writes nothing onto a
        tracer other policies may hold."""
        import dataclasses

        assert [f.name for f in dataclasses.fields(ExecutionPolicy) if f.init] == [
            "backend", "tracer", "health", "recovery", "faults",
        ]
        plain = fresh_tracer()
        ExecutionPolicy(tracer=plain).resolve_backend()
        assert plain.memory is None

    def test_existing_sampler_not_replaced(self):
        sampler = MemorySampler(sample_rss=False)
        try:
            tracer = fresh_tracer(memory=sampler)
            policy = ExecutionPolicy(tracer=tracer)
            policy.resolve_backend()
            assert policy.tracer is tracer
            assert tracer.memory is sampler
        finally:
            sampler.close()


# ------------------------------------------------------- compression probe
@pytest.fixture()
def probe_setup(cov_h2, exp_kernel):
    """A rich-structure constructed operator (admissible blocks, nested basis)."""
    return cov_h2, exp_kernel


class _DegradedOperator:
    """Proxy injecting a relative error into every apply (the regression)."""

    def __init__(self, operator, magnitude: float):
        self._operator = operator
        self._magnitude = magnitude
        self.tree = operator.tree
        self.shape = operator.shape

    def matmat(self, x, permuted: bool = False):
        y = self._operator.matmat(x, permuted=permuted)
        noise = np.random.default_rng(99).standard_normal(y.shape)
        return y + self._magnitude * np.linalg.norm(y) * noise / np.linalg.norm(noise)

    def memory_bytes(self):
        return self._operator.memory_bytes()


class TestCompressionProbe:
    def test_healthy_operator_error_near_tolerance(self, probe_setup):
        matrix, kernel = probe_setup
        est = estimate_compression_error(matrix, kernel, rows=64, vectors=8)
        assert est < 50.0 * 1e-6

    def test_probe_is_deterministic(self, probe_setup):
        matrix, kernel = probe_setup
        a = estimate_compression_error(matrix, kernel, seed=4)
        b = estimate_compression_error(matrix, kernel, seed=4)
        assert a == b

    def test_operator_without_tree_raises(self):
        with pytest.raises(TypeError, match="cluster tree"):
            estimate_compression_error(object(), ExponentialKernel(0.2))

    def test_healthy_report_not_flagged(self, probe_setup, caplog):
        matrix, kernel = probe_setup
        tracer = SpanTracer()
        with caplog.at_level(logging.WARNING, logger="repro.observe.health"):
            report = check_operator_health(
                matrix, kernel, tol=1e-6, tracer=tracer, source="constructed"
            )
        assert not report.flagged
        assert report.source == "constructed"
        assert 0.0 <= report.est_relative_error < 50.0 * 1e-6
        assert report.compression_ratio > 1.0
        assert report.rank_levels  # nested-basis operator has level ranks
        assert warnings_of(caplog, "repro.observe.health") == []
        json.dumps(report.to_dict())

    def test_injected_regression_is_flagged(self, probe_setup, caplog):
        """Acceptance: an artificial compression-error regression (an operator
        whose applies are 1% off) trips the probe and writes exactly one
        warning record through the structured-log adapter."""
        matrix, kernel = probe_setup
        degraded = _DegradedOperator(matrix, magnitude=1e-2)
        tracer = SpanTracer()
        with caplog.at_level(logging.WARNING, logger="repro.observe.health"):
            report = check_operator_health(
                degraded, kernel, tol=1e-6, tracer=tracer, source="loaded",
            )
        assert report.flagged
        assert report.est_relative_error > 50.0 * 1e-6
        (record,) = warnings_of(caplog, "repro.observe.health")
        assert "event=compression_error" in record.message
        assert "source=loaded" in record.message
        # The tracer carries the probe event for the trace timeline.
        assert any(
            event.name == "health.operator_probe"
            and event.attributes["flagged"]
            for event in tracer.orphan_events
        )

    def test_session_records_health_report(self):
        points = uniform_cube_points(N, dim=3, seed=5)
        kernel = ExponentialKernel(0.25)
        policy = ExecutionPolicy(tracer=fresh_tracer(),
                                 health=HealthThresholds())
        sess = Session(points, leaf_size=32, seed=1, policy=policy)
        sess.compress(kernel, tol=1e-6)
        report = sess.result.health
        assert report is not None
        assert report.source == "constructed"
        assert not report.flagged

    def test_cached_session_reports_a_loaded_probe(self, tmp_path):
        points = uniform_cube_points(N, dim=3, seed=5)
        outcomes = []
        for _ in range(2):
            policy = ExecutionPolicy(health=HealthThresholds())
            sess = Session(points, leaf_size=32, seed=1, policy=policy,
                           cache_dir=tmp_path)
            sess.compress(ExponentialKernel(0.25), tol=1e-6)
            outcomes.append(
                (sess.result.construction_path, sess.result.health.source)
            )
        assert outcomes == [("packed", "constructed"), ("cache", "loaded")]

    @pytest.mark.parametrize("entry", ["session", "compress"])
    def test_probe_reads_the_constructed_tolerance(self, entry):
        """A ``config=`` tolerance overrides ``tol``; the probe bounds the
        error by the tolerance the operator was built at."""
        points = uniform_cube_points(600, dim=2, seed=5)
        kernel = ExponentialKernel(0.25)
        policy = ExecutionPolicy(health=HealthThresholds())
        request = dict(tol=1e-8, config=ConstructionConfig(tolerance=1e-2))
        if entry == "session":
            result = Session(points, seed=1, policy=policy).compress(
                kernel, **request
            ).result
        else:
            result = repro.compress(
                points, kernel, seed=1, policy=policy, full_result=True, **request
            )
        assert result.health.tol == 1e-2
        assert not result.health.flagged

    def test_health_off_by_default(self):
        points = uniform_cube_points(N, dim=2, seed=5)
        sess = Session(points, leaf_size=32, seed=1)
        sess.compress(ExponentialKernel(0.25), tol=1e-6)
        assert sess.result.health is None


# ----------------------------------------------------- convergence triage
class TestConvergenceDiagnosis:
    def test_clean_history_has_no_events(self):
        history = np.array([1.0, 1e-3, 1e-6, 1e-9])
        assert diagnose_convergence(history, converged=True) == []

    def test_short_history_has_no_events(self):
        assert diagnose_convergence(np.array([1.0]), converged=False) == []

    def test_divergence(self):
        history = np.array([1.0, 0.1, 5.0])
        (event,) = diagnose_convergence(history, converged=False, method="cg")
        assert event.kind == "divergence"
        assert event.attributes["best_residual"] == pytest.approx(0.1)
        assert "cg" in event.message

    def test_stagnation(self):
        history = np.array([1.0] + [0.5] * 15)
        (event,) = diagnose_convergence(history, converged=False)
        assert event.kind == "stagnation"
        assert event.attributes["improvement"] == pytest.approx(0.0)

    def test_stagnation_suppressed_after_divergence(self):
        history = np.array([1.0, 1e-4] + [0.5] * 15)
        events = diagnose_convergence(history, converged=False)
        assert [event.kind for event in events] == ["divergence"]

    def test_converged_solve_never_stagnates(self):
        history = np.array([1.0] + [0.5] * 15)
        assert diagnose_convergence(history, converged=True) == []

    def test_preconditioner_ineffective(self):
        history = np.array([1.0 * 0.9 ** i for i in range(60)])
        events = diagnose_convergence(
            history, converged=False, n=100, precond_applications=59
        )
        kinds = [event.kind for event in events]
        assert kinds == ["preconditioner_ineffective"]
        assert events[0].attributes["n"] == 100

    def test_unpreconditioned_slow_solve_not_blamed(self):
        history = np.array([1.0 * 0.9 ** i for i in range(60)])
        assert diagnose_convergence(
            history, converged=False, n=100, precond_applications=0
        ) == []

    def test_event_to_dict_round_trips(self):
        event = HealthEvent("divergence", "msg", {"iterations": 3})
        assert event.to_dict() == {
            "kind": "divergence", "message": "msg", "iterations": 3,
        }


def _fake_result(history, converged=False, precond=0):
    history = np.asarray(history, dtype=np.float64)
    return KrylovResult(
        x=np.zeros(8), converged=converged, iterations=history.size - 1,
        residual_norms=history, method="cg", matvecs=history.size - 1,
        preconditioner_applications=precond, elapsed_seconds=0.0,
    )


class TestRecordSolverHealth:
    def test_none_thresholds_disable(self):
        result = _fake_result([1.0, 0.1, 5.0])
        assert record_solver_health(result, None) == []
        assert "health_events" not in result.extra

    def test_events_stored_traced_and_warned(self, caplog):
        result = _fake_result([1.0, 0.1, 5.0])
        tracer = SpanTracer()
        with caplog.at_level(logging.WARNING, logger="repro.observe.health"):
            events = record_solver_health(
                result, HealthThresholds(), tracer=tracer
            )
        assert [event.kind for event in events] == ["divergence"]
        assert result.extra["health_events"][0]["kind"] == "divergence"
        assert any(e.name == "health.divergence" for e in tracer.orphan_events)
        (record,) = warnings_of(caplog, "repro.observe.health")
        assert "event=divergence" in record.message

    def test_healthy_result_stays_clean(self):
        result = _fake_result([1.0, 1e-9], converged=True)
        assert record_solver_health(result, HealthThresholds()) == []
        assert "health_events" not in result.extra

    def test_cg_threads_health_through(self):
        # A forced-unconverged CG run with a permissive stagnation threshold
        # exercises the solver-layer wiring end to end.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 32))
        spd = a @ a.T + 32 * np.eye(32)
        thresholds = HealthThresholds(
            stagnation_window=5, stagnation_improvement=1.0,
            divergence_factor=1e12,
        )
        result = cg(spd, np.ones(32), tol=1e-300, maxiter=8,
                    health=thresholds)
        assert not result.converged
        kinds = [e["kind"] for e in result.extra["health_events"]]
        assert "stagnation" in kinds

    def test_session_solve_records_events(self):
        points = uniform_cube_points(N, dim=2, seed=6)
        thresholds = HealthThresholds(
            stagnation_window=3, stagnation_improvement=1.0,
            divergence_factor=1e12,
        )
        policy = ExecutionPolicy(tracer=fresh_tracer(), health=thresholds)
        sess = Session(points, leaf_size=32, seed=1, policy=policy)
        sess.compress(ExponentialKernel(0.25), tol=1e-6)
        solve = sess.solve(np.ones(N), tol=1e-300, maxiter=5)
        assert not solve.converged
        assert solve.extra["health_events"]

    def test_gp_solves_run_the_diagnosis(self, monkeypatch):
        """Every predict polish is diagnosed; the fit's direct solve with the
        exact factorization runs no Krylov solve to diagnose."""
        from dataclasses import replace

        import repro.observe.health

        diagnosed = []
        real = repro.observe.health.record_solver_health

        def spy(result, *args, **kwargs):
            diagnosed.append(result.method)
            return real(result, *args, **kwargs)

        monkeypatch.setattr(repro.observe.health, "record_solver_health", spy)
        points = uniform_cube_points(N, dim=2, seed=6)
        policy = ExecutionPolicy(health=HealthThresholds())
        gp = repro.GaussianProcess(
            points, ExponentialKernel(0.25), noise=1e-2, policy=policy
        ).fit(np.sin(3.0 * points[:, 0]))
        assert diagnosed == []
        # A factorization of K + 10 noise I fails the residual check of
        # every predict column, so each one is polished by a guarded CG.
        state = gp._require_fit()
        loose = repro.factorize(state.matrix, shift=10.0 * gp.noise)
        gp._state = replace(state, factorization=loose)
        gp.predict(points[:3], return_std=True)
        assert diagnosed == ["cg"] * 3


# ------------------------------------------------------------- openmetrics
#: One OpenMetrics text line: comment, sample (with optional labels), or EOF.
_LINE_PATTERNS = (
    re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$"),
    re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r" (NaN|[+-]Inf|[-+]?[0-9.eE+-]+)$"
    ),
    re.compile(r"^# EOF$"),
)


class TestOpenMetrics:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("persist.cache.hits") == \
            "repro_persist_cache_hits"
        assert sanitize_metric_name("span.solve/cg.seconds") == \
            "repro_span_solve_cg_seconds"
        assert sanitize_metric_name("") == "repro_"

    def test_every_line_matches_the_exposition_grammar(self):
        # Satellite (c): strict line-format fidelity.
        registry = MetricsRegistry()
        registry.counter("persist.cache.hits").inc(3)
        registry.gauge("memory.basis.bytes").set(1024.5)
        registry.gauge("health.compression_ratio").set(float("inf"))
        registry.histogram("span.solve/cg.seconds").observe(0.25)
        registry.histogram("empty.histogram")  # NaN quantiles
        text = render_openmetrics(registry)
        assert text.endswith("# EOF\n")
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        for line in lines:
            assert any(p.match(line) for p in _LINE_PATTERNS), line

    def test_counter_gauge_histogram_families(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(2)
        registry.gauge("depth").set(3.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("lat").observe(value)
        text = render_openmetrics(registry)
        assert "# TYPE repro_runs counter" in text
        assert "repro_runs_total 2" in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 3" in text
        assert "# TYPE repro_lat summary" in text
        assert 'repro_lat{quantile="0.5"}' in text
        assert 'repro_lat{quantile="0.99"}' in text
        assert "repro_lat_count 4" in text
        assert "repro_lat_sum 10" in text

    def test_empty_histogram_renders_nan_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("empty")
        text = render_openmetrics(registry)
        assert 'repro_empty{quantile="0.5"} NaN' in text
        assert "repro_empty_count 0" in text

    def test_one_sort_per_histogram(self, monkeypatch):
        """A scrape sorts each reservoir once, for all three quantiles."""
        import builtins

        import repro.observe.metrics as metrics_module

        sorted_lists = []

        def counting_sorted(iterable, *args, **kwargs):
            if isinstance(iterable, list):
                sorted_lists.append(len(iterable))
            return builtins.sorted(iterable, *args, **kwargs)

        registry = MetricsRegistry()
        for name in ("a", "b"):
            for value in (3.0, 1.0, 2.0):
                registry.histogram(name).observe(value)
        registry.histogram("empty")
        monkeypatch.setattr(metrics_module, "sorted", counting_sorted,
                            raising=False)
        text = render_openmetrics(registry)
        assert sorted_lists == [3, 3, 0]
        assert 'repro_a{quantile="0.5"} 2' in text
        assert 'repro_empty{quantile="0.99"} NaN' in text
