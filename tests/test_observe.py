"""Tests for repro.observe: spans, tracers, metrics, exporters and the
span views.

The integration tests run one traced ``Session`` pipeline (compress → factor →
solve → GP evaluate) and check the acceptance contract: per-span launch deltas
sum exactly to the policy counter totals, the Fig. 7 ``PhaseBreakdown`` is read
from the phase spans, and the exporters emit valid output.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro import (
    ExecutionPolicy,
    ExponentialKernel,
    Session,
    SpanTracer,
    uniform_cube_points,
)
from repro.batched import KernelLaunchCounter
from repro.observe import (
    Histogram,
    MetricsRegistry,
    NOOP_TRACER,
    PHASE_ORDER,
    PhaseBreakdown,
    console_tree,
    find_spans,
    from_jsonl,
    launches_by_operation,
    phase_span,
    to_chrome_trace,
    to_jsonl,
    total_launches,
)

N = 256
LEAF = 32


def fresh_tracer(counter=None):
    """A tracer with a private metrics registry (keeps the global one clean)."""
    return SpanTracer(counter=counter, metrics=MetricsRegistry())


# ---------------------------------------------------------------------- spans
class TestSpanNesting:
    def test_nesting_and_launch_attribution(self):
        counter = KernelLaunchCounter()
        tracer = fresh_tracer(counter)
        with tracer.span("outer", category="test") as outer:
            counter.record("gemm", 3)
            with tracer.span("inner", category="test") as inner:
                assert tracer.current is inner
                counter.record("gemm", 2)
                counter.record("qr", 1)
            counter.record("gemm", 1)
        assert tracer.current is None
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.parent is outer
        # Deltas are inclusive: outer covers its own records plus inner's.
        assert outer.launches == {"gemm": 6, "qr": 1}
        assert inner.launches == {"gemm": 2, "qr": 1}
        assert outer.total_launches == 7
        assert outer.self_launches == 4
        assert inner.self_launches == 3
        # Calls count batched-primitive invocations, not shape groups.
        assert outer.calls == {"gemm": 3, "qr": 1}
        assert inner.calls == {"gemm": 1, "qr": 1}

    def test_durations_nest(self):
        tracer = fresh_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.002)
        assert outer.closed and inner.closed
        assert inner.duration > 0.0
        assert outer.duration >= inner.duration
        assert outer.self_duration >= 0.0
        assert outer.self_duration == pytest.approx(
            outer.duration - inner.duration
        )

    def test_open_span_reports_zero_duration(self):
        tracer = fresh_tracer()
        with tracer.span("outer") as outer:
            assert not outer.closed
            assert outer.duration == 0.0
        assert outer.closed

    def test_exception_marks_span(self):
        tracer = fresh_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.roots
        assert span.closed
        assert span.attributes["error"] == "RuntimeError"
        assert tracer.current is None

    def test_events_and_attributes(self):
        tracer = fresh_tracer()
        tracer.event("orphan", detail=1)
        with tracer.span("work", category="test", n=4) as span:
            span.set(extra="yes").add_flops(100)
            span.add_bytes(64)
            tracer.event("tick", step=1)
            tracer.add_flops(20)
            tracer.add_bytes(16)
        assert [event.name for event in tracer.orphan_events] == ["orphan"]
        assert span.attributes == {"n": 4, "extra": "yes"}
        assert [event.name for event in span.events] == ["tick"]
        assert span.events[0].attributes == {"step": 1}
        assert span.flops == 120
        assert span.bytes == 80

    def test_walk_and_find(self):
        tracer = fresh_tracer()
        with tracer.span("a", category="x"):
            with tracer.span("b", category="y"):
                pass
            with tracer.span("b", category="x"):
                pass
        (root,) = tracer.roots
        assert [span.name for span in root.walk()] == ["a", "b", "b"]
        assert len(find_spans(root, name="b")) == 2
        assert len(find_spans(root, category="x")) == 2
        assert len(find_spans(tracer, name="b", category="y")) == 1

    @pytest.mark.parametrize("source", ["span", "tracer", "forest"])
    def test_find_spans_reads_any_trace_source(self, source):
        tracer = fresh_tracer()
        for _ in range(2):
            with tracer.span("a", category="x"):
                with tracer.span("b", category="y"):
                    pass
        sources = {"span": tracer.roots[0], "tracer": tracer, "forest": list(tracer.roots)}
        expected = 1 if source == "span" else 2
        assert len(find_spans(sources[source], name="b")) == expected
        assert len(find_spans(sources[source], category="x")) == expected
        assert find_spans(sources[source], name="b", category="x") == []

    def test_find_spans_is_the_one_filter(self):
        from repro.observe import views
        from repro.observe.span import Span

        assert not hasattr(Span, "find")
        assert not hasattr(views, "span_durations")

    def test_reset_clears_spans_not_counter(self):
        counter = KernelLaunchCounter()
        tracer = fresh_tracer(counter)
        with tracer.span("work"):
            counter.record("gemm", 1)
        tracer.reset()
        assert tracer.roots == []
        assert tracer.current is None
        assert counter.total() == 1

    def test_bind_counter_first_wins(self):
        first = KernelLaunchCounter()
        tracer = fresh_tracer(first)
        tracer.bind_counter(KernelLaunchCounter())
        assert tracer.counter is first

    def test_metrics_fed_per_category(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(metrics=registry)
        with tracer.span("work", category="solve"):
            pass
        with tracer.span("bare-name"):
            pass
        assert registry.histogram("span.solve.seconds").count == 1
        assert registry.histogram("span.bare-name.seconds").count == 1


class TestSpanCounterThreadSafety:
    """Spans read the shared launch counter under its lock while another
    thread records into it (``repro.serve`` records from a thread pool)."""

    SPANS = 1000

    def test_spans_survive_concurrent_fresh_operation_names(self):
        counter = KernelLaunchCounter()
        tracer = fresh_tracer(counter)
        stop = threading.Event()
        released = threading.Semaphore(0)
        errors = []

        def recorder():
            # A few never-seen operation names per span: each one grows the
            # counter's dicts while the main thread snapshots and diffs them.
            fresh = 0
            while not stop.is_set():
                if released.acquire(timeout=0.01):
                    for _ in range(4):
                        counter.record(f"fresh{fresh}")
                        fresh += 1

        before = counter.total()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with tracer.span("outer"):
                thread = threading.Thread(target=recorder)
                thread.start()
                try:
                    for i in range(self.SPANS):
                        released.release()
                        with tracer.span(f"span{i}"):
                            pass
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                finally:
                    stop.set()
                    thread.join()
        finally:
            sys.setswitchinterval(interval)

        assert not errors
        (outer,) = tracer.roots
        assert len(outer.children) == self.SPANS
        assert all(span.closed for span in outer.children)
        assert sum(root.total_launches for root in tracer.roots) == (
            counter.total() - before
        )
        assert counter.total() > before


class TestNoopTracer:
    def test_disabled_and_reusable(self):
        assert NOOP_TRACER.enabled is False
        assert NOOP_TRACER.current is None
        ctx_a = NOOP_TRACER.span("anything", category="x", n=1)
        ctx_b = NOOP_TRACER.span("else")
        assert ctx_a is ctx_b  # one cached context: zero allocation per span
        with ctx_a as span:
            assert span.set(a=1) is span
            span.add_event("tick", 0.0)
            span.add_flops(10)
            span.add_bytes(10)
            assert span.duration == 0.0
        NOOP_TRACER.event("ignored")
        NOOP_TRACER.add_flops(5)
        NOOP_TRACER.bind_counter(KernelLaunchCounter())
        NOOP_TRACER.reset()
        assert NOOP_TRACER.counter is None
        assert NOOP_TRACER.roots == []

    def test_phase_span_is_the_cached_context(self):
        assert phase_span(NOOP_TRACER, "sampling") is NOOP_TRACER.span("x")
        tracer = fresh_tracer()
        with phase_span(tracer, "id") as span:
            pass
        assert (span.name, span.category) == ("phase/id", "construct.phase")
        assert span.attributes == {"phase": "id"}


# -------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        registry.counter("runs").inc(4)
        assert registry.counter("runs").value == 5
        with pytest.raises(ValueError):
            registry.counter("runs").inc(-1)
        registry.gauge("depth").set(3.0)
        registry.gauge("depth").add(-1.0)
        assert registry.gauge("depth").value == 2.0

    def test_histogram_percentiles(self):
        hist = Histogram("lat")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.sum == pytest.approx(5050.0)
        assert hist.min == 1.0 and hist.max == 100.0
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(100.0) == 100.0
        assert hist.p50 == pytest.approx(50.5)
        assert hist.p95 == pytest.approx(95.05)
        assert hist.p99 == pytest.approx(99.01)

    def test_histogram_sliding_window(self):
        hist = Histogram("lat", capacity=8)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100  # exact totals survive the bounded reservoir
        assert hist.max == 99.0
        assert len(hist._samples) == 8
        assert hist.p50 >= 90.0  # reservoir holds the most recent window

    def test_registry_get_or_create_and_snapshot(self):
        registry = MetricsRegistry()
        assert registry.histogram("h") is registry.histogram("h")
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        json.dumps(snap)  # must be JSON-safe
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h"]["count"] == 1
        registry.reset()
        assert registry.counter("c").value == 0

    def test_global_registry_accessor(self):
        registry = repro.observe.metrics()
        assert registry is repro.observe.metrics()


# ------------------------------------------------------------------ exporters
def _sample_trace():
    counter = KernelLaunchCounter()
    tracer = fresh_tracer(counter)
    with tracer.span("root", category="test", n=8) as root:
        counter.record("gemm", 2)
        root.add_flops(1000)
        with tracer.span("child", category="test.sub", tag="a") as child:
            counter.record("qr", 1)
            tracer.event("tick", step=1)
            child.add_bytes(256)
    return tracer


class TestExporters:
    def test_jsonl_round_trip(self):
        tracer = _sample_trace()
        text = to_jsonl(tracer)
        assert len(text.splitlines()) == 2
        for line in text.splitlines():
            json.loads(line)
        (root,) = from_jsonl(text)
        original = tracer.roots[0]
        assert root.to_dict() == original.to_dict()
        (child,) = root.children
        assert child.to_dict() == original.children[0].to_dict()
        assert child.parent is root

    def test_jsonl_accepts_span_or_list(self):
        tracer = _sample_trace()
        root = tracer.roots[0]
        assert to_jsonl(root) == to_jsonl(tracer) == to_jsonl([root])
        assert to_jsonl([]) == ""
        assert from_jsonl("") == []

    def test_chrome_trace_schema(self):
        tracer = _sample_trace()
        trace = to_chrome_trace(tracer)
        json.dumps(trace)  # must be valid JSON
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(meta) == 1 and len(complete) == 2 and len(instants) == 1
        by_name = {e["name"]: e for e in complete}
        root, child = by_name["root"], by_name["child"]
        for event in complete:
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert {"pid", "tid", "cat", "args"} <= set(event)
        assert root["ts"] <= child["ts"]
        assert root["ts"] + root["dur"] >= child["ts"] + child["dur"]
        assert root["args"]["total_launches"] == 3
        assert root["args"]["flops"] == 1000
        assert child["args"]["launches"] == {"qr": 1}

    def test_save_chrome_trace(self, tmp_path):
        tracer = _sample_trace()
        path = repro.observe.save_chrome_trace(tracer, str(tmp_path / "t.json"))
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded == json.loads(json.dumps(to_chrome_trace(tracer)))

    def test_console_tree(self):
        tracer = _sample_trace()
        text = console_tree(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "100.0%" in lines[0]
        assert "launches=3" in lines[0]
        assert "launches=1" in lines[1]
        assert "events=1" in lines[1]

    def test_console_tree_min_duration_folds_children(self):
        tracer = _sample_trace()
        text = console_tree(tracer, min_duration=3600.0)
        assert "child" not in text


class TestViews:
    def test_phase_breakdown_accumulates(self):
        tracer = fresh_tracer()
        with tracer.span("construct", category="construct"):
            with phase_span(tracer, "id"):
                time.sleep(0.001)
            with phase_span(tracer, "id"):
                time.sleep(0.001)
        seconds = PhaseBreakdown.from_span(tracer).seconds
        assert set(seconds) == {"id"}
        spans = find_spans(tracer, category="construct.phase")
        assert seconds["id"] == sum(span.duration for span in spans)

    def test_launch_totals_use_root_deltas(self):
        tracer = _sample_trace()
        assert launches_by_operation(tracer) == {"gemm": 2, "qr": 1}
        assert total_launches(tracer) == 3
        assert total_launches(tracer) == tracer.counter.total()


class TestPhaseBreakdown:
    """The phase spans are the only record a breakdown is read from."""

    def test_ordered_phases(self):
        breakdown = PhaseBreakdown(seconds={"id": 1.0, "sampling": 3.0, "custom": 0.5})
        ordered = breakdown.ordered()
        assert list(ordered)[: len(PHASE_ORDER)] == list(PHASE_ORDER)
        assert ordered["custom"] == 0.5
        assert ordered["convergence"] == 0.0

    def test_ordered_percentages_follow_phase_order(self):
        breakdown = PhaseBreakdown(seconds={"misc": 1.0, "id": 3.0, "custom": 1.0})
        pct = breakdown.ordered_percentages()
        assert list(pct) == [*PHASE_ORDER, "custom"]
        assert abs(sum(pct.values()) - 100.0) < 1e-9
        assert pct["id"] == pytest.approx(60.0)
        assert pct["sampling"] == 0.0

    def test_repeated_phases_add_within_and_across_roots(self):
        tracer = fresh_tracer()
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
        tracer = fresh_tracer()
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


# ------------------------------------------------- traced pipeline (tentpole)
@pytest.fixture(scope="module")
def traced_session():
    """One fully traced pipeline: compress → factor → solve → GP evaluate."""
    points = uniform_cube_points(N, dim=2, seed=3)
    kernel = ExponentialKernel(0.25)
    policy = ExecutionPolicy(tracer=fresh_tracer())
    sess = Session(points, leaf_size=LEAF, seed=1, policy=policy)
    sess.compress(kernel, tol=1e-6).factor(noise=1e-2)
    solve = sess.solve(np.ones(N), tol=1e-8)
    gp = sess.gp(kernel, noise=1e-2)
    gp.fit(np.sin(points[:, 0] * 5.0), length_scales=[0.2, 0.3])
    return {
        "session": sess,
        "policy": policy,
        "tracer": policy.tracer,
        "solve": solve,
        "gp": gp,
    }


class TestTracedPipeline:
    def test_launch_sums_match_policy_counter_exactly(self, traced_session):
        tracer = traced_session["tracer"]
        counter = traced_session["policy"].launch_counter()
        assert tracer.counter is counter
        assert total_launches(tracer) == counter.total()
        assert launches_by_operation(tracer) == counter.by_operation()
        # Self-attribution partitions the inclusive totals without loss.
        for root in tracer.roots:
            assert sum(s.self_launches for s in root.walk()) == root.total_launches

    def test_construct_span_structure(self, traced_session):
        tracer = traced_session["tracer"]
        # The GP sweep re-constructs under its gp/evaluate spans; the session
        # compress is the only *root* construct span.
        (construct,) = [s for s in tracer.roots if s.name == "construct"]
        assert construct.category == "construct"
        assert construct.attributes["n"] == N
        levels = find_spans(construct, category="construct.level")
        assert len(levels) >= 2
        phases = find_spans(construct, category="construct.phase")
        assert phases, "the constructor should emit phase spans under the tracer"

    def test_phase_breakdown_reads_the_trace(self, traced_session):
        result = traced_session["session"].result
        breakdown = PhaseBreakdown.from_span(result.trace)
        # What this construction recorded before the spans became the only
        # clock: moving to spans must not lose or rename a phase.
        assert set(breakdown.seconds) == {
            "bsr_gemm", "convergence", "entry_generation", "id", "misc",
            "sampling", "shrink_upsweep",
        }
        assert 0.0 < breakdown.total_seconds <= result.trace.duration

    def test_construction_launch_delta_equals_span(self, traced_session):
        result = traced_session["session"].result
        assert dict(result.kernel_launches) == dict(result.trace.launches)
        assert result.total_kernel_launches == result.trace.total_launches

    def test_solver_span_and_iteration_events(self, traced_session):
        tracer = traced_session["tracer"]
        solve = traced_session["solve"]
        # GP evaluations run their own nested CG solves; the session solve is
        # the only root-level solver span.
        (span,) = [s for s in tracer.roots if s.name == "solve/cg"]
        assert span.category == "solve"
        assert span.attributes["iterations"] == solve.iterations
        assert span.attributes["converged"] == solve.converged
        iteration_events = [e for e in span.events if e.name == "iteration"]
        assert len(iteration_events) == solve.iterations
        residuals = [e.attributes["residual"] for e in iteration_events]
        assert residuals == [float(r) for r in solve.residual_norms[1:]]

    def test_factor_and_gp_spans(self, traced_session):
        tracer = traced_session["tracer"]
        # Session.factor and every GP evaluation factor the HSS matrix on its
        # own generators; nothing on these paths expands to HODLR any more.
        assert not find_spans(tracer, name="factor/hodlr")
        factors = find_spans(tracer, name="factor/hss")
        assert len(factors) == 1 + len(traced_session["gp"].fit_reports_)
        factor = factors[0]
        assert factor.attributes["n"] == N
        assert factor.attributes["shift"] == 1e-2
        assert factor.attributes["eliminated"] + factor.attributes["root_size"] == N
        assert factor.attributes["bytes"] == (
            traced_session["session"].factorization.memory_bytes()
        )
        # Every preconditioner application of the session solve is one
        # solve/hss span: five launches per stack of the factorization + root.
        (cg_span,) = [s for s in tracer.roots if s.name == "solve/cg"]
        solves = find_spans(cg_span, name="solve/hss")
        assert solves
        for span in solves:
            assert span.attributes["n"] == N
            assert span.attributes["stages"] == factor.attributes["stages"]
            assert span.total_launches == span.attributes["launches"]
            assert span.total_launches == 5 * factor.attributes["stages"] + 1
        evaluates = find_spans(tracer, category="gp")
        assert len(evaluates) == len(traced_session["gp"].fit_reports_)
        for span in evaluates:
            assert "log_marginal_likelihood" in span.attributes

    def test_chrome_trace_of_full_pipeline_is_valid(self, traced_session):
        trace = to_chrome_trace(traced_session["tracer"])
        text = json.dumps(trace)
        events = json.loads(text)["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == sum(
            1 for root in traced_session["tracer"].roots for _ in root.walk()
        )
        tree = console_tree(traced_session["tracer"])
        assert "construct" in tree and "solve/cg" in tree

    def test_jsonl_round_trip_of_full_pipeline(self, traced_session):
        tracer = traced_session["tracer"]
        roots = from_jsonl(to_jsonl(tracer))
        assert len(roots) == len(tracer.roots)
        assert total_launches(roots) == total_launches(tracer)
        assert (
            PhaseBreakdown.from_span(roots).seconds
            == PhaseBreakdown.from_span(tracer).seconds
        )


@pytest.fixture(scope="module")
def apply_matrix():
    points = uniform_cube_points(N, dim=2, seed=7)
    return repro.compress(
        points, ExponentialKernel(0.25), tol=1e-6, leaf_size=LEAF, seed=1
    )


class TestApplySpan:
    """A traced apply is read as it stands: its span carries the plan
    geometry beside the calls, flops and duration of that one apply."""

    def test_traced_matvec_yields_one_apply_span(self, apply_matrix):
        matrix = apply_matrix
        plan = matrix.apply_plan()
        tracer = fresh_tracer()
        policy = ExecutionPolicy(tracer=tracer)
        x = np.random.default_rng(0).standard_normal((matrix.num_rows, 2))
        matrix.matvec(x, backend=policy.resolve_backend())
        (span,) = find_spans(tracer, name="apply")
        attrs = span.attributes
        assert attrs["n"] == plan.n == matrix.num_rows
        assert attrs["k"] == 2
        assert attrs["backend"] == policy.resolve_backend().name
        assert attrs["levels"] == plan.num_levels
        assert attrs["block_products"] == plan.num_block_products
        assert attrs["operand_bytes"] == sum(stage.a.nbytes for stage in plan.stages)
        assert span.flops == plan.flops(2)
        assert span.calls == plan.stage_counts()
        assert span.total_calls == plan.num_stages
        assert span.duration > 0.0

    def test_apply_span_counts_one_apply(self, apply_matrix):
        """A second RHS column doubles the flops but not the launches."""
        tracer = fresh_tracer()
        backend = ExecutionPolicy(tracer=tracer).resolve_backend()
        rng = np.random.default_rng(2)
        for k in (1, 1, 2):
            apply_matrix.matvec(rng.standard_normal((apply_matrix.num_rows, k)), backend=backend)
        once, again, wide = find_spans(tracer, name="apply")
        for span in (again, wide):
            assert span.calls == once.calls
            assert span.attributes["operand_bytes"] == once.attributes["operand_bytes"]
        assert again.flops == once.flops
        assert wide.flops == 2 * once.flops

    def test_traced_apply_matches_untraced_result(self, apply_matrix):
        x = np.random.default_rng(1).standard_normal(apply_matrix.num_rows)
        policy = ExecutionPolicy(tracer=fresh_tracer())
        traced = apply_matrix.matvec(x, backend=policy.resolve_backend())
        untraced = apply_matrix.matvec(x)
        np.testing.assert_array_equal(traced, untraced)


# ---------------------------------------------------------- policy/facade wiring
class TestPolicyWiring:
    def test_default_policy_uses_noop_tracer(self):
        policy = ExecutionPolicy(backend="serial")
        assert policy.tracer is NOOP_TRACER
        backend = policy.resolve_backend()
        assert backend.tracer is NOOP_TRACER

    def test_resolve_binds_tracer_and_counter(self):
        tracer = fresh_tracer()
        policy = ExecutionPolicy(backend="serial", tracer=tracer)
        backend = policy.resolve_backend()
        assert backend.tracer is tracer
        assert tracer.counter is backend.counter
        assert policy.launch_counter() is tracer.counter

    def test_tracer_with_preexisting_counter_is_shared(self):
        counter = KernelLaunchCounter()
        tracer = fresh_tracer(counter)
        policy = ExecutionPolicy(backend="serial", tracer=tracer)
        backend = policy.resolve_backend()
        assert backend.counter is counter

    def test_with_backend_keeps_tracer(self):
        tracer = fresh_tracer()
        policy = ExecutionPolicy(backend="serial", tracer=tracer)
        assert policy.with_backend("vectorized").tracer is tracer


# ------------------------------------------------------------------- overhead
class TestDisabledTracing:
    def test_untraced_execute_is_the_apply_body(self, monkeypatch):
        """With the no-op tracer, ``execute`` records exactly the plan's
        ``num_stages`` launches and opens no span (``span`` raises here to
        prove it).  What the ``enabled`` check costs in wall-clock time is the
        benchmark's to measure, not a test's."""
        from repro.batched.backend import VectorizedBackend
        from repro.observe.tracer import NoopTracer

        n = 1024
        points = uniform_cube_points(n, dim=2, seed=5)
        matrix = repro.compress(points, ExponentialKernel(0.2), tol=1e-6, seed=1)
        plan = matrix.apply_plan()
        backend = VectorizedBackend()
        assert not backend.tracer.enabled

        def no_span(self, *args, **kwargs):
            raise AssertionError("the no-op tracer opened a span")

        monkeypatch.setattr(NoopTracer, "span", no_span)
        x = np.random.default_rng(0).standard_normal((n, 3))
        out = plan.execute(x, backend=backend)
        assert backend.counter.total() == plan.num_stages
        assert backend.counter.by_operation() == plan.stage_counts()
        assert np.array_equal(out, plan._execute(x, backend))


# -------------------------------------------------------------- thread safety
class TestMetricsThreadSafety:
    """The serving layer mutates instruments from worker threads; hammer the
    registry concurrently and check the totals are exact."""

    WORKERS = 8
    OPS = 2000

    def test_concurrent_instrument_hammer(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(self.WORKERS)
        errors = []

        def worker():
            try:
                barrier.wait()
                for i in range(self.OPS):
                    registry.counter("hammer.count").inc()
                    registry.gauge("hammer.gauge").add(1.0)
                    hist = registry.histogram("hammer.lat", capacity=64)
                    hist.observe(float(i))
                    if i % 128 == 0:
                        # concurrent reads must never see torn state
                        hist.percentile(95.0)
                        registry.snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker) for _ in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        total = self.WORKERS * self.OPS
        assert registry.counter("hammer.count").value == total
        assert registry.gauge("hammer.gauge").value == float(total)
        hist = registry.histogram("hammer.lat")
        assert hist.count == total
        assert hist.sum == pytest.approx(self.WORKERS * sum(range(self.OPS)))
        assert len(hist._samples) == 64  # reservoir never overfills
        assert np.isfinite(hist.p99)

    def test_concurrent_get_or_create_yields_one_instrument(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(self.WORKERS)
        seen = []

        def worker():
            barrier.wait()
            seen.append(
                (
                    registry.counter("only.one"),
                    registry.gauge("only.one"),
                    registry.histogram("only.one"),
                )
            )

        threads = [
            threading.Thread(target=worker) for _ in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        counters, gauges, histograms = zip(*seen)
        assert len({id(c) for c in counters}) == 1
        assert len({id(g) for g in gauges}) == 1
        assert len({id(h) for h in histograms}) == 1
