"""repro.observe — hierarchical tracing, health probes and trace exporters.

The observability spine of the library.  One :class:`SpanTracer`, carried by
an :class:`repro.api.ExecutionPolicy`, records a tree of :class:`Span` objects
as work flows through the constructor, the compiled apply plans, the Krylov
solvers, the HSS factorization and the GP sweeps.  Each span carries
wall-clock time plus launch/FLOP/byte attribution: every
:class:`~repro.batched.counters.KernelLaunchCounter` record credits the
spans open in the calling task or thread, so the trace and the paper's
launch-count arguments come from the same source of truth.  The
views in :mod:`repro.observe.views` are the only readers of that record: the
Fig. 7 :class:`PhaseBreakdown`, launch totals and span filters; a traced
``apply`` span is read as it stands.

Quick tour::

    from repro import ExecutionPolicy, Session
    from repro.observe import PhaseBreakdown, SpanTracer, console_tree, save_chrome_trace

    tracer = SpanTracer()
    policy = ExecutionPolicy(backend="vectorized", tracer=tracer)
    session = Session(points, kernel, policy=policy)
    with tracer.span("workload"):
        session.compress()
        session.factor()
        session.solve(b)
    print(console_tree(tracer))
    save_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev
    PhaseBreakdown.from_span(tracer).ordered_percentages()   # Fig. 7

With the default :data:`NOOP_TRACER` nothing is recorded and the hot paths
pay only an ``if tracer.enabled`` check.

Nothing here is process-global.  Every count has one owner that keeps it:
launches on the backend's counter, timings on the spans, byte totals in each
owner's ``memory_bytes()``, probe results on the :class:`HealthReport`,
warnings as log records.  The :class:`MetricsRegistry` instruments and
:func:`render_openmetrics` serve one reader, the ``/metrics`` endpoint of an
:class:`~repro.serve.InferenceServer`, which owns its registry.
"""

from .exporters import (
    console_tree,
    save_chrome_trace,
    to_chrome_trace,
    to_jsonl,
)
from .health import (
    HealthEvent,
    HealthReport,
    HealthThresholds,
    StructuredLogAdapter,
    check_operator_health,
    compression_ratio,
    diagnose_convergence,
    estimate_compression_error,
    rank_level_summary,
    record_solver_health,
)
from .memory import MemorySampler, rss_bytes
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .openmetrics import render_openmetrics, sanitize_metric_name
from .span import Span, SpanEvent
from .tracer import NOOP_TRACER, NoopTracer, SpanTracer, phase_span
from .views import (
    PHASE_ORDER,
    PhaseBreakdown,
    find_spans,
    launches_by_operation,
    total_launches,
)

__all__ = [
    "Counter",
    "Gauge",
    "HealthEvent",
    "HealthReport",
    "HealthThresholds",
    "Histogram",
    "MemorySampler",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoopTracer",
    "PHASE_ORDER",
    "PhaseBreakdown",
    "Span",
    "SpanEvent",
    "SpanTracer",
    "StructuredLogAdapter",
    "check_operator_health",
    "compression_ratio",
    "console_tree",
    "diagnose_convergence",
    "estimate_compression_error",
    "find_spans",
    "launches_by_operation",
    "phase_span",
    "rank_level_summary",
    "record_solver_health",
    "render_openmetrics",
    "rss_bytes",
    "sanitize_metric_name",
    "save_chrome_trace",
    "to_chrome_trace",
    "to_jsonl",
    "total_launches",
]
