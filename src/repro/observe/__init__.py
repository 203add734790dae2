"""repro.observe — hierarchical tracing, metrics and trace exporters.

The observability spine of the library.  One :class:`SpanTracer`, carried by
an :class:`repro.api.ExecutionPolicy`, records a tree of :class:`Span` objects
as work flows through the constructor, the compiled apply plans, the Krylov
solvers, the HSS factorization and the GP sweeps.  Each span carries
wall-clock time plus launch/FLOP/byte attribution read from the backend's
:class:`~repro.batched.counters.KernelLaunchCounter`, so the trace and the
paper's launch-count arguments come from the same source of truth.

Quick tour::

    from repro import ExecutionPolicy, Session
    from repro.observe import SpanTracer, console_tree, save_chrome_trace

    tracer = SpanTracer()
    policy = ExecutionPolicy(backend="vectorized", tracer=tracer)
    session = Session(points, kernel, policy=policy)
    with tracer.span("workload"):
        session.compress()
        session.factor()
        session.solve(b)
    print(console_tree(tracer))
    save_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev

With the default :data:`NOOP_TRACER` nothing is recorded and the hot paths
pay only an ``if tracer.enabled`` check.
"""

from .exporters import (
    console_tree,
    from_jsonl,
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
from .memory import (
    CATEGORIES,
    MemoryLedger,
    MemorySampler,
    categorize_operator_bytes,
    memory_ledger,
    reset_memory_ledger,
    rss_bytes,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
    reset_metrics,
)
from .openmetrics import (
    MetricsJSONLFlusher,
    render_openmetrics,
    sanitize_metric_name,
    save_openmetrics,
)
from .span import Span, SpanEvent
from .tracer import NOOP_TRACER, NoopTracer, SpanTracer, phase_span
from .views import (
    find_spans,
    launches_by_operation,
    span_durations,
    total_launches,
)

__all__ = [
    "CATEGORIES",
    "Counter",
    "Gauge",
    "HealthEvent",
    "HealthReport",
    "HealthThresholds",
    "Histogram",
    "MemoryLedger",
    "MemorySampler",
    "MetricsJSONLFlusher",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "SpanEvent",
    "SpanTracer",
    "StructuredLogAdapter",
    "categorize_operator_bytes",
    "check_operator_health",
    "compression_ratio",
    "console_tree",
    "diagnose_convergence",
    "estimate_compression_error",
    "find_spans",
    "from_jsonl",
    "launches_by_operation",
    "memory_ledger",
    "metrics",
    "phase_span",
    "rank_level_summary",
    "record_solver_health",
    "render_openmetrics",
    "reset_memory_ledger",
    "reset_metrics",
    "rss_bytes",
    "sanitize_metric_name",
    "save_chrome_trace",
    "save_openmetrics",
    "span_durations",
    "to_chrome_trace",
    "to_jsonl",
    "total_launches",
]
