"""Accuracy, profiling and throughput diagnostics used by the benchmark
harness.

The reports in this package are *views*: they render numbers that the core
layers already record rather than owning their own instrumentation.  Phase
and apply timings come from one place, the trace: a construction under an
enabled :class:`repro.observe.SpanTracer` (see
:class:`repro.api.ExecutionPolicy`) records its Fig. 7 phases as spans, which
:meth:`PhaseBreakdown.from_span` sums, and :func:`apply_report` runs its
timed applies under a private tracer and returns
:meth:`ApplyReport.from_span` of the fastest one.  :func:`construction_report`
reads the launch counts a ``ConstructionResult`` carries.

Per-phase construction timing (Fig. 7) lives in :mod:`.profiling`, launch
and throughput accounting in :mod:`.apply_report` /
:mod:`.construction_report`, accuracy in :mod:`.error`, solver convergence
in :mod:`.solver_report` and GP sweep statistics in :mod:`.gp_report`.
Operator memory is ``op.memory_bytes()`` itself.
"""

from .apply_report import ApplyReport, apply_report
from .construction_report import ConstructionReport, construction_report
from .error import construction_error, dense_relative_error
from .gp_report import GPFitReport, gp_sweep_table
from .profiling import PhaseBreakdown
from .reporting import format_table, format_series
from .solver_report import convergence_table, residual_series

__all__ = [
    "ApplyReport",
    "apply_report",
    "ConstructionReport",
    "construction_report",
    "GPFitReport",
    "gp_sweep_table",
    "construction_error",
    "dense_relative_error",
    "PhaseBreakdown",
    "format_table",
    "format_series",
    "convergence_table",
    "residual_series",
]
