"""Views that read span forests: the trace is the one record of every timing.

Every reader of a timing or a launch count reads it here, from spans: the
Fig. 7 phase breakdown sums the ``construct.phase`` spans
(:meth:`PhaseBreakdown.from_span`), launch totals sum the root spans, and a
traced ``apply`` span carries the plan geometry (``n``, ``k``, ``backend``,
``levels``, ``block_products``, ``operand_bytes``) beside its calls, flops and
duration, so it is read as it stands.  Each view takes a span, a tracer or a
sequence of root spans.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from .exporters import TraceSource, _all_spans, _roots
from .span import Span

#: Canonical Fig. 7 phase ordering used in tables and plots.
PHASE_ORDER: Sequence[str] = (
    "sampling",
    "entry_generation",
    "bsr_gemm",
    "convergence",
    "id",
    "shrink_upsweep",
    "misc",
)


def find_spans(
    source: TraceSource,
    name: Optional[str] = None,
    category: Optional[str] = None,
) -> List[Span]:
    """All spans in the forest (roots included) matching ``name`` and/or
    ``category``."""
    out = []
    for span in _all_spans(source):
        if name is not None and span.name != name:
            continue
        if category is not None and span.category != category:
            continue
        out.append(span)
    return out


def launches_by_operation(source: TraceSource) -> Dict[str, int]:
    """Inclusive per-operation launch counts summed over the *root* spans.

    Only roots are summed (their deltas already include all descendants), so
    the result equals the backend counter's growth over the traced region.
    """
    totals: Dict[str, int] = defaultdict(int)
    for root in _roots(source):
        for op, n in root.launches.items():
            totals[op] += n
    return dict(totals)


def total_launches(source: TraceSource) -> int:
    return int(sum(launches_by_operation(source).values()))


def _in_phase_order(values: Mapping[str, float]) -> Dict[str, float]:
    """``values`` in :data:`PHASE_ORDER` (missing phases as 0), other keys after."""
    out = {phase: values.get(phase, 0) for phase in PHASE_ORDER}
    out.update((phase, value) for phase, value in values.items() if phase not in out)
    return out


@dataclass
class PhaseBreakdown:
    """Per-phase seconds (Fig. 7) of the constructions in a trace."""

    seconds: Dict[str, float]
    #: Peak allocated bytes per phase — populated only when the construction
    #: traced under ``ExecutionPolicy(memory_profile=True)`` (empty otherwise).
    peak_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.seconds.values()))

    def ordered(self) -> Dict[str, float]:
        """Phase times in the canonical order (missing phases reported as 0)."""
        return _in_phase_order(self.seconds)

    def ordered_percentages(self) -> Dict[str, float]:
        total = self.total_seconds
        return {
            phase: 100.0 * value / total if total > 0 else 0.0
            for phase, value in self.ordered().items()
        }

    def ordered_peak_bytes(self) -> Dict[str, int]:
        """Per-phase peak bytes in canonical order (missing phases as 0)."""
        return _in_phase_order(self.peak_bytes)

    @classmethod
    def from_span(cls, source: TraceSource) -> "PhaseBreakdown":
        """Aggregate the ``construct.phase`` spans of ``source``.

        Repeated spans of one phase add their durations; their
        ``mem_peak_bytes`` attributes (present only under a
        :class:`~repro.observe.memory.MemorySampler`) keep the maximum —
        peaks do not add.
        """
        seconds: Dict[str, float] = defaultdict(float)
        peaks: Dict[str, int] = {}
        for span in find_spans(source, category="construct.phase"):
            phase = str(span.attributes.get("phase", span.name))
            seconds[phase] += span.duration
            peak = span.attributes.get("mem_peak_bytes")
            if peak is not None:
                peaks[phase] = max(peaks.get(phase, 0), int(peak))
        return cls(seconds=dict(seconds), peak_bytes=peaks)
