"""Construction-phase profiling (Fig. 7).

The paper breaks the construction runtime into sampling, entry generation,
BSR multiplication, the convergence test, the interpolative decompositions,
the shrink/upsweep bookkeeping and miscellaneous work, and reports the share
of each phase on CPU and GPU for growing problem sizes.

The constructor records each phase block as one ``construct.phase`` span
(:func:`repro.observe.phase_span`) and keeps no other clock, so the breakdown
exists only for a construction that ran under an enabled
:class:`repro.observe.SpanTracer`: :meth:`PhaseBreakdown.from_span` of its
``ConstructionResult.trace`` (or of the tracer) sums those spans.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Sequence

#: Canonical phase ordering used in tables and plots.
PHASE_ORDER: Sequence[str] = (
    "sampling",
    "entry_generation",
    "bsr_gemm",
    "convergence",
    "id",
    "shrink_upsweep",
    "misc",
)


@dataclass
class PhaseBreakdown:
    """Absolute and relative per-phase times of one construction."""

    seconds: Dict[str, float]
    #: Peak allocated bytes per phase — populated only when the construction
    #: traced under ``ExecutionPolicy(memory_profile=True)`` (empty otherwise).
    peak_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.seconds.values()))

    def percentages(self) -> Dict[str, float]:
        total = self.total_seconds
        if total <= 0:
            return {phase: 0.0 for phase in self.seconds}
        return {phase: 100.0 * value / total for phase, value in self.seconds.items()}

    def ordered(self) -> Dict[str, float]:
        """Phase times in the canonical order (missing phases reported as 0)."""
        out = {phase: self.seconds.get(phase, 0.0) for phase in PHASE_ORDER}
        for phase, value in self.seconds.items():
            if phase not in out:
                out[phase] = value
        return out

    def ordered_percentages(self) -> Dict[str, float]:
        total = self.total_seconds
        ordered = self.ordered()
        if total <= 0:
            return {phase: 0.0 for phase in ordered}
        return {phase: 100.0 * value / total for phase, value in ordered.items()}

    def ordered_peak_bytes(self) -> Dict[str, int]:
        """Per-phase peak bytes in canonical order (missing phases as 0)."""
        out = {phase: self.peak_bytes.get(phase, 0) for phase in PHASE_ORDER}
        for phase, value in self.peak_bytes.items():
            if phase not in out:
                out[phase] = value
        return out

    @classmethod
    def from_span(cls, span) -> "PhaseBreakdown":
        """Aggregate the ``construct.phase`` spans below ``span`` (or a tracer).

        Repeated spans of one phase add their durations; their
        ``mem_peak_bytes`` attributes (present only under a
        :class:`~repro.observe.memory.MemorySampler`) keep the maximum —
        peaks do not add.
        """
        from ..observe.views import find_spans

        seconds: Dict[str, float] = defaultdict(float)
        peaks: Dict[str, int] = {}
        for child in find_spans(span, category="construct.phase"):
            phase = str(child.attributes.get("phase", child.name))
            seconds[phase] += child.duration
            peak = child.attributes.get("mem_peak_bytes")
            if peak is not None:
                peaks[phase] = max(peaks.get(phase, 0), int(peak))
        return cls(seconds=dict(seconds), peak_bytes=peaks)
