"""Aggregation helpers that turn span forests into flat report inputs.

The diagnostics layer (:mod:`repro.diagnostics`) builds its report objects
from spans alone — the Fig. 7 phase breakdown from the ``construct.phase``
spans (:meth:`~repro.diagnostics.PhaseBreakdown.from_span`), the apply
report from one ``apply`` span — so the trace is the only record of those
timings and counts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from .exporters import TraceSource, _all_spans, _roots
from .span import Span


def find_spans(
    source: TraceSource,
    name: Optional[str] = None,
    category: Optional[str] = None,
) -> List[Span]:
    """All spans in the forest matching ``name`` and/or ``category``."""
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


def span_durations(source: TraceSource, category: str) -> List[float]:
    """Durations (seconds) of every span with the given category."""
    return [span.duration for span in find_spans(source, category=category)]
