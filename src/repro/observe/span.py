"""Hierarchical spans: the unit of trace data.

A :class:`Span` is one timed region of work (``construct``, ``phase/id``,
``solve/cg`` ...).  Spans nest — the tracer maintains a stack, so a span opened
while another is active becomes its child — and each span carries, besides
wall-clock time, the *launch attribution* pulled from the backend's
:class:`~repro.batched.counters.KernelLaunchCounter`: the per-operation launch
and call deltas observed while the span was open.  Because the deltas are
inclusive (they cover the children too), ``self_launches`` recovers the
launches issued by the span's own code.

Spans are plain data.  Exporters (:mod:`repro.observe.exporters`) turn them
into JSON-lines, Chrome ``trace_event`` JSON or a console tree; the views of
:mod:`repro.observe.views` filter and aggregate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class SpanEvent:
    """A point-in-time marker attached to a span (e.g. one Krylov iteration)."""

    name: str
    timestamp: float
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "timestamp": self.timestamp,
            "attributes": dict(self.attributes),
        }


@dataclass
class Span:
    """One timed, attributed region of work in a trace tree.

    ``start``/``end`` are :func:`time.perf_counter` readings; ``launches`` and
    ``calls`` are the *inclusive* per-operation counter deltas observed between
    them (children included).  ``flops`` and ``bytes`` are explicit
    attributions added by instrumented code (e.g. the compiled apply plan).
    """

    name: str
    category: str = ""
    start: float = 0.0
    end: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    events: List[SpanEvent] = field(default_factory=list)
    launches: Dict[str, int] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    flops: int = 0
    bytes: int = 0
    parent: Optional["Span"] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ timing
    @property
    def duration(self) -> float:
        """Wall-clock seconds spent in the span (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    # ------------------------------------------------------------- attribution
    @property
    def total_launches(self) -> int:
        """Inclusive launch count (this span plus all descendants)."""
        return int(sum(self.launches.values()))

    @property
    def total_calls(self) -> int:
        """Inclusive batched-primitive call count."""
        return int(sum(self.calls.values()))

    @property
    def self_launches(self) -> int:
        """Launches issued by this span's own code (inclusive minus children)."""
        return self.total_launches - sum(c.total_launches for c in self.children)

    @property
    def self_duration(self) -> float:
        """Seconds not covered by any child span."""
        return self.duration - sum(c.duration for c in self.children)

    # ----------------------------------------------------------------- editing
    def set(self, **attributes: object) -> "Span":
        """Attach attributes; returns ``self`` for chaining."""
        self.attributes.update(attributes)
        return self

    def add_event(self, name: str, timestamp: float, **attributes: object) -> SpanEvent:
        event = SpanEvent(name=name, timestamp=timestamp, attributes=attributes)
        self.events.append(event)
        return event

    def add_flops(self, count: int) -> None:
        self.flops += int(count)

    def add_bytes(self, count: int) -> None:
        self.bytes += int(count)

    # --------------------------------------------------------------- traversal
    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    # ------------------------------------------------------------------ export
    def to_dict(self) -> Dict[str, object]:
        """Flat (child-free) dict form; exporters add ids to encode the tree."""
        return {
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "launches": dict(self.launches),
            "calls": dict(self.calls),
            "flops": self.flops,
            "bytes": self.bytes,
            "events": [event.to_dict() for event in self.events],
        }
