"""Tracers: the span factory threaded through the execution layers.

Two implementations share one duck-typed protocol:

* :data:`NOOP_TRACER` — the process-wide no-op.  ``enabled`` is ``False``,
  ``span()`` returns one cached context manager whose enter/exit do nothing,
  and every other method is a ``pass``.  Hot paths keep a
  ``if tracer.enabled:`` guard around anything that would allocate, so a
  policy without tracing pays a single attribute load per call site.
* :class:`SpanTracer` — the real thing.  Opening a span snapshots the bound
  :class:`~repro.batched.counters.KernelLaunchCounter`; closing it stores the
  per-operation launch/call deltas on the span, making launch attribution a
  pure read of counters that the backends maintain anyway.

A tracer is carried by :class:`repro.api.ExecutionPolicy`, which binds it to
its backend's launch counter and to the operators it creates
(``policy.bind(matrix)``); nothing is stored on the backend.  The innermost
open span lives in a :class:`contextvars.ContextVar`, so spans nest per
asyncio task and per thread; pool work submitted in a copy of the caller's
context (``contextvars.copy_context().run``) nests under the caller's span.
"""

from __future__ import annotations

import contextvars
import time
from typing import Dict, List, Optional

from ..batched.counters import CounterSnapshot, KernelLaunchCounter
from .span import Span, SpanEvent


class _NoopSpan:
    """Stand-in span handle: accepts the Span mutation API and discards it."""

    __slots__ = ()

    duration = 0.0
    flops = 0
    bytes = 0

    def set(self, **attributes: object) -> "_NoopSpan":
        return self

    def add_event(self, name: str, timestamp: float = 0.0, **attributes: object) -> None:
        return None

    def add_flops(self, count: int) -> None:
        return None

    def add_bytes(self, count: int) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _NoopSpanContext:
    """Reusable context manager returned by :meth:`NoopTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_CONTEXT = _NoopSpanContext()


class NoopTracer:
    """Disabled tracer: every operation is a no-op and allocates nothing."""

    __slots__ = ()

    enabled = False
    counter: Optional[KernelLaunchCounter] = None
    memory = None
    roots: List[Span] = []

    def span(self, name: str, category: str = "", **attributes: object) -> _NoopSpanContext:
        return _NOOP_CONTEXT

    def event(self, name: str, **attributes: object) -> None:
        return None

    def add_flops(self, count: int) -> None:
        return None

    def add_bytes(self, count: int) -> None:
        return None

    def bind_counter(self, counter: KernelLaunchCounter) -> None:
        return None

    def reset(self) -> None:
        return None

    @property
    def current(self) -> None:
        return None


NOOP_TRACER = NoopTracer()


def phase_span(tracer, name: str):
    """Open construction phase ``name`` (Fig. 7) as a ``construct.phase`` span.

    The only record of a phase's time: :meth:`PhaseBreakdown.from_span
    <repro.observe.views.PhaseBreakdown.from_span>` sums these spans.  On a
    disabled tracer it returns the cached no-op context.
    """
    if not tracer.enabled:
        return _NOOP_CONTEXT
    return tracer.span(f"phase/{name}", category="construct.phase", phase=name)


class _SpanContext:
    """Context manager produced by :meth:`SpanTracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_attributes", "_span",
                 "_counter0", "_mem")

    def __init__(self, tracer: "SpanTracer", name: str, category: str,
                 attributes: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attributes = attributes
        self._span: Optional[Span] = None
        self._counter0: Optional[CounterSnapshot] = None
        self._mem: Optional[List[int]] = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = tracer.current
        span = Span(
            name=self._name,
            category=self._category,
            attributes=self._attributes,
            parent=parent,
        )
        counter = tracer.counter
        if counter is not None:
            # Under the counter's lock: repro.serve records from a thread pool.
            self._counter0 = counter.snapshot()
        if parent is not None:
            parent.children.append(span)
        else:
            tracer.roots.append(span)
        tracer._current.set(span)
        self._span = span
        sampler = tracer.memory
        if sampler is not None:
            self._mem = sampler.enter()
        span.start = tracer._clock()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        span = self._span
        span.end = tracer._clock()
        if self._mem is not None and tracer.memory is not None:
            span.attributes.update(tracer.memory.exit(self._mem))
        counter = tracer.counter
        if counter is not None and self._counter0 is not None:
            delta = counter.since(self._counter0)
            span.launches = delta.counts
            span.calls = delta.calls
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        tracer._current.set(span.parent)
        return False


class SpanTracer:
    """Recording tracer: builds a forest of :class:`~repro.observe.span.Span`.

    Parameters
    ----------
    counter:
        The :class:`~repro.batched.counters.KernelLaunchCounter` spans read
        for launch attribution.  Usually left ``None`` and bound lazily — the
        first backend resolved under the owning policy calls
        :meth:`bind_counter` with its counter.
    memory:
        A :class:`~repro.observe.memory.MemorySampler` bracketing every span
        with tracemalloc/RSS readings, attaching ``mem_peak_bytes`` /
        ``mem_current_bytes`` / ``mem_rss_bytes`` span attributes.  ``None``
        (default) keeps spans allocation-free; usually enabled via
        ``ExecutionPolicy(memory_profile=True)``.
    """

    enabled = True

    def __init__(
        self,
        counter: Optional[KernelLaunchCounter] = None,
        memory: Optional[object] = None,
    ):
        self.counter = counter
        self.memory = memory
        self.roots: List[Span] = []
        self.orphan_events: List[SpanEvent] = []
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "repro_current_span", default=None
        )
        self._clock = time.perf_counter

    # ---------------------------------------------------------------- spanning
    def span(self, name: str, category: str = "", **attributes: object) -> _SpanContext:
        """Context manager opening a nested span; yields the :class:`Span`."""
        return _SpanContext(self, name, category, attributes)

    def event(self, name: str, **attributes: object) -> None:
        """Record a point-in-time event on the currently open span."""
        event = SpanEvent(name=name, timestamp=self._clock(), attributes=attributes)
        current = self.current
        if current is not None:
            current.events.append(event)
        else:
            self.orphan_events.append(event)

    def add_flops(self, count: int) -> None:
        current = self.current
        if current is not None:
            current.add_flops(count)

    def add_bytes(self, count: int) -> None:
        current = self.current
        if current is not None:
            current.add_bytes(count)

    # ----------------------------------------------------------------- wiring
    def bind_counter(self, counter: KernelLaunchCounter) -> None:
        """Adopt ``counter`` for launch attribution (first bind wins)."""
        if self.counter is None:
            self.counter = counter

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span of the calling task or thread, or ``None``."""
        return self._current.get()

    def reset(self) -> None:
        """Drop all recorded spans/events (the bound counter is untouched)."""
        self.roots.clear()
        self.orphan_events.clear()
        self._current.set(None)
