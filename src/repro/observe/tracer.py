"""Tracers: the span factory threaded through the execution layers.

Two implementations share one duck-typed protocol:

* :data:`NOOP_TRACER` — the process-wide no-op.  ``enabled`` is ``False``,
  ``span()`` returns one cached context manager whose enter/exit do nothing,
  and every other method is a ``pass``.  Hot paths keep a
  ``if tracer.enabled:`` guard around anything that would allocate, so a
  policy without tracing pays a single attribute load per call site.
* :class:`SpanTracer` — the real thing.  An open span is pushed onto
  :data:`~repro.batched.counters.OPEN_SPANS`, and every
  :meth:`KernelLaunchCounter.record
  <repro.batched.counters.KernelLaunchCounter.record>` credits the spans
  open in the calling task or thread: a span counts the launches of its own
  context, on whichever backend they run, and nothing else.

A tracer is carried by :class:`repro.api.ExecutionPolicy`, which binds it to
the operators it creates (``policy.bind(matrix)``); work on an operator
records to the tracer it is bound to, and nothing is written onto a tracer
or a backend.  The innermost open span lives in a
:class:`contextvars.ContextVar`, so spans nest per asyncio task and per
thread; pool work submitted in a copy of the caller's context
(``contextvars.copy_context().run``) nests, and counts, under the caller's
span, and a bare thread starts outside every span.
"""

from __future__ import annotations

import contextvars
import time
from typing import Dict, List, Optional

from ..batched.counters import OPEN_SPANS
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
    roots: List[Span] = []

    def span(self, name: str, category: str = "", **attributes: object) -> _NoopSpanContext:
        return _NOOP_CONTEXT

    def event(self, name: str, **attributes: object) -> None:
        return None

    def add_flops(self, count: int) -> None:
        return None

    def add_bytes(self, count: int) -> None:
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
                 "_open", "_mem")

    def __init__(self, tracer: "SpanTracer", name: str, category: str,
                 attributes: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attributes = attributes
        self._span: Optional[Span] = None
        self._open: tuple = ()
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
        if parent is not None:
            parent.children.append(span)
        else:
            tracer.roots.append(span)
        tracer._current.set(span)
        self._open = OPEN_SPANS.get()
        OPEN_SPANS.set(self._open + (span,))
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
        if self._mem is not None:
            span.attributes.update(tracer.memory.exit(self._mem))
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        tracer._current.set(span.parent)
        OPEN_SPANS.set(self._open)
        return False


class SpanTracer:
    """Recording tracer: builds a forest of :class:`~repro.observe.span.Span`.

    A span's ``launches`` / ``calls`` are the launches recorded in the task or
    thread that opened it while it was open (children and pool work
    submitted in a copy of its context included), so two threads tracing at
    once each see only their own work:

    >>> import threading
    >>> from repro.batched import KernelLaunchCounter
    >>> tracer, counter = SpanTracer(), KernelLaunchCounter()
    >>> def work(name, launches):
    ...     with tracer.span(name):
    ...         counter.record("gemm", launches)
    >>> threads = [threading.Thread(target=work, args=(f"t{i}", i)) for i in (1, 5)]
    >>> for thread in threads: thread.start()
    >>> for thread in threads: thread.join()
    >>> sorted((root.name, root.total_launches) for root in tracer.roots)
    [('t1', 1), ('t5', 5)]
    >>> counter.total()
    6

    Parameters
    ----------
    memory:
        A :class:`~repro.observe.memory.MemorySampler` bracketing every span
        with tracemalloc/RSS readings, attaching ``mem_peak_bytes`` /
        ``mem_current_bytes`` / ``mem_rss_bytes`` span attributes.  ``None``
        (default) keeps spans allocation-free.
    """

    enabled = True

    def __init__(self, memory: Optional[object] = None):
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

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span of the calling task or thread, or ``None``."""
        return self._current.get()
