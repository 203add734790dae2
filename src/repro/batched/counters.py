"""Kernel-launch counting instrumentation.

On a GPU, every batched primitive dispatch corresponds to a kernel launch with
a fixed overhead; the paper argues its algorithm needs only O(log N) launches
because all per-node work of a level is fused into a constant number of
batched calls.  :class:`KernelLaunchCounter` records one "launch" for every
batched dispatch issued by a backend (per shape group for the vectorized
backend), letting the benchmark harness verify the O(log N) behaviour.

A record also credits every trace span open in the calling task or thread
(:data:`OPEN_SPANS`, which :class:`repro.observe.SpanTracer` sets while a
span is open), so a span counts exactly the launches of its own context,
whichever counter they are recorded on.
"""

from __future__ import annotations

import contextvars
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Mapping

#: Guards every read and write of every counter.  ``counts[op] += n`` is not
#: atomic, and one counter is shared by every thread a policy serves from
#: (``repro.serve`` runs solves on a thread pool).  A record is one dict
#: update, so one lock for all counters costs nothing measurable — and keeps
#: a counter copyable, which a per-instance lock would not.
_LOCK = threading.Lock()

#: The spans open in the calling task or thread, outermost first.  Each
#: record adds its launches and its call to every one of them; a thread
#: starts with none, and work submitted in a copy of a context
#: (``contextvars.copy_context().run``) counts in that context's spans.
OPEN_SPANS: "contextvars.ContextVar[tuple]" = contextvars.ContextVar(
    "repro_open_spans", default=()
)


def _delta(after: Mapping[str, int], before: Mapping[str, int]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for op, value in after.items():
        diff = value - before.get(op, 0)
        if diff:
            out[op] = diff
    return out


@dataclass(frozen=True)
class CounterSnapshot:
    """Point-in-time copy of a :class:`KernelLaunchCounter`'s tallies."""

    counts: Dict[str, int] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    def total(self) -> int:
        return int(sum(self.counts.values()))

    def total_calls(self) -> int:
        return int(sum(self.calls.values()))


@dataclass
class KernelLaunchCounter:
    """Counts batched-primitive dispatches, grouped by operation name.

    Two granularities are tracked:

    * ``counts`` — *launches*: one per shape group dispatched by the backend
      (what a GPU would see as kernel launches);
    * ``calls`` — *batched-primitive invocations*: one per call into the
      backend regardless of how many shape groups it splits into.  This is the
      quantity the paper's O(log N) launch argument refers to (a constant
      number of batched operations per level).
    """

    counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, operation: str, launches: int = 1) -> None:
        """Record one batched-primitive call dispatching ``launches`` launches,
        on this counter and on every span open in the calling context."""
        if launches < 0:
            raise ValueError("launches must be non-negative")
        launches = int(launches)
        spans = OPEN_SPANS.get()
        with _LOCK:
            self.counts[operation] += launches
            self.calls[operation] += 1
            for span in spans:
                if launches:
                    span.launches[operation] = span.launches.get(operation, 0) + launches
                span.calls[operation] = span.calls.get(operation, 0) + 1

    def total(self) -> int:
        """Total number of recorded launches across all operations."""
        with _LOCK:
            return int(sum(self.counts.values()))

    def total_calls(self) -> int:
        """Total number of batched-primitive invocations."""
        with _LOCK:
            return int(sum(self.calls.values()))

    def by_operation(self) -> Dict[str, int]:
        with _LOCK:
            return dict(self.counts)

    def calls_by_operation(self) -> Dict[str, int]:
        with _LOCK:
            return dict(self.calls)

    def snapshot(self) -> "CounterSnapshot":
        """A frozen copy of the current per-operation tallies.

        Pair with :meth:`since` to report the growth of this counter over one
        region of work (a construction's ``ConstructionResult`` launches).
        """
        with _LOCK:
            return CounterSnapshot(counts=dict(self.counts), calls=dict(self.calls))

    def since(self, snapshot: "CounterSnapshot") -> "CounterSnapshot":
        """Per-operation growth since ``snapshot`` (zero entries dropped)."""
        with _LOCK:
            return CounterSnapshot(
                counts=_delta(self.counts, snapshot.counts),
                calls=_delta(self.calls, snapshot.calls),
            )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        parts = ", ".join(f"{op}={n}" for op, n in sorted(self.counts.items()))
        return f"KernelLaunchCounter(total={self.total()}, {parts})"
