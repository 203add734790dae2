"""Kernel-launch counting instrumentation.

On a GPU, every batched primitive dispatch corresponds to a kernel launch with
a fixed overhead; the paper argues its algorithm needs only O(log N) launches
because all per-node work of a level is fused into a constant number of
batched calls.  :class:`KernelLaunchCounter` records one "launch" for every
batched dispatch issued by a backend (per shape group for the vectorized
backend), letting the benchmark harness verify the O(log N) behaviour.
"""

from __future__ import annotations

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
        """Record one batched-primitive call dispatching ``launches`` launches."""
        if launches < 0:
            raise ValueError("launches must be non-negative")
        with _LOCK:
            self.counts[operation] += int(launches)
            self.calls[operation] += 1

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

        Pair with :meth:`since` to report the launches of one region of work
        (a single construction, a single apply) even when the counter is
        shared across many regions — the consolidation contract of
        :class:`repro.api.ExecutionPolicy` and :class:`repro.observe.SpanTracer`.
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

    def reset(self) -> None:
        with _LOCK:
            self.counts.clear()
            self.calls.clear()

    def merge(self, other: "KernelLaunchCounter") -> None:
        with _LOCK:
            for op, n in other.counts.items():
                self.counts[op] += n
            for op, n in other.calls.items():
                self.calls[op] += n

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        parts = ", ".join(f"{op}={n}" for op, n in sorted(self.counts.items()))
        return f"KernelLaunchCounter(total={self.total()}, {parts})"
