"""Metrics instruments: counters, gauges and percentile histograms.

The tracer records *structured* data (span trees); metrics are the flat,
always-on aggregates a long-lived service exposes — how many requests it
served, their p95 latency, how many launches its micro-batcher made.  The
three instrument types follow the usual conventions:

* :class:`Counter` — monotone accumulator (``inc``);
* :class:`Gauge` — last-write-wins value (``set``);
* :class:`Histogram` — streaming distribution with exact count/sum/min/max and
  approximate percentiles (p50/p95/p99) over a bounded reservoir of samples.

A :class:`MetricsRegistry` is a get-or-create namespace of instruments.  There
is no process-wide registry: each :class:`~repro.serve.InferenceServer` owns
one (its micro-batcher's), and every other count lives on the object that
makes it (cache hits on the cache, evictions on the model registry, launches
on the backend counter, timings on the spans).

Every instrument and the registry itself are **thread-safe**: the serving
layer (:mod:`repro.serve`) updates them from asyncio worker threads, so
mutation of the instrument maps, counter/gauge values and histogram
reservoirs is serialized by per-object :class:`threading.Lock`\\ s.  The
locks guard single dict/list/int operations, so the hot-path cost is one
uncontended acquire per observation.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Sequence, Tuple


def _interpolate(data: List[float], q: float) -> float:
    """Percentile ``q`` of the sorted samples ``data`` (``nan`` when empty)."""
    if not data:
        return math.nan
    if len(data) == 1:
        return data[0]
    pos = (min(100.0, max(0.0, float(q))) / 100.0) * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class Counter:
    """Monotonically increasing counter (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (occupancy, temperature, ...)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += float(delta)


class Histogram:
    """Streaming distribution with bounded-memory percentile estimates.

    ``count``/``sum``/``min``/``max`` are exact.  Percentiles are computed
    over a reservoir of the most recent ``capacity`` observations (default
    4096) — exact until the reservoir fills, a sliding window afterwards.
    Observations and percentile reads are serialized by a per-histogram
    lock, so concurrent writers never corrupt the reservoir index and
    readers never see a half-updated sample list.
    """

    __slots__ = ("name", "capacity", "count", "sum", "min", "max",
                 "_samples", "_lock")

    def __init__(self, name: str, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("histogram capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            if len(self._samples) < self.capacity:
                self._samples.append(value)
            else:
                self._samples[self.count % self.capacity] = value
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentiles(self, qs: Sequence[float]) -> List[float]:
        """The ``q``-th percentiles (0..100) of ``qs``, by linear
        interpolation over one sorted copy of the reservoir.

        Well-defined on every reservoir state: an empty histogram returns
        ``nan`` (there is no value to report — distinguishable from a real
        observation of ``0.0``), a single sample is every percentile of
        itself, and out-of-range ``q`` values clamp to [0, 100] instead of
        raising so exporters can never crash a run.
        """
        with self._lock:
            data = sorted(self._samples)
        return [_interpolate(data, q) for q in qs]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (see :meth:`percentiles`)."""
        return self.percentiles((q,))[0]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        p50, p95, p99 = self.percentiles((50.0, 95.0, 99.0))
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }


class MetricsRegistry:
    """Get-or-create namespace of named instruments (thread-safe)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, capacity: int = 4096) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(
                        name, capacity=capacity
                    )
        return instrument

    def instruments(self) -> Tuple[List[Counter], List[Gauge], List[Histogram]]:
        """Every counter, gauge and histogram, each list sorted by name."""
        with self._lock:
            return tuple(
                [instrument for _, instrument in sorted(kind.items())]
                for kind in (self._counters, self._gauges, self._histograms)
            )

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view of every instrument (JSON-serializable)."""
        counters, gauges, histograms = self.instruments()
        return {
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {h.name: h.summary() for h in histograms},
        }
