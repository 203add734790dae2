"""Memory observability: buffer accounting and per-span peak attribution.

Two complementary instruments answer "where did the bytes go":

* :class:`MemoryLedger` — a process-wide registry that the long-lived buffer
  owners report into: constructed operators (basis/coupling/dense stacks),
  compiled apply and construction plans (workspace), and the artifact cache
  (cache).  Every entry is keyed by owner and split over the five canonical
  categories (:data:`CATEGORIES`); :meth:`MemoryLedger.track` registers an
  owner through a weak reference so the bytes disappear from the ledger when
  the owning object is garbage-collected.  Totals are mirrored into the
  process metrics registry as ``memory.<category>.bytes`` gauges, so the
  OpenMetrics exposition (:mod:`repro.observe.openmetrics`) scrapes them for
  free.

* :class:`MemorySampler` — per-span *peak* attribution.  Attached to a
  :class:`~repro.observe.tracer.SpanTracer` (``SpanTracer(memory=...)`` or
  ``ExecutionPolicy(memory_profile=True)``), it brackets every span with
  :mod:`tracemalloc` readings plus an RSS sample and stores
  ``mem_peak_bytes`` / ``mem_current_bytes`` / ``mem_rss_bytes`` attributes
  on the span — visible in the console tree, the Chrome trace ``args`` and
  :meth:`repro.diagnostics.PhaseBreakdown.from_span`.  The sampler maintains
  its own frame stack and folds :func:`tracemalloc.get_traced_memory` peaks
  into every open frame at each span boundary, so nested spans attribute
  peaks correctly even though the interpreter keeps a single global peak.

The default is the usual zero-overhead posture: no sampler is attached and
nothing reports into the ledger from the per-apply hot loop — accounting
happens at compile/construct/put time, never per launch.
"""

from __future__ import annotations

import itertools
import tracemalloc
import weakref
from typing import Dict, List, Optional

from .metrics import MetricsRegistry, metrics as _global_metrics

#: Canonical byte categories of the ledger.
CATEGORIES = ("basis", "coupling", "dense", "workspace", "cache")

#: ``memory_bytes()`` component key -> ledger category.  Anything unknown
#: (``low_rank``, factor blocks, ...) counts as low-rank coupling data.
_COMPONENT_CATEGORY = {
    "basis": "basis",
    "coupling": "coupling",
    "dense": "dense",
    "workspace": "workspace",
    "cache": "cache",
}


def categorize_operator_bytes(components: Dict[str, int]) -> Dict[str, int]:
    """Map an operator's ``memory_bytes()`` dict onto the ledger categories.

    The unified ``total`` key is always derived and dropped; ``low_rank`` is
    dropped too when format-specific component keys (``basis``/``coupling``)
    are present, because ``memory_bytes()`` derives it from them.
    """
    comps = {k: int(v) for k, v in components.items() if k != "total"}
    if any(k not in ("low_rank", "dense") for k in comps):
        comps.pop("low_rank", None)
    out: Dict[str, int] = {}
    for key, value in comps.items():
        category = _COMPONENT_CATEGORY.get(key, "coupling")
        out[category] = out.get(category, 0) + value
    return out


class MemoryLedger:
    """Process-wide byte accounting by owner and category.

    Owners report with :meth:`account` (explicit lifecycle) or :meth:`track`
    (weakref-managed: the entry is released when the object dies).  Category
    totals are mirrored as ``memory.<category>.bytes`` gauges into the
    process metrics registry on every mutation.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self._entries: Dict[str, Dict[str, int]] = {}
        self._metrics = metrics
        self._ids = itertools.count()

    # ----------------------------------------------------------------- updates
    def account(self, owner: str, categories: Dict[str, int]) -> str:
        """Set (replace) the byte accounting of ``owner``; returns the key."""
        entry = {}
        for category, nbytes in categories.items():
            if category not in CATEGORIES:
                raise ValueError(
                    f"unknown memory category {category!r}; use one of {CATEGORIES}"
                )
            entry[category] = int(nbytes)
        self._entries[owner] = entry
        self._publish()
        return owner

    def release(self, owner: str) -> None:
        """Drop the accounting of ``owner`` (missing owners are ignored)."""
        if self._entries.pop(owner, None) is not None:
            self._publish()

    def track(
        self, obj: object, categories: Dict[str, int], owner: Optional[str] = None
    ) -> str:
        """Account ``obj`` and auto-release when it is garbage-collected."""
        if owner is None:
            owner = f"{type(obj).__name__}#{next(self._ids)}"
        self.account(owner, categories)
        try:
            weakref.finalize(obj, self.release, owner)
        except TypeError:  # non-weakref-able owner: explicit release only
            pass
        return owner

    def reset(self) -> None:
        self._entries.clear()
        self._publish()

    # ------------------------------------------------------------------ totals
    def by_category(self) -> Dict[str, int]:
        """Current bytes per category (every canonical category present)."""
        totals = {category: 0 for category in CATEGORIES}
        for entry in self._entries.values():
            for category, nbytes in entry.items():
                totals[category] += nbytes
        return totals

    def total_bytes(self) -> int:
        return sum(self.by_category().values())

    def by_owner(self) -> Dict[str, Dict[str, int]]:
        return {owner: dict(entry) for owner, entry in self._entries.items()}

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view (JSON-serializable)."""
        return {
            "total_bytes": self.total_bytes(),
            "by_category": self.by_category(),
            "owners": self.by_owner(),
        }

    def _publish(self) -> None:
        registry = self._metrics if self._metrics is not None else _global_metrics()
        for category, nbytes in self.by_category().items():
            registry.gauge(f"memory.{category}.bytes").set(float(nbytes))


_LEDGER: Optional[MemoryLedger] = None


def memory_ledger() -> MemoryLedger:
    """The process-wide ledger (created on first use)."""
    global _LEDGER
    if _LEDGER is None:
        _LEDGER = MemoryLedger()
    return _LEDGER


def reset_memory_ledger() -> None:
    """Drop every ledger entry (test isolation; a no-op before first use)."""
    if _LEDGER is not None:
        _LEDGER.reset()


# ---------------------------------------------------------------- RSS reading
def rss_bytes() -> int:
    """Current resident-set size of this process in bytes (0 if unknown)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        import resource

        return pages * resource.getpagesize()
    except (OSError, ValueError, IndexError, ImportError):
        pass
    try:  # fallback: peak RSS (kilobytes on Linux)
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except (ImportError, OSError, ValueError):  # pragma: no cover - exotic OS
        return 0


class MemorySampler:
    """Per-span peak-memory attribution over :mod:`tracemalloc`.

    ``enter()`` pushes a frame, ``exit(frame)`` pops it and returns the span
    attributes.  At every boundary the interpreter's global allocation peak is
    folded into *all* open frames before being reset, so a parent span's peak
    is never lost to a child's reset and nested attribution stays exact.

    Parameters
    ----------
    sample_rss:
        Also record the process RSS at span exit (``mem_rss_bytes``).
    """

    def __init__(self, sample_rss: bool = True):
        self.sample_rss = bool(sample_rss)
        self._stack: List[List[int]] = []
        self._owns_tracemalloc = False
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    def close(self) -> None:
        """Stop tracemalloc if this sampler started it."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._owns_tracemalloc = False

    def _fold_peak(self) -> int:
        """Fold the global peak into every open frame; returns current bytes."""
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._stack:
            if peak > frame[1]:
                frame[1] = peak
        tracemalloc.reset_peak()
        return current

    def enter(self) -> List[int]:
        current = self._fold_peak()
        frame = [current, current]  # [bytes at entry, peak bytes observed]
        self._stack.append(frame)
        return frame

    def exit(self, frame: List[int]) -> Dict[str, int]:
        current = self._fold_peak()
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        else:  # unbalanced exit: stay consistent (mirrors the tracer stack)
            try:
                self._stack.remove(frame)
            except ValueError:
                pass
        out = {
            "mem_peak_bytes": max(0, frame[1] - frame[0]),
            "mem_current_bytes": max(0, current - frame[0]),
        }
        if self.sample_rss:
            out["mem_rss_bytes"] = rss_bytes()
        return out
