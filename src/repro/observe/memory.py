"""Memory observability: per-span peak attribution.

The long-lived buffer owners report their own bytes: an operator's
``memory_bytes()`` splits its basis / coupling / dense stacks, a compiled
apply, construction or entry plan's ``memory_bytes()`` counts its workspace,
:meth:`ArtifactCache.size_bytes <repro.persist.cache.ArtifactCache.size_bytes>`
its files, and a served model's ``memory_bytes()`` the operator, its apply
plan and its factorization (the model registry's byte budget).  What those
totals cannot show is the *transient* peak of a phase, which this module
measures:

* :class:`MemorySampler` — per-span *peak* attribution.  Given to a
  :class:`~repro.observe.tracer.SpanTracer` when it is built
  (``SpanTracer(memory=MemorySampler())``; nothing attaches one later), it
  brackets every span with
  :mod:`tracemalloc` readings plus an RSS sample and stores
  ``mem_peak_bytes`` / ``mem_current_bytes`` / ``mem_rss_bytes`` attributes
  on the span — visible in the console tree, the Chrome trace ``args`` and
  :meth:`repro.observe.views.PhaseBreakdown.from_span`.  The sampler maintains
  its own frame stack and folds :func:`tracemalloc.get_traced_memory` peaks
  into every open frame at each span boundary, so nested spans attribute
  peaks correctly even though the interpreter keeps a single global peak.

No sampler is attached by default, so spans stay allocation-free.
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, List


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
