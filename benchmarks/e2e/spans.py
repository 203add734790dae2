"""In-memory span recorder for the traced benchmark run.

Spans are opened from the benchmark's own files around calls into each
layer's public functions (nothing under ``src/`` is edited).  Each span
carries a name, start, end, its parent, the id of the trial it belongs to and
the counts recorded at that boundary; everything stays in memory until
:meth:`SpanRecorder.write` dumps it as JSON plus a Chrome ``trace_event`` file.

A span's *self time* is its duration minus the part of its interval covered by
its children, so for every parent ``sum(children) + self == duration`` holds by
construction.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trial: int
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Single-threaded span stack; ``trial`` tags every span opened under it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._children: Dict[Optional[int], List[int]] = {}
        self.trial = 0

    def next_trial(self) -> int:
        self.trial += 1
        return self.trial

    @contextmanager
    def span(self, name: str, **counts: float) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, 0.0, 0.0, parent, self.trial, dict(counts))
        self.spans.append(record)
        self._children.setdefault(parent, []).append(record.id)
        self._stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------- queries
    def children(self, span: Span) -> List[Span]:
        return [self.spans[i] for i in self._children.get(span.id, ())]

    def descendants(self, span: Span) -> List[Span]:
        out: List[Span] = []
        for child in self.children(span):
            out.append(child)
            out.extend(self.descendants(child))
        return out

    def self_time(self, span: Span) -> float:
        """Duration minus the interval covered by the direct children.

        Children of one parent never overlap (one stack, one thread), so the
        covered interval is the sum of their durations.
        """
        return span.duration - sum(c.duration for c in self.children(span))

    def total(self, root: Span, name: str) -> float:
        """Summed duration of the spans called ``name`` below ``root``."""
        return sum(s.duration for s in self.descendants(root) if s.name == name)

    def count(self, root: Span, name: str, key: Optional[str] = None) -> float:
        """Number of ``name`` spans below ``root``, or the sum of one of their counts."""
        hits = [s for s in self.descendants(root) if s.name == name]
        if key is None:
            return float(len(hits))
        return float(sum(s.counts.get(key, 0) for s in hits))

    # -------------------------------------------------------------- output
    def tree_lines(self, root: Span, share_of: Optional[float] = None) -> List[str]:
        """Indented text tree of ``root``: same-named siblings are merged."""
        base = share_of if share_of else root.duration
        lines: List[str] = []

        def visit(spans: List[Span], depth: int) -> None:
            grouped: Dict[str, List[Span]] = {}
            for s in spans:
                grouped.setdefault(s.name, []).append(s)
            for name, group in grouped.items():
                total = sum(s.duration for s in group)
                own = sum(self.self_time(s) for s in group)
                share = 100.0 * total / base if base > 0 else 0.0
                lines.append(
                    f"{'  ' * depth}{name:<{34 - 2 * depth}} x{len(group):<5d}"
                    f"{total:10.4f} s  self {own:9.4f} s  {share:5.1f} %"
                )
                kids = [c for s in group for c in self.children(s)]
                if kids:
                    visit(kids, depth + 1)

        visit([root], 0)
        return lines

    def to_json(self) -> List[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "id": s.id, "name": s.name, "parent": s.parent, "trial": s.trial,
                "start": s.start - origin, "end": s.end - origin,
                "self": self.self_time(s), "counts": s.counts,
            }
            for s in self.spans
        ]

    def to_chrome(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "traceEvents": [
                {
                    "name": s.name, "ph": "X", "pid": 1, "tid": s.trial,
                    "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                    "args": {**s.counts, "id": s.id, "parent": s.parent},
                }
                for s in self.spans
            ]
        }

    def write(self, json_path: Path, chrome_path: Path) -> None:
        json_path.write_text(json.dumps(self.to_json()))
        chrome_path.write_text(json.dumps(self.to_chrome()))
