"""Trace exporters: JSON-lines, Chrome ``trace_event`` and a console tree.

All three consume the same input: a :class:`~repro.observe.tracer.SpanTracer`,
a single :class:`~repro.observe.span.Span`, or a list of root spans.

* :func:`to_jsonl` — one JSON object per span, parented by integer ids:
  names, timing, attributes, launch deltas, flops/bytes and events.
* :func:`to_chrome_trace` / :func:`save_chrome_trace` — the Chrome
  ``trace_event`` JSON object format (``{"traceEvents": [...]}``) with
  complete (``"ph": "X"``) events for spans and instant (``"ph": "i"``)
  events for span events.  Load the file in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.
* :func:`console_tree` — indented text rendering with per-span duration,
  share of the root's time, and launch/flop attribution.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Union

from .span import Span

TraceSource = Union[Span, Sequence[Span], "SpanTracerLike"]


class SpanTracerLike:  # pragma: no cover - typing aid only
    roots: List[Span]


def _roots(source: TraceSource) -> List[Span]:
    """Normalize any accepted trace source to a list of root spans."""
    if isinstance(source, Span):
        return [source]
    roots = getattr(source, "roots", None)
    if roots is not None:
        return list(roots)
    return list(source)


def _all_spans(source: TraceSource) -> List[Span]:
    spans: List[Span] = []
    for root in _roots(source):
        spans.extend(root.walk())
    return spans


def _json_safe(value: object) -> object:
    """Coerce an attribute value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


# --------------------------------------------------------------------- JSONL
def to_jsonl(source: TraceSource) -> str:
    """Serialize a trace as JSON-lines: one span per line, tree via ids."""
    lines = []
    span_ids: Dict[int, int] = {}
    next_id = 0
    for root in _roots(source):
        for span in root.walk():
            span_ids[id(span)] = next_id
            record = span.to_dict()
            record["attributes"] = _json_safe(record["attributes"])
            record["events"] = _json_safe(record["events"])
            record["id"] = next_id
            record["parent_id"] = (
                span_ids[id(span.parent)] if span.parent is not None else None
            )
            lines.append(json.dumps(record, sort_keys=True))
            next_id += 1
    return "\n".join(lines) + ("\n" if lines else "")


# -------------------------------------------------------------- Chrome trace
def to_chrome_trace(source: TraceSource, pid: int = 1, tid: int = 1) -> Dict[str, object]:
    """Trace in Chrome ``trace_event`` JSON object format.

    Timestamps are microseconds relative to the earliest span start, spans
    become complete events (``"ph": "X"``) and span events become thread-
    scoped instant events (``"ph": "i"``).
    """
    spans = _all_spans(source)
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "repro"},
        }
    ]
    if not spans:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    t0 = min(span.start for span in spans)

    def usec(t: float) -> float:
        return (t - t0) * 1e6

    for span in spans:
        args: Dict[str, object] = dict(_json_safe(span.attributes))
        if span.launches:
            args["launches"] = dict(span.launches)
            args["total_launches"] = span.total_launches
        if span.calls:
            args["total_calls"] = span.total_calls
        if span.flops:
            args["flops"] = span.flops
        if span.bytes:
            args["bytes"] = span.bytes
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": usec(span.start),
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for event in span.events:
            events.append(
                {
                    "name": event.name,
                    "cat": span.category or "span",
                    "ph": "i",
                    "s": "t",
                    "ts": usec(event.timestamp),
                    "pid": pid,
                    "tid": tid,
                    "args": dict(_json_safe(event.attributes)),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_chrome_trace(source: TraceSource, path: str, **kwargs: int) -> str:
    """Write :func:`to_chrome_trace` output to ``path``; returns the path."""
    trace = to_chrome_trace(source, **kwargs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return path


# ------------------------------------------------------------- console tree
def _format_span(span: Span, root_duration: float) -> str:
    ms = span.duration * 1e3
    pct = 100.0 * span.duration / root_duration if root_duration > 0 else 0.0
    parts = [f"{ms:9.2f} ms", f"{pct:5.1f}%"]
    if span.launches:
        parts.append(f"launches={span.total_launches}")
    if span.flops:
        parts.append(f"flops={span.flops:.3g}" if span.flops >= 1e6
                     else f"flops={span.flops}")
    if span.bytes:
        parts.append(f"bytes={span.bytes}")
    if span.events:
        parts.append(f"events={len(span.events)}")
    return "  ".join(parts)


def console_tree(source: TraceSource, min_duration: float = 0.0) -> str:
    """Indented text rendering of the span forest.

    Spans shorter than ``min_duration`` seconds are folded away (their time
    still shows in the parent).
    """
    lines: List[str] = []

    def render(span: Span, depth: int, root_duration: float) -> None:
        indent = "  " * depth
        label = f"{indent}{span.name}"
        lines.append(f"{label:<48}{_format_span(span, root_duration)}")
        for child in span.children:
            if child.duration >= min_duration:
                render(child, depth + 1, root_duration)

    for root in _roots(source):
        render(root, 0, root.duration)
    return "\n".join(lines)
