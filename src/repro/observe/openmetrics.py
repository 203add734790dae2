"""OpenMetrics / Prometheus text exposition of a metrics registry.

Renders a :class:`~repro.observe.metrics.MetricsRegistry` to the OpenMetrics
text format (the strict superset of the Prometheus exposition format), so a
scraper — the ``/metrics`` endpoint of :mod:`repro.serve` renders its
server's own registry through it — consumes the telemetry without any new
dependency:

* :class:`~repro.observe.metrics.Counter` → ``counter`` family, sample name
  suffixed ``_total``;
* :class:`~repro.observe.metrics.Gauge` → ``gauge`` family;
* :class:`~repro.observe.metrics.Histogram` → ``summary`` family with
  ``quantile`` labels (p50/p95/p99) plus ``_count`` / ``_sum`` samples.

Dotted repro metric names (``persist.cache.hits``) are sanitized to the
``[a-zA-Z_:][a-zA-Z0-9_:]*`` metric-name alphabet and prefixed ``repro_``.
The exposition ends with the mandatory ``# EOF`` terminator.
"""

from __future__ import annotations

import math
import re

from .metrics import MetricsRegistry

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")

#: Quantiles exposed per histogram (matching the p50/p95/p99 summaries).
QUANTILES = ((0.5, 50.0), (0.95, 95.0), (0.99, 99.0))


def sanitize_metric_name(name: str, prefix: str = "repro_") -> str:
    """Map a dotted repro metric name onto the OpenMetrics name alphabet."""
    candidate = prefix + _NAME_BAD.sub("_", name)
    if not _NAME_OK.match(candidate):  # e.g. empty name after the prefix
        candidate = prefix + "metric"
    return candidate


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_openmetrics(registry: MetricsRegistry) -> str:
    """The registry as OpenMetrics text (ending in ``# EOF``).

    Each histogram's quantiles come from one sorted copy of its reservoir;
    an empty histogram renders the honest ``NaN`` quantiles.

    >>> from repro.observe import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> registry.counter("serve.requests").inc(3)
    >>> registry.histogram("serve.matvec.latency_ms").observe(2.5)
    >>> print(render_openmetrics(registry), end="")
    # HELP repro_serve_requests repro counter serve.requests
    # TYPE repro_serve_requests counter
    repro_serve_requests_total 3
    # HELP repro_serve_matvec_latency_ms repro histogram serve.matvec.latency_ms
    # TYPE repro_serve_matvec_latency_ms summary
    repro_serve_matvec_latency_ms{quantile="0.5"} 2.5
    repro_serve_matvec_latency_ms{quantile="0.95"} 2.5
    repro_serve_matvec_latency_ms{quantile="0.99"} 2.5
    repro_serve_matvec_latency_ms_count 1
    repro_serve_matvec_latency_ms_sum 2.5
    # EOF
    """
    counters, gauges, histograms = registry.instruments()
    lines = []

    for counter in counters:
        metric = sanitize_metric_name(counter.name)
        lines.append(f"# HELP {metric} repro counter {counter.name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(counter.value)}")

    for gauge in gauges:
        metric = sanitize_metric_name(gauge.name)
        lines.append(f"# HELP {metric} repro gauge {gauge.name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge.value)}")

    for hist in histograms:
        metric = sanitize_metric_name(hist.name)
        lines.append(f"# HELP {metric} repro histogram {hist.name}")
        lines.append(f"# TYPE {metric} summary")
        values = hist.percentiles([percentile for _, percentile in QUANTILES])
        for (quantile, _), value in zip(QUANTILES, values):
            lines.append(f'{metric}{{quantile="{quantile}"}} {_format_value(value)}')
        lines.append(f"{metric}_count {_format_value(hist.count)}")
        lines.append(f"{metric}_sum {_format_value(hist.sum)}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"
