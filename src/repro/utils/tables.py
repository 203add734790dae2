"""Plain-text tables for the benchmark scripts and examples.

The benchmark scripts print the same rows/series the paper reports (Fig. 5-7,
Table II); :func:`format_table` / :func:`format_series` keep that output
consistent and dependency-free.  :func:`convergence_table` and
:func:`residual_series` render :class:`~repro.solvers.krylov.KrylovResult`
objects: one row per solve from its :meth:`~repro.solvers.krylov.KrylovResult.summary`,
and the residual histories as an iteration-indexed series.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.4g}",
) -> str:
    """Render a fixed-width text table."""

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    series: Mapping[str, Mapping[object, object]],
    title: str | None = None,
    float_format: str = "{:.4g}",
) -> str:
    """Render several series sharing an x-axis as one table.

    ``series`` maps a series name to a mapping of x value -> y value; missing
    points are rendered as ``-`` (e.g. a baseline that ran out of memory, as
    H2Opus does for N > 65536 in the paper).
    """
    xs = sorted({x for values in series.values() for x in values})
    headers = [x_label] + list(series)
    rows = []
    for x in xs:
        row: list[object] = [x]
        for name in series:
            value = series[name].get(x)
            row.append("-" if value is None else value)
        rows.append(row)
    return format_table(headers, rows, title=title, float_format=float_format)


def convergence_table(
    results: Mapping[str, object] | Sequence[object],
    title: str | None = "solver convergence",
) -> str:
    """One summary row per Krylov solve: iterations, matvecs, residual, time.

    ``results`` maps a label to a ``KrylovResult``, or is a sequence of
    results (labelled by their method; a repeated method gets ``#i``).
    """
    if not isinstance(results, Mapping):
        labelled = {}
        for i, r in enumerate(results):
            labelled[r.method if r.method not in labelled else f"{r.method} #{i}"] = r
        results = labelled
    rows = []
    for label, r in results.items():
        s = r.summary()
        rows.append(
            [label, s["method"], s["iterations"], s["matvecs"], s["precond_applies"],
             s["final_residual"], "yes" if s["converged"] else "NO", s["time_s"]]
        )
    return format_table(
        ["label", "method", "iters", "matvecs", "M applies", "rel resid", "conv", "time s"],
        rows,
        title=title,
        float_format="{:.3g}",
    )


def residual_series(
    results: Mapping[str, object],
    every: int = 1,
    title: str | None = "relative residual per iteration",
) -> str:
    """The residual histories of several runs as one iteration-indexed table.

    ``every`` thins long histories (every ``k``-th iteration is printed; the
    first and last iterations are always kept).
    """
    every = max(1, int(every))
    series = {}
    for label, r in results.items():
        history = np.asarray(r.residual_norms, dtype=np.float64)
        if history.size == 0:
            continue
        keep = {0, history.size - 1} | set(range(0, history.size, every))
        series[label] = {int(i): float(history[i]) for i in sorted(keep)}
    return format_series("iteration", series, title=title, float_format="{:.3e}")
