"""Launch-count and throughput reporting for the batched H2 apply engine.

The construction benchmarks already count batched dispatches (Section IV-B's
O(log N) launch argument); this module extends the instrumentation to the
*apply* side: how many batched launches one matvec/matmat costs, how that
compares to the per-node block count, and what effective throughput the
compiled plan achieves on a given backend.

An :class:`ApplyReport` is built in one place, :meth:`ApplyReport.from_span`,
from one traced ``apply`` span (recorded whenever a compiled apply executes
under an enabled :class:`repro.observe.SpanTracer`); :func:`apply_report`
runs its timed applies under a private tracer and reports the fastest span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

import numpy as np

from ..batched.backend import get_backend
from ..batched.counters import KernelLaunchCounter
from ..observe.metrics import MetricsRegistry
from ..observe.tracer import SpanTracer
from ..observe.views import find_spans

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hmatrix.h2matrix import H2Matrix


@dataclass
class ApplyReport:
    """One matrix × backend × RHS-width measurement of the compiled apply."""

    n: int
    k: int
    backend: str
    levels: int
    #: Batched dispatches issued per apply (== plan stages on both backends).
    launches_per_apply: int
    #: Per-node block GEMMs the stages fuse (what the per-node loop would run).
    block_products: int
    #: Launches grouped by phase, e.g. ``{"apply_coupling": 7, ...}``.
    launches_by_phase: Dict[str, int]
    seconds_per_apply: float
    #: Executed multiply-add flops per apply (zero-padding included).
    flops_per_apply: int
    #: Bytes of pre-stacked static operands read per apply.
    operand_bytes: int

    @property
    def gflops(self) -> float:
        return self.flops_per_apply / max(self.seconds_per_apply, 1e-12) / 1e9

    @property
    def bandwidth_gb_s(self) -> float:
        return self.operand_bytes / max(self.seconds_per_apply, 1e-12) / 2**30

    @classmethod
    def from_span(cls, span) -> "ApplyReport":
        """Rebuild the report from one traced ``apply`` span.

        The compiled :meth:`H2ApplyPlan.execute <repro.batched.apply_plan.H2ApplyPlan.execute>`
        stamps its span with the plan geometry (``n``, ``k``, ``backend``,
        ``levels``, ``block_products``, ``operand_bytes``) and attributes the
        batched-primitive calls and flops it issued, so a single traced apply
        carries everything a report needs — no dedicated re-measurement.
        """
        attrs = span.attributes
        return cls(
            n=int(attrs.get("n", 0)),
            k=int(attrs.get("k", 1)),
            backend=str(attrs.get("backend", "?")),
            levels=int(attrs.get("levels", 0)),
            launches_per_apply=span.total_calls,
            block_products=int(attrs.get("block_products", 0)),
            launches_by_phase=dict(span.calls),
            seconds_per_apply=span.duration,
            flops_per_apply=int(span.flops),
            operand_bytes=int(attrs.get("operand_bytes", 0)),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "k": self.k,
            "backend": self.backend,
            "levels": self.levels,
            "launches_per_apply": self.launches_per_apply,
            "block_products": self.block_products,
            "launches_by_phase": dict(self.launches_by_phase),
            "seconds_per_apply": self.seconds_per_apply,
            "gflops": self.gflops,
            "bandwidth_gb_s": self.bandwidth_gb_s,
        }


def apply_report(
    matrix: "H2Matrix",
    backend: str = "vectorized",
    k: int = 1,
    repeats: int = 3,
    seed: int = 0,
) -> ApplyReport:
    """Measure one backend's batched apply of ``matrix`` with ``k`` RHS columns.

    Runs a warm-up apply (which compiles the plan on first use) and
    ``repeats`` timed applies on a fresh backend under a private
    :class:`~repro.observe.SpanTracer`, and returns
    :meth:`ApplyReport.from_span` of the fastest ``apply`` span: the
    per-apply launch counts (exactly the plan's stage count — O(levels),
    independent of the number of tree nodes), flops, operand bytes and
    wall-clock throughput.
    """
    be = get_backend(backend, counter=KernelLaunchCounter())
    tracer = SpanTracer(counter=be.counter, metrics=MetricsRegistry())
    be.tracer = tracer
    x = np.random.default_rng(seed).standard_normal((matrix.num_rows, k))
    matrix.matvec(x, backend=be)  # warm-up (also compiles on first use)
    tracer.reset()
    for _ in range(max(1, repeats)):
        matrix.matvec(x, backend=be)
    fastest = min(find_spans(tracer, name="apply"), key=lambda span: span.duration)
    return ApplyReport.from_span(fastest)
