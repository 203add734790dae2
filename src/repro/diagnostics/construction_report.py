"""Launch-count and throughput reporting for the compiled construction sweep.

:func:`~repro.diagnostics.apply_report.apply_report` instruments the *apply*
side of the batched engine; this module does the same for the *construction*
sweep (:mod:`repro.batched.construction_plan`): how many batched launches one
full construction costs, how the schedule splits between the per-shape-group
entry-generation launches and the O(levels) sweep launches, and what point
throughput the backend achieves.  Everything is derived from the statistics a
:class:`~repro.core.builder.ConstructionResult` already carries, so a report
can be built for any result, including one produced by a test-suite
reference sweep, and two reports compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.builder import ConstructionResult

#: Counter operations that belong to the entry generator (one launch per
#: shape group of requested blocks) rather than to the sweep schedule.
GENERATION_OPS = ("batched_gen",)


@dataclass
class ConstructionReport:
    """One construction × backend × path launch/throughput measurement."""

    n: int
    backend: str
    #: ``ConstructionResult.construction_path``: ``"packed"`` (compiled
    #: level-wise sweep) or ``"cache"`` (artifact hit).
    path: str
    levels: int
    #: Total adaptive sampling rounds summed over the levels of the sweep.
    sampling_rounds: int
    elapsed_seconds: float
    #: Launches grouped by operation, e.g. ``{"construct_upsweep": 5, ...}``.
    launches_by_operation: Dict[str, int]
    #: Entry-generation launches (one per shape group of requested blocks).
    generation_launches: int
    #: All remaining launches — the sweep schedule proper: O(levels) per
    #: convergence round (``ConstructionPlan.launch_schedule``).
    sweep_launches: int
    total_samples: int

    @property
    def points_per_second(self) -> float:
        return self.n / max(self.elapsed_seconds, 1e-12)

    @property
    def sweep_launches_per_round(self) -> float:
        return self.sweep_launches / max(self.sampling_rounds, 1)

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "backend": self.backend,
            "path": self.path,
            "levels": self.levels,
            "sampling_rounds": self.sampling_rounds,
            "elapsed_seconds": self.elapsed_seconds,
            "points_per_second": self.points_per_second,
            "launches_by_operation": dict(self.launches_by_operation),
            "generation_launches": self.generation_launches,
            "sweep_launches": self.sweep_launches,
            "sweep_launches_per_round": self.sweep_launches_per_round,
            "total_samples": self.total_samples,
        }


def construction_report(result: "ConstructionResult") -> ConstructionReport:
    """Summarise one :class:`~repro.core.builder.ConstructionResult`.

    Splits the recorded launches into entry generation (inherently one launch
    per distinct block shape) and the sweep schedule (the part the compiled
    path collapses to O(levels) per convergence round), and attaches the
    wall-clock time for throughput tables (the per-phase split is
    :meth:`PhaseBreakdown.from_span <repro.diagnostics.PhaseBreakdown.from_span>`
    of a traced construction).
    """
    launches = dict(result.kernel_launches)
    generation = sum(launches.get(op, 0) for op in GENERATION_OPS)
    backend = result.config.backend
    return ConstructionReport(
        n=result.matrix.num_rows,
        backend=getattr(backend, "name", backend),
        path=result.construction_path,
        levels=result.matrix.tree.num_levels,
        sampling_rounds=sum(level.sampling_rounds for level in result.levels),
        elapsed_seconds=result.elapsed_seconds,
        launches_by_operation=launches,
        generation_launches=generation,
        sweep_launches=result.total_kernel_launches - generation,
        total_samples=result.total_samples,
    )
