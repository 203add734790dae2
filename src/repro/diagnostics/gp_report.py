"""Per-sweep-point Gaussian-process fit diagnostics.

Every hyperparameter point a :class:`~repro.gp.regression.GaussianProcess`
evaluates produces one :class:`GPFitReport` tying the statistical quantities
(log-likelihood split into its determinant and quadratic terms) to the
systems-level costs that produced them: construction samples and launches,
solver iterations, the launches of the solve stage (compiled applies plus
factorization solves) and per-phase wall time.
:func:`gp_sweep_table` renders a sweep's reports in the same tabular format as
the paper-figure benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .reporting import format_table


@dataclass
class GPFitReport:
    """Statistics of one Gaussian-process likelihood evaluation."""

    n: int
    kernel: str
    params: Dict[str, float]
    noise: float
    log_marginal_likelihood: float
    log_determinant: float
    quadratic_term: float
    cg_iterations: int
    cg_converged: bool
    construction_samples: int
    rank_range: Tuple[int, int]
    construction_launches: int
    apply_launches: int
    #: The context's result cache served the construction (a repeated
    #: ``(kernel, tolerance)`` point, e.g. a noise-only sweep).
    result_reused: bool
    construction_seconds: float
    factorization_seconds: float
    solve_seconds: float
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return (
            self.construction_seconds
            + self.factorization_seconds
            + self.solve_seconds
        )

    def summary(self) -> Dict[str, object]:
        lo, hi = self.rank_range
        return {
            "n": self.n,
            "kernel": self.kernel,
            **{k: float(v) for k, v in self.params.items()},
            "noise": self.noise,
            "log_likelihood": self.log_marginal_likelihood,
            "logdet": self.log_determinant,
            "cg_iters": self.cg_iterations,
            "samples": self.construction_samples,
            "rank_range": f"{lo}-{hi}",
            "launches": self.construction_launches + self.apply_launches,
            "result_reused": self.result_reused,
            "time_s": self.total_seconds,
        }


def gp_sweep_table(
    reports: Sequence[GPFitReport], title: str = "GP hyperparameter sweep"
) -> str:
    """Human-readable table of a sweep's per-point fit reports."""
    param_names: List[str] = []
    for report in reports:
        for name in report.params:
            if name not in param_names:
                param_names.append(name)
    headers = (
        param_names
        + ["noise", "log-lik", "logdet", "CG its", "samples", "launches", "result reused", "s"]
    )
    rows = []
    for r in reports:
        rows.append(
            [r.params.get(name, "") for name in param_names]
            + [
                r.noise,
                r.log_marginal_likelihood,
                r.log_determinant,
                r.cg_iterations,
                r.construction_samples,
                r.construction_launches + r.apply_launches,
                "yes" if r.result_reused else "no",
                r.total_seconds,
            ]
        )
    return format_table(headers, rows, title=title)
