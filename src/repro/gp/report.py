"""Per-sweep-point Gaussian-process fit reports.

Every hyperparameter point a :class:`~repro.gp.regression.GaussianProcess`
evaluates produces one :class:`GPFitReport` tying the statistical quantities
(log-likelihood split into its determinant and quadratic terms) to the
systems-level costs that produced them: construction samples and launches,
the launches of the solve stage (the factorization's direct solve) and
per-phase wall time.
:func:`gp_sweep_table` renders a sweep's reports in the same tabular format as
the paper-figure benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..utils.tables import format_table


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

    @property
    def total_seconds(self) -> float:
        return (
            self.construction_seconds
            + self.factorization_seconds
            + self.solve_seconds
        )


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
        + ["noise", "log-lik", "logdet", "samples", "launches", "result reused", "s"]
    )
    rows = []
    for r in reports:
        rows.append(
            [r.params.get(name, "") for name in param_names]
            + [
                r.noise,
                r.log_marginal_likelihood,
                r.log_determinant,
                r.construction_samples,
                r.construction_launches + r.apply_launches,
                "yes" if r.result_reused else "no",
                r.total_seconds,
            ]
        )
    return format_table(headers, rows, title=title)
