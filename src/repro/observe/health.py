"""Numerical-health probes: is the compressed operator still *right*?

The tracer answers "where did the time go"; this module answers the question
that actually sinks deployments — whether the hierarchical approximation and
the solves on top of it are numerically healthy.  Three kinds of signals:

* :func:`estimate_compression_error` — a cheap stochastic relative-error
  estimate of a constructed or loaded operator against the exact
  kernel: ``k`` Gaussian probe vectors are pushed through the operator and
  through exact kernel rows on a sampled row subset, and the Frobenius-norm
  mismatch is reported relative to the exact block.  Cost is
  ``O(rows * n * k)`` kernel entries plus ``k`` fast applies — independent of
  the compression tolerance and far below one construction.
* :func:`diagnose_convergence` — post-hoc classification of a Krylov residual
  history into stagnation / divergence / preconditioner-ineffectiveness
  events, recorded on :class:`~repro.solvers.krylov.KrylovResult` by the
  solver layer.
* :func:`check_operator_health` — the façade-level wrapper producing a
  :class:`HealthReport` (error estimate, per-level rank summaries,
  compression ratio), the one record of those numbers.

Everything *warns, never raises*: threshold breaches are records of the
``repro.observe.health`` logger, written through :class:`StructuredLogAdapter`
with the enclosing span's identity.  Thresholds live on
:class:`HealthThresholds`, carried by ``ExecutionPolicy(health=...)``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .tracer import NOOP_TRACER

_TINY = 1e-300


@dataclass(frozen=True)
class HealthThresholds:
    """Warning thresholds and probe knobs (carried by ``ExecutionPolicy``).

    Attributes
    ----------
    error_factor:
        The compression-error probe flags when the estimated relative error
        exceeds ``error_factor * tol``.  The sampled-row estimate of the
        *global* relative error is noisy and the construction tolerance is a
        truncation (not approximation) bound, so the default leaves a wide
        safety margin — a healthy construction lands orders of magnitude
        below it.
    probe_rows / probe_vectors / probe_seed:
        Size and seed of the stochastic probe.
    stagnation_window / stagnation_improvement:
        A non-converged solve whose relative residual improved by less than
        ``stagnation_improvement`` (fractionally) over the last
        ``stagnation_window`` iterations is flagged as stagnating.
    divergence_factor:
        Flag when the final residual exceeds ``divergence_factor`` times the
        best residual seen.
    precond_fraction:
        A preconditioned solve that fails to converge within
        ``precond_fraction * n`` iterations flags the preconditioner as
        ineffective (an unpreconditioned Krylov method would need O(n)).
    """

    error_factor: float = 50.0
    probe_rows: int = 64
    probe_vectors: int = 8
    probe_seed: int = 0
    stagnation_window: int = 10
    stagnation_improvement: float = 0.01
    divergence_factor: float = 10.0
    precond_fraction: float = 0.5


@dataclass
class HealthEvent:
    """One detected health condition (warning-grade, never fatal)."""

    kind: str
    message: str
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "message": self.message, **self.attributes}


class StructuredLogAdapter:
    """``key=value`` warnings through :mod:`logging`, carrying span identity.

    All health signals report through one adapter so a deployment can route
    them (or silence them) with a single logger name; :mod:`repro.resilience`
    writes to its own logger (``repro.resilience``), so detection and
    recovery stay two streams.  The log records are the one record of a
    warning: count them with a :class:`logging.Handler`.
    """

    def __init__(self, logger_name: str = "repro.observe.health"):
        self._logger = logging.getLogger(logger_name)

    def warn(self, event: str, span: object = None, **fields: object) -> None:
        parts = [f"event={event}"]
        if span is not None:
            parts.append(f"span={getattr(span, 'name', '?')}")
            parts.append(f"span_id={id(span):#x}")
        for key, value in fields.items():
            if isinstance(value, float):
                value = f"{value:.6g}"
            parts.append(f"{key}={value}")
        self._logger.warning(" ".join(parts))


_ADAPTER = StructuredLogAdapter()


# --------------------------------------------------------- compression probe
def estimate_compression_error(
    operator: object,
    kernel: object,
    rows: int = 64,
    vectors: int = 8,
    seed: int = 0,
) -> float:
    """Stochastic relative-error estimate of ``operator`` vs. ``kernel``.

    Draws ``vectors`` Gaussian probes ``omega``, compares
    ``(A omega)[I]`` against the exact ``K[I, :] omega`` on a random sorted
    row subset ``I`` of size ``rows`` (in the operator's permuted ordering),
    and returns ``||approx - exact||_F / ||exact||_F``.  This estimates the
    row-sampled relative spectral/Frobenius error of the approximation; for a
    healthy construction it sits at or below the truncation tolerance.
    """
    tree = getattr(operator, "tree", None)
    if tree is None:
        raise TypeError(
            f"{type(operator).__name__} carries no cluster tree; the "
            "compression-error probe needs tree.points to evaluate exact "
            "kernel entries"
        )
    points = tree.points  # permuted coordinates
    n = int(operator.shape[0])
    rng = np.random.default_rng(seed)
    m = min(int(rows), n)
    idx = np.sort(rng.choice(n, size=m, replace=False))
    omega = rng.standard_normal((n, max(1, int(vectors))))
    exact = kernel.evaluate(points[idx], points) @ omega
    approx = operator.matmat(omega, permuted=True)[idx]
    denom = float(np.linalg.norm(exact))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(approx - exact)) / denom


def compression_ratio(operator: object) -> float:
    """Dense-equivalent bytes over actual bytes (higher is better)."""
    n = int(operator.shape[0])
    total = int(operator.memory_bytes().get("total", 0))
    if total <= 0:
        return math.inf
    return (n * n * 8.0) / total


def rank_level_summary(operator: object) -> Dict[int, Dict[str, float]]:
    """Per-level rank statistics of a nested-basis operator (``{}`` if n/a)."""
    level_ranks = getattr(operator, "level_ranks", None)
    if level_ranks is None:
        return {}
    out: Dict[int, Dict[str, float]] = {}
    for level, ranks in sorted(level_ranks().items()):
        if not ranks:
            continue
        out[int(level)] = {
            "count": float(len(ranks)),
            "min": float(min(ranks)),
            "mean": float(sum(ranks)) / len(ranks),
            "max": float(max(ranks)),
        }
    return out


@dataclass
class HealthReport:
    """Outcome of :func:`check_operator_health` (stored on results)."""

    source: str  #: ``constructed`` / ``loaded``
    est_relative_error: float
    tol: float
    error_factor: float
    flagged: bool
    compression_ratio: float
    rank_levels: Dict[int, Dict[str, float]] = field(default_factory=dict)
    probe_rows: int = 0
    probe_vectors: int = 0
    probe_seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "est_relative_error": self.est_relative_error,
            "tol": self.tol,
            "error_factor": self.error_factor,
            "flagged": self.flagged,
            "compression_ratio": self.compression_ratio,
            "rank_levels": {str(k): dict(v) for k, v in self.rank_levels.items()},
            "probe": {
                "rows": self.probe_rows,
                "vectors": self.probe_vectors,
                "seed": self.probe_seed,
            },
        }


def check_operator_health(
    operator: object,
    kernel: object,
    tol: float,
    thresholds: Optional[HealthThresholds] = None,
    tracer: object = NOOP_TRACER,
    source: str = "constructed",
) -> HealthReport:
    """Probe one operator and report; warns (never raises) on a breach.

    The returned :class:`HealthReport` carries the error estimate, the
    compression ratio and the per-level rank summaries; an enabled tracer
    gets a ``health.operator_probe`` event, and a flag is a warning record
    of the ``repro.observe.health`` logger.
    """
    thresholds = thresholds if thresholds is not None else HealthThresholds()
    est = estimate_compression_error(
        operator,
        kernel,
        rows=thresholds.probe_rows,
        vectors=thresholds.probe_vectors,
        seed=thresholds.probe_seed,
    )
    bound = thresholds.error_factor * float(tol)
    flagged = est > bound
    ratio = compression_ratio(operator)
    levels = rank_level_summary(operator)

    report = HealthReport(
        source=source,
        est_relative_error=est,
        tol=float(tol),
        error_factor=thresholds.error_factor,
        flagged=flagged,
        compression_ratio=ratio,
        rank_levels=levels,
        probe_rows=thresholds.probe_rows,
        probe_vectors=thresholds.probe_vectors,
        probe_seed=thresholds.probe_seed,
    )
    if getattr(tracer, "enabled", False):
        tracer.event(
            "health.operator_probe",
            source=source,
            est_relative_error=est,
            flagged=flagged,
        )
    if flagged:
        _ADAPTER.warn(
            "compression_error",
            span=getattr(tracer, "current", None),
            source=source,
            est_relative_error=est,
            bound=bound,
            tol=float(tol),
        )
    return report


# ------------------------------------------------------- convergence triage
def diagnose_convergence(
    history: np.ndarray,
    converged: bool,
    thresholds: Optional[HealthThresholds] = None,
    method: str = "",
    n: Optional[int] = None,
    precond_applications: int = 0,
) -> List[HealthEvent]:
    """Classify a relative-residual history into health events.

    At most one event per kind:

    * ``divergence`` — the final residual sits ``divergence_factor`` above
      the best residual reached (the iteration lost ground);
    * ``stagnation`` — not converged and the last ``stagnation_window``
      iterations improved the residual by less than
      ``stagnation_improvement`` (fractionally);
    * ``preconditioner_ineffective`` — a preconditioned solve burned more
      than ``precond_fraction * n`` iterations without converging.
    """
    thresholds = thresholds if thresholds is not None else HealthThresholds()
    h = np.asarray(history, dtype=np.float64)
    events: List[HealthEvent] = []
    if h.size < 2:
        return events
    final = float(h[-1])
    best = float(h.min())
    iterations = int(h.size - 1)

    if final > thresholds.divergence_factor * max(best, _TINY):
        events.append(HealthEvent(
            kind="divergence",
            message=(
                f"{method or 'solve'}: residual ended {final / max(best, _TINY):.3g}x "
                "above its best"
            ),
            attributes={"method": method, "final_residual": final,
                        "best_residual": best, "iterations": iterations},
        ))
    if not converged:
        window = int(thresholds.stagnation_window)
        if iterations >= window and not events:
            reference = float(h[-1 - window])
            improvement = 1.0 - final / max(reference, _TINY)
            if improvement < thresholds.stagnation_improvement:
                events.append(HealthEvent(
                    kind="stagnation",
                    message=(
                        f"{method or 'solve'}: residual improved "
                        f"{improvement:.3g} over the last {window} iterations"
                    ),
                    attributes={"method": method, "window": window,
                                "improvement": improvement,
                                "final_residual": final,
                                "iterations": iterations},
                ))
        if (
            precond_applications > 0
            and n
            and iterations >= thresholds.precond_fraction * n
        ):
            events.append(HealthEvent(
                kind="preconditioner_ineffective",
                message=(
                    f"{method or 'solve'}: preconditioned but unconverged "
                    f"after {iterations} iterations (n={n})"
                ),
                attributes={"method": method, "iterations": iterations,
                            "n": int(n),
                            "precond_applications": int(precond_applications)},
            ))
    return events


def record_solver_health(
    result: object,
    thresholds: Optional[HealthThresholds],
    tracer: object = NOOP_TRACER,
) -> List[HealthEvent]:
    """Diagnose a :class:`~repro.solvers.krylov.KrylovResult` in place.

    Runs :func:`diagnose_convergence` on the residual history, stores the
    events under ``result.extra["health_events"]`` (as plain dicts), mirrors
    them as tracer events and structured-log warnings, and returns them.
    A ``thresholds`` of ``None`` disables the diagnosis entirely.
    """
    if thresholds is None:
        return []
    events = diagnose_convergence(
        result.residual_norms,
        converged=result.converged,
        thresholds=thresholds,
        method=result.method,
        n=int(result.x.shape[0]),
        precond_applications=result.preconditioner_applications,
    )
    if not events:
        return events
    result.extra["health_events"] = [event.to_dict() for event in events]
    enabled = getattr(tracer, "enabled", False)
    for event in events:
        if enabled:
            tracer.event(f"health.{event.kind}", **event.attributes)
        _ADAPTER.warn(event.kind,
                      span=getattr(tracer, "current", None),
                      **event.attributes)
    return events
