"""Solver escalation ladder: CG → preconditioned CG → GMRES(m) → direct.

A single Krylov method with a fixed iteration budget either converges or it
does not; the ladder turns "does not" into a *policy-driven escalation*
instead of a silent ``converged=False``.  Each rung runs inside its own
``resilience/ladder:<rung>`` span, increments the ``resilience.escalations``
counter when it is entered as an escalation, and warm-starts from the best
iterate of the rungs before it:

``cg``
    Plain conjugate gradients — the cheap path that succeeds for
    well-conditioned systems.
``pcg``
    CG preconditioned by a (lazily built) factorization of the system
    operator (:func:`~repro.solvers.hss_factor.factorize`).
``gmres``
    Restarted GMRES(m) — drops the SPD assumption CG relies on, with the
    same preconditioner when one exists.
``direct``
    The factorization applied as a *direct* solve, polished by a few
    preconditioned CG steps; its residual is verified explicitly, so even
    the last rung cannot return an unverified answer.

The rung order and budgets come from
:class:`~repro.resilience.RecoveryPolicy` (``ladder``, ``rung_maxiter``,
``gmres_restart``); rungs whose ingredients are unavailable (no factorization
obtainable for ``pcg``/``direct``) are skipped, not failed.  When every rung
is exhausted the ladder raises
:class:`~repro.resilience.EscalationExhaustedError` carrying the best result
(in ``warn`` mode it warns and returns the flagged best result instead) —
never a silent wrong answer.

:func:`guarded_solve` is how every product Krylov solve enters the ladder:
one solve under an :class:`~repro.api.policy.ExecutionPolicy`, whose
recovery mode maps a non-converged result onto raise / warn / the remaining
rungs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..observe.metrics import metrics as _metrics
from ..observe.tracer import NOOP_TRACER
from ..resilience.errors import EscalationExhaustedError, SolveDidNotConvergeError
from ..resilience.policy import RecoveryPolicy, resilience_adapter
from .krylov import KrylovResult, bicgstab, cg, gmres

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.policy import ExecutionPolicy

#: Rung names the ladder understands (the default order lives in
#: :data:`repro.resilience.DEFAULT_LADDER`).
RUNGS = ("cg", "pcg", "gmres", "direct")


@dataclass
class RungReport:
    """Outcome of one rung of the ladder."""

    rung: str
    converged: bool
    iterations: int
    final_residual: float
    elapsed_seconds: float
    skipped: bool = False
    reason: str = ""

    def summary(self) -> Dict[str, object]:
        return {
            "rung": self.rung,
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "time_s": self.elapsed_seconds,
            **({"skipped": True, "reason": self.reason} if self.skipped else {}),
        }


def _factorization_for(
    a: object, shift: float, tracer: object
) -> Optional[object]:
    """:func:`~repro.solvers.hss_factor.factorize` of ``a + shift I``, or
    ``None`` when ``a`` is not a format that has a factorization.

    Anything but an :class:`~repro.hmatrix.h2matrix.H2Matrix` (dense arrays,
    black-box operators, the comparator formats of :mod:`repro.baselines`)
    returns ``None`` — the factorization rungs are then skipped.  An error
    raised *while* factoring an H2/HSS matrix is a defect, not a missing
    ingredient: it propagates.
    """
    from ..hmatrix.h2matrix import H2Matrix
    from .hss_factor import factorize

    if not isinstance(a, H2Matrix):
        return None
    return factorize(a, shift=shift, tracer=tracer)


def _residual(op, b: np.ndarray, x: np.ndarray, b_norm: float) -> float:
    return float(np.linalg.norm(b - op.matvec(x))) / b_norm


def escalation_ladder(
    a: object,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    shift: float = 0.0,
    maxiter: Optional[int] = None,
    factorization: Optional[object] = None,
    recovery: Optional[RecoveryPolicy] = None,
    rungs: Optional[Sequence[str]] = None,
    x0: Optional[np.ndarray] = None,
    tracer: object = None,
    faults: object = None,
    health: object = None,
) -> KrylovResult:
    """Solve ``(a + shift I) x = b``, escalating through the solver ladder.

    Parameters
    ----------
    a:
        The system operator *without* the shift — anything
        :func:`~repro.hmatrix.linear_operator.as_linear_operator` accepts.
        Passing the raw (hierarchical) operator lets the ladder build the
        factorization of its ``pcg``/``direct`` rungs lazily.
    tol:
        Relative residual target shared by every rung.
    maxiter:
        Per-rung iteration budget override
        (default: ``RecoveryPolicy.rung_maxiter``).
    factorization:
        An existing factorization of ``a + shift I`` (e.g. from
        ``Session.factor`` or :func:`~repro.solvers.hss_factor.factorize`); when omitted the
        ladder builds one on first use and reuses it across rungs.
    recovery:
        The :class:`~repro.resilience.RecoveryPolicy` supplying the rung
        order, budgets and the exhaustion behaviour (default:
        ``RecoveryPolicy()``, i.e. ``recover`` mode).
    rungs:
        Explicit rung subset/order (default: ``recovery.ladder``) — used by
        :func:`guarded_solve` to resume the ladder *after* the rung that
        already failed.
    x0:
        Warm-start iterate (later rungs always warm-start from the best
        iterate so far).
    faults:
        A :class:`~repro.resilience.FaultInjector`; ``stall-convergence``
        caps the first fired rung's ``maxiter`` so escalation is exercised
        deterministically.

    Returns
    -------
    KrylovResult
        The converged result, with ``extra["escalation"]`` recording every
        rung (:class:`RungReport` summaries) and the rung that converged.

    Raises
    ------
    EscalationExhaustedError
        When no rung reaches ``tol`` (except in ``warn`` mode, which warns
        and returns the best — explicitly flagged — result).
    """
    from ..hmatrix.linear_operator import as_linear_operator

    recovery = recovery if recovery is not None else RecoveryPolicy()
    tracer = tracer if tracer is not None else NOOP_TRACER
    order = tuple(rungs) if rungs is not None else recovery.ladder
    unknown = [r for r in order if r not in RUNGS]
    if unknown:
        raise ValueError(f"unknown ladder rungs {unknown}; available: {list(RUNGS)}")

    op = as_linear_operator(a, shift=shift, n=np.asarray(b).shape[0])
    b_arr = np.asarray(b, dtype=np.float64).reshape(-1)
    b_norm = float(np.linalg.norm(b_arr))
    budget = int(maxiter) if maxiter is not None else recovery.rung_maxiter

    reports: List[RungReport] = []
    best: Optional[KrylovResult] = None
    factor = factorization
    factor_missing = False  # tried and failed: don't retry per rung
    start = time.perf_counter()
    escalations = 0

    def ensure_factorization() -> Optional[object]:
        nonlocal factor, factor_missing
        if factor is None and not factor_missing:
            factor = _factorization_for(a, shift, tracer)
            factor_missing = factor is None
        return factor

    for position, rung in enumerate(order):
        m = ensure_factorization() if rung in ("pcg", "gmres", "direct") else None
        if rung in ("pcg", "direct") and m is None:
            reports.append(RungReport(
                rung, False, 0, np.inf, 0.0, skipped=True,
                reason="no factorization obtainable",
            ))
            continue
        rung_budget = budget
        if faults is not None:
            rung_budget = faults.stall_maxiter(rung_budget)
        guess = best.x if best is not None else x0
        if best is not None:
            # Entering a further rung after an attempted one IS an escalation
            # (skipped rungs — no factorization — do not count).
            escalations += 1
            _metrics().counter("resilience.escalations").inc()
        elapsed = time.perf_counter()
        with tracer.span(
            f"resilience/ladder:{rung}", category="resilience",
            rung=rung, position=position, maxiter=rung_budget,
        ) as span:
            if rung == "cg":
                result = cg(op, b_arr, tol=tol, maxiter=rung_budget, x0=guess,
                            tracer=tracer, health=health)
            elif rung == "pcg":
                result = cg(op, b_arr, tol=tol, maxiter=rung_budget, M=m,
                            x0=guess, tracer=tracer, health=health)
                result.method = "pcg"
            elif rung == "gmres":
                result = gmres(op, b_arr, tol=tol, maxiter=rung_budget,
                               restart=recovery.gmres_restart, M=m, x0=guess,
                               tracer=tracer, health=health)
            else:  # direct
                t0 = time.perf_counter()
                x = np.asarray(m.solve(b_arr), dtype=np.float64).reshape(-1)
                rel = _residual(op, b_arr, x, b_norm) if b_norm else 0.0
                if rel > tol:
                    # The factorization approximates the operator at its own
                    # (construction) accuracy; polish with preconditioned CG.
                    polish = cg(op, b_arr, tol=tol, maxiter=rung_budget, M=m,
                                x0=x, tracer=tracer, health=health)
                    result = polish
                    result.method = "direct+pcg"
                else:
                    result = KrylovResult(
                        x=x, converged=True, iterations=0,
                        residual_norms=np.asarray([rel]), method="direct",
                        matvecs=1, preconditioner_applications=1,
                        elapsed_seconds=time.perf_counter() - t0,
                    )
            span.set(converged=result.converged,
                     final_residual=result.final_residual)
        reports.append(RungReport(
            rung, result.converged, result.iterations,
            result.final_residual, time.perf_counter() - elapsed,
        ))
        if best is None or result.final_residual < best.final_residual:
            best = result
        if result.converged:
            break

    attempted = [r for r in reports if not r.skipped]
    escalation: Dict[str, object] = {
        "rungs": [r.summary() for r in reports],
        "escalations": escalations,
        "converged_rung": reports[-1].rung if best is not None and best.converged else None,
    }
    if best is None:
        raise EscalationExhaustedError(
            f"every ladder rung of {list(order)} was skipped "
            "(no factorization obtainable and no Krylov rung configured)",
            context=escalation,
        )
    best.extra["escalation"] = escalation
    best.elapsed_seconds = time.perf_counter() - start
    if best.converged:
        return best
    message = (
        f"escalation ladder exhausted after {len(attempted)} rungs "
        f"({[r.rung for r in attempted]}); best residual "
        f"{best.final_residual:.3e} > tol {tol:.3e}"
    )
    if recovery.mode == "warn":
        resilience_adapter().warn(
            "escalation-exhausted", final_residual=best.final_residual,
            tol=tol, rungs=str([r.rung for r in attempted]),
        )
        return best
    raise EscalationExhaustedError(message, result=best, context=escalation)


def guarded_solve(
    a: object, b: np.ndarray, *, method: str = "cg", tol: float,
    maxiter: Optional[int] = None, shift: float = 0.0,
    factorization: Optional[object] = None, x0: Optional[np.ndarray] = None,
    policy: "ExecutionPolicy", log_fields: Optional[Dict[str, object]] = None,
) -> KrylovResult:
    """One Krylov solve of ``(a + shift I) x = b`` under an execution policy.

    The one place a policy meets a product Krylov solve: the policy's
    ``stall-convergence`` fault caps ``maxiter``, then ``method`` (``"cg"``,
    ``"gmres"``, ``"bicgstab"``) runs preconditioned by ``factorization``
    with the policy's tracer and health thresholds.  A non-converged result
    under a recovery policy raises :class:`SolveDidNotConvergeError`
    (``strict``), is warned about and returned flagged (``warn``; the event is
    ``log_fields["event"]``, default ``solve-not-converged``, the other
    entries are extra fields), or escalates through the ladder rungs the
    solve did not cover (``recover``), with ``extra["escalated_from"]`` set.
    """
    from ..hmatrix.linear_operator import as_linear_operator

    solvers = {"cg": cg, "gmres": gmres, "bicgstab": bicgstab}
    if method not in solvers:
        raise ValueError(f"unknown method {method!r}; available: {sorted(solvers)}")
    if policy.faults is not None:
        maxiter = policy.faults.stall_maxiter(maxiter)
    result = solvers[method](
        as_linear_operator(a, shift=shift), b, tol=tol, maxiter=maxiter,
        M=factorization, x0=x0, tracer=policy.tracer, health=policy.health,
    )
    recovery = policy.recovery
    if result.converged or recovery is None:
        return result
    if recovery.mode == "strict":
        raise SolveDidNotConvergeError(
            f"{result.method} did not converge in {result.iterations} "
            f"iterations (final residual {result.final_residual:.3e} > "
            f"tol {tol:.3e})",
            result=result,
        )
    if recovery.mode == "warn":
        fields = dict(log_fields or {})
        resilience_adapter().warn(
            fields.pop("event", "solve-not-converged"), method=result.method,
            iterations=result.iterations, final_residual=result.final_residual,
            tol=tol, **fields,
        )
        return result
    done = {"cg", "pcg"} if factorization is not None else {"cg"}
    if method == "gmres":
        done.add("gmres")
    rungs = tuple(r for r in recovery.ladder if r not in done)
    if not rungs:
        raise SolveDidNotConvergeError(
            f"{result.method} did not converge and the recovery ladder "
            f"has no further rungs (ladder={list(recovery.ladder)})",
            result=result,
        )
    escalated = escalation_ladder(
        a, b, tol=tol, shift=shift, factorization=factorization,
        recovery=recovery, rungs=rungs, x0=result.x, tracer=policy.tracer,
        health=policy.health,
    )
    escalated.extra["escalated_from"] = result.method
    return escalated
