"""One policy-guarded solve: CG → preconditioned CG → GMRES(m) → direct.

A single Krylov method with a fixed iteration budget either converges or it
does not; :func:`guarded_solve` turns "does not" into the policy's answer
instead of a silent ``converged=False``.  Every product Krylov solve
(``Session.solve``, the server's ``method="cg"`` and the polish of a direct
solve) runs through it.  Under a ``recover`` policy the solve escalates
through the rungs of one fixed order that its first attempt did not cover:

``cg``
    Plain conjugate gradients — the cheap path that succeeds for
    well-conditioned systems.
``pcg``
    CG preconditioned by a factorization of the system operator
    (:func:`~repro.solvers.hss_factor.factorize`, built once when the
    caller did not pass one).
``gmres``
    Restarted GMRES(m) — drops the SPD assumption CG relies on, with the
    same preconditioner.
``direct``
    :func:`direct_solve` (the GP's and the server's direct solve too), its
    true residual measured: even the last rung returns no unchecked answer.

Each escalation rung runs inside its own ``resilience/ladder:<rung>`` span,
recorded to the tracer the operator is bound to, with ``RecoveryPolicy.rung_maxiter`` iterations, adds one rung to the
result's ``extra["escalation"]`` record and warm-starts from the best iterate
so far.  When every rung is used up the solve raises
:class:`~repro.resilience.EscalationExhaustedError` carrying the best result
— never a silent wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from ..hmatrix.linear_operator import as_linear_operator
from ..resilience.errors import EscalationExhaustedError, SolveDidNotConvergeError
from ..resilience.policy import resilience_adapter
from .krylov import KrylovResult, cg, gmres

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.policy import ExecutionPolicy
    from .hss_factor import HSSFactorization

#: The relative residual a direct solve is polished to when its caller names
#: no tolerance: the GP's solves and a served ``predict``.
DIRECT_TOL = 1e-10


def _rung_record(rung: str, result: KrylovResult, seconds: float) -> Dict[str, object]:
    return {
        "rung": rung,
        "converged": result.converged,
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "time_s": seconds,
    }


def guarded_solve(
    a: object, b: np.ndarray, *, method: str = "cg", tol: float,
    maxiter: Optional[int] = None, shift: float = 0.0,
    factorization: Optional[object] = None, x0: Optional[np.ndarray] = None,
    policy: "ExecutionPolicy", log_fields: Optional[Dict[str, object]] = None,
) -> KrylovResult:
    """Solve ``(a + shift I) x = b`` for an H2 matrix ``a`` under a policy.

    The policy's ``stall-convergence`` fault caps ``maxiter`` of the first
    solve, then ``method`` (``"cg"`` or ``"gmres"``) runs preconditioned by
    ``factorization`` with the policy's health thresholds, and records to
    the tracer ``a`` is bound to (:meth:`ExecutionPolicy.bind`).  A
    non-converged result under a recovery policy raises
    :class:`SolveDidNotConvergeError` (``strict``), is warned about and
    returned flagged (``warn``; the event is ``log_fields["event"]``, default
    ``solve-not-converged``, the other entries are extra fields), or
    escalates through the rungs the first solve did not cover (``recover``).
    An escalated result carries ``extra["escalated_from"]`` (the first
    solve's method) and ``extra["escalation"]``: every rung entered, the
    first attempt included, the number of escalations and the rung that
    converged; its ``elapsed_seconds`` covers the first attempt too.

    >>> import numpy as np, repro
    >>> from repro.solvers import guarded_solve
    >>> points = repro.uniform_cube_points(256, dim=2, seed=0)
    >>> hss = repro.compress(points, repro.ExponentialKernel(1.0),
    ...                      format="hss", tol=1e-10, seed=0)
    >>> result = guarded_solve(
    ...     hss, np.ones(256), tol=1e-8, maxiter=1, shift=1e-6,
    ...     policy=repro.ExecutionPolicy(recovery="recover"))
    >>> result.extra["escalation"]["converged_rung"]
    'pcg'
    """
    from ..hmatrix.h2matrix import H2Matrix

    if not isinstance(a, H2Matrix):
        raise TypeError(
            f"cannot solve with a {type(a).__name__}: expected an H2Matrix"
        )
    solvers = {"cg": cg, "gmres": gmres}
    if method not in solvers:
        raise ValueError(f"unknown method {method!r}; available: {sorted(solvers)}")
    if policy.faults is not None:
        maxiter = policy.faults.stall_maxiter(maxiter)
    start = time.perf_counter()
    op = as_linear_operator(a, shift=shift)
    result = solvers[method](
        op, b, tol=tol, maxiter=maxiter,
        M=factorization, x0=x0, health=policy.health,
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

    # recover: the first attempt is the first rung; run the rest of the order.
    first = "pcg" if method == "cg" and factorization is not None else method
    covered = {first, "pcg"} if factorization is not None else {first}
    records: List[Dict[str, object]] = [
        _rung_record(first, result, time.perf_counter() - start)
    ]
    escalated_from = result.method
    best = result
    b_arr = np.asarray(b, dtype=np.float64).reshape(-1)
    budget = recovery.rung_maxiter
    tracer = a.apply_tracer
    if factorization is None:
        from .hss_factor import factorize

        factorization = factorize(a, shift=shift)
    for rung in (r for r in ("pcg", "gmres", "direct") if r not in covered):
        entered = time.perf_counter()
        with tracer.span(
            f"resilience/ladder:{rung}", category="resilience",
            rung=rung, position=len(records), maxiter=budget,
        ) as span:
            if rung == "direct":
                solved = direct_solve(
                    a, b_arr, factorization, shift=shift, tol=tol,
                    policy=policy, rung_maxiter=budget,
                )
                result = solved.polishes.get(0) or KrylovResult(
                    x=solved.x, converged=True, iterations=0,
                    residual_norms=solved.residuals, method="direct",
                    matvecs=1, preconditioner_applications=1,
                    elapsed_seconds=time.perf_counter() - entered,
                )
                if solved.polishes:
                    result.method = "direct+pcg"
            else:
                solver = gmres if rung == "gmres" else cg
                result = solver(
                    op, b_arr, tol=tol, maxiter=budget, M=factorization,
                    x0=best.x, health=policy.health,
                )
                if rung == "pcg":
                    result.method = "pcg"
            span.set(converged=result.converged,
                     final_residual=result.final_residual)
        records.append(_rung_record(rung, result, time.perf_counter() - entered))
        if result.final_residual < best.final_residual or result.converged:
            best = result
        if result.converged:
            break

    best.extra["escalated_from"] = escalated_from
    best.extra["escalation"] = {
        "rungs": records,
        "escalations": len(records) - 1,
        "converged_rung": records[-1]["rung"] if best.converged else None,
    }
    best.elapsed_seconds = time.perf_counter() - start
    if best.converged:
        return best
    raise EscalationExhaustedError(
        f"escalation exhausted after {len(records)} rungs "
        f"({[r['rung'] for r in records]}); best residual "
        f"{best.final_residual:.3e} > tol {tol:.3e}",
        result=best, context=best.extra["escalation"],
    )


@dataclass
class DirectSolution:
    """What :func:`direct_solve` returns: ``x`` (shaped like ``b``), each
    column's relative true residual after its polish (``None`` for an exact
    factorization) and the polish of each polished column."""

    x: np.ndarray
    residuals: Optional[np.ndarray]
    polishes: Dict[int, KrylovResult] = field(default_factory=dict)


def direct_solve(
    a: object, b: np.ndarray, factorization: "HSSFactorization", *,
    shift: float = 0.0, tol: Union[float, np.ndarray],
    policy: "ExecutionPolicy", log_fields: Optional[Dict[str, object]] = None,
    rung_maxiter: Optional[int] = None,
) -> DirectSolution:
    """Solve ``(a + shift I) X = B`` for a vector or block with a factorization.

    ``factorization.solve(B)`` is the answer when the factorization is of
    ``a + shift I`` itself (its ``matrix`` is ``a``, at ``shift``).  Else (a
    strong operator is factored through a re-compression) one batched true
    residual is measured, and each column above ``tol`` (one value or one per
    column) is polished by PCG warm-started from its direct answer:
    :func:`guarded_solve` under ``policy`` (``log_fields`` as there), or in
    the ``direct`` rung, which always measures, ``rung_maxiter`` plain PCG
    iterations that the ladder judges.

    >>> import numpy as np, repro
    >>> from repro.solvers import direct_solve, factorize
    >>> strong = repro.compress(repro.uniform_cube_points(1024, dim=2, seed=0),
    ...                         repro.ExponentialKernel(0.2), tol=1e-6, seed=7)
    >>> b = np.ones(1024)  # factorize(strong) factors a re-compression
    >>> solved = direct_solve(strong, b, factorize(strong, shift=1e-2), shift=1e-2,
    ...                       tol=1e-10, policy=repro.ExecutionPolicy())
    >>> r = np.linalg.norm(b - strong.matvec(solved.x) - 1e-2 * solved.x) / 32.0
    >>> bool(solved.residuals[0] <= 1e-10 and np.isclose(solved.residuals[0], r))
    True
    """
    b = np.asarray(b, dtype=np.float64)
    block = b.reshape(b.shape[0], -1)
    x = factorization.solve(block)
    exact = factorization.matrix is a and factorization.shift == shift
    if exact and rung_maxiter is None:
        return DirectSolution(x.reshape(b.shape), None)
    residuals = np.linalg.norm(block - a.matmat(x) - shift * x, axis=0)
    residuals /= np.maximum(np.linalg.norm(block, axis=0), np.finfo(float).tiny)
    tols = np.broadcast_to(tol, residuals.shape)
    polishes: Dict[int, KrylovResult] = {}
    for j in np.flatnonzero(residuals > tols):
        if rung_maxiter is None:
            result = guarded_solve(a, block[:, j], tol=tols[j], shift=shift,
                                   factorization=factorization, x0=x[:, j],
                                   policy=policy, log_fields=log_fields)
        else:
            result = cg(as_linear_operator(a, shift=shift), block[:, j],
                        tol=tols[j], maxiter=rung_maxiter, M=factorization,
                        x0=x[:, j], health=policy.health)
        x[:, j] = result.x
        residuals[j] = result.final_residual
        polishes[int(j)] = result
    return DirectSolution(x.reshape(b.shape), residuals, polishes)

