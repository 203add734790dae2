"""Matrix-free Krylov solvers: CG and restarted GMRES.

The constructed hierarchical matrices are fast operators; these solvers turn
them into linear-system workloads (kernel regression, integral equations,
sparse PDE systems) without ever forming a dense matrix.  Both methods

* accept anything :func:`repro.hmatrix.linear_operator.as_linear_operator`
  understands as the system operator — an H2 matrix iterates on the compiled
  batched apply path (:mod:`repro.batched.apply_plan`) under its binding
  (:meth:`~repro.hmatrix.h2matrix.H2Matrix.bind`): the solve's span goes to
  the tracer it is bound to, and its backend's name to
  ``KrylovResult.extra["apply_backend"]``,
* accept a pluggable preconditioner (``None``, a callable ``x -> M^{-1} x``, or
  an object with ``solve``/``matvec`` such as a factorization from
  :func:`repro.solvers.factorize`),
* record the full relative-residual history in a :class:`KrylovResult` for the
  convergence diagnostics.

Convergence is declared when ``||b - A x|| / ||b|| <= tol`` (true residual for
CG; for GMRES the recurrence residual, which coincides with the true
residual of the right-preconditioned system).  CG recomputes ``b - A x`` with
one matvec before it declares convergence and continues from it when the
recurrence has drifted below the true residual (residual replacement); the
last entry of its ``residual_norms`` is the true residual of the returned
``x`` on every exit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..hmatrix.linear_operator import LinearOperator, as_linear_operator

MatVec = Callable[[np.ndarray], np.ndarray]


@dataclass
class KrylovResult:
    """Outcome of a Krylov solve: the iterate plus convergence statistics."""

    x: np.ndarray
    converged: bool
    iterations: int
    #: Relative residual after every iteration; ``residual_norms[0]`` is the
    #: initial residual (1.0 for a zero initial guess).
    residual_norms: np.ndarray
    method: str
    matvecs: int
    preconditioner_applications: int
    elapsed_seconds: float
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def final_residual(self) -> float:
        return float(self.residual_norms[-1]) if self.residual_norms.size else np.inf

    def summary(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "n": int(self.x.shape[0]),
            "iterations": self.iterations,
            "matvecs": self.matvecs,
            "precond_applies": self.preconditioner_applications,
            "final_residual": self.final_residual,
            "converged": self.converged,
            "time_s": self.elapsed_seconds,
        }


class _Preconditioner:
    """Normalise the accepted preconditioner inputs and count applications."""

    def __init__(self, m: object | None):
        self.applications = 0
        if m is None:
            self._apply: Optional[MatVec] = None
        elif callable(getattr(m, "solve", None)):
            self._apply = m.solve  # factorization / preconditioner object
        elif isinstance(m, (np.ndarray, LinearOperator)) or hasattr(m, "matvec"):
            op = as_linear_operator(m)
            self._apply = op.matvec  # an explicit operator approximating A^{-1}
        elif callable(m):
            self._apply = m
        else:
            raise TypeError(f"cannot interpret {type(m).__name__} as a preconditioner")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._apply is None:
            return x
        self.applications += 1
        return np.asarray(self._apply(x)).reshape(x.shape)


def _prepare(a: object, b: np.ndarray, x0: np.ndarray | None):
    op = as_linear_operator(a, n=np.asarray(b).shape[0])
    if np.iscomplexobj(b) or (x0 is not None and np.iscomplexobj(x0)):
        # Refuse rather than silently cast: the solvers iterate in float64,
        # and dropping the imaginary part would converge to the wrong system.
        raise TypeError(
            "Krylov solvers are real-valued: complex right-hand sides / "
            "initial guesses are not supported. Solve the real and imaginary "
            "parts separately, e.g. solve(A, b.real) and solve(A, b.imag)."
        )
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if op.shape != (b.shape[0], b.shape[0]):
        raise ValueError(
            f"operator shape {op.shape} incompatible with right-hand side of length {b.shape[0]}"
        )
    x = (
        np.zeros_like(b)
        if x0 is None
        else np.array(x0, dtype=np.float64).reshape(b.shape)
    )
    return op, b, x


def _binding(op: LinearOperator) -> Tuple[object, object]:
    """The ``(apply backend, tracer)`` an H2 system operator is bound to
    (:meth:`~repro.hmatrix.h2matrix.H2Matrix.bind`); any other operator has
    no backend and the no-op tracer."""
    from ..observe.tracer import NOOP_TRACER

    source = getattr(op, "source", None)
    return (
        getattr(source, "apply_backend", None),
        getattr(source, "apply_tracer", NOOP_TRACER),
    )


def _apply_info(op: LinearOperator) -> Dict[str, object]:
    """The bound backend's name (a solve's launches are its span's)."""
    backend, _ = _binding(op)
    if backend is None:
        return {}
    return {"apply_backend": backend.name}


def _traced_solve(method, tracer, body, b):
    """Run ``body()`` inside a ``solve/<method>`` span (or plainly when off)."""
    if not tracer.enabled:
        return body()
    with tracer.span(
        f"solve/{method}", category="solve", method=method, n=int(b.shape[0])
    ) as span:
        result = body()
        span.set(
            iterations=result.iterations,
            converged=result.converged,
            matvecs=result.matvecs,
            final_residual=result.final_residual,
        )
    return result


def _result(
    method: str,
    x: np.ndarray,
    history: List[float],
    converged: bool,
    matvecs: int,
    precond: _Preconditioner,
    start: float,
    tracer: object = None,
    health: object = None,
    **extra: object,
) -> KrylovResult:
    result = KrylovResult(
        x=x,
        converged=converged,
        iterations=max(0, len(history) - 1),
        residual_norms=np.asarray(history, dtype=np.float64),
        method=method,
        matvecs=matvecs,
        preconditioner_applications=precond.applications,
        elapsed_seconds=time.perf_counter() - start,
        extra=dict(extra),
    )
    if health is not None:
        from ..observe.health import record_solver_health

        record_solver_health(result, health, tracer=tracer)
    return result


def cg(
    a: object,
    b: np.ndarray,
    tol: float = 1e-8,
    maxiter: int | None = None,
    M: object | None = None,
    x0: np.ndarray | None = None,
    callback: Callable[[int, float], None] | None = None,
    health: object | None = None,
) -> KrylovResult:
    """Preconditioned conjugate gradients for a symmetric positive-definite ``a``.

    When the operator is bound to an enabled tracer the solve runs inside a
    ``solve/cg`` span with one ``iteration`` event per CG step.  ``health`` accepts
    :class:`~repro.observe.health.HealthThresholds` to run the post-hoc
    convergence diagnosis (events land in ``result.extra["health_events"]``).
    """
    start = time.perf_counter()
    op, b, x = _prepare(a, b, x0)
    tracer = _binding(op)[1]
    return _traced_solve(
        "cg", tracer,
        lambda: _cg_body(op, b, x, tol, maxiter, M, callback, tracer, start,
                         health),
        b,
    )


def _cg_body(op, b, x, tol, maxiter, M, callback, tracer, start,
             health=None) -> KrylovResult:
    precond = _Preconditioner(M)
    n = b.shape[0]
    maxiter = n if maxiter is None else int(maxiter)

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return _result("cg", np.zeros_like(b), [0.0], True, 0, precond, start,
                       tracer=tracer, health=health)

    matvecs = 0
    r = b - op.matvec(x) if x.any() else b.copy()
    if x.any():
        matvecs += 1
    history = [float(np.linalg.norm(r)) / b_norm]
    if history[0] <= tol:
        return _result("cg", x, history, True, matvecs, precond, start,
                       tracer=tracer, health=health)

    def true_residual():
        nonlocal matvecs
        matvecs += 1
        residual = b - op.matvec(x)
        return residual, float(np.linalg.norm(residual)) / b_norm

    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    converged = False
    r_is_true = True  # history[-1] is the true residual of x
    for iteration in range(maxiter):
        ap = op.matvec(p)
        matvecs += 1
        denom = float(p @ ap)
        if denom <= 0.0:
            # Loss of positive definiteness (operator or preconditioner).
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        rel = float(np.linalg.norm(r)) / b_norm
        r_is_true = rel <= tol
        if r_is_true:
            # Converged on the recurrence: check the true residual, and go on
            # from it when the recurrence has drifted.
            r, rel = true_residual()
            converged = rel <= tol
        history.append(rel)
        if tracer.enabled:
            tracer.event("iteration", method="cg", iteration=iteration + 1,
                         residual=rel)
        if callback is not None:
            callback(iteration + 1, rel)
        if converged:
            break
        z = precond(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    if not r_is_true:
        history[-1] = true_residual()[1]
    return _result(
        "cg", x, history, converged, matvecs, precond, start,
        tracer=tracer, health=health, **_apply_info(op)
    )


def gmres(
    a: object,
    b: np.ndarray,
    tol: float = 1e-8,
    restart: int = 30,
    maxiter: int | None = None,
    M: object | None = None,
    x0: np.ndarray | None = None,
    callback: Callable[[int, float], None] | None = None,
    health: object | None = None,
) -> KrylovResult:
    """Right-preconditioned restarted GMRES(m) for a general square ``a``.

    ``maxiter`` bounds the *total* number of inner iterations across restarts.
    Right preconditioning solves ``A M^{-1} u = b`` with ``x = M^{-1} u``, so
    the reported residuals are true residuals of the original system.  When
    the operator is bound to an enabled tracer the solve runs inside a
    ``solve/gmres`` span with one ``iteration`` event per inner iteration.
    """
    start = time.perf_counter()
    op, b, x = _prepare(a, b, x0)
    tracer = _binding(op)[1]
    return _traced_solve(
        "gmres", tracer,
        lambda: _gmres_body(
            op, b, x, tol, restart, maxiter, M, callback, tracer, start, health
        ),
        b,
    )


def _gmres_body(op, b, x, tol, restart, maxiter, M, callback, tracer,
                start, health=None) -> KrylovResult:
    precond = _Preconditioner(M)
    n = b.shape[0]
    restart = max(1, min(int(restart), n))
    maxiter = n if maxiter is None else int(maxiter)

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return _result("gmres", np.zeros_like(b), [0.0], True, 0, precond,
                       start, tracer=tracer, health=health)

    matvecs = 0
    total_iterations = 0
    history: List[float] = []
    converged = False

    while True:
        r = b - op.matvec(x)
        matvecs += 1
        beta = float(np.linalg.norm(r))
        rel_true = beta / b_norm
        if not history:
            history.append(rel_true)
        else:
            # Replace the recurrence estimate with the true residual at the
            # restart boundary.
            history[-1] = rel_true
        if rel_true <= tol:
            converged = True
            break
        if total_iterations >= maxiter:
            break

        # Arnoldi process on A M^{-1} with modified Gram-Schmidt.
        v = np.zeros((n, restart + 1))
        h = np.zeros((restart + 1, restart))
        v[:, 0] = r / beta
        e1 = np.zeros(restart + 1)
        e1[0] = beta
        inner = 0
        y = np.zeros(0)
        for j in range(restart):
            if total_iterations >= maxiter:
                break
            w = op.matvec(precond(v[:, j]))
            matvecs += 1
            for i in range(j + 1):
                h[i, j] = float(w @ v[:, i])
                w = w - h[i, j] * v[:, i]
            h[j + 1, j] = float(np.linalg.norm(w))
            breakdown = h[j + 1, j] <= 1e-14 * beta
            if not breakdown:
                v[:, j + 1] = w / h[j + 1, j]
            inner = j + 1
            total_iterations += 1
            y, residual = _least_squares_residual(h[: inner + 1, :inner], e1[: inner + 1])
            rel = residual / b_norm
            history.append(rel)
            if tracer.enabled:
                tracer.event("iteration", method="gmres",
                             iteration=total_iterations, residual=rel)
            if callback is not None:
                callback(total_iterations, rel)
            if rel <= tol or breakdown:
                break
        if inner:
            x = x + precond(v[:, :inner] @ y)
        if history[-1] <= tol:
            # Recompute the true residual on the final iterate at the top of
            # the loop (one extra matvec) before declaring convergence.
            continue
        if total_iterations >= maxiter:
            break
    return _result(
        "gmres",
        x,
        history,
        converged,
        matvecs,
        precond,
        start,
        tracer=tracer,
        health=health,
        restart=restart,
        **_apply_info(op),
    )


def _least_squares_residual(h: np.ndarray, rhs: np.ndarray):
    """Solve the small Hessenberg least-squares problem and its residual norm."""
    y, res, _, _ = np.linalg.lstsq(h, rhs, rcond=None)
    if res.size:
        return y, float(np.sqrt(res[0]))
    return y, float(np.linalg.norm(h @ y - rhs))
