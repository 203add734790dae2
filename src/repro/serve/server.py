"""The asyncio inference service core: dispatch, telemetry, resilience.

:class:`InferenceServer` is framework-free — the whole service is the typed
``async`` API (:meth:`~InferenceServer.handle` plus one coroutine per
endpoint), so tests and embedders drive it in-process without a socket; the
thin HTTP adapter (:mod:`repro.serve.http`) is an optional layer on top.

Every request runs under a ``serve.request`` span of the policy's tracer and
is counted in the server's own metrics registry — the one its
:class:`~repro.serve.batching.MicroBatcher` owns and records its launches in
(``server.batcher.metrics``): ``serve.requests.<endpoint>`` /
``serve.errors.<endpoint>`` counters and a ``serve.<endpoint>.latency_ms``
percentile histogram (p50/p95/p99).  The OpenMetrics ``metrics`` endpoint
renders that registry, after reading the model count, bytes and evictions of
the :class:`~repro.serve.registry.ModelRegistry` and the hits and misses of
its artifact cache from those owners.  Two servers in one process share no
count.  Expensive linear algebra micro-batches through the
:class:`~repro.serve.batching.MicroBatcher`; ``method="cg"`` solves inherit
the policy's :class:`~repro.resilience.RecoveryPolicy` on non-convergence
(strict → raise, warn → flagged result, recover → escalation ladder), as
the polish of a strong model's direct solve inherits the model's policy's.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..api.policy import ExecutionPolicy
from ..observe.metrics import Counter
from ..observe.openmetrics import render_openmetrics
from .api import (
    HealthRequest,
    HealthResponse,
    LogdetRequest,
    LogdetResponse,
    MatvecRequest,
    MatvecResponse,
    MetricsRequest,
    MetricsResponse,
    PredictRequest,
    PredictResponse,
    RequestValidationError,
    ServeRequest,
    ServeResponse,
    SolveRequest,
    SolveResponse,
)
from .batching import MicroBatcher
from .registry import ModelRegistry, ServedModel

__all__ = ["InferenceServer"]


def _catch_up(counter: Counter, count: int) -> None:
    """Advance ``counter`` to an owner's monotone ``count`` (scrapes run on
    the event loop, one at a time)."""
    counter.inc(max(0, int(count) - counter.value))


class InferenceServer:
    """Multi-tenant async GP/solve inference service.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` to serve (default: a
        fresh registry under ``policy``).
    policy:
        :class:`~repro.api.policy.ExecutionPolicy` of the service — tracer
        spans, health thresholds, recovery policy and backend selection all
        ride on it (defaults to the registry's policy).
    batching, max_batch:
        Micro-batching (see :class:`~repro.serve.batching.MicroBatcher`): a
        model's queue launches as soon as its previous launch returns, with
        whatever arrived meanwhile, at most ``max_batch`` columns wide.
        ``batching=False`` serves every request individually.

    The numerical work runs on a 2-worker pool.  It takes no per-model lock:
    a registered model's apply plan and backend already exist, so one model's
    requests may run on both workers at once.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        policy: Optional[ExecutionPolicy] = None,
        batching: bool = True,
        max_batch: int = 64,
    ):
        if registry is None:
            registry = ModelRegistry(policy=policy)
        self.registry = registry
        self.policy = policy if policy is not None else registry.policy
        self.batcher = MicroBatcher(
            max_batch=max_batch,
            enabled=batching,
            tracer=self.policy.tracer,
        )
        self.started_at = time.monotonic()
        self._dispatch = {
            MatvecRequest: self.matvec,
            SolveRequest: self.solve,
            PredictRequest: self.predict,
            LogdetRequest: self.logdet,
            HealthRequest: self.health,
            MetricsRequest: self.metrics,
        }

    # ---------------------------------------------------------------- registry
    def register(self, name: str, *args, **kwargs) -> ServedModel:
        """Register a model (see :meth:`ModelRegistry.register`)."""
        return self.registry.register(name, *args, **kwargs)

    # ---------------------------------------------------------------- dispatch
    async def handle(self, request: ServeRequest) -> ServeResponse:
        """Dispatch a typed request to its endpoint coroutine."""
        handler = self._dispatch.get(type(request))
        if handler is None:
            raise RequestValidationError(
                f"unhandled request type {type(request).__name__}"
            )
        return await handler(request)

    def _start(self, request: ServeRequest):
        registry = self.batcher.metrics
        registry.counter("serve.requests").inc()
        registry.counter(f"serve.requests.{request.endpoint}").inc()
        return time.perf_counter()

    def _finish(
        self, request: ServeRequest, response: ServeResponse, start: float
    ) -> ServeResponse:
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        response.model = request.model
        response.request_id = request.request_id
        response.latency_ms = elapsed_ms
        self.batcher.metrics.histogram(
            f"serve.{request.endpoint}.latency_ms"
        ).observe(elapsed_ms)
        return response

    def _fail(self, request: ServeRequest, exc: Exception) -> Exception:
        registry = self.batcher.metrics
        registry.counter("serve.errors").inc()
        registry.counter(f"serve.errors.{request.endpoint}").inc()
        return exc

    async def _serve(self, request: ServeRequest, body) -> ServeResponse:
        """Span + metrics + error accounting around one endpoint body."""
        start = self._start(request)
        with self.policy.tracer.span(
            "serve.request", category="serve",
            endpoint=request.endpoint, model=request.model,
            request_id=request.request_id,
        ):
            try:
                response = await body()
            except Exception as exc:
                self._fail(request, exc)
                raise
        return self._finish(request, response, start)

    # --------------------------------------------------------------- endpoints
    async def matvec(self, request: MatvecRequest) -> MatvecResponse:
        """``y = K x``, micro-batched into one ``matmat`` launch."""

        async def body() -> MatvecResponse:
            model = self.registry.get(request.model)
            y, batch_size, _ = await self.batcher.submit(
                model, "matvec", request.x, request.request_id
            )
            return MatvecResponse(
                y=y, batched=batch_size > 1, batch_size=batch_size
            )

        return await self._serve(request, body)

    async def predict(self, request: PredictRequest) -> PredictResponse:
        """Posterior mean ``K (K + noise I)^{-1} y`` at the training inputs."""

        async def body() -> PredictResponse:
            model = self.registry.get(request.model)
            mean, batch_size, _ = await self.batcher.submit(
                model, "predict", request.y, request.request_id
            )
            return PredictResponse(
                mean=mean, batched=batch_size > 1, batch_size=batch_size
            )

        return await self._serve(request, body)

    async def solve(self, request: SolveRequest) -> SolveResponse:
        """``(K + noise I) x = b`` — direct (batched) or CG (guarded)."""

        async def body() -> SolveResponse:
            model = self.registry.get(request.model)
            if request.method == "direct":
                x, batch_size, residuals = await self.batcher.submit(
                    model, "solve", request.b, request.request_id,
                    tol=request.tol,
                )
                residual = None if residuals is None else float(residuals.max())
                return SolveResponse(
                    x=x, method="direct",
                    converged=residual is None or residual <= request.tol,
                    final_residual=residual,
                    batched=batch_size > 1, batch_size=batch_size,
                )
            if request.method != "cg":
                raise RequestValidationError(
                    f"solve method must be 'direct' or 'cg', not "
                    f"{request.method!r}"
                )
            result = await self._solve_cg(model, request)
            return SolveResponse(
                x=result.x, method=result.method, converged=result.converged,
                iterations=result.iterations,
                final_residual=result.final_residual,
            )

        return await self._serve(request, body)

    async def _solve_cg(self, model: ServedModel, request: SolveRequest):
        """Factorization-preconditioned CG under the policy's recovery mode,
        in one worker hop (escalation included)."""
        b = np.asarray(request.b, dtype=np.float64)
        if b.ndim != 1 or b.shape[0] != model.n:
            raise RequestValidationError(
                f"cg solves take a single RHS vector of length {model.n}, "
                f"got shape {b.shape}"
            )
        if not np.isfinite(b).all():
            raise RequestValidationError(
                "payload contains non-finite values (NaN/Inf)"
            )

        def run():
            from ..solvers.ladder import guarded_solve

            return guarded_solve(
                model.operator, b, method="cg", tol=request.tol,
                maxiter=request.maxiter, shift=model.noise,
                factorization=model.factorization(), policy=self.policy,
                log_fields={"model": model.name},
            )

        return await self.batcher.offload(run)

    async def logdet(self, request: LogdetRequest) -> LogdetResponse:
        """Cached ``log|det(K + noise I)|`` of the model."""

        async def body() -> LogdetResponse:
            model = self.registry.get(request.model)
            sign, logabs = await self.batcher.offload(model.slogdet)
            return LogdetResponse(logdet=logabs, sign=sign)

        return await self._serve(request, body)

    async def health(self, request: Optional[HealthRequest] = None) -> HealthResponse:
        """Service liveness plus per-model statistics/health reports."""
        request = request if request is not None else HealthRequest()

        async def body() -> HealthResponse:
            stats = self.registry.statistics()
            models: Dict[str, dict] = stats["models"]  # type: ignore[assignment]
            if request.model:
                if request.model not in models:
                    from .api import ModelNotFoundError

                    raise ModelNotFoundError(
                        f"no model named {request.model!r} is registered"
                    )
                models = {request.model: models[request.model]}
            flagged = any(
                model.get("health", {}).get("flagged", False)
                for model in models.values()
            )
            return HealthResponse(
                status="degraded" if flagged else "ok",
                uptime_seconds=time.monotonic() - self.started_at,
                models=models,
            )

        return await self._serve(request, body)

    async def metrics(self, request: Optional[MetricsRequest] = None) -> MetricsResponse:
        """The OpenMetrics exposition of this server's registry, with the
        model registry's and its cache's counts read in at scrape time."""
        request = request if request is not None else MetricsRequest()

        async def body() -> MetricsResponse:
            registry = self.batcher.metrics
            models = self.registry.statistics()
            registry.gauge("serve.models.loaded").set(models["count"])
            registry.gauge("serve.models.bytes").set(models["bytes"])
            _catch_up(registry.counter("serve.models.evicted"), models["evictions"])
            cache = self.registry.cache
            if cache is not None:
                _catch_up(registry.counter("persist.cache.hits"), cache.hits)
                _catch_up(registry.counter("persist.cache.misses"), cache.misses)
            return MetricsResponse(text=render_openmetrics(registry))

        return await self._serve(request, body)

    # --------------------------------------------------------------- lifecycle
    async def aclose(self) -> None:
        """Answer every admitted request (including launches in flight) and
        shut the worker pool down."""
        await self.batcher.drain()
        self.batcher.close()

    def statistics(self) -> Dict[str, object]:
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "batching": self.batcher.statistics(),
            "registry": self.registry.statistics(),
        }
