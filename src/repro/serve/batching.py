"""Micro-batching: coalesce concurrent requests into one ``matmat`` launch.

The batching win this module exploits is already wired into the library: the
compiled apply plan routes a block RHS through a single batched-GEMM launch
(``matmat``), and the direct solve solves (and checks) a block RHS with
level-3 BLAS — so ``k`` concurrent single-vector queries against the *same* operator
cost one launch sequence instead of ``k``.

:class:`MicroBatcher` keeps one admission queue per ``(model, kind)`` and
launches when the worker is free (continuous batching); no timer is armed.
The first request admitted to an idle queue starts the queue's runner task,
which launches the oldest pending requests (up to ``max_batch`` columns),
awaits that launch, and repeats until the queue is empty.  So a lone request
launches on the next loop tick, requests ready in the same tick share one
launch, and arrivals during a launch coalesce into the next one.  The runner
starts in an empty :mod:`contextvars` context, so each launch is a root
``serve.batch`` span whose ``request_ids`` name the requests it carried, and
its launches count there rather than in the span of whichever request found
the queue idle.  A launch
column-stacks its payloads (vectors and ``(n, k)`` blocks side by side — each
caller gets exactly its own columns back, in its original shape), executes
once on a worker thread, and scatters the result columns to the futures.

Isolation guarantees:

* payloads are shape-validated at admission (a bad shape fails fast, never
  enters a batch);
* non-finite payload columns are screened at launch time — their requests
  fail with :class:`~repro.serve.api.RequestValidationError` while their
  batchmates execute normally;
* if the coalesced launch itself raises, every member is retried
  individually (``serve.batch.fallbacks``), so one poisoned request cannot
  take its batchmates down with it.

The batcher owns the serving :class:`~repro.observe.metrics.MetricsRegistry`
(``metrics``): every launch observes ``serve.batch.requests`` /
``serve.batch.columns`` / ``serve.batch.queue_ms`` (oldest admission → launch
start) and counts ``serve.batch.launches``, and its
:class:`~repro.serve.InferenceServer` records its request counters and
latencies there too.  With ``enabled=False`` (or ``max_batch=1``) every request executes
alone on the worker pool — the baseline the acceptance benchmark compares
against.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..observe.metrics import MetricsRegistry
from ..observe.tracer import NOOP_TRACER
from ..solvers.ladder import DIRECT_TOL, direct_solve
from .api import RequestValidationError
from .registry import ServedModel

__all__ = ["MicroBatcher", "BATCH_KINDS"]

#: Block operations the batcher can coalesce.
BATCH_KINDS = ("matvec", "solve", "predict")

_NON_FINITE = "payload contains non-finite values (NaN/Inf)"


class _Pending:
    """One admitted request: a normalized ``(n, k)`` payload, its tol, its future."""

    __slots__ = ("payload", "single", "tol", "future", "request_id", "enqueued")

    def __init__(self, payload: np.ndarray, single: bool, tol: float,
                 future: asyncio.Future, request_id: str):
        self.payload = payload
        self.single = single
        self.tol = tol
        self.future = future
        self.request_id = request_id
        self.enqueued = time.perf_counter()


class _Queue:
    """Admission queue of one ``(model, kind)`` pair and its runner task."""

    __slots__ = ("model", "kind", "items", "runner")

    def __init__(self, model: ServedModel, kind: str):
        self.model = model
        self.kind = kind
        self.items: List[_Pending] = []
        self.runner: Optional[asyncio.Task] = None

    def take(self, max_columns: int) -> List[_Pending]:
        """Pop the oldest requests up to ``max_columns`` columns (at least one)."""
        count = columns = 0
        for item in self.items:
            columns += item.payload.shape[1]
            if count and columns > max_columns:
                break
            count += 1
        taken, self.items = self.items[:count], self.items[count:]
        return taken


def _execute_kind(model: ServedModel, kind: str, block: np.ndarray,
                  tol: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The synchronous block operation of ``kind`` (runs on a worker thread)
    and, for ``solve``, the residual of each column (``direct_solve``'s).

    It takes no lock: the model's apply plan and backend were built at
    registration, the compiled apply and the HSS solve allocate their buffers
    per call, and the factorization guards its own first build (see
    :mod:`repro.serve.registry`).  Every model, strong or weak, solves
    through its HSS factorization by :func:`~repro.solvers.direct_solve`
    under the model's policy, each column polished to its ``tol``.
    """
    if kind == "matvec":
        return model.operator.matmat(block), None
    solved = direct_solve(
        model.operator, block, model.factorization(), shift=model.noise,
        tol=tol, policy=model.policy, log_fields={"model": model.name},
    )
    if kind == "solve":
        return solved.x, solved.residuals
    return model.operator.matmat(solved.x), None


class MicroBatcher:
    """Per-model admission queues coalescing concurrent block operations;
    a queue launches as soon as its previous launch has returned.

    Parameters
    ----------
    max_batch:
        The widest launch, in *columns* (default 64).  A runner takes the
        oldest pending requests up to this width; the rest wait for the next
        launch.  A single request wider than ``max_batch`` launches alone.
    enabled:
        ``False`` turns coalescing off — every request runs alone on the
        worker pool (the comparison baseline; correctness is identical).
    executor:
        Worker pool for the numerical work (default: a private
        2-worker :class:`~concurrent.futures.ThreadPoolExecutor`; NumPy/BLAS
        release the GIL, so admission stays responsive while a batch runs).
        Launches take no lock, so one model's launches of different kinds
        (or of one kind, when batching is off) may run on both workers at
        once.
    tracer:
        Span tracer for the ``serve.batch`` root spans, one per coalesced
        launch (default: no tracing).
    """

    def __init__(
        self,
        *,
        max_batch: int = 64,
        enabled: bool = True,
        executor: Optional[concurrent.futures.Executor] = None,
        tracer=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self.enabled = bool(enabled) and self.max_batch > 1
        self._own_executor = executor is None
        self._executor = executor or concurrent.futures.ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-serve"
        )
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._queues: Dict[Tuple[str, str], _Queue] = {}
        self._runners: Set[asyncio.Task] = set()  # live; drain() awaits them
        #: The serving telemetry (module docstring); one per batcher.
        self.metrics = MetricsRegistry()
        self.launches = 0
        self.coalesced_requests = 0

    def offload(self, fn, *args) -> "asyncio.Future":
        """Run ``fn(*args)`` on the worker pool in a copy of the caller's
        context, so the spans the worker opens nest under the caller's open
        span (:mod:`repro.observe.tracer`)."""
        return asyncio.get_running_loop().run_in_executor(
            self._executor, contextvars.copy_context().run, fn, *args
        )

    # ------------------------------------------------------------------ submit
    async def submit(
        self, model: ServedModel, kind: str, payload: np.ndarray,
        request_id: str = "", tol: float = DIRECT_TOL,
    ) -> Tuple[np.ndarray, int, Optional[np.ndarray]]:
        """Execute ``kind`` for ``payload``, coalescing with concurrent peers.

        Returns ``(result, batch_size, residuals)`` where ``batch_size`` is
        the number of requests that shared the launch (1 when the request ran
        alone) and ``residuals`` those of a ``solve`` payload's columns, each
        polished to ``tol`` (see ``_execute_kind``).
        The result has the payload's shape (vector in, vector out).
        ``request_id`` is listed in the ``request_ids`` of the
        ``serve.batch`` span that carries the payload.
        """
        if kind not in BATCH_KINDS:
            raise ValueError(f"unknown batch kind {kind!r}; use one of {BATCH_KINDS}")
        block, single = self._validate(model, payload)
        loop = asyncio.get_running_loop()
        if not self.enabled:
            if not np.isfinite(block).all():
                raise RequestValidationError(_NON_FINITE)
            self.metrics.histogram("serve.batch.requests").observe(1)
            self.launches += 1
            self.coalesced_requests += 1
            result, residuals = await self.offload(
                _execute_kind, model, kind, block, tol
            )
            return (result[:, 0] if single else result), 1, residuals

        future: asyncio.Future = loop.create_future()
        queue = self._queues.get((model.name, kind))
        if queue is None or queue.model is not model:
            # New key, or the registry replaced the model under this name:
            # never coalesce payloads across two different operators.
            queue = self._queues[(model.name, kind)] = _Queue(model, kind)
        queue.items.append(_Pending(block, single, tol, future, request_id))
        if queue.runner is None:
            # From an empty context: the runner serves every request that
            # joins the queue, not only the one that found it idle.
            queue.runner = contextvars.Context().run(
                loop.create_task, self._run(queue)
            )
            self._runners.add(queue.runner)
            queue.runner.add_done_callback(self._runners.discard)
        result, batch_size, residuals = await future
        return (result[:, 0] if single else result), batch_size, residuals

    def _validate(
        self, model: ServedModel, payload: np.ndarray
    ) -> Tuple[np.ndarray, bool]:
        payload = np.asarray(payload)
        if payload.dtype.kind not in "fiu":
            raise RequestValidationError(
                f"payload dtype {payload.dtype} is not real-numeric"
            )
        payload = np.asarray(payload, dtype=np.float64)
        single = payload.ndim == 1
        if single:
            payload = payload[:, None]
        if payload.ndim != 2 or payload.shape[0] != model.n:
            raise RequestValidationError(
                f"payload shape {payload.shape if not single else (payload.shape[0],)} "
                f"does not match model {model.name!r} with n={model.n}"
            )
        if payload.shape[1] == 0:
            raise RequestValidationError("payload must have at least one column")
        return np.ascontiguousarray(payload), single

    # ------------------------------------------------------------------ launch
    async def _run(self, queue: _Queue) -> None:
        """The queue's runner: one launch at a time until the queue is empty."""
        try:
            while queue.items:
                await self._launch(queue, queue.take(self.max_batch))
        finally:
            queue.runner = None

    async def _launch(self, queue: _Queue, items: List[_Pending]) -> None:
        registry = self.metrics

        # Screen non-finite payloads out of the batch: their futures fail,
        # their batchmates still coalesce.
        good: List[_Pending] = []
        for item in items:
            if np.isfinite(item.payload).all():
                good.append(item)
            elif not item.future.done():
                item.future.set_exception(RequestValidationError(_NON_FINITE))
        if not good:
            return

        batch_requests = len(good)
        block = (
            good[0].payload
            if batch_requests == 1
            else np.concatenate([item.payload for item in good], axis=1)
        )
        tols = np.concatenate([np.full(item.payload.shape[1], item.tol)
                               for item in good])
        registry.histogram("serve.batch.requests").observe(batch_requests)
        registry.histogram("serve.batch.columns").observe(block.shape[1])
        registry.histogram("serve.batch.queue_ms").observe(
            (time.perf_counter() - good[0].enqueued) * 1000.0
        )
        self.launches += 1
        self.coalesced_requests += batch_requests
        registry.counter("serve.batch.launches").inc()

        with self._tracer.span(
            "serve.batch", category="serve", model=queue.model.name,
            kind=queue.kind, requests=batch_requests, columns=block.shape[1],
            request_ids=[item.request_id for item in good],
        ):
            try:
                result, residuals = await self.offload(
                    _execute_kind, queue.model, queue.kind, block, tols
                )
            except Exception:
                # The coalesced launch failed: isolate by retrying each
                # member alone so one poisoned request cannot fail the rest.
                registry.counter("serve.batch.fallbacks").inc()
                for item in good:
                    try:
                        value, alone = await self.offload(
                            _execute_kind, queue.model, queue.kind,
                            item.payload, item.tol,
                        )
                    except Exception as exc:
                        if not item.future.done():
                            item.future.set_exception(exc)
                    else:
                        if not item.future.done():
                            item.future.set_result((value, 1, alone))
                return

        offset = 0
        for item in good:
            width = item.payload.shape[1]
            if not item.future.done():
                item.future.set_result((
                    result[:, offset:offset + width], batch_requests,
                    None if residuals is None else residuals[offset:offset + width],
                ))
            offset += width

    # --------------------------------------------------------------- lifecycle
    async def drain(self) -> None:
        """Wait until every admitted request is answered (used at shutdown):
        awaits every live runner, so a launch already in flight and the queue
        of a replaced model are finished before :meth:`close`."""
        while self._runners:
            await asyncio.gather(*self._runners, return_exceptions=True)

    def close(self) -> None:
        if self._own_executor:
            self._executor.shutdown(wait=True)

    def statistics(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "max_batch": self.max_batch,
            "launches": self.launches,
            "coalesced_requests": self.coalesced_requests,
            "mean_batch_size": (
                self.coalesced_requests / self.launches if self.launches else 0.0
            ),
        }
