"""Named-model registry: the multi-tenant state of the inference service.

A :class:`ServedModel` bundles everything one tenant's queries need — the
compressed operator, the lazily built factorization of ``K + noise I``
(:func:`repro.solvers.factorize`; first ``solve``/``predict``/``logdet`` pays it, later
requests reuse it; it holds the log-determinant).  Concurrency across
*different* models, and micro-batching within one model, are the parallelism
stories.

A model is ready before its first request: registration builds the operator's
compiled apply plan (a loaded model's plan adopts the mapped operands it was
stored as, and compiles only the basis phases) and fixes its binding (a
model loaded by path or key is bound to the registering policy, an operator
passed in keeps its own).  The compiled apply and the HSS solve allocate
their work buffers per call, and the transpose apply runs the same plan, so
every request reads finished state and two threads may apply or solve one
model at once and get the serial answer — no per-model lock.  The one piece
still built on first use is the factorization, guarded by its own
double-checked lock.  Every model is an H2 matrix factored by the HSS
factorization (a strong one is first re-compressed onto the weak partition
with the sketching constructor), so no served solve runs the recursive HODLR
Woodbury solve whose SciPy ``lu_solve`` is not thread-safe.

:class:`ModelRegistry` resolves models from four sources, in order of
explicitness: an operator instance, an artifact path
(:func:`repro.persist.load_operator`), a content key into the registry's
:class:`~repro.persist.cache.ArtifactCache`, or ``points + kernel`` (a
:func:`repro.compress` that consults the same cache first).  A model counts
its own bytes (:meth:`ServedModel.memory_bytes`: the operator, its apply
plan's own operands and the factorization), and the registry evicts by TTL
(seconds since last use) and by an LRU byte budget over those counts, so a
long-lived server bounds its own footprint; it counts its evictions
(``evictions``), which a server's ``/metrics`` scrape reads with the model
count and bytes.  When the registry's
:class:`~repro.api.policy.ExecutionPolicy` carries
:class:`~repro.observe.health.HealthThresholds`, every model is
health-probed on load and the report is served by the ``health`` endpoint.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..api.policy import ExecutionPolicy
from ..hmatrix.h2matrix import H2Matrix
from ..kernels.base import KernelFunction
from .api import ModelNotFoundError, ServeError

__all__ = ["ModelRegistry", "ServedModel"]


class ServedModel:
    """One registered model: operator + lazy factorization + usage state."""

    def __init__(
        self,
        name: str,
        operator: H2Matrix,
        *,
        noise: float = 0.0,
        kernel: Optional[KernelFunction] = None,
        tol: float = 1e-6,
        policy: Optional[ExecutionPolicy] = None,
    ):
        self.name = name
        self.operator = operator
        self.noise = float(noise)
        self.kernel = kernel
        self.tol = float(tol)
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.loaded_at = time.monotonic()
        self.last_used = self.loaded_at
        self.requests = 0
        self.health = None
        # Build what a first apply would (the plan; the binding of an operator
        # that has none), so requests read finished state (module docstring).
        operator.apply_plan()
        operator.apply_backend
        self._factor_lock = threading.Lock()
        self._factorization = None

    # ------------------------------------------------------------------ state
    @property
    def n(self) -> int:
        return int(self.operator.shape[0])

    def touch(self) -> None:
        self.last_used = time.monotonic()
        self.requests += 1

    def factorization(self):
        """The factorization of ``K + noise I`` (built on first use).

        :func:`repro.solvers.factorize` builds it: an HSS matrix is factored
        on its own generators, a strong H2 matrix on the generators of its
        re-compression onto the weak partition.  Thread-safe double-checked build:
        concurrent first requests block on one construction instead of each
        paying it.
        """
        factorization = self._factorization
        if factorization is not None:
            return factorization
        with self._factor_lock:
            if self._factorization is None:
                from ..solvers.hss_factor import factorize

                with self.policy.tracer.span(
                    "serve.factor", category="serve", model=self.name
                ):
                    self._factorization = factorize(
                        self.operator, shift=self.noise
                    )
            return self._factorization

    @property
    def factored(self) -> bool:
        return self._factorization is not None

    def slogdet(self) -> Tuple[float, float]:
        """``(sign, log|det|)`` of ``K + noise I``, which its factorization holds."""
        return self.factorization().slogdet()

    # ----------------------------------------------------------------- memory
    def memory_bytes(self) -> int:
        """Bytes held by the operator, its apply plan (beyond the blocks it
        stores) and the factorization (when built)."""
        total = self.operator.memory_bytes()["total"]
        total += self.operator.apply_plan().memory_bytes()
        factorization = self._factorization
        if factorization is not None:
            total += factorization.memory_bytes()
        return int(total)

    def statistics(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "name": self.name,
            "n": self.n,
            "format": self.operator.statistics()["format"],
            "noise": self.noise,
            "requests": self.requests,
            "factored": self.factored,
            "memory_bytes": self.memory_bytes(),
            "idle_seconds": time.monotonic() - self.last_used,
        }
        if self.health is not None:
            stats["health"] = {
                "est_relative_error": self.health.est_relative_error,
                "flagged": self.health.flagged,
            }
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ServedModel({self.name!r}, n={self.n}, noise={self.noise}, "
            f"factored={self.factored})"
        )


class ModelRegistry:
    """Thread-safe named-model store with TTL + LRU byte-budget eviction.

    Parameters
    ----------
    policy:
        Default :class:`~repro.api.policy.ExecutionPolicy` of registered
        models (tracing spans, health probes, recovery, backend).
    cache:
        Optional :class:`~repro.persist.cache.ArtifactCache` consulted by
        key- and construction-based registration.
    max_models:
        LRU cap on the number of resident models (``None`` = unbounded).
    max_bytes:
        LRU byte budget over operator + factorization bytes (``None`` =
        unbounded).  The most recently used models survive.
    ttl_seconds:
        Idle time after which a model is evicted (checked on every access
        and registration; ``None`` = no expiry).
    """

    def __init__(
        self,
        *,
        policy: Optional[ExecutionPolicy] = None,
        cache=None,
        max_models: Optional[int] = None,
        max_bytes: Optional[int] = None,
        ttl_seconds: Optional[float] = None,
    ):
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.cache = cache
        self.max_models = None if max_models is None else int(max_models)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.ttl_seconds = None if ttl_seconds is None else float(ttl_seconds)
        self.evictions = 0
        self._models: Dict[str, ServedModel] = {}
        self._mutex = threading.RLock()

    # -------------------------------------------------------------- resolution
    def register(
        self,
        name: str,
        operator: Optional[H2Matrix] = None,
        *,
        path=None,
        key: Optional[str] = None,
        points: Optional[np.ndarray] = None,
        kernel: Optional[KernelFunction] = None,
        tol: float = 1e-6,
        noise: float = 0.0,
        format: str = "hss",
        seed=0,
        policy: Optional[ExecutionPolicy] = None,
        warm: bool = False,
        **compress_kwargs: object,
    ) -> ServedModel:
        """Register a model under ``name`` and return its record.

        Exactly one operator source must be provided: an ``operator``
        instance (an :class:`~repro.hmatrix.h2matrix.H2Matrix`; anything
        else raises :class:`~repro.serve.api.ServeError`), an artifact
        ``path``, a cache ``key`` (requires the registry's
        :class:`~repro.persist.cache.ArtifactCache`), or ``points`` +
        ``kernel`` (:func:`repro.compress` through the registry's cache:
        a repeated plain request loads its artifact, and the requests
        ``compress`` keeps out of the cache, such as ``config=`` or
        operator overrides, construct).  Under ``policy.health`` the model
        keeps the health report of that construction or load
        (``source="loaded"`` on a cache hit), probed at the tolerance the
        operator records (``tol`` when it records none).  A ``path`` or
        ``key`` load is bound to ``policy`` (:meth:`ExecutionPolicy.bind`).
        ``warm=True`` builds the factorization (and with it the
        log-determinant) eagerly so the first query does not pay it.
        Re-registering a name replaces the old model.
        """
        policy = policy if policy is not None else self.policy
        health = None
        sources = sum(
            source is not None for source in (operator, path, key, points)
        )
        if sources != 1:
            raise ServeError(
                "register() needs exactly one operator source: operator=, "
                f"path=, key=, or points=+kernel= (got {sources})"
            )
        if path is not None:
            from ..persist import load_operator

            operator = policy.bind(load_operator(path))
        elif key is not None:
            if self.cache is None:
                raise ServeError(
                    "key-based registration requires a registry ArtifactCache"
                )

            def missing():
                raise ModelNotFoundError(
                    f"artifact cache has no (intact) entry for key {key!r}"
                )

            # strict raises on a corrupted entry; warn / recover evict it.
            operator, _ = self.cache.get_or_build(key, missing, policy)
            policy.bind(operator)
        elif points is not None:
            if kernel is None:
                raise ServeError("points-based registration requires kernel=")
            from ..api.facade import compress

            # compress() probes what it constructs or loads; keep that report.
            result = compress(
                points, kernel, format=format, tol=tol, seed=seed,
                policy=policy, cache=self.cache, full_result=True,
                **compress_kwargs,
            )
            operator, health = result.matrix, result.health
        if not isinstance(operator, H2Matrix):
            raise ServeError(
                f"a served model is an H2Matrix, got {type(operator).__name__}"
            )
        if policy.health is not None and kernel is not None and points is None:
            from ..observe.health import check_operator_health

            health = check_operator_health(
                operator, kernel, operator.tolerance or tol, thresholds=policy.health,
                tracer=policy.tracer, source="loaded",
            )

        model = ServedModel(
            name, operator, noise=noise, kernel=kernel, tol=tol, policy=policy
        )
        model.health = health
        if warm:
            model.slogdet()

        with self._mutex:
            self._models.pop(name, None)
            self._models[name] = model
            self._sweep_locked()
        return model

    # ------------------------------------------------------------------ access
    def get(self, name: str) -> ServedModel:
        """The model registered under ``name`` (refreshes its LRU/TTL clock)."""
        with self._mutex:
            self._sweep_locked()
            model = self._models.get(name)
            if model is None:
                raise ModelNotFoundError(
                    f"no model named {name!r} is registered "
                    f"(available: {sorted(self._models)})"
                )
            model.touch()
            return model

    def __contains__(self, name: str) -> bool:
        with self._mutex:
            return name in self._models

    def names(self) -> list:
        with self._mutex:
            return sorted(self._models)

    def evict(self, name: str) -> bool:
        """Drop ``name``; was it resident?"""
        with self._mutex:
            if self._models.pop(name, None) is None:
                return False
            self.evictions += 1
        return True

    def clear(self) -> None:
        with self._mutex:
            self._models.clear()

    # ---------------------------------------------------------------- eviction
    def _sweep_locked(self) -> None:
        """TTL expiry, then LRU eviction down to the model/byte budgets."""
        now = time.monotonic()
        if self.ttl_seconds is not None:
            expired = [
                name
                for name, model in self._models.items()
                if now - model.last_used > self.ttl_seconds
            ]
            for name in expired:
                self._models.pop(name)
                self.evictions += 1

        def lru_order():
            return sorted(self._models, key=lambda n: self._models[n].last_used)

        if self.max_models is not None:
            for name in lru_order()[: max(0, len(self._models) - self.max_models)]:
                self._models.pop(name)
                self.evictions += 1
        if self.max_bytes is not None:
            total = sum(m.memory_bytes() for m in self._models.values())
            for name in lru_order():
                if total <= self.max_bytes or len(self._models) <= 1:
                    break
                total -= self._models[name].memory_bytes()
                self._models.pop(name)
                self.evictions += 1

    # --------------------------------------------------------------- reporting
    def statistics(self) -> Dict[str, object]:
        with self._mutex:
            return {
                "models": {
                    name: model.statistics()
                    for name, model in sorted(self._models.items())
                },
                "count": len(self._models),
                "bytes": sum(m.memory_bytes() for m in self._models.values()),
                "evictions": self.evictions,
                "ttl_seconds": self.ttl_seconds,
                "max_models": self.max_models,
                "max_bytes": self.max_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ModelRegistry(models={self.names()}, evictions={self.evictions})"
