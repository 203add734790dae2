"""Execution policy: one object deciding *how* the library executes.

The batched backend, the tracer (which owns the shared launch counter), the
health probes and the resilience knobs live on one :class:`ExecutionPolicy`,
whose backend (a name or an instance, :mod:`repro.backends`) is
threaded through the façade (:func:`repro.api.compress`,
:class:`repro.api.Session`), the constructor, the compiled apply plans, the
solvers and the GP subsystem.

Environment overrides (read when a knob is left at ``"auto"``):

``REPRO_BACKEND``
    Backend name resolved by :func:`repro.backends.get` (default
    ``vectorized``).
``REPRO_RESILIENCE``
    ``strict`` / ``warn`` / ``recover`` to install a default
    :class:`~repro.resilience.RecoveryPolicy` on policies that did not pass
    ``recovery=`` explicitly (``off``/unset leaves recovery disabled).
``REPRO_FAULTS``
    A :class:`~repro.resilience.FaultInjector` spec string (see
    :mod:`repro.resilience.faults`) installing deterministic fault injection
    on policies that did not pass ``faults=`` explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

from ..observe.tracer import NOOP_TRACER
from ..resilience.faults import FaultInjector
from ..resilience.policy import RecoveryPolicy
from ..utils.env import env_choice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..batched.backend import BatchedBackend
    from ..batched.counters import KernelLaunchCounter
    from ..core.config import ConstructionConfig
    from ..observe.health import HealthThresholds
    from ..observe.tracer import NoopTracer, SpanTracer


@dataclass
class ExecutionPolicy:
    """Backend selection, tracing, health probes and resilience wiring.

    Attributes
    ----------
    backend:
        ``"serial"``, ``"vectorized"`` or a
        :class:`~repro.batched.backend.BatchedBackend` instance (a custom
        backend is passed as an instance).  ``"auto"``
        (default) follows ``REPRO_BACKEND`` and falls back to
        ``vectorized``.  :meth:`resolve_backend` resolves it once and
        returns the *same* instance on every call, so launch counters
        accumulate per policy (read :meth:`launch_counter`; pass
        ``tracer=SpanTracer(counter=...)`` to share an explicit counter).
    tracer:
        A :class:`~repro.observe.SpanTracer` recording hierarchical spans for
        everything executed under this policy, or the zero-overhead
        :data:`~repro.observe.NOOP_TRACER` (default).  :meth:`resolve_backend`
        binds the tracer to the resolved backend's launch counter and stores
        it on the backend instance (the only policy value it installs there),
        so compiled apply plans record to the same trace.
    health:
        :class:`~repro.observe.health.HealthThresholds` enabling the
        numerical-health telemetry: a stochastic compression-error probe on
        every operator this policy constructs or loads, and
        post-hoc convergence diagnosis (stagnation / divergence /
        preconditioner-ineffectiveness) on every Krylov solve.  Breaches
        *warn* through the ``repro.observe.health`` structured logger — they
        never raise.  ``None`` (default) disables all probes.
    memory_profile:
        When ``True`` and the tracer is enabled, attach a
        :class:`~repro.observe.memory.MemorySampler` so every span carries
        ``mem_peak_bytes`` / ``mem_current_bytes`` / ``mem_rss_bytes``
        attributes (tracemalloc-based; meaningful overhead — keep off for
        benchmarking).  Ignored without an enabled tracer.
    recovery:
        A :class:`~repro.resilience.RecoveryPolicy` (or a bare mode string
        ``"strict"``/``"warn"``/``"recover"``) turning detected faults into
        recovery actions at every guarded boundary: NaN/Inf sample
        screening with relaunch retries, rank-saturation re-construction
        with escalated budgets, compiled-sweep retries (then a typed
        ``ConstructionFaultError``), the workspace budget, artifact
        integrity handling, and the solver escalation ladder on
        non-converged solves.  ``None`` (default) follows
        ``REPRO_RESILIENCE`` and otherwise disables every guard — the
        legacy behaviour, at zero overhead.
    faults:
        A :class:`~repro.resilience.FaultInjector` (or its spec string, see
        :mod:`repro.resilience.faults`) injecting deterministic failures at
        the guarded boundaries.  ``None`` (default) follows
        ``REPRO_FAULTS``.  Installing faults without an explicit
        ``recovery`` enables a default ``RecoveryPolicy(mode="recover")``
        so injected chaos is recovered, not fatal.

    The code that consumes ``recovery``, ``faults`` and ``health`` is handed
    the policy; none of them rides on the backend.
    """

    backend: "Union[str, BatchedBackend]" = "auto"
    tracer: "Union[SpanTracer, NoopTracer, None]" = None
    health: "Optional[HealthThresholds]" = None
    memory_profile: bool = False
    recovery: "Union[RecoveryPolicy, str, None]" = None
    faults: "Union[FaultInjector, str, None]" = None
    _resolved: "Optional[BatchedBackend]" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.tracer is None:
            self.tracer = NOOP_TRACER
        if self.recovery is None:
            env_mode = env_choice("REPRO_RESILIENCE", "off")
            if env_mode not in ("off", "none", "0", "false"):
                self.recovery = env_mode
        if isinstance(self.recovery, str):
            self.recovery = RecoveryPolicy(mode=self.recovery)
        if self.faults is None:
            env_spec = os.environ.get("REPRO_FAULTS", "").strip()
            if env_spec:
                self.faults = env_spec
        if isinstance(self.faults, str):
            self.faults = FaultInjector.from_spec(self.faults)
        if self.faults is not None and self.recovery is None:
            # Injected chaos without an explicit policy must be recovered,
            # not fatal: REPRO_FAULTS alone turns any run into a chaos test
            # that is still expected to produce correct results.
            self.recovery = RecoveryPolicy(mode="recover")
        if self.memory_profile and self.tracer.enabled and self.tracer.memory is None:
            from ..observe.memory import MemorySampler

            self.tracer.memory = MemorySampler()

    # ------------------------------------------------------------- resolution
    def resolve_backend(self) -> "BatchedBackend":
        """The backend instance this policy executes on.

        Besides resolving the name, this is the single consolidation point of
        launch-counter and tracer ownership: the policy's tracer adopts the
        resolved backend's counter (or supplies its own to the backend
        factory) and is installed as ``backend.tracer``.  Nothing else of
        the policy is written onto the backend.
        """
        from ..batched.backend import get_backend

        if self._resolved is not None:
            return self._resolved
        # The tracer's counter is None until its first bind: fine.
        counter = self.tracer.counter if self.tracer.enabled else None
        backend = get_backend(self.backend, counter=counter)
        if self.tracer.enabled:
            self.tracer.bind_counter(backend.counter)
            backend.tracer = self.tracer
        self._resolved = backend
        return backend

    # ------------------------------------------------------------ composition
    def construction_config(self, **overrides: object) -> "ConstructionConfig":
        """A :class:`~repro.core.config.ConstructionConfig` under this policy.

        Keyword arguments mirror the config fields (``tolerance``,
        ``sample_block_size``, ...); the policy fills ``backend`` unless
        explicitly overridden.
        """
        from ..core.config import ConstructionConfig

        overrides.setdefault("backend", self.resolve_backend())
        return ConstructionConfig(**overrides)  # type: ignore[arg-type]

    def with_backend(self, backend: "Union[str, BatchedBackend]") -> "ExecutionPolicy":
        """A copy of this policy on a different backend."""
        return replace(self, backend=backend)

    @classmethod
    def from_env(cls, **overrides: object) -> "ExecutionPolicy":
        """Policy snapshot of the current ``REPRO_*`` environment."""
        values: dict = {"backend": env_choice("REPRO_BACKEND", "vectorized")}
        values.update(overrides)
        return cls(**values)

    # ------------------------------------------------------------ diagnostics
    def launch_counter(self) -> "KernelLaunchCounter":
        """The launch counter of the resolved backend."""
        return self.resolve_backend().counter
