"""Execution policy: one object deciding *how* the library executes.

The batched backend, the tracer, the health probes and the resilience knobs
live on one :class:`ExecutionPolicy`, which is passed to the façade
(:func:`repro.api.compress`, :class:`repro.api.Session`), the constructor,
the GP subsystem and the server.  An operator created under a policy is
bound to its backend and tracer (:meth:`ExecutionPolicy.bind`), and the
solvers, the factorization and the recompression read that binding.
Nothing is written onto the backend or the tracer, which several policies
may share: a span counts the launches of the task or thread that opened it
(:mod:`repro.observe.tracer`), not those of a counter it was handed.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from ..observe.tracer import NOOP_TRACER
from ..resilience.faults import FaultInjector
from ..resilience.policy import RecoveryPolicy
from ..utils.env import env_choice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..batched.backend import BatchedBackend
    from ..batched.counters import KernelLaunchCounter
    from ..hmatrix.h2matrix import H2Matrix
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
        accumulate per policy (read :meth:`launch_counter`).  Every
        construction under the policy runs on it: a ``config=`` given to
        ``compress`` or ``Session.construct`` leaves its ``backend`` at
        ``"auto"`` or passes this instance.
    tracer:
        A :class:`~repro.observe.SpanTracer` recording hierarchical spans for
        everything executed under this policy, or the zero-overhead
        :data:`~repro.observe.NOOP_TRACER` (default).  The constructor runs
        under it, and :meth:`bind` makes the work on an operator (applies,
        solves, factorizations) record to it.  Per-span peak memory is the
        tracer's own option, ``SpanTracer(memory=MemorySampler())``.
    health:
        :class:`~repro.observe.health.HealthThresholds` enabling the
        numerical-health telemetry: a stochastic compression-error probe on
        every operator this policy constructs or loads, and
        post-hoc convergence diagnosis (stagnation / divergence /
        preconditioner-ineffectiveness) on every Krylov solve.  Breaches
        *warn* through the ``repro.observe.health`` structured logger — they
        never raise.  ``None`` (default) disables all probes.
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

    # ------------------------------------------------------------- resolution
    def resolve_backend(self) -> "BatchedBackend":
        """The backend instance this policy executes on (the name is
        resolved once)."""
        from ..batched.backend import get_backend

        if self._resolved is None:
            self._resolved = get_backend(self.backend)
        return self._resolved

    def bind(self, matrix: "H2Matrix") -> "H2Matrix":
        """Make ``matrix`` apply on this policy's backend and record the work
        on it (applies, solves, factorizations, recompressions) to this
        policy's tracer; returns the matrix.  The façade binds what it
        constructs or loads, the server what it loads by path or key.  Two
        policies may share one backend:

        >>> import numpy as np, repro
        >>> shared = repro.VectorizedBackend()
        >>> a = ExecutionPolicy(backend=shared, tracer=repro.SpanTracer())
        >>> b = ExecutionPolicy(backend=shared, tracer=repro.SpanTracer())
        >>> points = repro.uniform_cube_points(256, dim=2, seed=0)
        >>> first = repro.compress(points, repro.ExponentialKernel(0.2), policy=a)
        >>> second = b.bind(repro.compress(points, repro.ExponentialKernel(0.2)))
        >>> first.apply_backend is second.apply_backend is shared
        True
        >>> y1, y2 = first.matvec(np.ones(256)), second.matvec(np.ones(256))
        >>> [len(repro.observe.find_spans(p.tracer, name="apply")) for p in (a, b)]
        [1, 1]
        """
        return matrix.bind(self.resolve_backend(), self.tracer)

    # ------------------------------------------------------------ diagnostics
    def launch_counter(self) -> "KernelLaunchCounter":
        """The launch counter of the resolved backend."""
        return self.resolve_backend().counter
