"""Guarded execution: recovery policies, typed errors and fault injection.

The resilience subsystem turns the warn-only health signals of
:mod:`repro.observe` into recovery *actions*, threaded through
:class:`~repro.api.policy.ExecutionPolicy` exactly like the tracer::

    policy = repro.ExecutionPolicy(recovery="recover")     # or RecoveryPolicy(...)
    h2 = repro.compress(points, kernel, policy=policy)

* :class:`RecoveryPolicy` — the strict / warn / recover mode, the
  iteration budget of each escalation rung and the workspace budget,
  consulted at every guarded boundary (sample sketching, the packed sweep
  engine, artifact loads, Krylov solves);
* :class:`~repro.resilience.errors.ResilienceError` and subclasses — the
  typed failure surface (never a silent wrong answer);
* :class:`FaultInjector` — deterministic, seedable fault injection
  (``ExecutionPolicy(faults=...)`` / ``REPRO_FAULTS``) exercising every
  recovery path reproducibly;
* the one guarded solve lives in :mod:`repro.solvers.ladder`
  (:func:`~repro.solvers.ladder.guarded_solve`: CG → preconditioned CG →
  GMRES(m) → HSS direct).
"""

from .errors import (
    ArtifactIntegrityError,
    ConstructionFaultError,
    EscalationExhaustedError,
    MemoryBudgetError,
    RankSaturationError,
    ResilienceError,
    SampleCorruptionError,
    SolveDidNotConvergeError,
)
from .faults import FAULT_KINDS, FaultInjector, FaultSpec, InjectedFault
from .policy import MODES, RecoveryPolicy, resilience_adapter

__all__ = [
    "ArtifactIntegrityError",
    "ConstructionFaultError",
    "EscalationExhaustedError",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "MODES",
    "MemoryBudgetError",
    "RankSaturationError",
    "RecoveryPolicy",
    "ResilienceError",
    "SampleCorruptionError",
    "SolveDidNotConvergeError",
    "resilience_adapter",
]
