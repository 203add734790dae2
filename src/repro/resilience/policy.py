"""Recovery policy: what the pipeline *does* when a guarded boundary trips.

The health probes of :mod:`repro.observe` detect bad states (NaN samples,
stagnating solves, rank saturation) but only warn.  :class:`RecoveryPolicy`
— carried by ``ExecutionPolicy(recovery=...)`` like the tracer, as an
instance or as the mode string — turns those signals into actions, with
three modes:

``strict``
    Any detected fault raises the matching typed
    :class:`~repro.resilience.errors.ResilienceError` immediately.  For CI
    and debugging: nothing is papered over.
``warn``
    Recovery actions run (a corrupted pipeline has no usable "continue
    as-is"), and every one is announced through the ``repro.resilience``
    structured logger.  Conditions
    with a usable degraded outcome (a non-converged solve, which carries an
    explicit ``converged=False``) only warn and return.
``recover``
    Recovery actions run silently — each construction retry is a
    ``resilience/<event>`` span under a tracer, each solve escalation a rung
    of the result's ``extra["escalation"]`` record (and a
    ``resilience/ladder:<rung>`` span), and each injected fault a firing of
    :meth:`FaultInjector.fired <repro.resilience.faults.FaultInjector.fired>`.

The guarantee in every mode: *never a silent wrong answer*.  A fault is
either recovered (a retry or escalation producing a verified-equivalent
result) or surfaced as a typed error / explicit flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..observe.health import StructuredLogAdapter
from ..utils.env import normalize_choice

#: Recognised recovery modes.
MODES = ("strict", "warn", "recover")


@dataclass(frozen=True)
class RecoveryPolicy:
    """The strict/warn/recover mode and the two budgets a caller sets.

    The retry budgets of construction (sample relaunches, compiled-sweep
    retries, rank-saturation re-constructions and their escalation factors)
    are constants of :mod:`repro.core.builder`; the escalation order of a
    solve is fixed (:func:`~repro.solvers.ladder.guarded_solve`).

    Attributes
    ----------
    mode:
        ``"strict"`` / ``"warn"`` / ``"recover"`` (see module docstring).
    rung_maxiter:
        Iteration budget of each escalation rung of a ``recover``-mode solve.
    memory_budget_bytes:
        Optional hard cap on the compiled sweep's estimated workspace bytes;
        a breach raises ``MemoryBudgetError`` in every mode, before the
        sweep allocates anything.
    """

    mode: str = "recover"
    rung_maxiter: int = 100
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        mode = normalize_choice(self.mode)
        if mode not in MODES:
            raise ValueError(
                f"unknown recovery mode {self.mode!r}; use one of {list(MODES)}"
            )
        object.__setattr__(self, "mode", mode)


_ADAPTER = StructuredLogAdapter("repro.resilience")


def resilience_adapter() -> StructuredLogAdapter:
    """The structured-log adapter of the resilience subsystem.

    Warnings are records of the ``repro.resilience`` logger (distinct from
    ``repro.observe.health``, so detection and recovery stay two streams).
    """
    return _ADAPTER
