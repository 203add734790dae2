"""Recovery policy: what the pipeline *does* when a guarded boundary trips.

PR 8's health probes detect bad states (NaN samples, stagnating solves,
rank saturation) but only warn.  :class:`RecoveryPolicy` — carried by
``ExecutionPolicy(recovery=...)`` like the tracer — turns those signals into
actions, with three modes:

``strict``
    Any detected fault raises the matching typed
    :class:`~repro.resilience.errors.ResilienceError` immediately.  For CI
    and debugging: nothing is papered over.
``warn``
    Recovery actions run (a corrupted pipeline has no usable "continue
    as-is"), and every one is announced through the ``repro.resilience``
    structured logger + the ``resilience.warnings`` counter.  Conditions
    with a usable degraded outcome (a non-converged solve, which carries an
    explicit ``converged=False``) only warn and return.
``recover``
    Recovery actions run silently — visible only as tracer events and the
    ``resilience.retries`` / ``resilience.recoveries`` /
    ``resilience.escalations`` counters.

The guarantee in every mode: *never a silent wrong answer*.  A fault is
either recovered (a retry or escalation producing a verified-equivalent
result) or surfaced as a typed error / explicit flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..observe.health import StructuredLogAdapter
from ..utils.env import normalize_choice

#: Recognised recovery modes.
MODES = ("strict", "warn", "recover")

#: Default rung order of the solver escalation ladder.
DEFAULT_LADDER: Tuple[str, ...] = ("cg", "pcg", "gmres", "direct")


@dataclass(frozen=True)
class RecoveryPolicy:
    """Per-stage recovery budgets and the strict/warn/recover mode.

    Attributes
    ----------
    mode:
        ``"strict"`` / ``"warn"`` / ``"recover"`` (see module docstring).
    max_retries:
        Retry budget of the in-place recoveries: sample-block relaunches
        after NaN/Inf screening, and compiled-sweep retries after an engine
        failure.  Once it is spent the failure is raised as the typed
        ``SampleCorruptionError`` / ``ConstructionFaultError``.
    max_sample_retries:
        Full re-construction budget of the rank-saturation recovery; the
        first retry escalates the sample budget by ``sample_budget_factor``,
        later retries additionally relax the ID tolerance by
        ``tolerance_relax``.
    sample_budget_factor / tolerance_relax:
        Escalation factors of the rank-saturation retries.
    rung_maxiter:
        Per-rung iteration budget of the solver escalation ladder.
    gmres_restart:
        Restart length of the ladder's GMRES(m) rung.
    memory_budget_bytes:
        Optional hard cap on the compiled sweep's estimated workspace bytes;
        a breach raises ``MemoryBudgetError`` in every mode, before the
        sweep allocates anything.
    ladder:
        Rung order of the escalation ladder (subset/reorder to customise).
    """

    mode: str = "recover"
    max_retries: int = 2
    max_sample_retries: int = 2
    sample_budget_factor: float = 2.0
    tolerance_relax: float = 10.0
    rung_maxiter: int = 100
    gmres_restart: int = 30
    memory_budget_bytes: Optional[int] = None
    ladder: Tuple[str, ...] = field(default=DEFAULT_LADDER)

    def __post_init__(self) -> None:
        mode = normalize_choice(self.mode)
        if mode not in MODES:
            raise ValueError(
                f"unknown recovery mode {self.mode!r}; use one of {list(MODES)}"
            )
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "ladder", tuple(self.ladder))
        if self.max_retries < 0 or self.max_sample_retries < 0:
            raise ValueError("retry budgets must be non-negative")

    # ------------------------------------------------------------ conveniences
    @classmethod
    def strict(cls, **overrides: object) -> "RecoveryPolicy":
        return cls(mode="strict", **overrides)  # type: ignore[arg-type]

    @classmethod
    def warn(cls, **overrides: object) -> "RecoveryPolicy":
        return cls(mode="warn", **overrides)  # type: ignore[arg-type]

    @classmethod
    def recover(cls, **overrides: object) -> "RecoveryPolicy":
        return cls(mode="recover", **overrides)  # type: ignore[arg-type]

    def with_mode(self, mode: str) -> "RecoveryPolicy":
        return replace(self, mode=mode)


_DEFAULT_ADAPTER: Optional[StructuredLogAdapter] = None


def resilience_adapter() -> StructuredLogAdapter:
    """The shared structured-log adapter of the resilience subsystem.

    Warnings go to the ``repro.resilience`` logger and increment the
    ``resilience.warnings`` counter (distinct from ``health.warnings`` so
    dashboards can tell detection from recovery).
    """
    global _DEFAULT_ADAPTER
    if _DEFAULT_ADAPTER is None:
        _DEFAULT_ADAPTER = StructuredLogAdapter(
            "repro.resilience", counter="resilience.warnings"
        )
    return _DEFAULT_ADAPTER
