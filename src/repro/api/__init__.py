"""repro.api — the execution policy and the façade.

* :class:`~repro.api.policy.ExecutionPolicy` — backend selection (a name
  or an instance, :mod:`repro.backends`) and launch-counter wiring;
* :func:`~repro.api.facade.compress` / :class:`~repro.api.facade.Session` —
  the fluent entry points (points + kernel → :class:`~repro.hmatrix.h2matrix.H2Matrix`
  in one call; chained ``compress/sweep/factor/solve/gp`` workflows with
  geometry reuse).
"""

from .facade import FORMATS, Session, compress
from .policy import ExecutionPolicy

__all__ = [
    "ExecutionPolicy",
    "FORMATS",
    "Session",
    "compress",
]
