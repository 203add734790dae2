"""repro.api — the unified operator protocol, execution policy and façade.

One stable surface over the whole library:

* :class:`~repro.api.protocol.HierarchicalOperator` — the operator contract
  every hierarchical format implements (structural ``isinstance``), with
  :class:`~repro.api.protocol.HierarchicalOperatorMixin` supplying the
  derived methods so a format only writes its core apply;
* :class:`~repro.api.policy.ExecutionPolicy` — backend selection,
  construction-path choice and launch-counter wiring consolidated behind the
  named registry of :mod:`repro.backends`;
* :func:`~repro.api.facade.compress` / :class:`~repro.api.facade.Session` —
  the fluent entry points (points + kernel → operator in one call; chained
  ``compress/sweep/factor/solve/gp`` workflows with geometry reuse).

The protocol and policy modules are import-light; the façade (which pulls in
the constructor, solver and GP subsystems) loads lazily on first attribute
access so the format modules can import the protocol without cycles.
"""

from .policy import ExecutionPolicy
from .protocol import (
    PROTOCOL_METHODS,
    HierarchicalOperator,
    HierarchicalOperatorMixin,
)

#: Lazily imported façade attributes (module file relative to this package).
_LAZY = {
    "FORMATS": "facade",
    "Session": "facade",
    "compress": "facade",
}

__all__ = [
    "ExecutionPolicy",
    "FORMATS",
    "HierarchicalOperator",
    "HierarchicalOperatorMixin",
    "PROTOCOL_METHODS",
    "Session",
    "compress",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
