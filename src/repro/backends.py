"""Execution backends (the public face of :mod:`repro.batched.backend`).

Every component that executes batched work — the bottom-up constructor, the
compiled H2 apply plans, the Krylov solvers iterating on them and the GP
subsystem — takes its backend as a name or as an instance:

>>> import repro.backends
>>> repro.backends.get("serial").name
'serial'
>>> class MyBackend(repro.backends.SerialBackend):
...     name = "mybackend"
>>> repro.ExecutionPolicy(backend=MyBackend()).resolve_backend().name
'mybackend'

Names: ``serial`` (one BLAS call per block) and ``vectorized``
(shape-grouped stacked execution, the GPU analogue).  ``"auto"`` follows the
``REPRO_BACKEND`` environment variable and falls back to ``vectorized`` —
see :class:`~repro.api.policy.ExecutionPolicy`, which consolidates backend
selection and launch-counter wiring.  A :class:`BatchedBackend` instance
passes through unchanged.
"""

from .batched.backend import (
    BatchedBackend,
    SerialBackend,
    VectorizedBackend,
    get_backend as get,
)
from .batched.counters import KernelLaunchCounter

__all__ = [
    "BatchedBackend",
    "KernelLaunchCounter",
    "SerialBackend",
    "VectorizedBackend",
    "get",
]
