"""Batched execution engine over variable-size matrix batches.

This package is the reproduction's stand-in for the paper's GPU layer
(Thrust marshaling + KBLAS/MAGMA batched kernels).  Operations on all nodes
of a tree level are expressed as *batched primitives* over variable-size
matrices; two backends execute them:

* :class:`SerialBackend` — one plain NumPy call per matrix, the analogue of
  the paper's CPU implementation (OpenMP loop around single-threaded BLAS);
* :class:`VectorizedBackend` — matrices are grouped by shape and each group is
  executed with a single stacked (batched) NumPy/BLAS call, the analogue of a
  single GPU kernel launch per shape group.

Kernel-launch counting (:class:`KernelLaunchCounter`) exposes how many batched
dispatches a construction needed, reproducing the paper's O(log N) launch-count
argument (Section IV-B).

The same machinery also *applies* constructed H2 matrices:
:mod:`repro.batched.apply_plan` compiles an ``H2Matrix`` into per-level
execution plans over plain 3-D stacks (:class:`H2ApplyPlan`) so that matvec,
matmat and the transpose applies run as O(levels) batched launches on either
backend instead of a per-node Python loop — marshaled by the same block-row
grouping (:mod:`repro.batched.block_rows`) as the compiled construction sweep; :mod:`repro.batched.entry_plan`
does the same for entry evaluation (:class:`H2EntryPlan`: sub-blocks of an H2
matrix in O(levels) vectorised passes per stack of requests).
"""

from .apply_plan import ApplyStage, H2ApplyPlan, compile_apply_plan
from .backend import (
    BatchedBackend,
    SerialBackend,
    VectorizedBackend,
    get_backend,
)
from .construction_plan import ConstructionPlan, PackedSweepEngine
from .counters import KernelLaunchCounter
from .entry_plan import H2EntryPlan

__all__ = [
    "ApplyStage",
    "BatchedBackend",
    "ConstructionPlan",
    "H2ApplyPlan",
    "H2EntryPlan",
    "PackedSweepEngine",
    "SerialBackend",
    "VectorizedBackend",
    "compile_apply_plan",
    "get_backend",
    "KernelLaunchCounter",
]
