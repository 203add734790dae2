"""Backends executing batched variable-size linear-algebra primitives.

The construction algorithm (Algorithm 1) is phrased entirely in terms of a
small set of batched operations over all nodes of a tree level:

====================  =====================================================
``batched_rand``      generate the random sketching block ``Omega``
``batched_gemm_scatter``  block-row GEMMs gathered from / scattered into
                      3-D stacks: the non-uniform BSR products and the
                      upsweep of the construction sweep, and every stage of
                      the compiled H2 apply (:mod:`repro.batched.apply_plan`)
``batched_min_r_diag``  the adaptive convergence test (QR of every ``Y_loc``)
``batched_row_id``    the interpolative decompositions
====================  =====================================================

Two backends are provided.  :class:`SerialBackend` executes one NumPy call per
matrix in the batch — this is the reference "CPU" implementation, analogous to
the paper's OpenMP-loop-around-BLAS variant.  :class:`VectorizedBackend`
groups the matrices of a batch by shape and executes each group with a single
stacked NumPy call (``np.matmul`` / ``np.linalg.qr`` on 3-D arrays), which is
the NumPy analogue of launching one batched GPU kernel per shape group; it
also records one "kernel launch" per group in the attached
:class:`~repro.batched.counters.KernelLaunchCounter`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..linalg.interpolative import InterpolativeDecomposition, row_id
from ..linalg.qr import smallest_r_diagonal
from ..utils.env import env_choice, normalize_choice
from ..utils.rng import SeedLike, as_generator
from .counters import KernelLaunchCounter

Matrices = Sequence[np.ndarray]


class BatchedBackend(ABC):
    """Common interface of the batched execution backends: stateless kernel
    providers whose one piece of state is the launch counter, so policies and
    matrices may share an instance."""

    #: Human readable backend name (used in benchmark output).
    name: str = "abstract"

    def __init__(self, counter: KernelLaunchCounter | None = None):
        self.counter = counter if counter is not None else KernelLaunchCounter()

    # -------------------------------------------------------------- recording
    def _record(self, operation: str, launches: int) -> None:
        self.counter.record(operation, launches)

    # ------------------------------------------------------------- primitives
    @abstractmethod
    def batched_min_r_diag(self, a: Matrices) -> np.ndarray:
        """Smallest absolute R-diagonal of a QR of every item (convergence test).

        ``a`` may be a list of 2-D matrices or a uniform ``(count, m, d)`` 3-D
        stack (the compiled construction sweep passes its packed per-level
        sample buffers directly; zero-padded rows do not change the result).
        """

    def batched_gemm_scatter(
        self,
        dest: np.ndarray,
        dest_pos: np.ndarray,
        a: np.ndarray,
        src: np.ndarray,
        src_pos: np.ndarray,
        alpha: float = 1.0,
        operation: str = "batched_scatter_gemm",
    ) -> None:
        """Gathered block-row GEMMs ``dest[dest_pos[i]] += alpha * a[i] @ vstack(src[src_pos[i*c : (i+1)*c]])``.

        The per-stage primitive of the compiled H2 apply engine
        (:mod:`repro.batched.apply_plan`) and of the compiled construction
        sweep (:mod:`repro.batched.construction_plan`), phrased as the paper's
        non-uniform BSR row product: each batch item is one *block row* whose
        static operand ``a[i]`` of shape ``(p, c*q)`` concatenates the ``c``
        blocks of the row, and whose dynamic operand is the vertical
        concatenation of ``c`` source blocks.  All three operands are 3-D
        stacks: ``a`` is ``(g, p, c*q)``, ``src`` a ``(count, q, k)`` and
        ``dest`` a ``(count', p, k)`` stack — possibly strided views, which is
        how the construction engine passes column windows of its preallocated
        sweep workspace.  The fan-in ``c`` is implied by ``len(src_pos) == c *
        len(dest_pos)``.  Because a whole block row is one GEMM, destinations
        within a call are unique and the scatter is a plain indexed
        accumulate — callers fuse all blocks sharing a destination into one
        row.

        This reference implementation executes one GEMM per block row — the
        per-node "CPU" schedule.  :class:`VectorizedBackend` overrides it with
        a single gather / stacked-GEMM / scatter sequence per launch.
        """
        self._record(operation, 1)
        rows = len(dest_pos)
        if rows == 0:
            return
        fan_in = len(src_pos) // rows
        for i in range(rows):
            parts = [src[int(j)] for j in src_pos[i * fan_in : (i + 1) * fan_in]]
            rhs = parts[0] if fan_in == 1 else np.vstack(parts)
            block = dest[int(dest_pos[i])]
            block += alpha * (a[i] @ rhs)

    def batched_row_id(
        self,
        a: Matrices,
        rel_tol: float | None = None,
        abs_tols: Sequence[float] | None = None,
        max_rank: int | None = None,
    ) -> List[InterpolativeDecomposition]:
        """Row interpolative decomposition of every item.

        There is no stacked LAPACK pivoted QR, so both backends perform this
        as a loop; on the GPU the paper uses KBLAS' batched column-pivoted QR.
        The serial batch counts as a single launch; :class:`VectorizedBackend`
        groups the batch by shape and records one launch per group, mirroring
        how a batched QR kernel would be dispatched.
        """
        self._record("batched_id", 1)
        results = []
        for i, mat in enumerate(a):
            abs_tol = None if abs_tols is None else float(abs_tols[i])
            results.append(
                row_id(mat, rel_tol=rel_tol, abs_tol=abs_tol, max_rank=max_rank)
            )
        return results

    def batched_random_normal(
        self, shape: Tuple[int, int], seed: SeedLike = None
    ) -> np.ndarray:
        """Draw one standard-normal ``shape`` block (the sketch ``Omega``) in one launch."""
        out = as_generator(seed).standard_normal(shape)
        self._record("batched_rand", 1)
        return out

    # -------------------------------------------------------------- reporting
    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}(launches={self.counter.total()})"


class SerialBackend(BatchedBackend):
    """Reference backend: one NumPy/BLAS call per matrix in the batch.

    Mirrors the paper's CPU implementation where every node of a level is
    processed by an independent (OpenMP-parallel) loop iteration calling
    single-threaded BLAS/LAPACK.
    """

    name = "serial"

    def batched_min_r_diag(self, a: Matrices) -> np.ndarray:
        self._record("batched_qr", 1)
        return np.array([smallest_r_diagonal(mat) for mat in a], dtype=np.float64)


class VectorizedBackend(BatchedBackend):
    """Shape-grouped backend: one stacked NumPy call per shape group.

    This is the GPU-simulation backend.  All matrices of a batch sharing the
    same shape are stacked into a 3-D array and processed with a single
    vectorised call (``np.matmul`` broadcasting over the leading axis,
    stacked ``np.linalg.qr``), so the number of library dispatches per level is
    the number of distinct shapes rather than the number of nodes — exactly
    the launch-reduction the paper's batched kernels achieve.
    """

    name = "vectorized"

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _group_by_shape(*mats: Matrices) -> Dict[tuple, List[int]]:
        groups: Dict[tuple, List[int]] = defaultdict(list)
        count = len(mats[0])
        for i in range(count):
            key = tuple(m[i].shape for m in mats)
            groups[key].append(i)
        return groups

    @staticmethod
    def _as_uniform_stack(buffer: np.ndarray) -> np.ndarray | None:
        """``buffer`` when it is a 3-D stack, else ``None``.

        Not used by the backend itself: ``benchmarks/e2e/layers.py`` reads it
        to size the GEMM work of a ``batched_gemm_scatter`` launch.
        """
        return buffer if isinstance(buffer, np.ndarray) and buffer.ndim == 3 else None

    def batched_gemm_scatter(
        self,
        dest: np.ndarray,
        dest_pos: np.ndarray,
        a: np.ndarray,
        src: np.ndarray,
        src_pos: np.ndarray,
        alpha: float = 1.0,
        operation: str = "batched_scatter_gemm",
    ) -> None:
        """One gather / stacked-GEMM / scatter per launch.

        No Python-level per-block work: the ``c`` source blocks of every block
        row are marshaled with a single first-axis fancy gather (then viewed
        as the ``(g, c*q, k)`` stacked right-hand side), multiplied with one
        ``np.matmul`` over the stack, and accumulated with one fancy indexed
        add (destinations are unique by the block-row contract).
        """
        rows = len(dest_pos)
        if rows == 0:
            self._record(operation, 0)
            return
        self._record(operation, 1)
        g, p, cq = a.shape
        k = src.shape[2]
        if p == 0 or cq == 0 or k == 0:
            return
        rhs = src[src_pos].reshape(g, cq, k)
        prod = np.matmul(a, rhs)
        if alpha != 1.0:
            prod *= alpha
        dest[dest_pos] += prod

    def batched_row_id(
        self,
        a: Matrices,
        rel_tol: float | None = None,
        abs_tols: Sequence[float] | None = None,
        max_rank: int | None = None,
    ) -> List[InterpolativeDecomposition]:
        """Rank-grouped row IDs: one recorded launch per distinct block shape.

        The decompositions themselves are the same per-matrix pivoted QRs as
        the serial path (bit-identical skeleton selections); grouping the
        batch by shape mirrors how a batched column-pivoted QR kernel (KBLAS)
        would be dispatched and is what the launch counters report.
        """
        groups = self._group_by_shape(a)
        self._record("batched_id", len(groups))
        results: List[InterpolativeDecomposition | None] = [None] * len(a)
        for indices in groups.values():
            for i in indices:
                abs_tol = None if abs_tols is None else float(abs_tols[i])
                results[i] = row_id(
                    a[i], rel_tol=rel_tol, abs_tol=abs_tol, max_rank=max_rank
                )
        return results  # type: ignore[return-value]

    def batched_min_r_diag(self, a: Matrices) -> np.ndarray:
        if isinstance(a, np.ndarray) and a.ndim == 3:
            # Pre-stacked uniform batch: a single stacked QR, no marshaling.
            self._record("batched_qr", 1)
            count, rows, cols = a.shape
            if rows == 0 or cols == 0 or rows < cols:
                return np.zeros(count, dtype=np.float64)
            r = np.linalg.qr(a, mode="r")
            diags = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
            return diags.min(axis=-1) if diags.size else np.zeros(count)
        out = np.zeros(len(a), dtype=np.float64)
        groups = self._group_by_shape(a)
        self._record("batched_qr", len(groups))
        for indices in groups.values():
            sample = a[indices[0]]
            rows, cols = sample.shape
            if rows == 0 or cols == 0 or rows < cols:
                # Rank-deficient by construction: converged (see smallest_r_diagonal).
                for i in indices:
                    out[i] = 0.0
                continue
            stack = np.stack([a[i] for i in indices])
            r = np.linalg.qr(stack, mode="r")
            diags = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
            mins = diags.min(axis=-1) if diags.size else np.zeros(len(indices))
            for pos, i in enumerate(indices):
                out[i] = mins[pos]
        return out


#: The backends a name selects.
_BACKENDS: Dict[str, type] = {"serial": SerialBackend, "vectorized": VectorizedBackend}


def get_backend(name: str | BatchedBackend | None = "auto") -> BatchedBackend:
    """A backend from its name, or ``name`` itself when it is a backend.

    Names are ``"serial"`` and ``"vectorized"`` (case-insensitive);
    ``"auto"`` (or ``None``) follows the ``REPRO_BACKEND`` environment
    variable and falls back to ``vectorized``.  A :class:`BatchedBackend`
    instance passes through unchanged: that is how a custom backend (e.g. an
    instrumented subclass) is plugged in, as ``ExecutionPolicy(backend=...)``,
    ``ConstructionConfig(backend=...)`` or ``H2Matrix.bind(backend)``.
    """
    if isinstance(name, BatchedBackend):
        return name
    if name is None or normalize_choice(name) == "auto":
        name = env_choice("REPRO_BACKEND", "vectorized")
    key = normalize_choice(name)
    if key not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose one of {sorted(_BACKENDS)}")
    return _BACKENDS[key]()
