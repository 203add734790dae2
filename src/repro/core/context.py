"""Geometry-reuse construction context for hyperparameter sweeps.

A Gaussian-process log-likelihood optimization (or any kernel hyperparameter
sweep) re-constructs the hierarchical representation of ``K(theta)`` at many
parameter points over the *same* point set.  :class:`GeometryContext` builds
what is independent of ``theta`` once and hands :meth:`construct` out per
parameter point:

* the cluster tree and block partition (pure geometry),
* one integer sample seed, so every construction sketches with the same
  random vectors, and
* the last construction result (a repeated parameter point costs nothing)
  plus an optional artifact cache.

Every construction otherwise runs Algorithm 1 as the paper states it: fresh
Gaussian sketch blocks from its seed and its own compiled construction plan.

While one ``n x n`` kernel-value matrix fits in 300 MiB (n up to 6,270),
:meth:`GeometryContext.bind` evaluates it with ``kernel.matrix`` and every
black-box application is a GEMM; above that size kernel rows are evaluated on
the fly.  The dense rule pays: sampling on the fly instead made the N = 2048
3D ``Session`` construction 23 % slower (0.389 s -> 0.477 s).
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..api.policy import ExecutionPolicy
from ..batched.backend import BatchedBackend
from ..kernels.base import KernelFunction
from ..sketching.entry_extractor import (
    DenseEntryExtractor,
    EntryExtractor,
    KernelEntryExtractor,
)
from ..sketching.operators import DenseOperator, KernelMatVecOperator, SketchingOperator
from ..tree.admissibility import WeakAdmissibility
from ..tree.block_partition import BlockPartition, build_block_partition
from ..tree.cluster_tree import ClusterTree
from ..utils.rng import SeedLike, as_generator
from .builder import ConstructionResult, H2Constructor
from .config import ConstructionConfig


#: Byte budget of the dense kernel-value matrix: ``bind`` materialises the
#: ``n x n`` values (``n * n * 8`` bytes) while they fit, i.e. up to
#: n = 6,270 points.
_DENSE_VALUES_BYTES = 300 * 2**20


@dataclass
class ContextStatistics:
    """Reuse counters of a :class:`GeometryContext` (sweep diagnostics)."""

    constructions: int = 0
    result_cache_hits: int = 0
    artifact_cache_hits: int = 0
    setup_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class GeometryContext:
    """Builds the kernel-parameter-independent geometry of H2 construction once.

    Parameters
    ----------
    points:
        ``(n, dim)`` point coordinates (original ordering).
    leaf_size:
        Cluster-tree leaf size.
    admissibility:
        Block-partition admissibility; defaults to
        :class:`~repro.tree.admissibility.WeakAdmissibility` (the HSS/HODLR
        partition every downstream factorization consumes — pass a
        :class:`~repro.tree.admissibility.GeneralAdmissibility` for general
        H2 sweeps).
    policy:
        The :class:`~repro.api.policy.ExecutionPolicy` of everything the
        context executes (default ``ExecutionPolicy()``, as for
        :func:`repro.compress`).  Its backend is resolved once, so one launch
        counter spans every construction and compiled apply; its recovery and
        faults guard every construction and artifact-cache read.
    seed:
        Source of :attr:`sample_seed`, the one integer every construction of
        the context seeds its sketch with: an integer, ``None`` (OS entropy)
        or a ``Generator`` is drawn from once, at construction of the context,
        so all constructions of one context sketch with identical vectors.
    artifact_cache:
        Optional :class:`~repro.persist.cache.ArtifactCache`.  When given,
        :meth:`construct` consults it before constructing (the key covers
        points, kernel identity, tolerance, leaf size, admissibility,
        sample block size and seed) and stores every freshly constructed
        operator.  Requires an integer (or ``None``) ``seed`` — a live
        ``Generator`` does not key reproducibly, so artifact caching is
        silently disabled.
    """

    def __init__(
        self,
        points: np.ndarray,
        leaf_size: int = 64,
        admissibility: object | None = None,
        policy: ExecutionPolicy | None = None,
        seed: SeedLike = 0,
        artifact_cache: object | None = None,
    ):
        start = time.perf_counter()
        self.policy = policy if policy is not None else ExecutionPolicy()
        # One backend instance (hence one launch counter) for the lifetime of
        # the context: constructions and the compiled applies of every matrix
        # it produces all account to the same place.
        self.backend: BatchedBackend = self.policy.resolve_backend()
        self.tracer = self.policy.tracer

        self.tree: ClusterTree = ClusterTree.build(points, leaf_size=leaf_size)
        self.partition: BlockPartition = build_block_partition(
            self.tree, admissibility if admissibility is not None else WeakAdmissibility()
        )
        #: Seed of every construction's sketch (see ``seed``).
        self.sample_seed = int(as_generator(seed).integers(0, 2**63 - 1))

        # Artifact caching needs a reproducible construction: only integer
        # (or None) seeds key deterministically, a live Generator does not.
        seed_is_hashable = seed is None or isinstance(seed, (int, np.integer))
        self.artifact_cache = artifact_cache if seed_is_hashable else None
        self._artifact_seed = int(seed) if isinstance(seed, (int, np.integer)) else None
        self._artifact_points: Optional[np.ndarray] = (
            np.ascontiguousarray(points, dtype=np.float64)
            if self.artifact_cache is not None
            else None
        )

        self._last_kernel: Optional[KernelFunction] = None
        self._last_key: Optional[Tuple[float, int]] = None
        self._last_result: Optional[ConstructionResult] = None
        self.statistics = ContextStatistics(
            setup_seconds=time.perf_counter() - start
        )

    # ----------------------------------------------------------------- binding
    @property
    def num_points(self) -> int:
        return self.tree.num_points

    @property
    def _dense_values(self) -> bool:
        """Whether :meth:`bind` materialises the ``n x n`` kernel values."""
        return self.num_points**2 * 8 <= _DENSE_VALUES_BYTES

    def bind(self, kernel: KernelFunction) -> Tuple[SketchingOperator, EntryExtractor]:
        """Operator/extractor pair evaluating ``kernel`` over the context's points.

        While one ``n x n`` value matrix fits ``_DENSE_VALUES_BYTES`` the
        kernel values are evaluated once per parameter point
        (``kernel.matrix``), so every black-box application is a plain GEMM;
        otherwise kernel rows are generated on the fly.
        """
        points = self.tree.points
        if self._dense_values:
            values = kernel.matrix(points)
            return DenseOperator(values), DenseEntryExtractor(values)
        return KernelMatVecOperator(kernel, points), KernelEntryExtractor(kernel, points)

    # ------------------------------------------------------------ construction
    def construct(
        self,
        kernel: KernelFunction,
        tolerance: float = 1e-6,
        sample_block_size: int = 64,
        config: ConstructionConfig | None = None,
    ) -> ConstructionResult:
        """Construct the H2 representation of ``K(kernel)`` over the context's geometry.

        Parameters beyond the kernel mirror
        :class:`~repro.core.config.ConstructionConfig` (or pass ``config``
        directly).  Every construction sketches from :attr:`sample_seed` and
        compiles its own construction plan.

        Repeating the *identical* ``(kernel, tolerance, sample_block_size)``
        point (the inner loop of a noise/nugget sweep, where the compressed
        ``K`` does not change at all) returns the previously constructed
        result without re-running the constructor; an explicit ``config``
        always constructs.
        """
        cacheable = config is None
        if (
            cacheable
            and self._last_result is not None
            and self._last_key == (float(tolerance), int(sample_block_size))
            and type(kernel) is type(self._last_kernel)
            and kernel == self._last_kernel
        ):
            self.statistics.result_cache_hits += 1
            return self._last_result

        artifact_key = None
        if (
            cacheable
            and self.artifact_cache is not None
            and isinstance(kernel, KernelFunction)
        ):
            from ..persist.format import ArtifactError

            try:
                artifact_key = self.artifact_cache.key(
                    self._artifact_points,
                    kernel,
                    tol=tolerance,
                    format="h2",
                    leaf_size=self.tree.leaf_size,
                    admissibility=self.partition.admissibility,
                    seed=self._artifact_seed,
                    extra={"sample_block_size": int(sample_block_size)},
                )
            except ArtifactError:
                # Unhashable request (custom admissibility, ...): construct.
                artifact_key = None

        result = None

        def build():
            nonlocal result
            result = self._build(kernel, tolerance, sample_block_size, config)
            return result.matrix

        if artifact_key is None:
            build()
        else:
            load_start = time.perf_counter()
            matrix, hit = self.artifact_cache.get_or_build(
                artifact_key, build, self.policy
            )
            if hit:
                matrix.apply_backend = self.backend
                result = ConstructionResult(
                    matrix=matrix,
                    config=ConstructionConfig(
                        tolerance=tolerance,
                        sample_block_size=sample_block_size,
                        backend=self.backend,
                    ),
                    total_samples=0,
                    operator_applications=0,
                    entries_evaluated=0,
                    elapsed_seconds=time.perf_counter() - load_start,
                    kernel_launches={},
                    total_kernel_launches=0,
                    kernel_calls={},
                    total_kernel_calls=0,
                    norm_estimate=0.0,
                    converged=True,
                    construction_path="cache",
                )
                self.statistics.artifact_cache_hits += 1
        if cacheable:
            # Snapshot the kernel: a caller mutating a (mutable dataclass)
            # kernel in place must miss the cache, not hit its own reference.
            self._last_kernel = copy.deepcopy(kernel)
            self._last_key = (float(tolerance), int(sample_block_size))
            self._last_result = result
        return result

    def _build(
        self,
        kernel: KernelFunction,
        tolerance: float,
        sample_block_size: int,
        config: ConstructionConfig | None,
    ) -> ConstructionResult:
        """Run the constructor over the context's geometry (no result caches)."""
        if config is None:
            config = ConstructionConfig(
                tolerance=tolerance,
                sample_block_size=sample_block_size,
                backend=self.backend,
            )
        result = H2Constructor(
            self.partition,
            *self.bind(kernel),
            config=config,
            seed=self.sample_seed,
            tracer=self.tracer,
            recovery=self.policy.recovery,
            faults=self.policy.faults,
        ).construct()
        self.statistics.constructions += 1

        result.matrix.apply_backend = self.backend
        result.matrix.apply_plan()  # compiled here, inside the construction time
        return result

    # ------------------------------------------------------------- diagnostics
    def describe(self) -> str:
        stats = self.statistics
        return (
            f"GeometryContext(n={self.num_points}, depth={self.tree.depth}, "
            f"values={'dense' if self._dense_values else 'kernel'}, "
            f"constructions={stats.constructions}, "
            f"result_cache_hits={stats.result_cache_hits})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return self.describe()
