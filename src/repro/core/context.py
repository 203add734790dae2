"""Geometry-reuse construction context for hyperparameter sweeps.

A Gaussian-process log-likelihood optimization (or any kernel hyperparameter
sweep) re-constructs the hierarchical representation of ``K(theta)`` at many
parameter points over the *same* point set.  Almost everything the constructor
touches is independent of ``theta``:

* the cluster tree and block partition (pure geometry),
* the pairwise distances every radial kernel is evaluated on,
* the random sketching vectors ``Omega`` (the sample pattern),
* the number of samples the adaptive construction ends up needing
  (ranks move slowly with the kernel parameters), and
* the static packing of the compiled construction sweep.

:class:`GeometryContext` caches all of it once and hands
:meth:`construct` out per parameter point, so re-construction costs little
more than the unavoidable kernel-value work and one apply-plan compile.

While the permuted distance matrix and one kernel-value matrix fit in
600 MiB (n up to 6,270), the distances are stored once and each parameter
point evaluates the kernel profile on them in one vectorised pass; the
sketching operator then runs on the resulting dense array, i.e. every
black-box application is a GEMM.  Above that size nothing is cached and
kernel rows are evaluated on the fly.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api.policy import ExecutionPolicy
from ..batched.backend import BatchedBackend
from ..kernels.base import KernelFunction, PairwiseKernel, _tiled, pairwise_distances
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


#: Byte budget of the dense distance cache: the ``n x n`` distance matrix and
#: one ``n x n`` kernel-value matrix (``2 * n * n * 8`` bytes) are cached
#: while they fit, i.e. up to n = 6,270 points.
_DENSE_CACHE_BYTES = 600 * 2**20


class _OmegaBank:
    """Lazily grown bank of frozen standard-normal sample columns.

    Every construction of a sweep draws its sample blocks as consecutive
    column slices starting from column zero, so two constructions that need
    the same number of samples sketch with *identical* random vectors — the
    sample pattern becomes part of the cached geometry.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = int(n)
        self._rng = rng
        #: The bank as it was drawn: one contiguous ``(n, width)`` block per
        #: growth, ``_stops[i]`` the bank column at which block ``i`` ends.
        #: Growing appends a block and copies nothing; a draw is a view of
        #: one block whose rows are ``width`` apart, not the whole bank's.
        self._blocks: List[np.ndarray] = []
        self._stops: List[int] = []

    @property
    def num_columns(self) -> int:
        return self._stops[-1] if self._stops else 0

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self._blocks)

    def columns(self, start: int, stop: int) -> np.ndarray:
        have = self.num_columns
        if stop > have:
            grow_to = max(stop, 2 * have, 64)
            self._blocks.append(self._rng.standard_normal((self.n, grow_to - have)))
            self._stops.append(grow_to)
        parts = []
        begin = 0
        for block, end in zip(self._blocks, self._stops):
            if start < end and begin < stop:
                parts.append(block[:, max(start - begin, 0) : stop - begin])
            begin = end
        # A draw that straddles two growths is the one case that copies.
        return parts[0] if len(parts) == 1 else np.hstack(parts)

    def sampler(self) -> "_BankSampler":
        """A draw callable replaying the bank from its first column.

        The returned :class:`_BankSampler` supports ``reset()``, which the
        constructor's recovery guards call before a retry so the relaunched
        construction sketches with exactly the vectors of the first attempt.
        """
        return _BankSampler(self)


class _BankSampler:
    """Resettable cursor over an :class:`_OmegaBank` (callable ``count -> block``)."""

    def __init__(self, bank: _OmegaBank):
        self._bank = bank
        self._cursor = 0

    def __call__(self, count: int) -> np.ndarray:
        block = self._bank.columns(self._cursor, self._cursor + count)
        self._cursor += count
        return block

    def reset(self) -> None:
        """Rewind to the first column (recovery retries replay the bank)."""
        self._cursor = 0


@dataclass
class ContextStatistics:
    """Reuse counters of a :class:`GeometryContext` (sweep diagnostics)."""

    constructions: int = 0
    result_cache_hits: int = 0
    artifact_cache_hits: int = 0
    sample_columns_cached: int = 0
    construction_plan_compilations: int = 0
    setup_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class GeometryContext:
    """Caches every kernel-parameter-independent ingredient of H2 construction.

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
        Seed of the frozen sample bank.
    artifact_cache:
        Optional :class:`~repro.persist.cache.ArtifactCache`.  When given,
        :meth:`construct` consults it before constructing (the key covers
        points, kernel identity, tolerance, leaf size, admissibility,
        sample block size and seed) and stores every freshly constructed
        operator.  Requires an integer (or ``None``) ``seed`` — with a live
        ``Generator`` the sample bank is not reproducible, so artifact
        caching is silently disabled.
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
        # Artifact caching needs a reproducible construction: only integer
        # (or None) seeds key deterministically, a live Generator does not.
        seed_is_hashable = seed is None or isinstance(seed, (int, np.integer))
        self.artifact_cache = artifact_cache if seed_is_hashable else None
        self._artifact_seed = int(seed) if isinstance(seed, (int, np.integer)) else None
        self._artifact_points: Optional[np.ndarray] = (
            np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=np.float64)))
            if self.artifact_cache is not None
            else None
        )
        rng = as_generator(seed)

        self.tree: ClusterTree = ClusterTree.build(points, leaf_size=leaf_size)
        self.partition: BlockPartition = build_block_partition(
            self.tree, admissibility if admissibility is not None else WeakAdmissibility()
        )
        n = self.tree.num_points

        self._distances: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        if 2 * n * n * 8 <= _DENSE_CACHE_BYTES:
            self._distances = pairwise_distances(self.tree.points, self.tree.points)

        self._omega_bank = _OmegaBank(n, rng)
        self._warm_samples: Optional[int] = None
        #: Static packing of the compiled construction sweep (pure geometry);
        #: compiled lazily on the first construction, shared by all of them.
        self._construction_plan = None
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

    def bind(self, kernel: KernelFunction) -> Tuple[SketchingOperator, EntryExtractor]:
        """Operator/extractor pair evaluating ``kernel`` over the cached geometry.

        With the dense distance cache the kernel values are materialised once
        per parameter point (one vectorised profile evaluation over the cached
        distances), so every subsequent black-box application is a plain GEMM;
        otherwise kernel rows are generated on the fly.
        """
        if self._distances is not None:
            if isinstance(kernel, PairwiseKernel):
                # Tile by tile, the upper triangle mirrored: the value matrix
                # is the only n x n allocation.
                distances = self._distances
                values = _tiled(
                    *distances.shape,
                    lambda rows, cols: kernel.profile_with_diagonal(
                        distances[rows, cols]
                    ),
                    mirror=True,
                )
            else:
                values = kernel.matrix(self.tree.points)
            # profile/evaluate already allocated a fresh contiguous array;
            # adopt it instead of copying into a persistent buffer.
            self._values = np.ascontiguousarray(
                np.asarray(values, dtype=np.float64)
            )
            return DenseOperator(self._values), DenseEntryExtractor(self._values)
        return (
            KernelMatVecOperator(kernel, self.tree.points),
            KernelEntryExtractor(kernel, self.tree.points),
        )

    # ------------------------------------------------------------ construction
    def construct(
        self,
        kernel: KernelFunction,
        tolerance: float = 1e-6,
        sample_block_size: int = 64,
        config: ConstructionConfig | None = None,
        warm_start: bool = True,
    ) -> ConstructionResult:
        """Construct the H2 representation of ``K(kernel)`` over the cached geometry.

        Parameters beyond the kernel mirror
        :class:`~repro.core.config.ConstructionConfig` (or pass ``config``
        directly).  ``warm_start`` seeds the initial sketch with the largest
        sample count any previous construction of this context needed, so the
        adaptive loop typically converges in its first round.

        Repeating the *identical* ``(kernel, tolerance, sample_block_size)``
        point (the inner loop of a noise/nugget sweep, where the compressed
        ``K`` does not change at all) returns the previously constructed
        result without re-running the constructor.
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
            result = self._build(kernel, tolerance, sample_block_size, config, warm_start)
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
        warm_start: bool,
    ) -> ConstructionResult:
        """Run the constructor over the cached geometry (no result caches)."""
        if config is None:
            config = ConstructionConfig(
                tolerance=tolerance,
                sample_block_size=sample_block_size,
                backend=self.backend,
            )
        if warm_start and self._warm_samples is not None:
            initial = max(config.effective_initial_samples, self._warm_samples)
            config = replace(config, initial_samples=min(initial, self.num_points))

        operator, extractor = self.bind(kernel)
        constructor = H2Constructor(
            self.partition,
            operator,
            extractor,
            config=config,
            sample_source=self._omega_bank.sampler(),
            plan=self._construction_plan,
            tracer=self.tracer,
            recovery=self.policy.recovery,
            faults=self.policy.faults,
        )
        result = constructor.construct()
        if self._construction_plan is None and constructor.plan is not None:
            # The packed sweep compiled the static geometry packing; keep it
            # for every subsequent construction of this sweep.
            self._construction_plan = constructor.plan
            self.statistics.construction_plan_compilations += 1

        self._warm_samples = max(self._warm_samples or 0, result.total_samples)
        self.statistics.constructions += 1
        self.statistics.sample_columns_cached = self._omega_bank.num_columns

        result.matrix.apply_backend = self.backend
        result.matrix.apply_plan()  # compiled here, inside the construction time
        return result

    # ------------------------------------------------------------- diagnostics
    def memory_bytes(self) -> int:
        """Bytes held by the cached distances/values/sample bank."""
        total = self._omega_bank.nbytes
        if self._distances is not None:
            total += self._distances.nbytes
        if self._values is not None:
            total += self._values.nbytes
        return int(total)

    def describe(self) -> str:
        stats = self.statistics
        return (
            f"GeometryContext(n={self.num_points}, depth={self.tree.depth}, "
            f"cache={'dense' if self._distances is not None else 'none'}, "
            f"constructions={stats.constructions}, "
            f"result_cache_hits={stats.result_cache_hits}, "
            f"memory_mb={self.memory_bytes() / 2**20:.1f})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return self.describe()
