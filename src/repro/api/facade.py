"""The fluent façade: ``compress`` one-liners and chained ``Session`` workflows.

Before this module, the paper's pipeline (sketch → construct → apply/solve)
needed eight lines of tree/partition/operator/extractor boilerplate before
``construct()`` was callable.  The façade reduces the common cases to one
call each:

>>> import numpy as np, repro
>>> points = repro.uniform_cube_points(512, seed=0)
>>> h2 = repro.compress(points, repro.ExponentialKernel(0.2), tol=1e-6)
>>> h2.shape
(512, 512)

and chains the full solve/GP workflows through :class:`Session`:

>>> solve = (repro.Session(points)
...          .compress(repro.ExponentialKernel(0.2), tol=1e-8)
...          .factor(noise=1e-2)
...          .solve(np.ones(512)))
>>> bool(solve.converged)
True

Every returned operator is an :class:`~repro.hmatrix.h2matrix.H2Matrix`,
the one operator type the solvers, diagnostics, GP subsystem and server take.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..batched.backend import BatchedBackend
from ..core.builder import ConstructionResult, H2Constructor
from ..core.config import ConstructionConfig
from ..kernels.base import KernelFunction
from ..observe.health import check_operator_health
from ..sketching.entry_extractor import (
    DenseEntryExtractor,
    EntryExtractor,
    KernelEntryExtractor,
)
from ..sketching.operators import DenseOperator, KernelMatVecOperator, SketchingOperator
from ..tree.admissibility import GeneralAdmissibility, WeakAdmissibility
from ..tree.block_partition import BlockPartition, build_block_partition
from ..tree.cluster_tree import ClusterTree
from ..utils.env import normalize_choice
from ..utils.rng import SeedLike, as_generator
from .policy import ExecutionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gp.regression import GaussianProcess
    from ..hmatrix.h2matrix import H2Matrix
    from ..persist.cache import ArtifactCache
    from ..solvers.hss_factor import HSSFactorization
    from ..solvers.krylov import KrylovResult

#: Hierarchical formats :func:`compress` can target directly.
FORMATS: Tuple[str, ...] = ("h2", "hss")

#: Byte budget of the dense kernel-value matrix: :meth:`Session.bind`
#: materialises the ``n x n`` values (``n * n * 8`` bytes) while they fit,
#: i.e. up to n = 6,270 points.  Sampling on the fly instead made the
#: N = 2048 3D ``Session`` construction 23 % slower (0.389 s -> 0.477 s).
_DENSE_VALUES_BYTES = 300 * 2**20


def _resolve_cache(
    cache: "ArtifactCache | None", cache_dir: object | None
) -> "ArtifactCache | None":
    """The artifact cache of a call: explicit instance > ``cache_dir=`` >
    ``REPRO_CACHE_DIR`` > off."""
    from ..persist.cache import ArtifactCache, default_cache

    if cache is not None:
        return cache
    if cache_dir is not None:
        return ArtifactCache(cache_dir)
    return default_cache()


def _default_admissibility(
    fmt: str, eta: float, admissibility: object | None
) -> object:
    """The admissibility a compression request resolves to (cache-key form)."""
    if admissibility is not None:
        return admissibility
    return WeakAdmissibility() if fmt == "hss" else GeneralAdmissibility(eta=eta)


def _resolve_geometry(
    points: Optional[np.ndarray],
    fmt: str,
    leaf_size: int,
    eta: float,
    admissibility: object | None,
    tree: Optional[ClusterTree],
    partition: Optional[BlockPartition],
) -> Tuple[ClusterTree, BlockPartition]:
    """Tree + partition for the requested format."""
    if partition is not None:
        return partition.tree, partition
    if tree is None:
        if points is None:
            raise ValueError(
                "compress() needs points, a tree or a partition to define the geometry"
            )
        tree = ClusterTree.build(points, leaf_size=leaf_size)
    return tree, build_block_partition(
        tree, _default_admissibility(fmt, eta, admissibility)
    )


def _resolve_evaluators(
    kernel: object,
    tree: ClusterTree,
    operator: Optional[SketchingOperator],
    extractor: Optional[EntryExtractor],
) -> Tuple[Optional[SketchingOperator], Optional[EntryExtractor]]:
    """Operator/extractor pair from a kernel, a dense array, or overrides."""
    if operator is not None and extractor is not None:
        return operator, extractor
    if isinstance(kernel, KernelFunction):
        operator = operator or KernelMatVecOperator(kernel, tree.points)
        extractor = extractor or KernelEntryExtractor(kernel, tree.points)
        return operator, extractor
    if isinstance(kernel, np.ndarray):
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise ValueError("a dense kernel matrix must be square and 2-D")
        permuted = np.ascontiguousarray(
            kernel[np.ix_(tree.perm, tree.perm)], dtype=np.float64
        )
        return operator or DenseOperator(permuted), extractor or DenseEntryExtractor(
            permuted
        )
    if kernel is None:
        raise ValueError(
            "compress() needs a kernel (KernelFunction or dense array) or an "
            "explicit operator/extractor pair"
        )
    raise TypeError(
        f"cannot interpret {type(kernel).__name__} as a kernel; pass a "
        "KernelFunction, a dense (n, n) array, or operator=/extractor= overrides"
    )


def compress(
    points: Optional[np.ndarray] = None,
    kernel: object = None,
    *,
    format: str = "h2",
    tol: float = 1e-6,
    leaf_size: int = 64,
    eta: float = 0.7,
    admissibility: object | None = None,
    sample_block_size: int = 64,
    adaptive: bool = True,
    initial_samples: int | None = None,
    max_samples: int | None = None,
    max_rank: int | None = None,
    seed: SeedLike = None,
    policy: ExecutionPolicy | None = None,
    tree: Optional[ClusterTree] = None,
    partition: Optional[BlockPartition] = None,
    operator: Optional[SketchingOperator] = None,
    extractor: Optional[EntryExtractor] = None,
    config: ConstructionConfig | None = None,
    full_result: bool = False,
    cache: "ArtifactCache | None" = None,
    cache_dir: object | None = None,
) -> "H2Matrix | ConstructionResult":
    """Compress a kernel matrix into a hierarchical operator in one call.

    Parameters
    ----------
    points:
        ``(n, dim)`` coordinates in the original ordering (may be omitted
        when ``tree`` or ``partition`` is given).
    kernel:
        A :class:`~repro.kernels.base.KernelFunction`, a dense ``(n, n)``
        array (original ordering), or omitted with explicit ``operator=`` /
        ``extractor=`` overrides (cluster-tree permuted ordering, the expert
        path used by the benchmark harness).
    format:
        ``"h2"`` (strong admissibility) or ``"hss"`` (weak admissibility);
        both run the paper's sketching constructor.
    tol:
        Compression tolerance of the constructor.
    leaf_size, eta, admissibility:
        Geometry knobs (ignored when ``tree``/``partition`` is given);
        ``admissibility`` defaults to general admissibility at ``eta`` for
        ``"h2"`` and weak admissibility for ``"hss"``.
    sample_block_size, adaptive, initial_samples, max_samples, max_rank:
        Sketching-constructor knobs.
    seed:
        Seed of the sketching vectors.
    policy:
        :class:`~repro.api.policy.ExecutionPolicy` whose backend, tracer,
        recovery, faults and health thresholds the construction, the cache
        read and the health probe run under; defaults to
        ``ExecutionPolicy()`` (env-driven).
    config:
        Full :class:`~repro.core.config.ConstructionConfig` override; wins
        over the individual knobs.  The policy carries the backend: the
        config's ``backend`` is ``"auto"`` or the policy's own instance.
    full_result:
        Return the :class:`~repro.core.builder.ConstructionResult` (with
        sampling/launch statistics) instead of just the operator.
    cache, cache_dir:
        Opt into the content-addressed artifact cache
        (:class:`~repro.persist.cache.ArtifactCache`): pass an instance, a
        directory, or set ``REPRO_CACHE_DIR``.  When the exact same
        compression (points, kernel identity, tolerance, format, geometry
        and sampling knobs, seed) was stored before, the operator is loaded
        (zero-copy memmap) instead of re-constructed; otherwise it is
        constructed and stored.  Only plain requests participate — expert
        overrides (``tree``/``partition``/``operator``/``extractor``/
        ``config``), dense-array kernels and non-integer seeds always
        construct.  A hit is a full result too: ``full_result=True`` returns
        a :class:`~repro.core.builder.ConstructionResult` with
        ``construction_path == "cache"``.

    Returns
    -------
    H2Matrix
        The compressed operator (or the full ``ConstructionResult`` when
        ``full_result=True``).
    """
    fmt = format.lower()
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {format!r}; available: {list(FORMATS)}")
    policy = policy if policy is not None else ExecutionPolicy()

    artifact_cache = _resolve_cache(cache, cache_dir)
    artifact_key = None
    if (
        points is not None
        and tree is None
        and partition is None
        and operator is None
        and extractor is None
        and config is None
        and isinstance(seed, (int, np.integer, type(None)))
    ):
        artifact_key = _artifact_key(
            artifact_cache, points, kernel,
            tol=tol,
            format=fmt,
            leaf_size=leaf_size,
            admissibility=_default_admissibility(fmt, eta, admissibility),
            seed=None if seed is None else int(seed),
            extra={
                "sample_block_size": int(sample_block_size),
                "adaptive": bool(adaptive),
                "initial_samples": initial_samples,
                "max_samples": max_samples,
                "max_rank": max_rank,
            },
        )

    def problem() -> Tuple[BlockPartition, SketchingOperator, EntryExtractor]:
        geo_tree, geo_partition = _resolve_geometry(
            points, fmt, leaf_size, eta, admissibility, tree, partition
        )
        return (geo_partition,) + _resolve_evaluators(
            kernel, geo_tree, operator, extractor
        )

    result = _construct_or_load(
        problem,
        config if config is not None else ConstructionConfig(
            tolerance=tol,
            sample_block_size=sample_block_size,
            adaptive=adaptive,
            initial_samples=initial_samples,
            max_samples=max_samples,
            max_rank=max_rank,
        ),
        seed, policy, artifact_cache, artifact_key,
    )
    _probe_health(result, kernel, policy)
    return result if full_result else result.matrix


def _artifact_key(
    cache: "ArtifactCache | None", points: np.ndarray, kernel: object,
    **request: object,
) -> Optional[str]:
    """The artifact-cache key of a compression request, or ``None`` when
    there is no cache, no kernel function (a dense array) or the request
    does not hash (custom admissibility, ...): such a request constructs."""
    from ..persist.format import ArtifactError

    if cache is None or not isinstance(kernel, KernelFunction):
        return None
    try:
        return cache.key(points, kernel, **request)
    except ArtifactError:
        return None


def _construct_or_load(
    problem: Callable[[], Tuple[BlockPartition, SketchingOperator, EntryExtractor]],
    config: ConstructionConfig,
    seed: SeedLike,
    policy: ExecutionPolicy,
    cache: "ArtifactCache | None",
    key: Optional[str],
) -> ConstructionResult:
    """Run Algorithm 1 on ``problem()`` (partition, operator, extractor) or
    load the artifact stored under ``key``.

    The constructor runs on the policy's backend and under its tracer,
    recovery and faults; a cache read under its recovery.  ``config.backend``
    is ``"auto"`` or that backend (``ValueError`` otherwise).  ``problem`` is
    called only when something is constructed.  Either way the result's
    matrix is bound to the policy (:meth:`ExecutionPolicy.bind`).
    """
    backend = policy.resolve_backend()
    named = config.backend
    if named is not backend and not (
        isinstance(named, str) and normalize_choice(named) == "auto"
    ):
        raise ValueError(
            f"config.backend={named!r} is not the policy's backend; pass the "
            "backend as ExecutionPolicy(backend=...)"
        )
    config = replace(config, backend=backend)
    result: Optional[ConstructionResult] = None

    def build() -> H2Matrix:
        nonlocal result
        result = H2Constructor(
            *problem(), config=config, seed=seed, tracer=policy.tracer,
            recovery=policy.recovery, faults=policy.faults,
        ).construct()
        return result.matrix

    if key is None:
        build()
    else:
        start = time.perf_counter()
        matrix, hit = cache.get_or_build(key, build, policy)
        if hit:
            result = ConstructionResult.from_cache(
                matrix, config, time.perf_counter() - start
            )
    policy.bind(result.matrix)
    return result


def _probe_health(
    result: ConstructionResult, kernel: object, policy: ExecutionPolicy
) -> None:
    """Under ``policy.health``, probe ``result.matrix`` against ``kernel`` at
    the tolerance it was built at and keep the report as ``result.health``."""
    if policy.health is None or not isinstance(kernel, KernelFunction):
        return
    result.health = check_operator_health(
        result.matrix, kernel, result.config.tolerance,
        thresholds=policy.health, tracer=policy.tracer,
        source="loaded" if result.construction_path == "cache" else "constructed",
    )


@dataclass
class SessionStatistics:
    """Reuse counters of a :class:`Session` (sweep diagnostics)."""

    constructions: int = 0
    result_cache_hits: int = 0
    artifact_cache_hits: int = 0
    setup_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class Session:
    """Fluent geometry-reuse workflow over a fixed point set.

    A kernel hyperparameter sweep (a GP likelihood optimization) constructs
    ``K(theta)`` at many parameter points over the *same* points.  A session
    builds what does not depend on ``theta`` once — the cluster tree, the
    block partition and one integer sample seed, so every construction
    sketches with the same random vectors — and keeps the last construction
    result and an optional artifact cache.  Its steps chain::

        sess = repro.Session(points, seed=0)
        solve = sess.compress(kernel, tol=1e-8).factor(noise=1e-2).solve(b)
        gp = sess.gp(kernel, noise=1e-2)           # shares the same geometry
        results = sess.sweep([k1, k2, k3])         # hyperparameter sweep

    Parameters
    ----------
    points:
        ``(n, dim)`` coordinates in the original ordering.
    leaf_size:
        Cluster-tree leaf size.
    admissibility:
        Block-partition admissibility; defaults to
        :class:`~repro.tree.admissibility.WeakAdmissibility` (the HSS
        partition every downstream factorization consumes — pass a
        :class:`~repro.tree.admissibility.GeneralAdmissibility` for strong H2
        sweeps).
    policy:
        :class:`~repro.api.policy.ExecutionPolicy` of every construction,
        apply and solve of this session (default ``ExecutionPolicy()``).  Its
        backend is resolved once, so one launch counter spans every
        construction and compiled apply; its recovery and faults guard every
        construction and artifact-cache read.
    seed:
        Source of :attr:`sample_seed`, the one integer every construction of
        the session seeds its sketch with: an integer, ``None`` (OS entropy)
        or a ``Generator`` is drawn from once, here.
    cache, cache_dir:
        Opt into the content-addressed artifact cache for every construction
        of the session (an :class:`~repro.persist.cache.ArtifactCache`, a
        directory, or the ``REPRO_CACHE_DIR`` environment variable).  The key
        covers points, kernel identity, tolerance, leaf size, admissibility,
        sample block size and seed.  A live ``Generator`` seed does not key
        reproducibly, so it disables the cache.
    """

    def __init__(
        self,
        points: np.ndarray,
        *,
        leaf_size: int = 64,
        admissibility: object | None = None,
        policy: ExecutionPolicy | None = None,
        seed: SeedLike = 0,
        cache: "ArtifactCache | None" = None,
        cache_dir: object | None = None,
    ):
        start = time.perf_counter()
        self.policy = policy if policy is not None else ExecutionPolicy()
        # One backend instance (hence one launch counter) for the lifetime of
        # the session: constructions and the compiled applies of every matrix
        # it produces all account to the same place.
        self.backend: BatchedBackend = self.policy.resolve_backend()
        #: The coordinates in the original ordering.
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.tree: ClusterTree = ClusterTree.build(self.points, leaf_size=leaf_size)
        self.partition: BlockPartition = build_block_partition(
            self.tree, admissibility if admissibility is not None else WeakAdmissibility()
        )
        #: Seed of every construction's sketch (see ``seed``).
        self.sample_seed = int(as_generator(seed).integers(0, 2**63 - 1))
        # Only integer (or None) seeds key deterministically.
        seed_is_hashable = seed is None or isinstance(seed, (int, np.integer))
        self.artifact_cache = _resolve_cache(cache, cache_dir) if seed_is_hashable else None
        self._artifact_seed = int(seed) if isinstance(seed, (int, np.integer)) else None

        self._last_key: Optional[tuple] = None
        self._last_result: Optional[ConstructionResult] = None
        self._result: Optional[ConstructionResult] = None
        self._operator: Optional[H2Matrix] = None
        self._factorization: "HSSFactorization | None" = None
        self.statistics = SessionStatistics(setup_seconds=time.perf_counter() - start)

    # ------------------------------------------------------------------ state
    @property
    def result(self) -> ConstructionResult:
        """The most recent :meth:`compress` construction result."""
        if self._result is None:
            raise RuntimeError("call compress() first")
        return self._result

    @property
    def operator(self) -> H2Matrix:
        """The most recent compressed operator."""
        if self._operator is None:
            raise RuntimeError("call compress() first")
        return self._operator

    @property
    def factorization(self) -> "HSSFactorization":
        """The most recent :meth:`factor` factorization."""
        if self._factorization is None:
            raise RuntimeError("call factor() first")
        return self._factorization

    # ------------------------------------------------------------ construction
    @property
    def _dense_values(self) -> bool:
        """Whether :meth:`bind` materialises the ``n x n`` kernel values."""
        return self.tree.num_points**2 * 8 <= _DENSE_VALUES_BYTES

    def bind(self, kernel: KernelFunction) -> Tuple[SketchingOperator, EntryExtractor]:
        """Operator/extractor pair evaluating ``kernel`` over the session's points.

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

    def construct(
        self,
        kernel: KernelFunction,
        tol: float = 1e-6,
        sample_block_size: int = 64,
        config: ConstructionConfig | None = None,
    ) -> ConstructionResult:
        """Construct the H2 representation of ``K(kernel)`` over the session's geometry.

        Every construction sketches from :attr:`sample_seed` and compiles its
        own construction and apply plans; ``config`` overrides ``tol`` and
        ``sample_block_size``.  The session's current operator is left as it
        is (that is :meth:`compress`).

        Repeating the *identical* ``(kernel, tol, sample_block_size)`` point
        (the inner loop of a noise/nugget sweep, where the compressed ``K``
        does not change at all) returns the previous result without
        re-running the constructor; an explicit ``config`` always constructs.
        """
        cacheable = config is None
        key = (type(kernel), kernel, float(tol), int(sample_block_size))
        if cacheable and self._last_result is not None and self._last_key == key:
            self.statistics.result_cache_hits += 1
            return self._last_result

        artifact_key = None if not cacheable else _artifact_key(
            self.artifact_cache, self.points, kernel,
            tol=tol,
            format="h2",
            leaf_size=self.tree.leaf_size,
            admissibility=self.partition.admissibility,
            seed=self._artifact_seed,
            extra={"sample_block_size": int(sample_block_size)},
        )
        result = _construct_or_load(
            lambda: (self.partition,) + self.bind(kernel),
            config if config is not None else ConstructionConfig(
                tolerance=tol, sample_block_size=sample_block_size
            ),
            self.sample_seed, self.policy, self.artifact_cache, artifact_key,
        )
        if result.construction_path == "cache":
            self.statistics.artifact_cache_hits += 1
        else:
            self.statistics.constructions += 1
            result.matrix.apply_plan()  # compiled here, inside the construction time
        if cacheable:
            # Snapshot the kernel: a caller mutating a (mutable dataclass)
            # kernel in place must miss the cache, not hit its own reference.
            self._last_key = (type(kernel), copy.deepcopy(kernel)) + key[2:]
            self._last_result = result
        return result

    # ------------------------------------------------------------------ steps
    def compress(
        self,
        kernel: KernelFunction,
        tol: float = 1e-6,
        sample_block_size: int = 64,
        config: ConstructionConfig | None = None,
    ) -> "Session":
        """Construct ``K(kernel)`` (:meth:`construct`) and make it the current operator.

        Re-uses the session's tree, partition and sample seed, so repeated
        calls across hyperparameters build no geometry and sketch with the
        same random vectors.  The session's admissibility decides the format:
        HSS on the default weak partition, strong H2 otherwise.  Under
        ``policy.health`` the operator is probed once.
        """
        result = self.construct(kernel, tol, sample_block_size, config)
        _probe_health(result, kernel, self.policy)
        self._result = result
        self._operator = result.matrix
        # The previous factorization (and its noise shift) described the old
        # operator; solve() must not silently reuse them.
        self._factorization = None
        return self

    def sweep(
        self,
        kernels: Sequence[KernelFunction],
        tol: float = 1e-6,
        **construct_kwargs: object,
    ) -> List[ConstructionResult]:
        """Construct every kernel of a hyperparameter sweep over the shared geometry."""
        results = []
        for kernel in kernels:
            self.compress(kernel, tol=tol, **construct_kwargs)
            results.append(self.result)
        return results

    def factor(self, noise: float = 0.0) -> "Session":
        """Factor the compressed operator (plus a ``noise`` diagonal shift).

        :func:`repro.solvers.factorize` on the operator: the
        weak-admissibility (HSS) matrix of a default session is factored on
        its own nested generators by level-by-level skeleton elimination
        (:class:`~repro.solvers.hss_factor.HSSFactorization`, exact up to
        round-off); the strong-admissibility H2 matrix of a session built
        with a strong admissibility is first re-compressed onto the weak
        partition with the sketching constructor (``tol=1e-6``, ``seed=0``)
        and then factored the same way.
        """
        from ..solvers.hss_factor import factorize

        self._factorization = factorize(self.operator, shift=noise)
        return self

    def solve(
        self,
        b: np.ndarray,
        tol: float = 1e-10,
        maxiter: int | None = None,
        method: str = "cg",
    ) -> "KrylovResult":
        """Solve ``(K + noise I) x = b`` against the compressed operator.

        ``method`` is ``"cg"`` (default) or ``"gmres"``, run on the compiled
        batched apply and preconditioned by the :meth:`factor` factorization
        when one exists.  The ``noise`` shift of the last :meth:`factor` call
        is applied to the operator, so factor+solve agree on the system.

        The solve runs through :func:`~repro.solvers.ladder.guarded_solve`
        under the session policy: with a
        :class:`~repro.resilience.RecoveryPolicy`, a non-converged solve
        raises (``strict``), warns (``warn``) or escalates through the
        remaining rungs of CG → preconditioned CG → GMRES(m) → direct
        (``recover``), never returned silently.
        """
        from ..solvers.ladder import guarded_solve

        return guarded_solve(
            self.operator, b, method=method, tol=tol, maxiter=maxiter,
            shift=self._factorization.shift if self._factorization else 0.0,
            factorization=self._factorization,
            policy=self.policy,
        )

    def gp(
        self, kernel: KernelFunction, noise: float = 1e-2, **gp_kwargs: object
    ) -> "GaussianProcess":
        """A :class:`~repro.gp.regression.GaussianProcess` sharing this geometry."""
        from ..gp.regression import GaussianProcess

        return GaussianProcess(self.points, kernel, noise=noise, session=self, **gp_kwargs)

    # ------------------------------------------------------------ diagnostics
    def describe(self) -> str:
        stats = self.statistics
        return (
            f"Session(n={self.tree.num_points}, depth={self.tree.depth}, "
            f"values={'dense' if self._dense_values else 'kernel'}, "
            f"constructions={stats.constructions}, "
            f"result_cache_hits={stats.result_cache_hits})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return self.describe()
