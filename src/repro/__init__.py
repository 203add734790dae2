"""repro — Adaptive sketching-based bottom-up construction of H2 matrices.

A pure-Python/NumPy reproduction of

    W. H. Boukaram, Y. Liu, P. Ghysels, X. S. Li,
    "Adaptive Sketching Based Construction of H2 Matrices on GPUs",
    IPDPS 2025 (arXiv:2506.16759),

including the cluster-tree / block-partition substrate, kernel matrices, a
batched (GPU-style) execution engine with a serial and a vectorized backend
(:mod:`repro.backends`), the bottom-up sketching construction algorithm
(fixed-sample and adaptive, compiled level-wise sweep), H2 arithmetic through
compiled batched apply plans, low-rank update recompression, Krylov solvers with hierarchical
factorization/preconditioning, Gaussian-process regression with
geometry-reuse hyperparameter sweeps, and a multifrontal frontal-matrix
substrate for the weak-admissibility comparisons.  The paper's comparators
(top-down peeling, sketched H matrices, HODLR and ACA) live in
:mod:`repro.baselines`, which no product path imports.

The product's one operator type is :class:`H2Matrix` (HSS is H2 on the weak
partition), and the :mod:`repro.api` façade reduces the pipeline to one call
per step.  The top level exports what the examples and benchmarks import,
the kernels, the typed errors and the types the entry points take or return;
everything else is imported from its subpackage (e.g.
``repro.batched.get_backend``, ``repro.hmatrix.LinearOperator``,
``repro.core.ConvergenceTester``).
:mod:`repro.observe` adds an opt-in hierarchical tracer (pass
``ExecutionPolicy(tracer=repro.SpanTracer())``) that attributes wall time,
batched launches and flops to nested spans across every layer, with
Chrome-trace/JSON-lines/console exporters.  :mod:`repro.persist` saves any
compressed operator to a versioned, mmap-able artifact file
(``op.save(path)`` / :func:`repro.load_operator`) and backs the opt-in
content-addressed construction cache (``compress(..., cache_dir=...)`` or
``REPRO_CACHE_DIR``).

Quickstart
----------
Compress a covariance matrix into a hierarchical operator in three lines:

>>> import numpy as np
>>> import repro
>>> points = repro.uniform_cube_points(512, dim=3, seed=0)
>>> h2 = repro.compress(points, repro.ExponentialKernel(0.2), tol=1e-6, seed=1)
>>> h2.shape
(512, 512)
>>> y = h2 @ np.ones(512)       # compiled batched apply, original ordering

``format="hss"`` builds the weak-admissibility (HSS) matrix instead; both
formats run the sketching constructor.

Solving linear systems (see the top-level README.md for the full
walk-through): a :class:`~repro.api.facade.Session` chains construction,
factorization and solves over one cached geometry.  ``factor`` is
:func:`repro.factorize`: the weak-admissibility (HSS) matrix a session builds
is factored on its own nested generators by :class:`HSSFactorization` (level
by level, O(levels) batched launches per solve), and a strong H2 matrix is
re-compressed onto the weak partition first:

>>> sess = repro.Session(points, seed=1)
>>> solve = (sess.compress(repro.ExponentialKernel(0.2), tol=1e-8)
...          .factor(noise=1e-2)
...          .solve(np.ones(512)))
>>> bool(solve.converged)
True

Gaussian-process regression shares the same session geometry — every
hyperparameter sweep point re-uses the session's tree, partition and sample
seed:

>>> gp = sess.gp(repro.ExponentialKernel(0.2), noise=1e-2)
>>> gp.fit(np.sin(points[:, 0] * 6.0),
...        length_scales=[0.1, 0.2, 0.4])                # doctest: +SKIP
>>> mean, std = gp.predict(points[:16], return_std=True)  # doctest: +SKIP

The pre-façade entry points (``ClusterTree`` → ``build_block_partition`` →
``H2Constructor`` and friends) remain the expert path for custom operators,
extractors and partitions; :func:`repro.compress` accepts them through its
``tree=``/``partition=``/``operator=``/``extractor=`` overrides.
"""

from . import backends
from .api import ExecutionPolicy, Session, compress
from .batched import VectorizedBackend, compile_apply_plan
from .core import ConstructionConfig, ConstructionResult, H2Constructor, recompress_h2
from .gp import GaussianProcess, NotPositiveDefiniteError, gp_sweep_table
from .geometry import uniform_cube_points
from .hmatrix import H2Matrix, as_linear_operator
from .kernels import (
    ExponentialKernel,
    GaussianKernel,
    HelmholtzKernel,
    KernelFunction,
    LaplaceKernel,
    Matern32Kernel,
    Matern52Kernel,
    PairwiseKernel,
    ScaledKernel,
    SumKernel,
    WhiteNoiseKernel,
)
from .linalg import estimate_spectral_norm, random_low_rank, row_id
from . import observe
from .observe import HealthThresholds, SpanTracer
from . import persist
from .persist import ArtifactCache, load_operator, save_operator
from . import serve
from . import resilience
from .resilience import RecoveryPolicy, ResilienceError, SolveDidNotConvergeError
from .sketching import (
    DenseEntryExtractor,
    DenseOperator,
    EntryExtractor,
    H2EntryExtractor,
    H2Operator,
    KernelEntryExtractor,
    KernelMatVecOperator,
    LowRankEntryExtractor,
    LowRankOperator,
    SketchingOperator,
    SumEntryExtractor,
    SumOperator,
)
from .solvers import HSSFactorization, KrylovResult, cg, factorize, gmres
from .tree import (
    ClusterTree,
    GeneralAdmissibility,
    WeakAdmissibility,
    build_block_partition,
)
# Only for benchmarks/e2e, which ROADMAP item 1(a) moves off them.
from .baselines import HODLRFactorization, convert

__version__ = "1.4.0"

#: Public API, kept alphabetically sorted (guarded by tests/test_public_api.py).
__all__ = [
    "ArtifactCache",
    "ClusterTree",
    "ConstructionConfig",
    "ConstructionResult",
    "DenseEntryExtractor",
    "DenseOperator",
    "EntryExtractor",
    "ExecutionPolicy",
    "ExponentialKernel",
    "GaussianKernel",
    "GaussianProcess",
    "GeneralAdmissibility",
    "H2Constructor",
    "H2EntryExtractor",
    "H2Matrix",
    "H2Operator",
    "HODLRFactorization",
    "HSSFactorization",
    "HealthThresholds",
    "HelmholtzKernel",
    "KernelEntryExtractor",
    "KernelFunction",
    "KernelMatVecOperator",
    "KrylovResult",
    "LaplaceKernel",
    "LowRankEntryExtractor",
    "LowRankOperator",
    "Matern32Kernel",
    "Matern52Kernel",
    "NotPositiveDefiniteError",
    "PairwiseKernel",
    "RecoveryPolicy",
    "ResilienceError",
    "ScaledKernel",
    "Session",
    "SketchingOperator",
    "SolveDidNotConvergeError",
    "SpanTracer",
    "SumEntryExtractor",
    "SumKernel",
    "SumOperator",
    "VectorizedBackend",
    "WeakAdmissibility",
    "WhiteNoiseKernel",
    "__version__",
    "as_linear_operator",
    "backends",
    "build_block_partition",
    "cg",
    "compile_apply_plan",
    "compress",
    "convert",
    "estimate_spectral_norm",
    "factorize",
    "gmres",
    "gp_sweep_table",
    "load_operator",
    "observe",
    "persist",
    "random_low_rank",
    "recompress_h2",
    "resilience",
    "row_id",
    "save_operator",
    "serve",
    "uniform_cube_points",
]
