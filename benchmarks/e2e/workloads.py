"""The four benchmark workloads: inputs, the user-facing calls, exact references.

Every workload takes one model through the same pipeline (set-up → construct
→ apply → factor → solve → persist → serve → GP sweep) so that every metric of
``BENCHMARK.json`` exists on every workload; what differs is *which layer
carries the construction* (see each class's ``why``) and the structure of the
operator the later stages consume.

Only public names that ROADMAP item 2 keeps are imported (no
``repro.diagnostics``, ``phase_seconds``, ``construction_path="loop"``,
``ExecutionPolicy(counter=)``, ``build_hss`` or ``hodlr_from_h2``).  The
program under test only ever sees the arrays generated here from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import (
    ClusterTree,
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    ExponentialKernel,
    GeneralAdmissibility,
    H2Constructor,
    H2EntryExtractor,
    H2Operator,
    HelmholtzKernel,
    HODLRFactorization,
    KernelEntryExtractor,
    KernelMatVecOperator,
    LowRankEntryExtractor,
    LowRankOperator,
    Session,
    SumEntryExtractor,
    SumOperator,
    WeakAdmissibility,
    as_linear_operator,
    build_block_partition,
    compress,
    convert,
    gmres,
    random_low_rank,
    recompress_h2,
    uniform_cube_points,
)

TOL = 1e-6          # construction tolerance of every workload
SOLVE_TOL = 1e-8    # Krylov tolerance of every workload
PROBE_COLUMNS = 16  # Gaussian block of the rel_err check
GP_LENGTH_SCALES = (0.15, 0.2, 0.3)
GP_NOISE = 1e-2


@dataclass
class Inputs:
    """What set-up produces: generated arrays plus precomputed geometry."""

    seed: int
    points: np.ndarray
    rhs: np.ndarray
    probes: np.ndarray       # (n, PROBE_COLUMNS), original ordering
    reference: np.ndarray    # exact A @ probes, original ordering
    tree: Optional[ClusterTree] = None
    partition: object = None
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Model:
    """One constructed model as it moves through the pipeline."""

    result: object                      # ConstructionResult
    operator: object                    # H2Matrix
    session: Optional[Session] = None
    factorization: Optional[HODLRFactorization] = None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def exact_kernel_product(kernel, points: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``K(points, points) @ block`` without the N x N matrix, in row blocks small
    enough (4 MiB of kernel values at N=2048) that the allocator recycles them."""
    return KernelMatVecOperator(kernel, points, row_block=256).matvec(block)


def to_original(tree: ClusterTree, permuted: np.ndarray) -> np.ndarray:
    """Rows of ``permuted`` (cluster-tree ordering) back in the caller's ordering."""
    out = np.empty_like(permuted)
    out[tree.perm] = permuted
    return out


class Workload:
    """Base class: the pipeline calls ``setup``/``construct``/``factor``/``solve``."""

    name = ""
    why = ""
    dim = 2
    n = 2048
    smoke_n = 512
    leaf_size = 32
    eta: Optional[float] = 0.7        # None: weak admissibility
    shift = 1e-2                      # diagonal term of the solved system
    precond_tol = 1e-3                # loose HSS preconditioner (strong workloads)
    serve_mix: Tuple[str, ...] = ("matvec",)
    gp_points = 1024
    smoke_gp_points = 256

    rel_err_limit = 10 * TOL

    def __init__(self, smoke: bool = False, n: Optional[int] = None):
        self.smoke = smoke
        if smoke:
            self.n = self.smoke_n
            self.gp_points = self.smoke_gp_points
        if n is not None:
            self.n = n

    # ---------------------------------------------------------------- inputs
    def admissibility(self):
        return WeakAdmissibility() if self.eta is None else GeneralAdmissibility(eta=self.eta)

    def _base_inputs(self, seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        points = uniform_cube_points(self.n, dim=self.dim, seed=seed)
        rhs = _rng(seed, 1).standard_normal(self.n)
        probes = _rng(seed, 2).standard_normal((self.n, PROBE_COLUMNS))
        return points, rhs, probes

    def setup(self, seed: int) -> Inputs:
        raise NotImplementedError

    def _ensure_geometry(self, inp: Inputs) -> None:
        """Tree and partition, for workloads whose façade call builds them itself."""
        if inp.tree is None:
            inp.tree = ClusterTree.build(inp.points, leaf_size=self.leaf_size)
            inp.partition = build_block_partition(inp.tree, self.admissibility())

    def evaluators(self, inp: Inputs):
        """``(partition, operator, extractor, config kwargs, seed)`` of the expert
        path that does the same work as :meth:`construct` — what the traced run
        wraps in proxies and hands to ``H2Constructor`` directly."""
        raise NotImplementedError

    # ---------------------------------------------------------------- stages
    def construct(self, inp: Inputs) -> Model:
        raise NotImplementedError

    def weak_operator(self, inp: Inputs, model: Model):
        """The weak-admissibility matrix the factorization is built from.

        Strong-admissibility default, the README solver workflow: sketch a
        loose HSS approximation of the same operator (the accurate strong H2
        stays the fast apply; converting *it* to HODLR is an ACA
        re-compression that takes minutes)."""
        _, operator, extractor, _, _ = self.evaluators(inp)
        return compress(
            tree=inp.tree, operator=operator, extractor=extractor, format="hss",
            tol=self.precond_tol, seed=inp.seed + 1,
        )

    def factor(self, inp: Inputs, model: Model) -> None:
        hodlr = convert(self.weak_operator(inp, model), "hodlr")
        model.factorization = HODLRFactorization(hodlr, shift=self.shift)

    def solve(self, inp: Inputs, model: Model, b: np.ndarray):
        system = as_linear_operator(model.operator, shift=self.shift)
        return gmres(system, b, tol=SOLVE_TOL, M=model.factorization)


class Kernel2DOneShot(Workload):
    name = "kernel2d_oneshot"
    why = ("README one-call compress of a 2D exponential kernel: the on-the-fly "
           "kernel sampler and norm estimate carry construct_s, the constructor "
           "itself is minor")
    kernel = ExponentialKernel(0.2)

    def setup(self, seed: int) -> Inputs:
        points, rhs, probes = self._base_inputs(seed)
        reference = exact_kernel_product(self.kernel, points, probes)
        return Inputs(seed, points, rhs, probes, reference)

    def construct(self, inp: Inputs) -> Model:
        result = compress(
            inp.points, self.kernel, tol=TOL, seed=inp.seed,
            leaf_size=self.leaf_size, eta=self.eta, full_result=True,
        )
        # factor() re-sketches on the same geometry.
        inp.tree, inp.partition = result.matrix.tree, result.matrix.partition
        return Model(result, result.matrix)

    def evaluators(self, inp: Inputs):
        self._ensure_geometry(inp)
        pts = inp.tree.points
        return (
            inp.partition,
            KernelMatVecOperator(self.kernel, pts),
            KernelEntryExtractor(self.kernel, pts),
            {"tolerance": TOL},
            inp.seed,
        )


class IE3DDense(Workload):
    name = "ie3d_dense"
    why = ("volume-IE Helmholtz kernel, strong admissibility, dense expert path: "
           "sampling is one GEMM and entries a gather, so core.builder, the "
           "construction plan and the backend launches carry construct_s")
    dim = 3
    n = 4096
    eta = 1.5
    precond_tol = 1e-2
    kernel = HelmholtzKernel(3.0)

    def __init__(self, smoke: bool = False, n: Optional[int] = None):
        super().__init__(smoke, n)
        # Second-kind volume IE: (I + k^2 h^3 K) u = f with h^3 = 1/N, scaled
        # by N / k^2 so the compressed K is used as is.
        self.shift = self.n / self.kernel.wavenumber**2

    def setup(self, seed: int) -> Inputs:
        points, rhs, probes = self._base_inputs(seed)
        tree = ClusterTree.build(points, leaf_size=self.leaf_size)
        partition = build_block_partition(tree, self.admissibility())
        dense = self.kernel.matrix(tree.points)
        reference = to_original(tree, dense @ probes[tree.perm])
        return Inputs(seed, points, rhs, probes, reference, tree, partition,
                      {"dense": dense})

    def evaluators(self, inp: Inputs):
        dense = inp.extra["dense"]
        return (inp.partition, DenseOperator(dense), DenseEntryExtractor(dense),
                {"tolerance": TOL}, inp.seed)

    def construct(self, inp: Inputs) -> Model:
        partition, operator, extractor, _, seed = self.evaluators(inp)
        result = compress(
            partition=partition, operator=operator, extractor=extractor,
            tol=TOL, seed=seed, full_result=True,
        )
        return Model(result, result.matrix)


class H2Update(Workload):
    name = "h2_update"
    why = ("low-rank update of an existing H2 matrix: the compiled apply plan is "
           "the sampler (64-column block applies) and H2EntryExtractor the entry "
           "evaluator, which carries construct_s here and nowhere else")
    precond_tol = 1e-5
    kernel = ExponentialKernel(0.2)
    update_rank = 32

    def setup(self, seed: int) -> Inputs:
        points, rhs, probes = self._base_inputs(seed)
        tree = ClusterTree.build(points, leaf_size=self.leaf_size)
        partition = build_block_partition(tree, self.admissibility())
        dense = self.kernel.matrix(tree.points)
        base = compress(
            partition=partition, operator=DenseOperator(dense),
            extractor=DenseEntryExtractor(dense), tol=TOL, seed=seed,
        )
        update = random_low_rank(
            self.n, self.update_rank, seed=seed + 4, symmetric=True, scale=0.5
        )
        permuted = probes[tree.perm]
        reference = to_original(
            tree, base.matmat(permuted, permuted=True) + update.matvec(permuted)
        )
        return Inputs(seed, points, rhs, probes, reference, tree, partition,
                      {"base": base, "update": update})

    def _config(self) -> Dict[str, object]:
        return {"tolerance": TOL, "sample_block_size": 64}

    def evaluators(self, inp: Inputs):
        base, update = inp.extra["base"], inp.extra["update"]
        return (
            inp.partition,
            SumOperator([H2Operator(base), LowRankOperator(update)]),
            SumEntryExtractor([H2EntryExtractor(base), LowRankEntryExtractor(update)]),
            self._config(),
            inp.seed + 6,
        )

    def construct(self, inp: Inputs) -> Model:
        result = recompress_h2(
            inp.extra["base"], inp.extra["update"],
            config=ConstructionConfig(**self._config()), seed=inp.seed + 6,
        )
        return Model(result, result.matrix)


class HSS3DPipeline(Workload):
    name = "hss3d_pipeline"
    why = ("default weak-admissibility Session chain compress-factor-solve in 3D: "
           "the only workload where adaptive sampling runs several rounds (ID and "
           "convergence test dominate) and the factorization is exact")
    dim = 3
    eta = None
    leaf_size = 64
    serve_mix = ("matvec", "solve")
    # Weak admissibility in 3D: 4e-6 .. 1e-5 on 100 point clouds for tol 1e-6,
    # and 2.2e-5 on one cloud in about 400; the check is there to catch wrong
    # output, not to police the last factor of two.
    rel_err_limit = 50 * TOL
    kernel = ExponentialKernel(0.2)

    def setup(self, seed: int) -> Inputs:
        points, rhs, probes = self._base_inputs(seed)
        reference = exact_kernel_product(self.kernel, points, probes)
        return Inputs(seed, points, rhs, probes, reference)

    def construct(self, inp: Inputs) -> Model:
        session = Session(inp.points, leaf_size=self.leaf_size, seed=inp.seed)
        session.compress(self.kernel, tol=TOL)
        return Model(session.result, session.operator, session=session)

    def evaluators(self, inp: Inputs):
        # What Session.compress does from public parts: cached dense kernel
        # values, GEMM sampler, gather extractor.
        self._ensure_geometry(inp)
        dense = inp.extra.get("dense")
        if dense is None:
            dense = inp.extra["dense"] = self.kernel.matrix(inp.tree.points)
        return (inp.partition, DenseOperator(dense), DenseEntryExtractor(dense),
                {"tolerance": TOL}, inp.seed)

    def weak_operator(self, inp: Inputs, model: Model):
        return model.operator

    def factor(self, inp: Inputs, model: Model) -> None:
        model.session.factor(noise=self.shift)
        model.factorization = model.session.factorization

    def solve(self, inp: Inputs, model: Model, b: np.ndarray):
        return model.session.solve(b, tol=SOLVE_TOL)


WORKLOADS = {
    cls.name: cls for cls in (Kernel2DOneShot, IE3DDense, H2Update, HSS3DPipeline)
}


def expert_construct(workload: Workload, inp: Inputs, wrap=None, backend=None):
    """``H2Constructor(partition, operator, extractor, config, seed).construct()``
    for a workload; ``wrap(operator, extractor)`` substitutes proxies and
    ``backend`` a backend instance (both used by the traced run only)."""
    partition, operator, extractor, config, seed = workload.evaluators(inp)
    if wrap is not None:
        operator, extractor = wrap(operator, extractor)
    if backend is not None:
        config = {**config, "backend": backend}
    return H2Constructor(
        partition, operator, extractor, ConstructionConfig(**config), seed=seed
    ).construct()


def gp_sweep(workload: Workload, inp: Inputs):
    """The GP stage shared by all workloads: a three-point length-scale sweep on
    the first ``gp_points`` points of the workload's cloud."""
    points = inp.points[: workload.gp_points]
    targets = np.sin(6.0 * points[:, 0]) + 0.1 * _rng(inp.seed, 3).standard_normal(
        points.shape[0]
    )
    session = Session(points, seed=inp.seed)
    gp = session.gp(ExponentialKernel(0.2), noise=GP_NOISE)
    gp.fit(targets, length_scales=list(GP_LENGTH_SCALES))
    return session, gp, targets


__all__ = [
    "GP_LENGTH_SCALES", "Inputs", "Model", "PROBE_COLUMNS", "SOLVE_TOL", "TOL",
    "WORKLOADS", "Workload", "expert_construct", "gp_sweep", "to_original",
]
