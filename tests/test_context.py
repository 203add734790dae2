"""Tests of the geometry reuse of a ``Session`` (``Session.construct``).

The session must be a pure optimization: constructions through it have to
match the accuracy of from-scratch constructions on both sides of the dense
value rule, while re-using what it keeps (tree, partition, sample seed,
result cache).  Every construction of one session sketches from the same
sample seed, so repeated constructions — recovered ones included — are
bitwise equal.  The slow acceptance test pins the reuse behind the headline
claim — a 3-point length-scale sweep at N = 4096 builds one tree and one
partition for three constructions; the benchmark measures what that saves.
"""

import numpy as np
import pytest

from repro import (
    ClusterTree,
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    ExecutionPolicy,
    ExponentialKernel,
    GaussianProcess,
    GeneralAdmissibility,
    H2Constructor,
    HelmholtzKernel,
    Matern52Kernel,
    Session,
    WeakAdmissibility,
    WhiteNoiseKernel,
    build_block_partition,
    compress,
    uniform_cube_points,
)
from repro.api import facade
from repro.observe import SpanTracer, find_spans
from repro.sketching import KernelEntryExtractor, KernelMatVecOperator

from oracles import LoopConstructor

N = 700
TOL = 1e-7


def rel_err(approx, exact):
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


@pytest.fixture(scope="module")
def points():
    return uniform_cube_points(N, dim=2, seed=19)


@pytest.fixture(scope="module")
def session(points):
    return Session(points, leaf_size=32, seed=5)


class TestConstructionEquivalence:
    @pytest.mark.parametrize("length_scale", [0.15, 0.3])
    def test_matches_dense_reference(self, session, points, length_scale):
        kernel = ExponentialKernel(length_scale)
        result = session.construct(kernel, tol=TOL)
        dense = kernel.matrix(session.tree.points)
        x = np.random.default_rng(0).standard_normal(N)
        err = rel_err(result.matrix.matvec(x, permuted=True), dense @ x)
        assert err < 50 * TOL

    def test_matches_from_scratch_accuracy(self, points):
        """Session constructions are as accurate as cold ones at the same tol."""
        kernel = Matern52Kernel(0.25)
        ctx = Session(points, leaf_size=32, seed=5)
        warm = ctx.construct(kernel, tol=TOL)

        tree = ClusterTree.build(points, leaf_size=32)
        partition = build_block_partition(tree, WeakAdmissibility())
        cold = H2Constructor(
            partition,
            KernelMatVecOperator(kernel, tree.points),
            KernelEntryExtractor(kernel, tree.points),
            ConstructionConfig(tolerance=TOL),
            seed=5,
        ).construct()

        dense = kernel.matrix(tree.points)
        x = np.random.default_rng(1).standard_normal(N)
        err_warm = rel_err(warm.matrix.matvec(x, permuted=True), dense @ x)
        err_cold = rel_err(cold.matrix.matvec(x, permuted=True), dense @ x)
        assert err_warm < max(10 * err_cold, 50 * TOL)

    @pytest.mark.parametrize("values", ["dense", "kernel"])
    def test_value_rules_agree(self, points, values, monkeypatch):
        """Both sides of the dense-value size rule (n = 700 is far below it;
        a zero budget forces on-the-fly kernel evaluation)."""
        if values == "kernel":
            monkeypatch.setattr(facade, "_DENSE_VALUES_BYTES", 0)
        kernel = ExponentialKernel(0.2)
        ctx = Session(points, leaf_size=32, seed=5)
        assert f"values={values}" in ctx.describe()
        result = ctx.construct(kernel, tol=TOL)
        dense = kernel.matrix(ctx.tree.points)
        x = np.random.default_rng(2).standard_normal(N)
        assert rel_err(result.matrix.matvec(x, permuted=True), dense @ x) < 50 * TOL

    def test_general_admissibility_context(self, points):
        kernel = ExponentialKernel(0.2)
        ctx = Session(
            points, leaf_size=32, admissibility=GeneralAdmissibility(eta=0.7), seed=5
        )
        result = ctx.construct(kernel, tol=TOL)
        assert len(result.matrix.dense) > len(list(ctx.tree.leaves()))
        dense = kernel.matrix(ctx.tree.points)
        x = np.random.default_rng(3).standard_normal(N)
        assert rel_err(result.matrix.matvec(x, permuted=True), dense @ x) < 50 * TOL


@pytest.mark.parametrize(
    "build",
    [
        lambda p: Session(p).compress(ExponentialKernel(0.2)),
        lambda p: GaussianProcess(p, ExponentialKernel(0.2), noise=1e-2),
        lambda p: Session(p),
        lambda p: compress(p, ExponentialKernel(0.2)),
        lambda p: ClusterTree.build(p),
    ],
    ids=["Session", "GaussianProcess", "bare-Session", "compress", "ClusterTree"],
)
def test_one_dimensional_points_are_rejected(build):
    """A 1-D array is n scalars, not one point in n dimensions."""
    with pytest.raises(ValueError, match=r"points must be a \(n, dim\) array"):
        build(np.linspace(0.0, 1.0, 300))


class TestDenseValuesRule:
    """The kernel values are materialised while one value matrix fits the
    budget; otherwise kernel rows are evaluated on the fly."""

    VALUES_BYTES = N * N * 8

    def test_cutoff_is_6270_points(self):
        assert 6270 * 6270 * 8 <= facade._DENSE_VALUES_BYTES
        assert 6271 * 6271 * 8 > facade._DENSE_VALUES_BYTES

    @pytest.mark.parametrize("short_by", [0, 1])
    def test_bind_follows_the_budget(self, points, short_by, monkeypatch):
        monkeypatch.setattr(
            facade, "_DENSE_VALUES_BYTES", self.VALUES_BYTES - short_by
        )
        ctx = Session(points, leaf_size=32, seed=5)
        operator, extractor = ctx.bind(ExponentialKernel(0.2))
        if short_by:
            assert isinstance(operator, KernelMatVecOperator)
            assert isinstance(extractor, KernelEntryExtractor)
            assert "values=kernel" in ctx.describe()
        else:
            assert isinstance(operator, DenseOperator)
            assert isinstance(extractor, DenseEntryExtractor)
            assert "values=dense" in ctx.describe()

    @pytest.mark.parametrize(
        "knob", [{"distance_cache": "dense"}, {"cache_limit_mb": 1.0}]
    )
    def test_size_alone_picks_the_cache(self, points, knob):
        with pytest.raises(TypeError):
            Session(points, leaf_size=32, **knob)

    @pytest.mark.parametrize(
        "kernel",
        [
            ExponentialKernel(0.2),
            HelmholtzKernel(3.0, diagonal_value=1.5),
            0.5 * ExponentialKernel(0.2) + WhiteNoiseKernel(1e-2),
        ],
        ids=["exponential", "helmholtz", "exponential+nugget"],
    )
    def test_dense_values_equal_kernel_matrix(self, points, kernel):
        """The dense values are ``kernel.matrix`` over the permuted points,
        bit for bit, shared by the operator and the extractor."""
        ctx = Session(points, leaf_size=32, seed=5)
        operator, extractor = ctx.bind(kernel)
        expected = kernel.matrix(ctx.tree.points)
        assert np.array_equal(operator.matrix, expected)
        assert extractor.matrix is operator.matrix

    def test_uncached_entries_are_exact_on_any_index_set(self, points, monkeypatch):
        """Contiguous leaf ranges and the unsorted or gapped skeleton sets of
        coupling blocks, one by one and stacked, all read the kernel."""
        monkeypatch.setattr(facade, "_DENSE_VALUES_BYTES", 0)
        ctx = Session(points, leaf_size=32, seed=5)
        kernel = ExponentialKernel(0.2)
        operator, extractor = ctx.bind(kernel)
        dense = kernel.matrix(ctx.tree.points)
        cols = np.arange(40, 44)
        requests = [
            (np.arange(10, 14), cols),
            (np.array([12, 10, 13, 11]), cols),
            (np.array([20, 21, 23, 24]), cols),
        ]
        stacked = extractor.extract_blocks(requests)
        for (rows, _), block in zip(requests, stacked):
            expected = dense[np.ix_(rows, cols)]
            single = extractor.extract(rows, cols)
            assert np.allclose(single, expected, rtol=0, atol=1e-12)
            assert np.allclose(block, expected, rtol=0, atol=1e-12)
        x = np.random.default_rng(4).standard_normal((N, 2))
        assert np.allclose(operator.matvec(x), dense @ x, rtol=1e-12, atol=1e-12)


def _seed(name):
    """A fresh ``SeedLike`` per test: an int, ``None`` or a live Generator."""
    return {"int": 9, "none": None, "generator": np.random.default_rng(3)}[name]


class TestSamplePattern:
    """Every construction of one session sketches from its one sample seed."""

    def test_same_seed_same_matrix_across_contexts(self, points):
        kernel = ExponentialKernel(0.2)
        x = np.random.default_rng(4).standard_normal(N)
        products = {
            seed: Session(points, leaf_size=32, seed=seed)
            .construct(kernel, tol=TOL)
            .matrix.matvec(x, permuted=True)
            for seed in (7, 8)
        }
        again = Session(points, leaf_size=32, seed=7).construct(
            kernel, tol=TOL
        )
        assert np.array_equal(again.matrix.matvec(x, permuted=True), products[7])
        assert not np.array_equal(products[7], products[8])

    @pytest.mark.parametrize("seed", ["int", "none", "generator"])
    def test_sample_seed_replays_identically_through_packed_workspace(
        self, points, seed
    ):
        """Re-constructing a sweep point sketches with the same vectors and
        runs bit-identically through the packed level buffers."""
        ctx = Session(points, leaf_size=32, seed=_seed(seed))
        kernel = ExponentialKernel(0.2)
        # Passing an explicit config bypasses the result cache, so both runs
        # execute the full packed sweep.
        config = ConstructionConfig(tolerance=TOL, backend=ctx.backend)
        first = ctx.construct(kernel, config=config)
        second = ctx.construct(kernel, config=config)
        assert first is not second
        x = np.random.default_rng(4).standard_normal(N)
        assert np.array_equal(
            first.matrix.matvec(x, permuted=True),
            second.matrix.matvec(x, permuted=True),
        )
        assert first.total_samples == second.total_samples
        assert first.construction_path == second.construction_path == "packed"

    def test_compiled_and_per_node_sweeps_share_the_sample_seed(self, points):
        """``construct()`` and the per-node oracle (``LoopConstructor``)
        seeded with the session's sample seed draw the same samples."""
        ctx = Session(points, leaf_size=32, seed=9)
        kernel = ExponentialKernel(0.2)
        config = ConstructionConfig(tolerance=TOL, backend=ctx.backend)
        packed = ctx.construct(kernel, config=config)
        loop = LoopConstructor(
            ctx.partition, *ctx.bind(kernel), config=config, seed=ctx.sample_seed
        ).construct()
        assert loop.total_samples == packed.total_samples
        x = np.random.default_rng(4).standard_normal(N)
        err = rel_err(
            loop.matrix.matvec(x, permuted=True),
            packed.matrix.matvec(x, permuted=True),
        )
        assert err < 10 * TOL


class TestRecovery:
    """A recovered session construction restores the RNG and replays the
    uninjected construction bit for bit."""

    @pytest.fixture(scope="class")
    def reference(self, points):
        ctx = Session(points, leaf_size=32, seed=5)
        x = np.random.default_rng(6).standard_normal(N)
        return x, [
            ctx.construct(ExponentialKernel(ls), tol=TOL).matrix.matvec(x)
            for ls in (0.2, 0.35)
        ]

    @pytest.mark.parametrize(
        "faults", ["fail-nth-launch:nth=1", "nan-in-gemm-output:nth=2"]
    )
    def test_recovered_construction_is_bitwise_equal(
        self, points, reference, faults
    ):
        x, want = reference
        tracer = SpanTracer()
        ctx = Session(
            points, leaf_size=32, seed=5,
            policy=ExecutionPolicy(recovery="recover", faults=faults,
                                   tracer=tracer),
        )
        for ls, expected in zip((0.2, 0.35), want):
            result = ctx.construct(ExponentialKernel(ls), tol=TOL)
            assert np.array_equal(result.matrix.matvec(x), expected)
        assert ctx.policy.faults.fired(faults.split(":")[0]) == 1
        # The one recovery is one ``resilience/<event>`` span.
        (retry,) = find_spans(tracer, category="resilience")
        assert retry.name in ("resilience/packed-retry",
                              "resilience/sample-relaunch")


class TestReuse:
    def test_result_cache_hit_on_identical_point(self, points):
        ctx = Session(points, leaf_size=32, seed=9)
        first = ctx.construct(ExponentialKernel(0.2), tol=TOL)
        second = ctx.construct(ExponentialKernel(0.2), tol=TOL)
        assert second is first
        assert ctx.statistics.result_cache_hits == 1
        # A different hyperparameter must re-construct.
        third = ctx.construct(ExponentialKernel(0.35), tol=TOL)
        assert third is not first
        assert ctx.statistics.constructions == 2

    def test_result_cache_misses_on_in_place_kernel_mutation(self, points):
        """Mutating a kernel in place must not produce a stale cache hit."""
        ctx = Session(points, leaf_size=32, seed=9)
        kernel = ExponentialKernel(0.2)
        first = ctx.construct(kernel, tol=TOL)
        kernel.length_scale = 0.4  # dataclasses are mutable
        second = ctx.construct(kernel, tol=TOL)
        assert second is not first
        assert ctx.statistics.result_cache_hits == 0
        dense = ExponentialKernel(0.4).matrix(ctx.tree.points)
        x = np.random.default_rng(7).standard_normal(N)
        assert rel_err(second.matrix.matvec(x, permuted=True), dense @ x) < 50 * TOL

    def test_each_construction_compiles_its_own_plan(self, points):
        """Every construction compiles its own apply plan inside ``construct``;
        a later construction over the same geometry leaves earlier matrices
        computing their own kernel's products."""
        ctx = Session(points, leaf_size=32, seed=9)
        x = np.random.default_rng(8).standard_normal(N)
        first = ctx.construct(ExponentialKernel(0.2), tol=TOL)
        assert first.matrix._plan is not None
        before = first.matrix.matvec(x, permuted=True)
        ctx._last_result = None  # bypass the result cache: a real re-construction
        second = ctx.construct(ExponentialKernel(0.2), tol=TOL)
        assert second.matrix._plan is not None
        assert second.matrix._plan is not first.matrix._plan
        after = first.matrix.matvec(x, permuted=True)
        assert np.array_equal(before, after)
        dense = ExponentialKernel(0.2).matrix(ctx.tree.points)
        assert rel_err(after, dense @ x) < 50 * TOL
        assert rel_err(second.matrix.matvec(x, permuted=True), dense @ x) < 50 * TOL

    def test_statistics_and_describe(self, points):
        ctx = Session(points, leaf_size=32, seed=9)
        ctx.construct(ExponentialKernel(0.2), tol=TOL)
        stats = ctx.statistics.as_dict()
        assert stats["constructions"] == 1
        assert set(stats) == {
            "constructions", "result_cache_hits", "artifact_cache_hits",
            "setup_seconds",
        }
        assert "Session(" in ctx.describe()
        assert "values=dense" in ctx.describe()

    @pytest.mark.parametrize("knob", ["reuse_plan", "warm_start"])
    def test_reuse_is_not_a_switch(self, session, knob):
        """There is no apply-plan reuse or warm start, and no keyword to ask
        for either."""
        with pytest.raises(TypeError):
            session.construct(ExponentialKernel(0.2), tol=TOL, **{knob: False})


@pytest.mark.slow
class TestAcceptance:
    def test_sweep_reuse_at_4096(self):
        """Acceptance: a 3-point length-scale sweep shares one geometry.

        The reuse the sweep speedup stands for: one tree and one partition
        for three constructions, each of which compiles its own construction
        and apply plans.  The wall-clock ratio is measured by the benchmark
        (``gp_sweep_s``, ``core.warm_construct_s``), not asserted here.
        """
        n = 4096
        scales = [0.15, 0.2, 0.3]
        pts = uniform_cube_points(n, dim=3, seed=1)
        ctx = Session(pts, leaf_size=64, seed=3)
        results = [
            ctx.construct(ExponentialKernel(ls), tol=1e-6) for ls in scales
        ]
        stats = ctx.statistics
        assert stats.constructions == 3
        assert all(result.matrix._plan is not None for result in results)
        assert all(result.matrix.tree is ctx.tree for result in results)
        assert all(result.matrix.partition is ctx.partition for result in results)

        # Accuracy parity on the last sweep point.
        kernel = ExponentialKernel(scales[-1])
        x = np.random.default_rng(0).standard_normal(n)
        reference = KernelMatVecOperator(kernel, ctx.tree.points).matvec(x)
        err = rel_err(results[-1].matrix.matvec(x, permuted=True), reference)
        assert err < 1e-4
