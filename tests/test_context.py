"""Tests of the geometry-reuse construction context (repro.core.context).

The context must be a pure optimization: constructions through it have to
match the accuracy of from-scratch constructions at every cache policy, while
actually re-using the cached pieces (frozen sample pattern, warm-started
sample counts, result cache, construction packing).  The slow acceptance test pins
the reuse behind the headline claim — a 3-point length-scale sweep at
N = 4096 builds one tree and one construction plan for three constructions;
the benchmark measures what that saves.
"""

import hashlib

import numpy as np
import pytest

from repro import (
    ClusterTree,
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    ExponentialKernel,
    GaussianKernel,
    GeneralAdmissibility,
    GeometryContext,
    H2Constructor,
    HelmholtzKernel,
    Matern52Kernel,
    Session,
    WeakAdmissibility,
    WhiteNoiseKernel,
    build_block_partition,
    uniform_cube_points,
)
from repro.core import context as context_module
from repro.core.context import _OmegaBank
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
def context(points):
    return GeometryContext(points, leaf_size=32, seed=5)


class TestConstructionEquivalence:
    @pytest.mark.parametrize("length_scale", [0.15, 0.3])
    def test_matches_dense_reference(self, context, points, length_scale):
        kernel = ExponentialKernel(length_scale)
        result = context.construct(kernel, tolerance=TOL)
        dense = kernel.matrix(context.tree.points)
        x = np.random.default_rng(0).standard_normal(N)
        err = rel_err(result.matrix.matvec(x, permuted=True), dense @ x)
        assert err < 50 * TOL

    def test_matches_from_scratch_accuracy(self, points):
        """Context constructions are as accurate as cold ones at the same tol."""
        kernel = Matern52Kernel(0.25)
        ctx = GeometryContext(points, leaf_size=32, seed=5)
        warm = ctx.construct(kernel, tolerance=TOL)

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

    @pytest.mark.parametrize("cache", ["dense", "none"])
    def test_cache_policies_agree(self, points, cache, monkeypatch):
        """Both sides of the dense-cache size rule (n = 700 is far below it;
        a zero budget forces on-the-fly kernel evaluation)."""
        if cache == "none":
            monkeypatch.setattr(context_module, "_DENSE_CACHE_BYTES", 0)
        kernel = ExponentialKernel(0.2)
        ctx = GeometryContext(points, leaf_size=32, seed=5)
        assert f"cache={cache}" in ctx.describe()
        result = ctx.construct(kernel, tolerance=TOL)
        dense = kernel.matrix(ctx.tree.points)
        x = np.random.default_rng(2).standard_normal(N)
        assert rel_err(result.matrix.matvec(x, permuted=True), dense @ x) < 50 * TOL

    def test_general_admissibility_context(self, points):
        kernel = ExponentialKernel(0.2)
        ctx = GeometryContext(
            points, leaf_size=32, admissibility=GeneralAdmissibility(eta=0.7), seed=5
        )
        result = ctx.construct(kernel, tolerance=TOL)
        assert len(result.matrix.dense) > len(list(ctx.tree.leaves()))
        dense = kernel.matrix(ctx.tree.points)
        x = np.random.default_rng(3).standard_normal(N)
        assert rel_err(result.matrix.matvec(x, permuted=True), dense @ x) < 50 * TOL


class TestDenseCacheRule:
    """The distances are cached while they and one value matrix fit the
    budget; otherwise kernel rows are evaluated on the fly."""

    CACHE_BYTES = 2 * N * N * 8

    @pytest.mark.parametrize("short_by", [0, 1])
    def test_bind_follows_the_budget(self, points, short_by, monkeypatch):
        monkeypatch.setattr(
            context_module, "_DENSE_CACHE_BYTES", self.CACHE_BYTES - short_by
        )
        ctx = GeometryContext(points, leaf_size=32, seed=5)
        operator, extractor = ctx.bind(ExponentialKernel(0.2))
        if short_by:
            assert isinstance(operator, KernelMatVecOperator)
            assert isinstance(extractor, KernelEntryExtractor)
            assert ctx.memory_bytes() < N * N * 8
            assert "cache=none" in ctx.describe()
        else:
            assert isinstance(operator, DenseOperator)
            assert isinstance(extractor, DenseEntryExtractor)
            assert ctx.memory_bytes() >= self.CACHE_BYTES
            assert "cache=dense" in ctx.describe()

    @pytest.mark.parametrize(
        "knob", [{"distance_cache": "dense"}, {"cache_limit_mb": 1.0}]
    )
    def test_size_alone_picks_the_cache(self, points, knob):
        for owner in (GeometryContext, Session):
            with pytest.raises(TypeError):
                owner(points, leaf_size=32, **knob)

    @pytest.mark.parametrize(
        "kernel",
        [
            ExponentialKernel(0.2),
            HelmholtzKernel(3.0, diagonal_value=1.5),
            0.5 * ExponentialKernel(0.2) + WhiteNoiseKernel(1e-2),
        ],
        ids=["exponential", "helmholtz", "exponential+nugget"],
    )
    def test_cached_values_equal_kernel_matrix(self, points, kernel):
        """The value cache is the mirrored tiling of the cached distances:
        the same matrix as ``kernel.matrix``, bit for bit."""
        ctx = GeometryContext(points, leaf_size=32, seed=5)
        operator, extractor = ctx.bind(kernel)
        expected = kernel.matrix(ctx.tree.points)
        assert np.array_equal(operator.matrix, expected)
        assert extractor.matrix is operator.matrix
        assert np.array_equal(ctx._distances, ctx._distances.T)

    def test_uncached_entries_are_exact_on_any_index_set(self, points, monkeypatch):
        """Contiguous leaf ranges and the unsorted or gapped skeleton sets of
        coupling blocks, one by one and stacked, all read the kernel."""
        monkeypatch.setattr(context_module, "_DENSE_CACHE_BYTES", 0)
        ctx = GeometryContext(points, leaf_size=32, seed=5)
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


class TestReuse:
    def test_frozen_sample_pattern(self, points):
        """Same seed => identical constructions (the sample pattern is cached)."""
        kernel = ExponentialKernel(0.2)
        a = GeometryContext(points, leaf_size=32, seed=9).construct(kernel, tolerance=TOL)
        b = GeometryContext(points, leaf_size=32, seed=9).construct(kernel, tolerance=TOL)
        x = np.random.default_rng(4).standard_normal(N)
        assert np.array_equal(
            a.matrix.matvec(x, permuted=True), b.matrix.matvec(x, permuted=True)
        )

    def test_result_cache_hit_on_identical_point(self, points):
        ctx = GeometryContext(points, leaf_size=32, seed=9)
        first = ctx.construct(ExponentialKernel(0.2), tolerance=TOL)
        second = ctx.construct(ExponentialKernel(0.2), tolerance=TOL)
        assert second is first
        assert ctx.statistics.result_cache_hits == 1
        # A different hyperparameter must re-construct.
        third = ctx.construct(ExponentialKernel(0.35), tolerance=TOL)
        assert third is not first
        assert ctx.statistics.constructions == 2

    def test_construction_plan_compiled_once_per_context(self, points):
        """The packed sweep's static packing is compiled once and shared."""
        ctx = GeometryContext(points, leaf_size=32, seed=9)
        ctx.construct(ExponentialKernel(0.2), tolerance=TOL)
        plan = ctx._construction_plan
        assert plan is not None
        ctx.construct(ExponentialKernel(0.35), tolerance=TOL)
        ctx.construct(GaussianKernel(0.3), tolerance=TOL)
        assert ctx._construction_plan is plan
        assert ctx.statistics.construction_plan_compilations == 1
        assert (
            ctx.statistics.as_dict()["construction_plan_compilations"] == 1
        )

    def test_frozen_bank_replays_identically_through_packed_workspace(self, points):
        """Re-constructing a sweep point replays the frozen sample columns
        bit-identically through the packed level buffers."""
        ctx = GeometryContext(points, leaf_size=32, seed=9)
        kernel = ExponentialKernel(0.2)
        # Passing an explicit config bypasses the result cache, so both runs
        # execute the full packed sweep against the same frozen Omega bank;
        # warm-starting is disabled so they run the identical sample schedule.
        config = ConstructionConfig(tolerance=TOL, backend=ctx.backend)
        first = ctx.construct(kernel, config=config, warm_start=False)
        second = ctx.construct(kernel, config=config, warm_start=False)
        assert first is not second
        x = np.random.default_rng(4).standard_normal(N)
        assert np.array_equal(
            first.matrix.matvec(x, permuted=True),
            second.matrix.matvec(x, permuted=True),
        )
        assert first.total_samples == second.total_samples
        assert first.construction_path == second.construction_path == "packed"

    def test_compiled_and_per_node_sweeps_share_the_frozen_bank(self, points):
        """``construct()`` and the per-node oracle (``LoopConstructor``) draw
        the identical cached sample columns."""
        ctx = GeometryContext(points, leaf_size=32, seed=9)
        kernel = ExponentialKernel(0.2)
        config = ConstructionConfig(tolerance=TOL, backend=ctx.backend)
        packed = ctx.construct(kernel, config=config, warm_start=False)
        cached_columns = ctx.statistics.sample_columns_cached
        loop = LoopConstructor(
            ctx.partition, *ctx.bind(kernel), config=config,
            sample_source=ctx._omega_bank.sampler(),
        ).construct()
        # The loop replay consumed the same bank without growing it.
        assert ctx.statistics.sample_columns_cached == cached_columns
        assert loop.total_samples == packed.total_samples
        x = np.random.default_rng(4).standard_normal(N)
        err = rel_err(
            loop.matrix.matvec(x, permuted=True),
            packed.matrix.matvec(x, permuted=True),
        )
        assert err < 10 * TOL

    def test_result_cache_misses_on_in_place_kernel_mutation(self, points):
        """Mutating a kernel in place must not produce a stale cache hit."""
        ctx = GeometryContext(points, leaf_size=32, seed=9)
        kernel = ExponentialKernel(0.2)
        first = ctx.construct(kernel, tolerance=TOL)
        kernel.length_scale = 0.4  # dataclasses are mutable
        second = ctx.construct(kernel, tolerance=TOL)
        assert second is not first
        assert ctx.statistics.result_cache_hits == 0
        dense = ExponentialKernel(0.4).matrix(ctx.tree.points)
        x = np.random.default_rng(7).standard_normal(N)
        assert rel_err(second.matrix.matvec(x, permuted=True), dense @ x) < 50 * TOL

    def test_each_construction_compiles_its_own_plan(self, points):
        """Every construction compiles its own apply plan inside ``construct``;
        a later construction over the same geometry leaves earlier matrices
        computing their own kernel's products."""
        ctx = GeometryContext(points, leaf_size=32, seed=9)
        x = np.random.default_rng(8).standard_normal(N)
        first = ctx.construct(ExponentialKernel(0.2), tolerance=TOL)
        assert first.matrix._plan is not None
        before = first.matrix.matvec(x, permuted=True)
        ctx._last_result = None  # bypass the result cache: a real re-construction
        second = ctx.construct(ExponentialKernel(0.2), tolerance=TOL)
        assert second.matrix._plan is not None
        assert second.matrix._plan is not first.matrix._plan
        after = first.matrix.matvec(x, permuted=True)
        assert np.array_equal(before, after)
        dense = ExponentialKernel(0.2).matrix(ctx.tree.points)
        assert rel_err(after, dense @ x) < 50 * TOL
        assert rel_err(second.matrix.matvec(x, permuted=True), dense @ x) < 50 * TOL

    def test_warm_start_reduces_operator_applications(self, points):
        ctx = GeometryContext(points, leaf_size=32, seed=9)
        first = ctx.construct(ExponentialKernel(0.15), tolerance=TOL)
        # Nearby hyperparameter: the warm-started sketch should need at most
        # as many black-box applications as the cold adaptive run.
        second = ctx.construct(ExponentialKernel(0.18), tolerance=TOL)
        assert second.operator_applications <= first.operator_applications
        assert second.total_samples >= 1

    def test_statistics_and_describe(self, points):
        ctx = GeometryContext(points, leaf_size=32, seed=9)
        ctx.construct(ExponentialKernel(0.2), tolerance=TOL)
        stats = ctx.statistics.as_dict()
        assert stats["constructions"] == 1
        assert "plan_compilations" not in stats and "plan_reuses" not in stats
        assert stats["sample_columns_cached"] > 0
        assert ctx.memory_bytes() > 0
        assert "GeometryContext" in ctx.describe()
        assert "cache=dense" in ctx.describe()

    def test_plan_reuse_is_not_a_switch(self, context):
        """There is no apply-plan reuse, and no keyword to ask for one."""
        with pytest.raises(TypeError):
            context.construct(
                ExponentialKernel(0.2), tolerance=TOL, reuse_plan=False
            )


class TestOmegaBank:
    """The frozen sample bank keeps its values whatever its storage."""

    #: sha256 (first 16 hex digits) over the draws of ``_OmegaBank(37,
    #: default_rng(11))``, recorded from the bank that regrew one ``(n, k)``
    #: array with ``hstack``; the last number is ``num_columns`` afterwards.
    RECORDED = {
        "aligned": ([64, 16, 16, 16, 16, 16], "d0aaa51234f4ed58", 256),
        "straddling": ([100] + [16] * 8, "c2d0828a96c08d66", 400),
        "jumps": ([8, 200, 8, 300], "8d9ce49eb8d90e67", 832),
    }

    @staticmethod
    def digest(sampler, draws):
        sha = hashlib.sha256()
        for count in draws:
            block = sampler(count)
            assert block.shape == (37, count)
            sha.update(np.ascontiguousarray(block).tobytes())
        return sha.hexdigest()[:16]

    @pytest.mark.parametrize("pattern", sorted(RECORDED))
    def test_draws_keep_every_bit_and_reset_replays_them(self, pattern):
        draws, recorded, columns = self.RECORDED[pattern]
        bank = _OmegaBank(37, np.random.default_rng(11))
        sampler = bank.sampler()
        assert self.digest(sampler, draws) == recorded
        assert bank.num_columns == columns
        sampler.reset()
        assert self.digest(sampler, draws) == recorded
        assert bank.num_columns == columns  # a replay draws nothing new
        # Each (row, column) is the entry of the growth block it was drawn in.
        rng = np.random.default_rng(11)
        widths = np.diff([0] + bank._stops)
        whole = np.hstack([rng.standard_normal((37, w)) for w in widths])
        assert np.array_equal(bank.columns(0, columns), whole)

    def test_a_draw_inside_one_growth_is_a_view(self):
        bank = _OmegaBank(37, np.random.default_rng(11))
        bank.columns(0, 64)
        block = bank.columns(64, 80)  # grows to 128, draws from the new block
        assert block.base is bank._blocks[1]
        assert bank.nbytes == 37 * 128 * 8


@pytest.mark.slow
class TestAcceptance:
    def test_sweep_reuse_at_4096(self):
        """Acceptance: a 3-point length-scale sweep shares one geometry.

        The reuse the sweep speedup stands for, read from the context's
        counters: one tree and one construction plan for three constructions,
        each of which compiles its own apply plan.  The wall-clock ratio is measured by the benchmark
        (``gp_sweep_s``, ``core.warm_construct_s``), not asserted here.
        """
        n = 4096
        scales = [0.15, 0.2, 0.3]
        pts = uniform_cube_points(n, dim=3, seed=1)
        ctx = GeometryContext(pts, leaf_size=64, seed=3)
        results = [
            ctx.construct(ExponentialKernel(ls), tolerance=1e-6) for ls in scales
        ]
        stats = ctx.statistics
        assert stats.constructions == 3
        assert stats.construction_plan_compilations == 1
        assert all(result.matrix._plan is not None for result in results)
        assert all(result.matrix.tree is ctx.tree for result in results)

        # Accuracy parity on the last sweep point.
        kernel = ExponentialKernel(scales[-1])
        x = np.random.default_rng(0).standard_normal(n)
        reference = KernelMatVecOperator(kernel, ctx.tree.points).matvec(x)
        err = rel_err(results[-1].matrix.matvec(x, permuted=True), reference)
        assert err < 1e-4
