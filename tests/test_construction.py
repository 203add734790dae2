"""Integration tests of the bottom-up sketching H2 construction (Algorithm 1)."""

import numpy as np
import pytest

from repro import (
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    ExponentialKernel,
    GeneralAdmissibility,
    ClusterTree,
    H2Constructor,
    HelmholtzKernel,
    KernelEntryExtractor,
    KernelMatVecOperator,
    SketchingOperator,
    SpanTracer,
    WeakAdmissibility,
    build_block_partition,
    uniform_cube_points,
)
from repro.linalg import construction_error
from repro.linalg.norm_estimation import SKETCH_NORM_COLUMNS
from repro.observe import PhaseBreakdown, find_spans

from oracles import LoopConstructor


def build_problem(kernel, n=700, dim=2, leaf_size=32, eta=0.7, seed=11):
    points = uniform_cube_points(n, dim=dim, seed=seed)
    tree = ClusterTree.build(points, leaf_size=leaf_size)
    partition = build_block_partition(tree, GeneralAdmissibility(eta=eta))
    dense = kernel.matrix(tree.points)
    return tree, partition, dense


class TestConfig:
    def test_defaults(self):
        cfg = ConstructionConfig()
        assert cfg.adaptive and cfg.tolerance == 1e-6
        assert cfg.effective_initial_samples == cfg.sample_block_size

    def test_fixed_sample_helper(self):
        cfg = ConstructionConfig().fixed_sample(256)
        assert not cfg.adaptive and cfg.initial_samples == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstructionConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            ConstructionConfig(sample_block_size=0)
        with pytest.raises(ValueError):
            ConstructionConfig(initial_samples=-4)
        with pytest.raises(ValueError):
            ConstructionConfig(id_tolerance_mode="bogus")

    def test_convergence_safety_factor_is_not_a_setting(self):
        """The convergence test's safety factor is a constant, not a knob."""
        with pytest.raises(TypeError):
            ConstructionConfig(convergence_safety_factor=2.0)
        assert not hasattr(ConstructionConfig(), "convergence_safety_factor")

    def test_dimension_mismatch_rejected(self, partition_2d):
        wrong = np.eye(10)
        with pytest.raises(ValueError):
            H2Constructor(
                partition_2d, DenseOperator(wrong), DenseEntryExtractor(wrong)
            )


class TestCovarianceAccuracy:
    def test_adaptive_meets_tolerance(self, partition_2d, dense_cov_2d, rel_err):
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        result = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=1,
        ).construct()
        err = rel_err(result.matrix.to_dense(permuted=True), dense_cov_2d)
        assert err < 1e-4  # measured errors are typically ~1e-7
        assert result.converged

    def test_fixed_sample_variant(self, partition_2d, dense_cov_2d, rel_err):
        cfg = ConstructionConfig(tolerance=1e-6, adaptive=False, initial_samples=128)
        result = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=2,
        ).construct()
        assert result.total_samples == 128
        err = rel_err(result.matrix.to_dense(permuted=True), dense_cov_2d)
        assert err < 1e-4

    def test_tolerance_controls_accuracy(self, partition_2d, dense_cov_2d, rel_err):
        errors = []
        for tol in (1e-2, 1e-4, 1e-7):
            cfg = ConstructionConfig(tolerance=tol, sample_block_size=32)
            result = H2Constructor(
                partition_2d,
                DenseOperator(dense_cov_2d),
                DenseEntryExtractor(dense_cov_2d),
                cfg,
                seed=3,
            ).construct()
            errors.append(rel_err(result.matrix.to_dense(permuted=True), dense_cov_2d))
        assert errors[0] > errors[2]
        assert errors[2] < 1e-5

    def test_looser_tolerance_smaller_ranks_and_memory(self, partition_2d, dense_cov_2d):
        results = []
        for tol in (1e-2, 1e-8):
            cfg = ConstructionConfig(tolerance=tol, sample_block_size=32)
            results.append(
                H2Constructor(
                    partition_2d,
                    DenseOperator(dense_cov_2d),
                    DenseEntryExtractor(dense_cov_2d),
                    cfg,
                    seed=4,
                ).construct()
            )
        assert results[0].rank_range[1] <= results[1].rank_range[1]
        assert results[0].memory_mb() <= results[1].memory_mb()

    def test_kernel_operator_path(self, tree_2d, partition_2d, exp_kernel, dense_cov_2d, rel_err):
        """Construction through the matrix-free kernel operator and extractor."""
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        result = H2Constructor(
            partition_2d,
            KernelMatVecOperator(exp_kernel, tree_2d.points, row_block=256),
            KernelEntryExtractor(exp_kernel, tree_2d.points),
            cfg,
            seed=5,
        ).construct()
        assert rel_err(result.matrix.to_dense(permuted=True), dense_cov_2d) < 1e-4

    def test_absolute_id_tolerance_mode(self, partition_2d, dense_cov_2d, rel_err):
        cfg = ConstructionConfig(
            tolerance=1e-6, sample_block_size=32, id_tolerance_mode="absolute"
        )
        result = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=6,
        ).construct()
        assert rel_err(result.matrix.to_dense(permuted=True), dense_cov_2d) < 1e-4


class TestHelmholtzAccuracy:
    def test_ie_kernel(self, rel_err):
        kernel = HelmholtzKernel(wavenumber=3.0, diagonal_value=0.0)
        tree, partition, dense = build_problem(kernel, n=700, dim=2, seed=21)
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        result = H2Constructor(
            partition, DenseOperator(dense), DenseEntryExtractor(dense), cfg, seed=7
        ).construct()
        assert rel_err(result.matrix.to_dense(permuted=True), dense) < 1e-4

    def test_3d_problem(self, rel_err):
        kernel = ExponentialKernel(0.2)
        tree, partition, dense = build_problem(
            kernel, n=800, dim=3, leaf_size=16, eta=1.0, seed=22
        )
        assert partition.num_admissible_blocks() > 0
        cfg = ConstructionConfig(tolerance=1e-5, sample_block_size=16)
        result = H2Constructor(
            partition, DenseOperator(dense), DenseEntryExtractor(dense), cfg, seed=8
        ).construct()
        assert rel_err(result.matrix.to_dense(permuted=True), dense) < 1e-3


class TestBackends:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_both_backends_accurate(self, backend, partition_2d, dense_cov_2d, rel_err):
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32, backend=backend)
        result = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=9,
        ).construct()
        assert rel_err(result.matrix.to_dense(permuted=True), dense_cov_2d) < 1e-4

    def test_backends_identical_results_with_same_seed(self, partition_2d, dense_cov_2d):
        results = {}
        for backend in ("serial", "vectorized"):
            cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32, backend=backend)
            results[backend] = H2Constructor(
                partition_2d,
                DenseOperator(dense_cov_2d),
                DenseEntryExtractor(dense_cov_2d),
                cfg,
                seed=10,
            ).construct()
        a = results["serial"].matrix.to_dense(permuted=True)
        b = results["vectorized"].matrix.to_dense(permuted=True)
        assert np.allclose(a, b, atol=1e-8)
        assert results["serial"].total_samples == results["vectorized"].total_samples


class TestAdaptiveSampling:
    def test_adaptive_adds_samples_when_block_too_small(self, partition_2d, dense_cov_2d):
        """With a tiny sample block the adaptive loop must top up the samples."""
        cfg = ConstructionConfig(tolerance=1e-8, sample_block_size=8, initial_samples=8)
        result = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=11,
        ).construct()
        assert result.total_samples > 8
        assert any(level.sampling_rounds > 1 for level in result.levels)

    def test_fixed_never_adds_samples(self, partition_2d, dense_cov_2d):
        cfg = ConstructionConfig(tolerance=1e-8, adaptive=False, initial_samples=48)
        result = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=12,
        ).construct()
        assert result.total_samples == 48
        assert all(level.sampling_rounds == 1 for level in result.levels)

    def test_max_samples_cap_respected(self, partition_2d, dense_cov_2d):
        cfg = ConstructionConfig(
            tolerance=1e-12, sample_block_size=8, initial_samples=8, max_samples=24
        )
        result = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=13,
        ).construct()
        assert result.total_samples <= 24

    def test_adaptive_uses_fewer_samples_than_paper_fixed(self, partition_2d, dense_cov_2d):
        """Table II: adaptive sampling needs far fewer vectors than a large fixed block."""
        adaptive = H2Constructor(
            partition_2d,
            DenseOperator(dense_cov_2d),
            DenseEntryExtractor(dense_cov_2d),
            ConstructionConfig(tolerance=1e-6, sample_block_size=32),
            seed=14,
        ).construct()
        assert adaptive.total_samples < 256

    def test_max_rank_cap(self, partition_2d, dense_cov_2d):
        cfg = ConstructionConfig(tolerance=1e-10, sample_block_size=32, max_rank=5)
        result = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=15,
        ).construct()
        assert result.rank_range[1] <= 5


class BareOperator(SketchingOperator):
    """Defines ``n`` and ``_multiply`` only — all a forwarding proxy such as the
    benchmark's ``TimedOperator`` passes on — and records each call's width."""

    def __init__(self, matrix):
        super().__init__()
        self.matrix = matrix
        self.widths = []

    @property
    def n(self):
        return self.matrix.shape[0]

    def _multiply(self, omega):
        self.widths.append(omega.shape[1])
        return self.matrix @ omega


class TestOperatorApplications:
    """A construction applies the black box once per sampling round, plus once
    for the norm estimate — and every application is counted."""

    @pytest.mark.parametrize("path", ["packed", "loop"])
    @pytest.mark.parametrize("block", [16, 64])
    def test_rounds_plus_one(self, partition_2d, dense_cov_2d, path, block):
        operator = BareOperator(dense_cov_2d)
        config = ConstructionConfig(tolerance=1e-8, sample_block_size=block)
        cls = H2Constructor if path == "packed" else LoopConstructor
        result = cls(
            partition_2d, operator, DenseEntryExtractor(dense_cov_2d), config, seed=11
        ).construct()
        rounds, remainder = divmod(result.total_samples, block)
        assert remainder == 0
        assert (rounds > 1) == (block == 16)  # one multi-round case, one one-round case
        estimate = min(block, SKETCH_NORM_COLUMNS)
        assert operator.widths == [block, estimate] + [block] * (rounds - 1)
        assert result.operator_applications == operator.applications == rounds + 1
        assert operator.samples_taken == result.total_samples + estimate
        assert 0.0 < result.norm_estimate <= np.linalg.norm(dense_cov_2d, 2) * (1 + 1e-12)

    def test_supplied_norm_estimate_skips_the_extra_application(
        self, partition_2d, dense_cov_2d
    ):
        operator = BareOperator(dense_cov_2d)
        config = ConstructionConfig(tolerance=1e-6, norm_estimate=250.0)
        result = H2Constructor(
            partition_2d, operator, DenseEntryExtractor(dense_cov_2d), config, seed=11
        ).construct()
        assert operator.widths == [64]
        assert result.operator_applications == 1
        assert result.norm_estimate == 250.0


class TestPhaseSpans:
    """The ``construct.phase`` spans are the one record of the Fig. 7 split."""

    #: What both sweeps recorded on this fixture before the spans became the
    #: only clock: moving to spans must not lose or rename a phase.
    PHASES = {
        "bsr_gemm", "convergence", "entry_generation", "id", "misc",
        "sampling", "shrink_upsweep",
    }

    @pytest.mark.parametrize(
        "cls", [H2Constructor, LoopConstructor], ids=["construct", "construct_loop"]
    )
    def test_phases_are_disjoint_spans_below_the_root(
        self, partition_2d, dense_cov_2d, cls
    ):
        constructor = cls(
            partition_2d,
            DenseOperator(dense_cov_2d),
            DenseEntryExtractor(dense_cov_2d),
            ConstructionConfig(tolerance=1e-7, sample_block_size=32),
            seed=5,
            tracer=SpanTracer(),
        )
        root = constructor.construct().trace
        phases = find_spans(root, category="construct.phase")
        assert {span.attributes["phase"] for span in phases} == self.PHASES
        assert set(PhaseBreakdown.from_span(root).seconds) == self.PHASES
        for span in phases:
            assert span.name == f"phase/{span.attributes['phase']}"
            ancestor = span.parent
            while ancestor is not None:
                assert ancestor.category != "construct.phase"
                ancestor = ancestor.parent
        assert sum(span.duration for span in phases) <= root.duration

    @pytest.mark.parametrize(
        "cls", [H2Constructor, LoopConstructor], ids=["construct", "construct_loop"]
    )
    def test_tracing_leaves_the_construction_unchanged(
        self, partition_2d, dense_cov_2d, cls
    ):
        """A phase costs a span only when traced; untraced, nothing is kept."""
        results = [
            cls(
                partition_2d,
                DenseOperator(dense_cov_2d),
                DenseEntryExtractor(dense_cov_2d),
                ConstructionConfig(tolerance=1e-7, sample_block_size=32),
                seed=5,
                tracer=tracer,
            ).construct()
            for tracer in (None, SpanTracer())
        ]
        untraced, traced = results
        assert untraced.trace is None and traced.trace is not None
        assert not hasattr(untraced, "phase_seconds")
        for field in ("total_samples", "operator_applications", "entries_evaluated"):
            assert getattr(untraced, field) == getattr(traced, field)
        assert untraced.kernel_launches == traced.kernel_launches
        assert np.array_equal(
            untraced.matrix.to_dense(permuted=True),
            traced.matrix.to_dense(permuted=True),
        )


class TestResultMetadata:
    def test_summary_and_counters(self, cov_h2_result):
        summary = cov_h2_result.summary()
        assert summary["n"] == cov_h2_result.matrix.num_rows
        assert cov_h2_result.total_kernel_launches > 0
        assert cov_h2_result.total_kernel_calls > 0
        assert cov_h2_result.total_kernel_calls <= cov_h2_result.total_kernel_launches
        assert cov_h2_result.entries_evaluated > 0
        assert cov_h2_result.operator_applications >= 1

    def test_level_reports(self, cov_h2_result):
        levels = cov_h2_result.levels
        assert len(levels) >= 2
        depths = [lvl.depth for lvl in levels]
        assert depths == sorted(depths, reverse=True)
        assert levels[0].num_nodes == 2 ** levels[0].depth

    def test_entries_evaluated_matches_stored_blocks(self, cov_h2_result):
        """Only dense and coupling blocks are evaluated directly (O(r N)
        asymptotically), and of each mirrored pair only ``(s, t)`` with
        ``s <= t``: its twin is stored as the transpose."""
        n = cov_h2_result.matrix.num_rows
        matrix = cov_h2_result.matrix
        evaluated = sum(
            block.size
            for blocks in (matrix.dense, matrix.coupling)
            for (s, t), block in blocks.items()
            if s <= t
        )
        assert cov_h2_result.entries_evaluated == evaluated
        assert cov_h2_result.entries_evaluated < n * n

    def test_norm_estimate_positive(self, cov_h2_result):
        assert cov_h2_result.norm_estimate > 0

    def test_power_method_error_estimate(self, cov_h2_result, dense_cov_2d):
        op = DenseOperator(dense_cov_2d)
        err = construction_error(cov_h2_result.matrix, op, num_iterations=8, seed=0)
        assert err < 1e-4


class TestDegenerateStructures:
    def test_fully_dense_problem(self, rel_err):
        """A tiny 3D problem with eta=0.5 has no admissible blocks: pure dense storage."""
        kernel = ExponentialKernel(0.2)
        points = uniform_cube_points(120, dim=3, seed=30)
        tree = ClusterTree.build(points, leaf_size=32)
        partition = build_block_partition(tree, GeneralAdmissibility(eta=0.5))
        dense = kernel.matrix(tree.points)
        result = H2Constructor(
            partition, DenseOperator(dense), DenseEntryExtractor(dense),
            ConstructionConfig(tolerance=1e-6), seed=16,
        ).construct()
        if partition.num_admissible_blocks() == 0:
            assert result.total_samples == 0
        assert rel_err(result.matrix.to_dense(permuted=True), dense) < 1e-10

    def test_weak_admissibility_hss_case(self, tree_2d, dense_cov_2d, rel_err):
        partition = build_block_partition(tree_2d, WeakAdmissibility())
        result = H2Constructor(
            partition, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            ConstructionConfig(tolerance=1e-6, sample_block_size=64), seed=17,
        ).construct()
        assert rel_err(result.matrix.to_dense(permuted=True), dense_cov_2d) < 1e-3

    def test_single_leaf_tree(self, rel_err):
        kernel = ExponentialKernel(0.2)
        points = uniform_cube_points(40, dim=2, seed=31)
        tree = ClusterTree.build(points, leaf_size=64)
        partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
        dense = kernel.matrix(tree.points)
        result = H2Constructor(
            partition, DenseOperator(dense), DenseEntryExtractor(dense),
            ConstructionConfig(tolerance=1e-6), seed=18,
        ).construct()
        assert rel_err(result.matrix.to_dense(permuted=True), dense) < 1e-12

    def test_reproducible_with_seed(self, partition_2d, dense_cov_2d):
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        a = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=99,
        ).construct()
        b = H2Constructor(
            partition_2d, DenseOperator(dense_cov_2d), DenseEntryExtractor(dense_cov_2d),
            cfg, seed=99,
        ).construct()
        assert np.allclose(
            a.matrix.to_dense(permuted=True), b.matrix.to_dense(permuted=True)
        )
        assert a.total_samples == b.total_samples
