"""Tests of H2 recompression and the H2 + low-rank update application."""

import numpy as np
import pytest

from repro import (
    ConstructionConfig,
    H2Operator,
    LowRankOperator,
    SumOperator,
    WeakAdmissibility,
    random_low_rank,
    recompress_h2,
)
from repro.core.recompression import _recompress_weak

from oracles import low_rank_update_reference_matvec


class TestPlainRecompression:
    def test_recompress_without_update(self, cov_h2, dense_cov_2d, rel_err):
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        result = recompress_h2(cov_h2, config=cfg, seed=3)
        err = rel_err(result.matrix.to_dense(permuted=True), cov_h2.to_dense(permuted=True))
        assert err < 1e-4
        # and still close to the original dense matrix
        assert rel_err(result.matrix.to_dense(permuted=True), dense_cov_2d) < 1e-4

    def test_recompression_statistics(self, cov_h2):
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        result = recompress_h2(cov_h2, config=cfg, seed=4)
        assert result.total_samples > 0
        assert result.entries_evaluated > 0
        assert result.matrix.partition is cov_h2.partition

    def test_traces_under_the_input_binding(self):
        """A base bound to a traced policy traces its recompression there:
        one ``construct`` root whose sampling phases hold the base's applies
        and whose launches are the result's (sampler on the same backend)."""
        import repro
        from repro import ExecutionPolicy, ExponentialKernel, SpanTracer, uniform_cube_points
        from repro.observe import PhaseBreakdown, find_spans

        tracer = SpanTracer()
        policy = ExecutionPolicy(backend="serial", tracer=tracer)
        base = repro.compress(
            uniform_cube_points(512, dim=2, seed=3), ExponentialKernel(0.25),
            tol=1e-6, leaf_size=32, seed=1, policy=policy,
        )
        assert base.apply_tracer is tracer
        roots_before = len(tracer.roots)
        cfg = ConstructionConfig(
            tolerance=1e-6, sample_block_size=32, backend=policy.resolve_backend()
        )
        update = random_low_rank(base.num_rows, 4, seed=2, symmetric=True)
        result = recompress_h2(base, update, config=cfg, seed=3)

        assert tracer.roots[roots_before:] == [result.trace]
        assert result.trace.name == "construct"
        applies = find_spans(result.trace, name="apply")
        assert applies
        assert all(span.parent.attributes["phase"] == "sampling" for span in applies)
        assert PhaseBreakdown.from_span(result.trace).seconds["sampling"] > 0.0
        assert result.trace.total_launches == result.total_kernel_launches > 0


    def test_result_is_bound_as_its_base(self):
        """The recompressed matrix applies under its base's binding: on the
        base's backend, with its ``apply`` spans in the base's tracer."""
        import repro
        from repro import ExecutionPolicy, ExponentialKernel, SpanTracer, uniform_cube_points
        from repro.observe import find_spans

        tracer = SpanTracer()
        base = repro.compress(
            uniform_cube_points(512, dim=2, seed=3), ExponentialKernel(0.25),
            tol=1e-6, leaf_size=32, seed=1,
            policy=ExecutionPolicy(tracer=tracer),
        )
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        matrix = recompress_h2(base, config=cfg, seed=3).matrix
        assert matrix.apply_backend is base.apply_backend
        assert matrix.apply_tracer is tracer
        applies = len(find_spans(tracer, name="apply"))
        matrix.matvec(np.ones(matrix.num_rows))
        assert len(find_spans(tracer, name="apply")) == applies + 1


class TestWeakRecompression:
    """``_recompress_weak``: how a strong H2 matrix reaches the HSS factor."""

    def test_lands_on_the_weak_partition(self, cov_h2, rel_err):
        assert cov_h2.weak_partition_defect() is not None
        weak = _recompress_weak(cov_h2)
        assert isinstance(weak.partition.admissibility, WeakAdmissibility)
        assert weak.partition.tree is cov_h2.tree
        assert weak.weak_partition_defect() is None
        assert weak.apply_backend is cov_h2.apply_backend
        assert rel_err(weak.to_dense(permuted=True), cov_h2.to_dense(permuted=True)) < 1e-4

    def test_is_deterministic(self, cov_h2):
        first = _recompress_weak(cov_h2).to_dense(permuted=True)
        assert np.array_equal(first, _recompress_weak(cov_h2).to_dense(permuted=True))

    def test_max_rank_caps_every_basis(self, cov_h2):
        weak = _recompress_weak(cov_h2, tol=1e-10, max_rank=4)
        assert max(weak.basis.ranks.values()) <= 4


class TestLowRankUpdate:
    def test_update_accuracy(self, cov_h2, rel_err):
        n = cov_h2.num_rows
        update = random_low_rank(n, 16, seed=7, symmetric=True, scale=0.5)
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        result = recompress_h2(cov_h2, update, config=cfg, seed=8)
        reference = cov_h2.to_dense(permuted=True) + update.to_dense()
        assert rel_err(result.matrix.to_dense(permuted=True), reference) < 1e-4

    def test_update_changes_matrix(self, cov_h2, rel_err):
        n = cov_h2.num_rows
        update = random_low_rank(n, 8, seed=9, symmetric=True, scale=1.0)
        cfg = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        result = recompress_h2(cov_h2, update, config=cfg, seed=10)
        # result should NOT equal the original (the update is not negligible)
        diff = rel_err(
            result.matrix.to_dense(permuted=True), cov_h2.to_dense(permuted=True)
        )
        assert diff > 1e-4

    def test_reference_matvec_helper(self, cov_h2):
        n = cov_h2.num_rows
        update = random_low_rank(n, 4, seed=11, symmetric=True)
        matvec = low_rank_update_reference_matvec(cov_h2, update)
        x = np.random.default_rng(0).standard_normal(n)
        expected = cov_h2.matvec(x, permuted=True) + update.matvec(x)
        assert np.allclose(matvec(x), expected)

    def test_sum_operator_equivalence(self, cov_h2):
        n = cov_h2.num_rows
        update = random_low_rank(n, 4, seed=12, symmetric=True)
        op = SumOperator([H2Operator(cov_h2), LowRankOperator(update)])
        x = np.random.default_rng(1).standard_normal((n, 3))
        expected = cov_h2.matvec(x, permuted=True) + update.matvec(x)
        assert np.allclose(op.multiply(x), expected)

    def test_dimension_validation(self, cov_h2):
        with pytest.raises(ValueError):
            recompress_h2(cov_h2, random_low_rank(cov_h2.num_rows + 1, 4, seed=13))
