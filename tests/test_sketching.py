"""Tests for sketching operators and entry extractors."""

import tracemalloc

import numpy as np
import pytest

from repro import (
    DenseEntryExtractor,
    DenseOperator,
    EntryExtractor,
    ExponentialKernel,
    H2EntryExtractor,
    HelmholtzKernel,
    H2Operator,
    KernelEntryExtractor,
    KernelMatVecOperator,
    LaplaceKernel,
    LowRankEntryExtractor,
    LowRankOperator,
    SumEntryExtractor,
    SumOperator,
    random_low_rank,
    uniform_cube_points,
)
from repro.batched import KernelLaunchCounter
from repro.kernels import base as kernel_base


def _padded(extractor, requests, pad_rows, pad_cols, counter=None):
    """``requests`` evaluated into a zeroed ``(g, pad_rows, pad_cols)`` stack."""
    out = np.zeros((len(requests), pad_rows, pad_cols))
    extractor.extract_blocks_into(out, range(len(requests)), requests, counter)
    return out


class TestOperators:
    def test_dense_operator_multiply(self, dense_cov_2d):
        op = DenseOperator(dense_cov_2d)
        rng = np.random.default_rng(0)
        omega = rng.standard_normal((op.n, 4))
        assert np.allclose(op.multiply(omega), dense_cov_2d @ omega)

    def test_statistics_tracking(self, dense_cov_2d):
        op = DenseOperator(dense_cov_2d)
        rng = np.random.default_rng(1)
        op.multiply(rng.standard_normal((op.n, 3)))
        op.multiply(rng.standard_normal((op.n, 5)))
        assert op.samples_taken == 8
        assert op.applications == 2
        op.reset_statistics()
        assert op.samples_taken == 0 and op.applications == 0

    def test_matvec_does_not_count_samples(self, dense_cov_2d):
        op = DenseOperator(dense_cov_2d)
        op.matvec(np.ones(op.n))
        assert op.samples_taken == 0

    def test_vector_input_promoted(self, dense_cov_2d):
        op = DenseOperator(dense_cov_2d)
        x = np.ones(op.n)
        assert op.multiply(x).shape == (op.n, 1)
        assert op.matvec(x).shape == (op.n,)

    def test_dimension_mismatch_raises(self, dense_cov_2d):
        op = DenseOperator(dense_cov_2d)
        with pytest.raises(ValueError):
            op.multiply(np.ones((op.n + 1, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            DenseOperator(np.zeros((3, 4)))

    def test_kernel_matvec_operator_matches_dense(self, tree_2d, exp_kernel, dense_cov_2d):
        op = KernelMatVecOperator(exp_kernel, tree_2d.points, row_block=100)
        rng = np.random.default_rng(2)
        omega = rng.standard_normal((op.n, 3))
        assert np.allclose(op.multiply(omega), dense_cov_2d @ omega, atol=1e-10)

    def test_kernel_matvec_operator_any_row_block(self, exp_kernel):
        """Square tiles of side 1, 7, 256 and n (one tile) and the default 128,
        at an N that is a multiple of none of them but 1 and n."""
        points = uniform_cube_points(300, dim=2, seed=6)
        n = points.shape[0]
        dense = exp_kernel.matrix(points)
        omega = np.random.default_rng(2).standard_normal((n, 5))
        assert n % 7 and n % kernel_base._TILE_SIDE and n > 256
        for row_block in (1, 7, 256, n, None):
            op = KernelMatVecOperator(exp_kernel, points, row_block=row_block)
            assert np.allclose(op.multiply(omega), dense @ omega, rtol=0.0, atol=1e-11)

    def test_tiling_never_changes_which_pairs_are_coincident(self, monkeypatch):
        """The snap-to-zero floor comes from the whole point set, not from the
        points of one tile: a pair 1e-8 apart inside a cluster at the origin
        is coincident in ``kernel.matrix`` (floor ~ 3e-7 on the unit cube) and
        must stay so when a tile holds only that cluster, where a tile-local
        floor would evaluate the singular profile to 1e8 instead."""
        rng = np.random.default_rng(8)
        points = np.vstack([1e-2 * rng.random((32, 3)), rng.random((32, 3))])
        points[1] = points[0] + np.array([1e-8, 0.0, 0.0])
        n = points.shape[0]
        omega = rng.standard_normal((n, 3))
        for kernel in (
            HelmholtzKernel(3.0, diagonal_value=1.5),
            LaplaceKernel(diagonal_value=2.0),
        ):
            dense = kernel.matrix(points)  # one tile: the untiled code
            assert dense[0, 1] == dense[1, 0] == kernel.diagonal_value
            assert np.abs(dense).max() < 1e4
            with monkeypatch.context() as patch:
                patch.setattr(kernel_base, "_TILE_SIDE", 4)
                for row_block in (1, 7, 256, n, None):
                    op = KernelMatVecOperator(kernel, points, row_block=row_block)
                    assert np.allclose(
                        op.multiply(omega), dense @ omega, rtol=0.0, atol=1e-9
                    )

    def test_duplicates_in_different_tiles_get_the_diagonal_value(self):
        """A point repeated 200 rows later sits in another tile: the tile that
        holds the pair is evaluated once and mirrored, and both entries get
        ``diagonal_value``."""
        points = uniform_cube_points(300, dim=3, seed=9)
        points[250] = points[3]
        kernel = HelmholtzKernel(3.0, diagonal_value=1.5)
        dense = kernel.matrix(points)
        assert dense[3, 250] == dense[250, 3] == 1.5
        assert np.all(np.isfinite(dense))
        omega = np.random.default_rng(3).standard_normal((300, 4))
        exact = kernel.evaluate(points, points.copy()) @ omega  # unmirrored
        assert np.allclose(
            KernelMatVecOperator(kernel, points).multiply(omega), exact, rtol=0.0, atol=1e-11
        )

    def test_kernel_matvec_operator_streams_tiles(self):
        """No N x N array and no slab of one: N = 4096 would need 128 MiB for the
        matrix; an application may hold its output and a few 128 KiB tiles."""
        n, columns = 4096, 64
        op = KernelMatVecOperator(
            ExponentialKernel(0.2), uniform_cube_points(n, dim=2, seed=3)
        )
        omega = np.random.default_rng(4).standard_normal((n, columns))
        tracemalloc.start()
        try:
            out = op.multiply(omega)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * 8 * kernel_base._TILE_SIDE**2

    def test_low_rank_operator(self):
        lr = random_low_rank(40, 3, seed=3)
        op = LowRankOperator(lr)
        x = np.random.default_rng(4).standard_normal((40, 2))
        assert np.allclose(op.multiply(x), lr.to_dense() @ x)

    def test_sum_operator(self, dense_cov_2d):
        lr = random_low_rank(dense_cov_2d.shape[0], 4, seed=5)
        op = SumOperator([DenseOperator(dense_cov_2d), LowRankOperator(lr)])
        x = np.random.default_rng(6).standard_normal((op.n, 3))
        assert np.allclose(op.multiply(x), dense_cov_2d @ x + lr.to_dense() @ x)

    def test_sum_operator_validation(self, dense_cov_2d):
        with pytest.raises(ValueError):
            SumOperator([])
        with pytest.raises(ValueError):
            SumOperator([DenseOperator(dense_cov_2d), LowRankOperator(random_low_rank(3, 1))])

    def test_h2_operator_matches_matrix(self, cov_h2):
        op = H2Operator(cov_h2)
        x = np.random.default_rng(7).standard_normal((op.n, 2))
        assert np.allclose(op.multiply(x), cov_h2.matvec(x, permuted=True))


class TestEntryExtractors:
    def test_dense_extractor(self, dense_cov_2d):
        ex = DenseEntryExtractor(dense_cov_2d)
        rows = np.array([0, 5, 11])
        cols = np.array([2, 3])
        assert np.allclose(ex.extract(rows, cols), dense_cov_2d[np.ix_(rows, cols)])

    def test_kernel_extractor_matches_dense(self, tree_2d, exp_kernel, dense_cov_2d):
        ex = KernelEntryExtractor(exp_kernel, tree_2d.points)
        rows = np.arange(10)
        cols = np.arange(20, 35)
        assert np.allclose(ex.extract(rows, cols), dense_cov_2d[np.ix_(rows, cols)], atol=1e-12)

    def test_entries_evaluated_counter(self, dense_cov_2d):
        ex = DenseEntryExtractor(dense_cov_2d)
        ex.extract(np.arange(4), np.arange(6))
        ex.extract(np.arange(2), np.arange(3))
        assert ex.entries_evaluated == 24 + 6

    def test_empty_request(self, dense_cov_2d):
        ex = DenseEntryExtractor(dense_cov_2d)
        out = ex.extract(np.zeros(0, dtype=np.int64), np.arange(5))
        assert out.shape == (0, 5)

    def test_extract_blocks_counts_one_launch_per_shape_group(self, dense_cov_2d):
        ex = DenseEntryExtractor(dense_cov_2d)
        counter = KernelLaunchCounter()
        blocks = ex.extract_blocks(
            [(np.arange(3), np.arange(4)), (np.arange(5), np.arange(2))],
            counter=counter,
        )
        assert len(blocks) == 2
        # Two distinct block shapes -> two batched-generation launches ...
        assert counter.by_operation()["batched_gen"] == 2
        # ... but uniform shapes collapse into a single launch, ...
        counter = KernelLaunchCounter()
        uniform = ex.extract_blocks(
            [(np.arange(3), np.arange(4)), (np.arange(7, 10), np.arange(2, 6))],
            counter=counter,
        )
        assert counter.by_operation()["batched_gen"] == 1
        assert np.array_equal(uniform[1], dense_cov_2d[np.ix_(np.arange(7, 10), np.arange(2, 6))])
        # ... and an empty request list records nothing at all.
        counter = KernelLaunchCounter()
        assert ex.extract_blocks([], counter=counter) == []
        assert counter.by_operation() == {}

    def test_low_rank_extractor(self):
        lr = random_low_rank(30, 3, seed=8)
        ex = LowRankEntryExtractor(lr)
        rows, cols = np.array([0, 7]), np.array([1, 2, 29])
        assert np.allclose(ex.extract(rows, cols), lr.to_dense()[np.ix_(rows, cols)])

    def test_sum_extractor(self, dense_cov_2d):
        lr = random_low_rank(dense_cov_2d.shape[0], 2, seed=9)
        ex = SumEntryExtractor(
            [DenseEntryExtractor(dense_cov_2d), LowRankEntryExtractor(lr)]
        )
        rows, cols = np.arange(5), np.arange(10, 14)
        expected = (dense_cov_2d + lr.to_dense())[np.ix_(rows, cols)]
        assert np.allclose(ex.extract(rows, cols), expected)

    def test_sum_extractor_validation(self, dense_cov_2d):
        with pytest.raises(ValueError):
            SumEntryExtractor([])
        with pytest.raises(ValueError):
            SumEntryExtractor(
                [DenseEntryExtractor(dense_cov_2d), LowRankEntryExtractor(random_low_rank(3, 1))]
            )

    def test_callable_interface(self, dense_cov_2d):
        ex = DenseEntryExtractor(dense_cov_2d)
        assert np.allclose(ex(np.arange(2), np.arange(2)), dense_cov_2d[:2, :2])

    def test_h2_extractor_matches_h2_block(self, cov_h2):
        ex = H2EntryExtractor(cov_h2)
        rows = np.arange(0, 40, 7)
        cols = np.arange(100, 140, 5)
        assert np.allclose(
            ex.extract(rows, cols), cov_h2.get_block(rows, cols, permuted=True)
        )


class TestStackedExtraction:
    """Batched (per-shape-group) block evaluation and the padded stack layout."""

    def _requests(self, rng, n, shapes):
        return [
            (
                rng.choice(n, size=p, replace=False),
                rng.choice(n, size=q, replace=False),
            )
            for p, q in shapes
        ]

    def test_stacked_kernel_blocks_match_per_block_extraction(
        self, tree_2d, exp_kernel
    ):
        ex = KernelEntryExtractor(exp_kernel, tree_2d.points)
        assert ex.supports_stacked
        rng = np.random.default_rng(3)
        requests = self._requests(rng, ex.n, [(6, 9), (6, 9), (6, 9), (4, 9)])
        blocks = ex.extract_blocks(requests)
        for (rows, cols), block in zip(requests, blocks):
            assert np.allclose(
                block, exp_kernel.evaluate(tree_2d.points[rows], tree_2d.points[cols]),
                rtol=0.0, atol=1e-14,
            )

    def test_pairwise_distances_stacked_matches_flat(self, tree_2d):
        from repro.kernels import pairwise_distances, pairwise_distances_stacked

        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 7, 3))
        y = rng.standard_normal((4, 5, 3))
        stacked = pairwise_distances_stacked(x, y)
        for i in range(4):
            assert np.allclose(
                stacked[i], pairwise_distances(x[i], y[i]), rtol=0.0, atol=1e-14
            )
        with pytest.raises(ValueError, match="stacked"):
            pairwise_distances_stacked(x[0], y[0])

    def test_padded_extraction_matches_and_pads_with_exact_zeros(self, dense_cov_2d):
        ex = DenseEntryExtractor(dense_cov_2d)
        rng = np.random.default_rng(7)
        requests = self._requests(
            rng, dense_cov_2d.shape[0], [(3, 5), (3, 5), (2, 4), (1, 1)]
        )
        counter = KernelLaunchCounter()
        padded = _padded(ex, requests, 4, 6, counter=counter)
        assert padded.shape == (4, 4, 6)
        # Three distinct shapes -> three generation launches.
        assert counter.by_operation()["batched_gen"] == 3
        for i, (rows, cols) in enumerate(requests):
            p, q = len(rows), len(cols)
            assert np.array_equal(padded[i, :p, :q], dense_cov_2d[np.ix_(rows, cols)])
            mask = np.ones((4, 6), dtype=bool)
            mask[:p, :q] = False
            assert np.all(padded[i][mask] == 0.0)

    def test_extraction_into_named_slots_leaves_the_others(self, dense_cov_2d):
        """``extract_blocks_into`` writes request ``i`` at ``slots[i]`` and
        touches no other slot: the compiled sweep's owners-only fill."""
        ex = DenseEntryExtractor(dense_cov_2d)
        requests = [(np.arange(2), np.arange(5, 8)), (np.arange(3, 6), np.arange(4))]
        out = np.full((4, 3, 4), -1.0)
        out[[2, 0]] = 0.0
        ex.extract_blocks_into(out, [2, 0], requests)
        assert ex.entries_evaluated == 6 + 12
        for slot, (rows, cols) in zip([2, 0], requests):
            p, q = len(rows), len(cols)
            assert np.array_equal(out[slot, :p, :q], dense_cov_2d[np.ix_(rows, cols)])
        assert np.all(out[2, 2:] == 0.0) and np.all(out[2, :, 3:] == 0.0)
        assert np.all(out[[1, 3]] == -1.0)

    def test_padded_extraction_empty_request_list(self, dense_cov_2d):
        ex = DenseEntryExtractor(dense_cov_2d)
        counter = KernelLaunchCounter()
        out = _padded(ex, [], 3, 3, counter=counter)
        assert out.shape == (0, 3, 3)
        assert counter.by_operation() == {}

    def test_padded_extraction_skips_zero_size_blocks(self, dense_cov_2d):
        ex = DenseEntryExtractor(dense_cov_2d)
        empty = np.zeros(0, dtype=np.int64)
        out = _padded(
            ex, [(np.arange(2), np.arange(3)), (empty, np.arange(3))], 3, 3
        )
        assert np.array_equal(out[0, :2, :3], dense_cov_2d[:2, :3])
        assert np.all(out[1] == 0.0)

    def test_non_stacked_extractor_falls_back_to_block_loop(self, dense_cov_2d):
        class BlockOnly(EntryExtractor):
            """Stub without a stacked path: every block is one ``_extract``."""

            calls = 0

            @property
            def n(self):
                return dense_cov_2d.shape[0]

            def _extract(self, rows, cols):
                self.calls += 1
                return dense_cov_2d[np.ix_(rows, cols)]

        ex = BlockOnly()
        assert not ex.supports_stacked
        rng = np.random.default_rng(9)
        requests = self._requests(rng, ex.n, [(3, 4), (3, 4), (2, 2)])
        counter = KernelLaunchCounter()
        blocks = ex.extract_blocks(requests, counter=counter)
        # Launches are still recorded per shape group (the batched dispatch
        # granularity), even though the evaluation loops over the blocks.
        assert counter.by_operation()["batched_gen"] == 2
        assert ex.calls == 3
        for (rows, cols), block in zip(requests, blocks):
            assert np.array_equal(block, dense_cov_2d[np.ix_(rows, cols)])
        padded = _padded(ex, requests, 3, 4)
        assert ex.calls == 6
        for i, (rows, cols) in enumerate(requests):
            assert np.array_equal(
                padded[i, : len(rows), : len(cols)], dense_cov_2d[np.ix_(rows, cols)]
            )

    def test_h2_extractor_batches_match_get_block(self, cov_h2):
        ex = H2EntryExtractor(cov_h2)
        rng = np.random.default_rng(9)
        requests = self._requests(rng, ex.n, [(3, 4), (3, 4), (2, 2)])
        counter = KernelLaunchCounter()
        blocks = ex.extract_blocks(requests, counter=counter)
        # One record per shape group whatever the evaluation path.
        assert counter.by_operation()["batched_gen"] == 2
        padded = _padded(ex, requests, 3, 4)
        for i, ((rows, cols), block) in enumerate(zip(requests, blocks)):
            expected = cov_h2.get_block(rows, cols, permuted=True)
            assert np.allclose(block, expected, rtol=0.0, atol=1e-14)
            assert np.allclose(
                padded[i, : len(rows), : len(cols)], expected, rtol=0.0, atol=1e-14
            )

    def test_sum_of_stacked_terms_adds_stacks(self, cov_h2):
        lr = random_low_rank(cov_h2.num_rows, 3, seed=4)
        ex = SumEntryExtractor([H2EntryExtractor(cov_h2), LowRankEntryExtractor(lr)])
        assert ex.supports_stacked
        rng = np.random.default_rng(2)
        requests = self._requests(rng, ex.n, [(5, 6), (5, 6), (1, 9)])
        reference = cov_h2.to_dense(permuted=True) + lr.to_dense()
        padded = _padded(ex, requests, 5, 9)
        for i, ((rows, cols), block) in enumerate(zip(requests, ex.extract_blocks(requests))):
            assert np.allclose(block, reference[np.ix_(rows, cols)], rtol=0.0, atol=1e-13)
            assert np.array_equal(padded[i, : len(rows), : len(cols)], block)

    def test_padding_smaller_than_a_block_is_rejected(self, dense_cov_2d):
        ex = DenseEntryExtractor(dense_cov_2d)
        with pytest.raises(ValueError, match="does not fit"):
            _padded(ex, [(np.arange(4), np.arange(2))], 3, 3)

    def test_every_extractor_rejects_bad_indices(
        self, cov_h2, dense_cov_2d, tree_2d, exp_kernel
    ):
        lr = random_low_rank(cov_h2.num_rows, 2, seed=1)
        extractors = [
            DenseEntryExtractor(dense_cov_2d),
            KernelEntryExtractor(exp_kernel, tree_2d.points),
            H2EntryExtractor(cov_h2),
            LowRankEntryExtractor(lr),
            SumEntryExtractor([H2EntryExtractor(cov_h2), LowRankEntryExtractor(lr)]),
        ]
        good = (np.arange(3), np.arange(3))
        for ex in extractors:
            for bad in (-1, ex.n):
                request = (np.array([1, bad, 2]), np.arange(3))
                with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
                    ex.extract(*request)
                with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
                    ex.extract_blocks([good, request])
                with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
                    _padded(ex, [good, request[::-1]], 3, 3)
            with pytest.raises(IndexError, match="integer"):
                ex.extract_blocks([(np.array([0.5, 1.0]), np.arange(2))])

    def test_white_noise_diagonal_survives_stacked_path(self, tree_2d):
        """profile_with_diagonal over the distance stack keeps exact diagonals."""
        from repro.kernels import WhiteNoiseKernel

        ex = KernelEntryExtractor(WhiteNoiseKernel(1.0), tree_2d.points)
        assert ex.supports_stacked
        blocks = ex.extract_blocks([(np.arange(3), np.arange(3))] * 2)
        for block in blocks:
            assert np.array_equal(block, np.eye(3))

    def test_non_pairwise_kernel_uses_per_block_path(self, tree_2d):
        from repro.kernels import KernelFunction

        class DotKernel(KernelFunction):
            """Non-radial kernel: no batched distance path available."""

            def evaluate(self, x, y):
                return x @ y.T

        ex = KernelEntryExtractor(DotKernel(), tree_2d.points)
        assert not ex.supports_stacked
        rows = np.arange(4)
        blocks = ex.extract_blocks([(rows, rows)] * 2)
        expected = tree_2d.points[rows] @ tree_2d.points[rows].T
        for block in blocks:
            assert np.array_equal(block, expected)
