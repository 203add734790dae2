"""Tests for ACA, HODLR, the non-nested H matrix and HSS compression."""

import numpy as np
import pytest

from repro import (
    DenseEntryExtractor,
    DenseOperator,
    WeakAdmissibility,
    build_block_partition,
    compress,
)
from repro.baselines import build_hodlr
from repro.baselines.aca import aca_from_entry_function, aca_low_rank
from repro.baselines.hmatrix import build_hmatrix_aca


class TestACA:
    def test_exact_low_rank_recovery(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
        u, v = aca_low_rank(
            lambda i: block[i], lambda j: block[:, j], 40, 30, tol=1e-12
        )
        assert u.shape[1] <= 6
        assert np.linalg.norm(u @ v.T - block) < 1e-8 * np.linalg.norm(block)

    def test_smooth_kernel_block(self, exp_kernel):
        rng = np.random.default_rng(1)
        left = rng.random((60, 2)) * 0.2
        right = rng.random((50, 2)) * 0.2 + 0.8
        block = exp_kernel.evaluate(left, right)
        u, v = aca_low_rank(
            lambda i: block[i], lambda j: block[:, j], 60, 50, tol=1e-8
        )
        assert np.linalg.norm(u @ v.T - block) < 1e-5 * np.linalg.norm(block)
        assert u.shape[1] < 30

    def test_max_rank_cap(self):
        rng = np.random.default_rng(2)
        block = rng.standard_normal((20, 20))
        u, v = aca_low_rank(lambda i: block[i], lambda j: block[:, j], 20, 20, max_rank=5)
        assert u.shape[1] <= 5

    def test_zero_block(self):
        block = np.zeros((10, 8))
        u, v = aca_low_rank(lambda i: block[i], lambda j: block[:, j], 10, 8)
        assert u.shape[1] == 0 and v.shape[1] == 0

    def test_empty_block(self):
        u, v = aca_low_rank(lambda i: None, lambda j: None, 0, 5)
        assert u.shape == (0, 0) and v.shape == (5, 0)

    def test_entry_function_wrapper(self, dense_cov_2d):
        rows = np.arange(0, 50)
        cols = np.arange(400, 460)
        block = dense_cov_2d[np.ix_(rows, cols)]
        u, v = aca_from_entry_function(
            lambda r, c: dense_cov_2d[np.ix_(r, c)], rows, cols, tol=1e-9
        )
        assert np.linalg.norm(u @ v.T - block) < 1e-5 * np.linalg.norm(block)


class TestHODLR:
    @pytest.fixture(scope="class")
    def hodlr(self, tree_2d, dense_cov_2d):
        return build_hodlr(
            tree_2d, lambda r, c: dense_cov_2d[np.ix_(r, c)], tol=1e-7
        )

    def test_accuracy(self, hodlr, dense_cov_2d, rel_err):
        assert rel_err(hodlr.to_dense(permuted=True), dense_cov_2d) < 1e-4

    def test_matvec(self, hodlr, dense_cov_2d, rel_err):
        x = np.random.default_rng(0).standard_normal((dense_cov_2d.shape[0], 3))
        assert rel_err(hodlr.matvec(x, permuted=True), dense_cov_2d @ x) < 1e-4

    def test_structure(self, hodlr, tree_2d):
        # one off-diagonal block per direction per non-root node
        assert len(hodlr.off_diagonal) == tree_2d.num_nodes - 1
        assert len(hodlr.diagonal) == len(list(tree_2d.leaves()))

    def test_memory_and_ranks(self, hodlr, dense_cov_2d):
        mem = hodlr.memory_bytes()
        assert mem["total"] == mem["low_rank"] + mem["dense"]
        assert mem["total"] < dense_cov_2d.nbytes
        lo, hi = hodlr.rank_range()
        assert 0 < lo <= hi

    def test_statistics(self, hodlr):
        stats = hodlr.statistics()
        assert stats["num_low_rank_blocks"] == len(hodlr.off_diagonal)


class TestHMatrixACA:
    @pytest.fixture(scope="class")
    def hmatrix(self, partition_2d, dense_cov_2d):
        return build_hmatrix_aca(
            partition_2d, lambda r, c: dense_cov_2d[np.ix_(r, c)], tol=1e-7
        )

    def test_accuracy(self, hmatrix, dense_cov_2d, rel_err):
        assert rel_err(hmatrix.to_dense(permuted=True), dense_cov_2d) < 1e-4

    def test_matvec(self, hmatrix, dense_cov_2d, rel_err):
        x = np.random.default_rng(1).standard_normal(dense_cov_2d.shape[0])
        assert rel_err(hmatrix.matvec(x, permuted=True), dense_cov_2d @ x) < 1e-4

    def test_block_counts_match_partition(self, hmatrix, partition_2d):
        assert len(hmatrix.low_rank) == partition_2d.num_admissible_blocks()
        assert len(hmatrix.dense) == partition_2d.num_inadmissible_blocks()

    def test_memory(self, hmatrix, dense_cov_2d):
        assert 0 < hmatrix.memory_bytes()["total"] < dense_cov_2d.nbytes

    def test_h2_memory_beats_h_memory(self, hmatrix, cov_h2):
        """Nested bases should not use more memory than independent block factors."""
        assert cov_h2.memory_bytes()["total"] <= 1.2 * hmatrix.memory_bytes()["total"]


class TestHSS:
    def test_hss_accuracy(self, tree_2d, dense_cov_2d, rel_err):
        result = compress(
            format="hss",
            tree=tree_2d,
            operator=DenseOperator(dense_cov_2d),
            extractor=DenseEntryExtractor(dense_cov_2d),
            tol=1e-6,
            sample_block_size=64,
            seed=3,
            full_result=True,
        )
        assert rel_err(result.matrix.to_dense(permuted=True), dense_cov_2d) < 1e-3

    def test_hss_partition_is_weak(self, tree_2d, dense_cov_2d):
        result = compress(
            format="hss",
            tree=tree_2d,
            operator=DenseOperator(dense_cov_2d),
            extractor=DenseEntryExtractor(dense_cov_2d),
            tol=1e-4,
            sample_block_size=32,
            seed=4,
            full_result=True,
        )
        partition = result.matrix.partition
        assert isinstance(partition.admissibility, WeakAdmissibility)
        # weak partition: dense blocks only on the diagonal
        for s in tree_2d.leaves():
            assert partition.near(s) == [s]

    def test_hss_ranks_larger_than_h2(self, tree_2d, dense_cov_2d, cov_h2_result):
        """Weak admissibility forces larger ranks than the strong-admissibility H2."""
        result = compress(
            format="hss",
            tree=tree_2d,
            operator=DenseOperator(dense_cov_2d),
            extractor=DenseEntryExtractor(dense_cov_2d),
            tol=1e-7,
            sample_block_size=64,
            seed=5,
            full_result=True,
        )
        assert result.rank_range[1] >= cov_h2_result.rank_range[1]
