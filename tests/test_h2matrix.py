"""Tests of the H2 matrix data structure (basis tree, matvec, entry extraction,
memory accounting and dense reconstruction) using a constructed matrix."""

import numpy as np
import pytest


class TestBasisTree:
    def test_shapes_consistent(self, cov_h2):
        cov_h2.basis.validate_shapes()

    def test_leaf_bases_identity_on_skeleton(self, cov_h2):
        """Interpolation-based bases contain an identity block (U = P [T; I])."""
        for node, basis in cov_h2.basis.leaf_bases.items():
            if basis.shape[1] == 0:
                continue
            # every column must contain a unit entry in a distinct row
            gram = basis.T @ basis
            assert gram.shape == (basis.shape[1], basis.shape[1])
            assert np.all(np.diag(gram) >= 1.0 - 1e-12)

    def test_rank_range(self, cov_h2):
        lo, hi = cov_h2.basis.rank_range()
        assert 0 <= lo <= hi
        assert hi > 0

    def test_level_ranks_cover_every_level_with_a_basis(self, cov_h2):
        """``tree.depth`` is the leaf level's index: the leaves used to be
        dropped from the rank histograms of the health report."""
        from repro.observe import rank_level_summary

        tree, basis = cov_h2.tree, cov_h2.basis
        levels = cov_h2.level_ranks()
        assert tree.depth in levels
        assert levels[tree.depth] == [
            basis.rank(leaf) for leaf in tree.leaves() if basis.has_basis(leaf)
        ]
        assert sum(len(ranks) for ranks in levels.values()) == len(basis.ranks)
        summary = rank_level_summary(cov_h2)
        assert sorted(summary) == sorted(levels)
        assert summary[tree.depth]["count"] == len(levels[tree.depth])

    def test_explicit_basis_nested_property(self, cov_h2):
        """Explicit inner bases must equal the stacked child expansion (Eq. 2)."""
        tree = cov_h2.tree
        basis = cov_h2.basis
        checked = 0
        for node in range(tree.num_nodes):
            if tree.is_leaf(node) or not basis.has_basis(node):
                continue
            left, right = tree.children(node)
            if left not in basis.transfers or right not in basis.transfers:
                continue
            explicit = basis.explicit_basis(node)
            expected = np.vstack(
                [
                    basis.explicit_basis(left) @ basis.transfers[left],
                    basis.explicit_basis(right) @ basis.transfers[right],
                ]
            )
            assert np.allclose(explicit, expected)
            checked += 1
        assert checked > 0

    def test_memory_positive(self, cov_h2):
        assert cov_h2.basis.memory_bytes() > 0

    def test_wrong_leaf_basis_shape_rejected(self, cov_h2):
        node = next(iter(cov_h2.tree.leaves()))
        with pytest.raises(ValueError):
            cov_h2.basis.set_leaf_basis(node, np.zeros((1, 1)))


class TestH2Structure:
    def test_shape(self, cov_h2, tree_2d):
        assert cov_h2.shape == (tree_2d.num_points, tree_2d.num_points)

    def test_coupling_block_shapes(self, cov_h2):
        for (s, t), block in cov_h2.coupling.items():
            assert block.shape == (cov_h2.basis.rank(s), cov_h2.basis.rank(t))

    def test_dense_block_shapes(self, cov_h2):
        tree = cov_h2.tree
        for (s, t), block in cov_h2.dense.items():
            assert block.shape == (tree.cluster_size(s), tree.cluster_size(t))

    def test_every_admissible_pair_has_coupling(self, cov_h2):
        part = cov_h2.partition
        tree = cov_h2.tree
        for level in range(tree.num_levels):
            for s in tree.nodes_at_level(level):
                for t in part.far(s):
                    assert (s, t) in cov_h2.coupling

    def test_every_near_pair_has_dense(self, cov_h2):
        part = cov_h2.partition
        for s in cov_h2.tree.leaves():
            for t in part.near(s):
                assert (s, t) in cov_h2.dense

    def test_statistics(self, cov_h2):
        stats = cov_h2.statistics()
        assert stats["n"] == cov_h2.num_rows
        assert stats["num_coupling_blocks"] == len(cov_h2.coupling)
        assert stats["memory_mb"] > 0


class TestMatvec:
    def test_matvec_matches_dense_permuted(self, cov_h2, dense_cov_2d, rel_err):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(cov_h2.num_rows)
        assert rel_err(cov_h2.matvec(x, permuted=True), dense_cov_2d @ x) < 1e-5

    def test_block_matvec(self, cov_h2, dense_cov_2d, rel_err):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((cov_h2.num_rows, 7))
        assert rel_err(cov_h2.matvec(x, permuted=True), dense_cov_2d @ x) < 1e-5

    def test_matvec_original_ordering(self, cov_h2, dense_cov_2d, rel_err):
        """In original ordering the operator equals P^T K P applied accordingly."""
        tree = cov_h2.tree
        rng = np.random.default_rng(2)
        x = rng.standard_normal(cov_h2.num_rows)
        dense_original = dense_cov_2d[np.ix_(tree.iperm, tree.iperm)]
        assert rel_err(cov_h2.matvec(x), dense_original @ x) < 1e-5

    def test_matmul_operator(self, cov_h2):
        x = np.ones(cov_h2.num_rows)
        assert np.allclose(cov_h2 @ x, cov_h2.matvec(x))

    def test_dimension_mismatch(self, cov_h2):
        with pytest.raises(ValueError):
            cov_h2.matvec(np.ones(cov_h2.num_rows + 3))

    def test_symmetry_of_action(self, cov_h2):
        """The constructed covariance H2 matrix should be (nearly) symmetric."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal(cov_h2.num_rows)
        y = rng.standard_normal(cov_h2.num_rows)
        left = y @ cov_h2.matvec(x, permuted=True)
        right = x @ cov_h2.matvec(y, permuted=True)
        assert abs(left - right) / max(abs(left), 1e-30) < 1e-5


class TestDenseReconstructionAndEntries:
    def test_to_dense_accuracy(self, cov_h2, dense_cov_2d, rel_err):
        assert rel_err(cov_h2.to_dense(permuted=True), dense_cov_2d) < 1e-5

    def test_to_dense_original_ordering(self, cov_h2, dense_cov_2d, rel_err):
        tree = cov_h2.tree
        expected = dense_cov_2d[np.ix_(tree.iperm, tree.iperm)]
        assert rel_err(cov_h2.to_dense(permuted=False), expected) < 1e-5

    def test_get_block_matches_dense(self, cov_h2, dense_cov_2d):
        rng = np.random.default_rng(4)
        rows = rng.choice(cov_h2.num_rows, size=25, replace=False)
        cols = rng.choice(cov_h2.num_rows, size=30, replace=False)
        block = cov_h2.get_block(rows, cols, permuted=True)
        reference = dense_cov_2d[np.ix_(rows, cols)]
        assert np.linalg.norm(block - reference) / np.linalg.norm(reference) < 1e-4

    def test_get_block_consistent_with_to_dense(self, cov_h2):
        rows = np.arange(0, 64)
        cols = np.arange(200, 264)
        dense = cov_h2.to_dense(permuted=True)
        assert np.allclose(
            cov_h2.get_block(rows, cols, permuted=True),
            dense[np.ix_(rows, cols)],
            atol=1e-10,
        )

    def test_get_block_empty(self, cov_h2):
        out = cov_h2.get_block(np.zeros(0, dtype=int), np.arange(5), permuted=True)
        assert out.shape == (0, 5)

    @pytest.mark.parametrize("permuted", [True, False])
    def test_get_block_rejects_out_of_range_and_non_integer_indices(
        self, cov_h2, permuted
    ):
        # A negative index used to descend to leaf 0 and wrap the local index
        # (a wrong entry, silently); past n it raised an untyped numpy error.
        n = cov_h2.num_rows
        for bad in (-1, n):
            with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
                cov_h2.get_block(np.array([0, bad]), np.arange(3), permuted=permuted)
            with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
                cov_h2.get_block(np.arange(3), np.array([bad]), permuted=permuted)
        with pytest.raises(IndexError, match="integer"):
            cov_h2.get_block(np.array([0.0, 1.0]), np.arange(3), permuted=permuted)

    def test_get_block_original_ordering(self, cov_h2, dense_cov_2d):
        tree = cov_h2.tree
        rows = np.arange(5)
        cols = np.arange(10, 20)
        dense_original = dense_cov_2d[np.ix_(tree.iperm, tree.iperm)]
        block = cov_h2.get_block(rows, cols, permuted=False)
        assert np.allclose(block, dense_original[np.ix_(rows, cols)], atol=1e-4)


class TestMemory:
    def test_memory_components(self, cov_h2):
        mem = cov_h2.memory_bytes()
        # Format-specific breakdown plus the unified protocol keys.
        assert set(mem) == {"basis", "coupling", "dense", "low_rank", "total"}
        assert mem["total"] == mem["basis"] + mem["coupling"] + mem["dense"]
        assert mem["low_rank"] == mem["basis"] + mem["coupling"]
        assert mem["total"] > 0

    def test_compression_beats_dense(self, cov_h2, dense_cov_2d):
        assert cov_h2.memory_bytes()["total"] < dense_cov_2d.nbytes
