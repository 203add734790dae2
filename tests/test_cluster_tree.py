"""Tests for the KD cluster tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterTree, uniform_cube_points


class TestStructure:
    def test_basic_shape(self, tree_2d, points_2d):
        assert tree_2d.num_points == points_2d.shape[0]
        assert tree_2d.dim == 2
        assert tree_2d.num_nodes == (1 << (tree_2d.depth + 1)) - 1

    def test_validate(self, tree_2d):
        tree_2d.validate()

    def test_root_covers_everything(self, tree_2d):
        assert tree_2d.starts[0] == 0
        assert tree_2d.ends[0] == tree_2d.num_points

    def test_permutation_is_permutation(self, tree_2d):
        assert np.array_equal(np.sort(tree_2d.perm), np.arange(tree_2d.num_points))
        assert np.array_equal(tree_2d.perm[tree_2d.iperm], np.arange(tree_2d.num_points))

    def test_points_are_permuted_original(self, points_2d, tree_2d):
        assert np.allclose(tree_2d.points, points_2d[tree_2d.perm])

    def test_children_partition_parent(self, tree_2d):
        for node in range(tree_2d.num_nodes):
            if tree_2d.is_leaf(node):
                continue
            left, right = tree_2d.children(node)
            assert tree_2d.starts[left] == tree_2d.starts[node]
            assert tree_2d.ends[left] == tree_2d.starts[right]
            assert tree_2d.ends[right] == tree_2d.ends[node]

    def test_leaf_sizes_within_bound(self, tree_2d):
        sizes = tree_2d.leaf_cluster_sizes()
        assert max(sizes) <= tree_2d.leaf_size
        assert min(sizes) >= 1

    def test_levels(self, tree_2d):
        total = 0
        for level in range(tree_2d.num_levels):
            nodes = list(tree_2d.nodes_at_level(level))
            assert len(nodes) == tree_2d.num_nodes_at_level(level) == 2**level
            for node in nodes:
                assert tree_2d.level_of(node) == level
            total += len(nodes)
        assert total == tree_2d.num_nodes

    def test_parent_child_roundtrip(self, tree_2d):
        for node in range(1, tree_2d.num_nodes):
            parent = tree_2d.parent(node)
            assert node in tree_2d.children(parent)

    def test_parent_of_root_raises(self, tree_2d):
        with pytest.raises(ValueError):
            tree_2d.parent(0)

    def test_children_of_leaf_raises(self, tree_2d):
        leaf = next(iter(tree_2d.leaves()))
        with pytest.raises(ValueError):
            tree_2d.children(leaf)

    def test_index_set_matches_range(self, tree_2d):
        for node in (0, 1, tree_2d.num_nodes - 1):
            idx = tree_2d.index_set(node)
            assert idx[0] == tree_2d.starts[node]
            assert idx[-1] == tree_2d.ends[node] - 1
            assert len(idx) == tree_2d.cluster_size(node)

    def test_bounding_boxes_contain_points(self, tree_2d):
        for node in range(tree_2d.num_nodes):
            pts = tree_2d.points[tree_2d.starts[node] : tree_2d.ends[node]]
            assert np.all(pts >= tree_2d.box_low[node] - 1e-12)
            assert np.all(pts <= tree_2d.box_high[node] + 1e-12)

    def test_distance_and_diameter_consistency(self, tree_2d):
        # sibling leaves should be closer than far-apart leaves on average
        assert tree_2d.distance(1, 2) <= tree_2d.diameter(0)
        assert tree_2d.diameter(0) >= tree_2d.diameter(1)

    def test_level_sizes_sum_to_n(self, tree_2d):
        for level in range(tree_2d.num_levels):
            assert tree_2d.level_sizes(level).sum() == tree_2d.num_points

    def test_describe(self, tree_2d):
        text = tree_2d.describe()
        assert "ClusterTree" in text and str(tree_2d.num_points) in text


class TestBuildEdgeCases:
    def test_single_leaf_tree(self):
        pts = uniform_cube_points(10, dim=2, seed=0)
        tree = ClusterTree.build(pts, leaf_size=64)
        assert tree.depth == 0
        assert tree.num_nodes == 1
        assert tree.is_leaf(0)

    def test_non_power_of_two(self):
        pts = uniform_cube_points(777, dim=3, seed=1)
        tree = ClusterTree.build(pts, leaf_size=50)
        tree.validate()
        assert sum(tree.leaf_cluster_sizes()) == 777

    def test_leaf_size_one(self):
        pts = uniform_cube_points(17, dim=2, seed=3)
        tree = ClusterTree.build(pts, leaf_size=1)
        tree.validate()
        assert max(tree.leaf_cluster_sizes()) == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ClusterTree.build(np.zeros((0, 3)), leaf_size=4)
        with pytest.raises(ValueError):
            ClusterTree.build(uniform_cube_points(10), leaf_size=0)

    def test_one_dimensional_points(self):
        pts = np.linspace(0, 1, 100)[:, None]
        tree = ClusterTree.build(pts, leaf_size=10)
        tree.validate()
        # 1D median splits should produce contiguous, ordered leaves
        leaf_mins = [
            tree.points[tree.starts[leaf] : tree.ends[leaf]].min() for leaf in tree.leaves()
        ]
        assert leaf_mins == sorted(leaf_mins)

    def test_duplicate_points(self):
        pts = np.ones((64, 3))
        tree = ClusterTree.build(pts, leaf_size=8)
        tree.validate()
        assert sum(tree.leaf_cluster_sizes()) == 64

    @given(
        n=st.integers(min_value=2, max_value=300),
        dim=st.integers(min_value=1, max_value=3),
        leaf=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_structural_invariants(self, n, dim, leaf, seed):
        pts = uniform_cube_points(n, dim=dim, seed=seed)
        tree = ClusterTree.build(pts, leaf_size=leaf)
        tree.validate()
        assert max(tree.leaf_cluster_sizes()) <= leaf
        assert sum(tree.leaf_cluster_sizes()) == n
        # sibling sizes differ by at most one (median split)
        for node in range(tree.num_nodes):
            if not tree.is_leaf(node):
                left, right = tree.children(node)
                assert abs(tree.cluster_size(left) - tree.cluster_size(right)) <= 1
