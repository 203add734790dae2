"""Tests for admissibility conditions and the dual-tree block partition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ClusterTree,
    GeneralAdmissibility,
    WeakAdmissibility,
    build_block_partition,
    uniform_cube_points,
)
from repro.tree.admissibility import AdmissibilityCondition


def stack_walk_partition(tree, adm):
    """The dual tree traversal one pair at a time (the builder before it went
    level-synchronous), kept as the oracle for ``build_block_partition``."""
    far = [[] for _ in range(tree.num_nodes)]
    near = [[] for _ in range(tree.num_nodes)]
    stack = [(0, 0)]
    while stack:
        s, t = stack.pop()
        if adm.is_admissible(tree, s, t):
            far[s].append(t)
        elif tree.is_leaf(s) and tree.is_leaf(t):
            near[s].append(t)
        else:
            s1, s2 = tree.children(s)
            t1, t2 = tree.children(t)
            stack.extend([(s1, t1), (s1, t2), (s2, t1), (s2, t2)])
    return [sorted(f) for f in far], [sorted(n) for n in near]


class ScalarOnlyAdmissibility(AdmissibilityCondition):
    """A user-defined condition that knows nothing of ``admissible_mask``:
    centre distance against the larger diameter."""

    def is_admissible(self, tree, s, t):
        gap = 0.5 * np.linalg.norm(
            tree.box_low[s] + tree.box_high[s] - tree.box_low[t] - tree.box_high[t]
        )
        return s != t and max(tree.diameter(s), tree.diameter(t)) <= 0.8 * gap


class TestAdmissibility:
    def test_diagonal_never_admissible(self, tree_2d):
        adm = GeneralAdmissibility(eta=10.0)
        for node in (0, 1, tree_2d.num_nodes - 1):
            assert not adm.is_admissible(tree_2d, node, node)

    def test_far_apart_leaves_admissible(self, tree_2d):
        adm = GeneralAdmissibility(eta=0.7)
        leaves = list(tree_2d.leaves())
        # the first and last leaf are on opposite corners of the square
        assert adm.is_admissible(tree_2d, leaves[0], leaves[-1]) == (
            0.5 * (tree_2d.diameter(leaves[0]) + tree_2d.diameter(leaves[-1]))
            <= 0.7 * tree_2d.distance(leaves[0], leaves[-1])
        )

    def test_eta_monotonicity(self, tree_2d):
        loose = GeneralAdmissibility(eta=2.0)
        strict = GeneralAdmissibility(eta=0.3)
        leaves = list(tree_2d.leaves())
        for s in leaves[:4]:
            for t in leaves[-4:]:
                if strict.is_admissible(tree_2d, s, t):
                    assert loose.is_admissible(tree_2d, s, t)

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            GeneralAdmissibility(eta=0.0)

    def test_weak_admissibility(self, tree_2d):
        adm = WeakAdmissibility()
        assert not adm.is_admissible(tree_2d, 3, 3)
        assert adm.is_admissible(tree_2d, 1, 2)

    def test_callable_interface(self, tree_2d):
        adm = GeneralAdmissibility(eta=0.7)
        assert adm(tree_2d, 1, 1) == adm.is_admissible(tree_2d, 1, 1)


class TestLevelSynchronousTraversal:
    """One level of pairs at a time returns what one pair at a time returned."""

    @pytest.mark.parametrize("n", [1, 33, 500])
    @pytest.mark.parametrize("leaf_size", [8, 32])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "adm",
        [
            GeneralAdmissibility(0.5),
            GeneralAdmissibility(0.7),
            GeneralAdmissibility(1.5),
            WeakAdmissibility(),
            ScalarOnlyAdmissibility(),
        ],
        ids=["eta0.5", "eta0.7", "eta1.5", "weak", "scalar-only"],
    )
    def test_identical_to_the_stack_walk(self, adm, dim, leaf_size, n):
        tree = ClusterTree.build(uniform_cube_points(n, dim=dim, seed=5), leaf_size)
        partition = build_block_partition(tree, adm)
        far, near = stack_walk_partition(tree, adm)
        assert partition.far_field == far
        assert partition.near_field == near
        partition.validate_disjoint_cover()

    @pytest.mark.parametrize("side, eta", [(16, 1.0), (24, 0.5)])
    def test_regular_grid_ties_fall_the_same_way(self, side, eta):
        """On a grid ``(D(s) + D(t)) / 2 == eta * Dist(s, t)`` happens exactly
        (on these two a norm summed in another order moves blocks): the mask
        and the scalar test must read the same last bit."""
        axis = np.linspace(0.0, 1.0, side)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        tree = ClusterTree.build(grid, leaf_size=8)
        adm = GeneralAdmissibility(eta)
        partition = build_block_partition(tree, adm)
        far, near = stack_walk_partition(tree, adm)
        assert partition.far_field == far and partition.near_field == near

    def test_mask_is_the_scalar_test_per_pair(self, tree_2d):
        rng = np.random.default_rng(0)
        s, t = rng.integers(0, tree_2d.num_nodes, size=(2, 200))
        for adm in (GeneralAdmissibility(0.7), WeakAdmissibility(), ScalarOnlyAdmissibility()):
            mask = adm.admissible_mask(tree_2d, s, t)
            assert mask.dtype == bool
            assert mask.tolist() == [
                adm.is_admissible(tree_2d, int(a), int(b)) for a, b in zip(s, t)
            ]


class TestBlockPartition:
    def test_tiles_matrix(self, partition_2d):
        partition_2d.validate_disjoint_cover()

    def test_symmetry_of_far_and_near(self, partition_2d, tree_2d):
        for s in range(tree_2d.num_nodes):
            for t in partition_2d.far(s):
                assert s in partition_2d.far(t)
        for s in tree_2d.leaves():
            for t in partition_2d.near(s):
                assert s in partition_2d.near(t)

    def test_near_field_only_on_leaves(self, partition_2d, tree_2d):
        for node in range(tree_2d.num_nodes):
            if not tree_2d.is_leaf(node):
                assert partition_2d.near(node) == []

    def test_diagonal_blocks_are_near(self, partition_2d, tree_2d):
        for leaf in tree_2d.leaves():
            assert leaf in partition_2d.near(leaf)

    def test_far_pairs_are_admissible(self, partition_2d, tree_2d):
        adm = partition_2d.admissibility
        for s in range(tree_2d.num_nodes):
            for t in partition_2d.far(s):
                assert adm.is_admissible(tree_2d, s, t)
                assert tree_2d.level_of(s) == tree_2d.level_of(t)

    def test_far_parents_inadmissible(self, partition_2d, tree_2d):
        """F_tau contains only clusters whose parent pair was inadmissible."""
        adm = partition_2d.admissibility
        for s in range(1, tree_2d.num_nodes):
            for t in partition_2d.far(s):
                ps, pt = tree_2d.parent(s), tree_2d.parent(t)
                assert not adm.is_admissible(tree_2d, ps, pt)

    def test_sparsity_constant_positive_and_bounded(self, partition_2d, tree_2d):
        csp = partition_2d.sparsity_constant()
        assert csp >= 1
        assert csp <= tree_2d.num_nodes_at_level(tree_2d.depth)

    def test_statistics_keys(self, partition_2d):
        stats = partition_2d.statistics()
        assert stats["num_admissible_blocks"] == partition_2d.num_admissible_blocks()
        assert stats["num_inadmissible_blocks"] == partition_2d.num_inadmissible_blocks()
        assert "per_level" in stats and stats["sparsity_constant"] >= 1

    def test_admissible_pairs_at_level(self, partition_2d, tree_2d):
        total = sum(
            len(partition_2d.admissible_pairs_at_level(level))
            for level in range(tree_2d.num_levels)
        )
        assert total == partition_2d.num_admissible_blocks()

    def test_weak_partition_is_hodlr(self, tree_2d):
        part = build_block_partition(tree_2d, WeakAdmissibility())
        part.validate_disjoint_cover()
        # every non-root node has exactly its sibling in the far field
        for node in range(1, tree_2d.num_nodes):
            parent = tree_2d.parent(node)
            left, right = tree_2d.children(parent)
            sibling = right if node == left else left
            assert part.far(node) == [sibling]
        # dense blocks are exactly the diagonal leaf blocks
        for leaf in tree_2d.leaves():
            assert part.near(leaf) == [leaf]

    def test_smaller_eta_refines_partition(self, tree_2d):
        coarse = build_block_partition(tree_2d, GeneralAdmissibility(eta=1.5))
        fine = build_block_partition(tree_2d, GeneralAdmissibility(eta=0.5))
        # stricter admissibility -> more dense blocks and at least as large Csp
        assert fine.num_inadmissible_blocks() >= coarse.num_inadmissible_blocks()
        assert fine.sparsity_constant() >= coarse.sparsity_constant()

    def test_default_admissibility_is_general(self, tree_2d):
        part = build_block_partition(tree_2d)
        assert isinstance(part.admissibility, GeneralAdmissibility)
        assert part.admissibility.eta == pytest.approx(0.7)

    @given(
        n=st.integers(min_value=20, max_value=300),
        dim=st.integers(min_value=1, max_value=3),
        eta=st.floats(min_value=0.3, max_value=2.5),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_partition_tiles_matrix(self, n, dim, eta, seed):
        pts = uniform_cube_points(n, dim=dim, seed=seed)
        tree = ClusterTree.build(pts, leaf_size=16)
        part = build_block_partition(tree, GeneralAdmissibility(eta=eta))
        part.validate_disjoint_cover()

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_property_weak_partition_tiles_matrix(self, seed):
        pts = uniform_cube_points(150, dim=2, seed=seed)
        tree = ClusterTree.build(pts, leaf_size=16)
        part = build_block_partition(tree, WeakAdmissibility())
        part.validate_disjoint_cover()
