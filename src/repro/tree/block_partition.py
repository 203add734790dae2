"""Dual tree traversal producing the matrix (block) tree of Fig. 2.

Starting from the root pair ``(root, root)`` the traversal tests every cluster
pair against the admissibility condition.  Admissible pairs become admissible
leaves of the matrix tree (low-rank blocks, green in Fig. 1); inadmissible
pairs of leaf clusters become dense blocks (red); all other inadmissible pairs
are refined into their four children pairs.  The traversal is level
synchronous: the pairs of one level of the matrix tree are two index arrays,
tested by one :meth:`~repro.tree.admissibility.AdmissibilityCondition.admissible_mask`
call and refined by array arithmetic on the heap numbering, so a partition
costs ``tree.num_levels`` vectorised steps whatever the number of pairs.

The result is summarised per node ``tau``:

* ``near_field(tau)`` — the set ``N_tau`` of clusters forming inadmissible
  (dense) leaf blocks with ``tau`` (only non-empty at the leaf level);
* ``far_field(tau)`` — the set ``F_tau`` of clusters forming admissible leaf
  blocks with ``tau`` whose parents were inadmissible, i.e. the coupling
  blocks ``B_{tau,b}`` of the H2 matrix;

together with the per-level admissible pair lists and the sparsity constant
``Csp`` (the maximum number of blocks in any block row of a level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .admissibility import AdmissibilityCondition, GeneralAdmissibility
from .cluster_tree import ClusterTree


@dataclass
class BlockPartition:
    """Block partitioning of a matrix induced by a cluster tree and admissibility."""

    tree: ClusterTree
    admissibility: AdmissibilityCondition
    #: ``far_field[node]`` lists the clusters b with (node, b) an admissible leaf.
    far_field: List[List[int]] = field(default_factory=list)
    #: ``near_field[node]`` lists the clusters b with (node, b) a dense leaf block.
    near_field: List[List[int]] = field(default_factory=list)

    # ------------------------------------------------------------ accessors
    def far(self, node: int) -> List[int]:
        """The set ``F_node`` of admissible (coupling) partners of ``node``."""
        return self.far_field[node]

    def near(self, node: int) -> List[int]:
        """The set ``N_node`` of inadmissible (dense) partners of ``node``."""
        return self.near_field[node]

    def admissible_pairs_at_level(self, level: int) -> List[Tuple[int, int]]:
        """All admissible leaf pairs ``(s, t)`` with both clusters at ``level``."""
        pairs: List[Tuple[int, int]] = []
        for s in self.tree.nodes_at_level(level):
            for t in self.far_field[s]:
                pairs.append((s, t))
        return pairs

    def inadmissible_leaf_pairs(self) -> List[Tuple[int, int]]:
        """All dense leaf pairs ``(s, t)`` (both clusters at the leaf level)."""
        pairs: List[Tuple[int, int]] = []
        for s in self.tree.leaves():
            for t in self.near_field[s]:
                pairs.append((s, t))
        return pairs

    # ------------------------------------------------------------ statistics
    def sparsity_constant_at_level(self, level: int) -> int:
        """Maximum number of blocks in a block row of the level's block-sparse matrix."""
        best = 0
        leaf = level == self.tree.depth
        for s in self.tree.nodes_at_level(level):
            count = len(self.far_field[s])
            if leaf:
                count += len(self.near_field[s])
            best = max(best, count)
        return best

    def sparsity_constant(self) -> int:
        """The sparsity constant ``Csp`` over all levels."""
        return max(
            (self.sparsity_constant_at_level(level) for level in range(self.tree.num_levels)),
            default=0,
        )

    def num_admissible_blocks(self) -> int:
        return sum(len(f) for f in self.far_field)

    def num_inadmissible_blocks(self) -> int:
        return sum(len(n) for n in self.near_field)

    def num_admissible_blocks_at_level(self, level: int) -> int:
        return sum(len(self.far_field[s]) for s in self.tree.nodes_at_level(level))

    def statistics(self) -> Dict[str, object]:
        """Summary statistics used by the Fig. 4 partitioning benchmark."""
        per_level = {
            level: {
                "admissible_blocks": self.num_admissible_blocks_at_level(level),
                "sparsity_constant": self.sparsity_constant_at_level(level),
            }
            for level in range(self.tree.num_levels)
        }
        return {
            "num_points": self.tree.num_points,
            "depth": self.tree.depth,
            "num_admissible_blocks": self.num_admissible_blocks(),
            "num_inadmissible_blocks": self.num_inadmissible_blocks(),
            "sparsity_constant": self.sparsity_constant(),
            "per_level": per_level,
        }

    # ------------------------------------------------------------ validation
    def validate_disjoint_cover(self) -> None:
        """Check the leaves of the matrix tree tile the full matrix exactly once.

        Every index pair ``(i, j)`` must be covered by exactly one admissible
        or inadmissible leaf block.  The check is O(N^2) and intended for the
        test-suite on small problems only.
        """
        n = self.tree.num_points
        cover = np.zeros((n, n), dtype=np.int32)
        for level in range(self.tree.num_levels):
            for s in self.tree.nodes_at_level(level):
                rows = slice(self.tree.starts[s], self.tree.ends[s])
                for t in self.far_field[s]:
                    cols = slice(self.tree.starts[t], self.tree.ends[t])
                    cover[rows, cols] += 1
        for s in self.tree.leaves():
            rows = slice(self.tree.starts[s], self.tree.ends[s])
            for t in self.near_field[s]:
                cols = slice(self.tree.starts[t], self.tree.ends[t])
                cover[rows, cols] += 1
        if not np.all(cover == 1):
            missing = int(np.sum(cover == 0))
            double = int(np.sum(cover > 1))
            raise AssertionError(
                f"block partition does not tile the matrix: {missing} entries uncovered, "
                f"{double} entries covered more than once"
            )


def build_block_partition(
    tree: ClusterTree,
    admissibility: AdmissibilityCondition | None = None,
) -> BlockPartition:
    """Run the dual tree traversal and return the resulting :class:`BlockPartition`.

    Parameters
    ----------
    tree:
        The cluster tree over the matrix indices.
    admissibility:
        The admissibility condition; defaults to
        :class:`~repro.tree.admissibility.GeneralAdmissibility` with
        ``eta = 0.7`` as used in the paper's experiments.
    """
    adm = admissibility if admissibility is not None else GeneralAdmissibility(0.7)
    s = t = np.zeros(1, dtype=np.int64)
    far_pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    # Both clusters of a pair sit at the same depth of the complete tree, so
    # one array pair holds a whole level of the matrix tree: one mask call
    # tests it, the rejected pairs are refined into their four children.
    for depth in range(tree.num_levels):
        if depth:
            s = np.repeat(2 * s + 1, 4) + np.tile([0, 0, 1, 1], len(s))
            t = np.repeat(2 * t + 1, 4) + np.tile([0, 1, 0, 1], len(t))
        admissible = adm.admissible_mask(tree, s, t)
        far_pairs.append((s[admissible], t[admissible]))
        s, t = s[~admissible], t[~admissible]
    far = _partner_lists(tree.num_nodes, *map(np.concatenate, zip(*far_pairs)))
    # What is still inadmissible at the leaf level is stored dense.
    near = _partner_lists(tree.num_nodes, s, t)
    return BlockPartition(tree=tree, admissibility=adm, far_field=far, near_field=near)


def _partner_lists(num_nodes: int, s: np.ndarray, t: np.ndarray) -> List[List[int]]:
    """Per-node sorted partner lists of the pairs ``(s[i], t[i])``."""
    order = np.lexsort((t, s))
    partners = t[order].tolist()
    ends = np.cumsum(np.bincount(s, minlength=num_nodes)).tolist()
    return [partners[a:b] for a, b in zip([0] + ends[:-1], ends)]
