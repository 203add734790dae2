"""Binary KD cluster tree over a point set.

The paper clusters the row/column indices of the matrix hierarchically into a
cluster tree ``I`` (Fig. 1) using a KD-tree with a leaf size of 64-256, and
stores tree nodes *contiguously level by level* so that every construction
step can be expressed as a batched operation over all nodes of a level
(Section IV-A).  :class:`ClusterTree` follows the same layout:

* the tree is a **complete binary tree**: every node above the leaf level has
  exactly two children and all leaves live at the same depth, so nodes can be
  addressed with the implicit heap numbering ``children(i) = (2i+1, 2i+2)``;
* building the tree computes a permutation of the input points such that the
  index set of every node is a **contiguous range** ``[start, end)`` in the
  permuted ordering; all index sets handed to kernels are therefore cheap
  slices;
* splits are performed at the median of the longest bounding-box axis, which
  keeps sibling sizes within one point of each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List

import numpy as np

from ..geometry.bounding_box import BoundingBox
from ..utils.validation import require


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a ``(count, dim)`` array.

    Each row goes through the same BLAS dot product as ``np.linalg.norm`` of
    that row alone, so a norm does not depend on how many rows are evaluated
    with it (an admissibility test on a regular grid is decided by the last
    bit).
    """
    return np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None])[:, 0, 0])


@dataclass
class ClusterTree:
    """A complete binary cluster tree stored level by level.

    Attributes
    ----------
    points:
        The input points re-ordered by the tree permutation, shape ``(n, dim)``.
    perm:
        ``points[i] == original_points[perm[i]]``.
    iperm:
        Inverse permutation: ``original_points[j] == points[iperm_position]`` with
        ``iperm[perm[i]] = i``.
    starts, ends:
        Per-node contiguous index range ``[starts[i], ends[i])`` into the
        permuted ordering.
    box_low, box_high:
        Per-node bounding boxes, shape ``(num_nodes, dim)``.
    depth:
        Depth of the leaf level; the root is at depth ``0`` and there are
        ``depth + 1`` levels in total.
    leaf_size:
        The target maximum leaf cluster size used to pick ``depth``.
    """

    points: np.ndarray
    perm: np.ndarray
    iperm: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    box_low: np.ndarray
    box_high: np.ndarray
    depth: int
    leaf_size: int
    _index_cache: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ build
    @classmethod
    def build(cls, points: np.ndarray, leaf_size: int = 64) -> "ClusterTree":
        """Build a cluster tree over ``points`` with leaves of about ``leaf_size``.

        Parameters
        ----------
        points:
            ``(n, dim)`` array of point coordinates.
        leaf_size:
            Maximum number of points per leaf cluster.  The tree depth is the
            smallest ``L`` with ``n / 2**L <= leaf_size`` (at least 1 level of
            subdivision whenever ``n > leaf_size``).
        """
        pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        require(pts.ndim == 2 and pts.shape[0] > 0, "points must be a (n, dim) array")
        require(leaf_size >= 1, "leaf_size must be >= 1")
        n = pts.shape[0]
        dim = pts.shape[1]

        depth = 0
        while (n + (1 << depth) - 1) // (1 << depth) > leaf_size:
            depth += 1

        num_nodes = (1 << (depth + 1)) - 1
        starts = np.zeros(num_nodes, dtype=np.int64)
        ends = np.zeros(num_nodes, dtype=np.int64)
        box_low = np.zeros((num_nodes, dim), dtype=np.float64)
        box_high = np.zeros((num_nodes, dim), dtype=np.float64)

        perm = np.arange(n, dtype=np.int64)
        work = pts.copy()

        # Recursive median split; because the tree is complete we simply walk
        # the heap ordering and split each node's range in half (by count) at
        # the median of the longest bounding-box axis.
        def split(node: int, level: int, start: int, end: int) -> None:
            starts[node] = start
            ends[node] = end
            seg = work[start:end]
            count = end - start
            if count:
                box_low[node] = seg.min(axis=0)
                box_high[node] = seg.max(axis=0)
            if level == depth:
                return
            half = count // 2
            if count > 1:
                extents = box_high[node] - box_low[node]
                axis = int(np.argmax(extents))
                # argpartition orders the segment so that the `half` smallest
                # coordinates along `axis` come first -> median split by count.
                order = np.argpartition(
                    seg[:, axis], max(half - 1, 0), kind="introselect"
                )
                work[start:end] = seg[order]
                perm[start:end] = perm[start:end][order]
            left, right = 2 * node + 1, 2 * node + 2
            split(left, level + 1, start, start + half)
            split(right, level + 1, start + half, end)

        split(0, 0, 0, n)

        iperm = np.empty(n, dtype=np.int64)
        iperm[perm] = np.arange(n, dtype=np.int64)
        return cls(
            points=work,
            perm=perm,
            iperm=iperm,
            starts=starts,
            ends=ends,
            box_low=box_low,
            box_high=box_high,
            depth=depth,
            leaf_size=leaf_size,
        )

    # -------------------------------------------------------------- structure
    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def num_levels(self) -> int:
        """Number of levels including the root level."""
        return self.depth + 1

    @property
    def num_nodes(self) -> int:
        return int(self.starts.shape[0])

    def level_of(self, node: int) -> int:
        """Depth of ``node`` (root has depth 0)."""
        return int(np.floor(np.log2(node + 1)))

    def nodes_at_level(self, level: int) -> range:
        """Node ids of all clusters at ``level`` (ordered left to right)."""
        require(0 <= level <= self.depth, f"level {level} out of range")
        first = (1 << level) - 1
        return range(first, (1 << (level + 1)) - 1)

    def num_nodes_at_level(self, level: int) -> int:
        return 1 << level

    def is_leaf(self, node: int) -> bool:
        return 2 * node + 1 >= self.num_nodes

    def children(self, node: int) -> tuple[int, int]:
        require(not self.is_leaf(node), f"node {node} is a leaf")
        return 2 * node + 1, 2 * node + 2

    def parent(self, node: int) -> int:
        require(node != 0, "root has no parent")
        return (node - 1) // 2

    def leaves(self) -> range:
        return self.nodes_at_level(self.depth)

    # ------------------------------------------------------------------ data
    def cluster_size(self, node: int) -> int:
        return int(self.ends[node] - self.starts[node])

    def index_set(self, node: int) -> np.ndarray:
        """Indices (in permuted ordering) owned by ``node``."""
        key = int(node)
        cached = self._index_cache.get(key)
        if cached is None:
            cached = np.arange(self.starts[node], self.ends[node], dtype=np.int64)
            self._index_cache[key] = cached
        return cached

    def bounding_box(self, node: int) -> BoundingBox:
        return BoundingBox(self.box_low[node], self.box_high[node])

    @cached_property
    def diameters(self) -> np.ndarray:
        """Bounding-box diameter of every node, shape ``(num_nodes,)``."""
        return _row_norms(self.box_high - self.box_low)

    def diameter(self, node: int) -> float:
        return float(self.diameters[node])

    def distance(self, s: int, t: int) -> float:
        gap = np.maximum(
            0.0,
            np.maximum(
                self.box_low[s] - self.box_high[t], self.box_low[t] - self.box_high[s]
            ),
        )
        return float(np.linalg.norm(gap))

    def level_sizes(self, level: int) -> np.ndarray:
        """Cluster sizes of all nodes at ``level`` as an array."""
        nodes = np.fromiter(self.nodes_at_level(level), dtype=np.int64)
        return (self.ends[nodes] - self.starts[nodes]).astype(np.int64)

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural invariants (used by the test-suite)."""
        n = self.num_points
        assert self.starts[0] == 0 and self.ends[0] == n
        assert np.array_equal(np.sort(self.perm), np.arange(n))
        for node in range(self.num_nodes):
            assert self.starts[node] <= self.ends[node]
            if not self.is_leaf(node):
                left, right = self.children(node)
                assert self.starts[left] == self.starts[node]
                assert self.ends[left] == self.starts[right]
                assert self.ends[right] == self.ends[node]
            seg = self.points[self.starts[node] : self.ends[node]]
            if seg.shape[0]:
                assert np.all(seg >= self.box_low[node] - 1e-12)
                assert np.all(seg <= self.box_high[node] + 1e-12)

    def describe(self) -> str:
        """One-line human readable summary."""
        leaf_sizes = self.level_sizes(self.depth)
        return (
            f"ClusterTree(n={self.num_points}, dim={self.dim}, depth={self.depth}, "
            f"leaves={len(leaf_sizes)}, leaf size {leaf_sizes.min()}-{leaf_sizes.max()})"
        )

    def leaf_cluster_sizes(self) -> List[int]:
        return [self.cluster_size(node) for node in self.leaves()]
