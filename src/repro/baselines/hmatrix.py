"""Non-nested H matrices (strong admissibility, independent low-rank blocks).

The H format stores every admissible block of the partition as an independent
``U V^T`` factorization (O(N log N) memory), in contrast to the H2 format's
nested bases (O(N) memory).  ButterflyPACK's sketching-based construction
produces H/Butterfly representations; this class plus
:class:`~repro.baselines.hmatrix_sketch.HMatrixSketchingConstructor` and the
entry-based ACA constructor below serve as that comparator in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from ..hmatrix.mixin import HierarchicalOperatorMixin
from ..linalg.low_rank import LowRankMatrix
from ..tree.block_partition import BlockPartition
from ..tree.cluster_tree import ClusterTree
from .aca import aca_from_entry_function

EntryFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class HMatrix(HierarchicalOperatorMixin):
    """An H matrix over a block partition (permuted ordering).

    The applies (including the exact transpose ``rmatvec``/``rmatmat`` and
    the block-RHS ``matmat``) come from the apply shell it shares with
    :class:`~repro.hmatrix.h2matrix.H2Matrix`.
    """

    format_name = "hmatrix"

    tree: ClusterTree
    partition: BlockPartition
    #: ``low_rank[(s, t)]`` is the factorization of admissible block ``(s, t)``.
    low_rank: Dict[Tuple[int, int], LowRankMatrix] = field(default_factory=dict)
    #: ``dense[(s, t)]`` is the dense inadmissible leaf block ``(s, t)``.
    dense: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)

    @property
    def shape(self) -> Tuple[int, int]:
        n = self.tree.num_points
        return (n, n)

    def _apply_permuted(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        yp = np.zeros_like(x)
        for (s, t), lr in self.low_rank.items():
            rows = slice(self.tree.starts[s], self.tree.ends[s])
            cols = slice(self.tree.starts[t], self.tree.ends[t])
            if transpose:
                yp[cols] += lr.rmatvec(x[rows])
            else:
                yp[rows] += lr.matvec(x[cols])
        for (s, t), block in self.dense.items():
            rows = slice(self.tree.starts[s], self.tree.ends[s])
            cols = slice(self.tree.starts[t], self.tree.ends[t])
            if transpose:
                yp[cols] += block.T @ x[rows]
            else:
                yp[rows] += block @ x[cols]
        return yp

    def to_dense(self, permuted: bool = False) -> np.ndarray:
        n = self.tree.num_points
        dense = np.zeros((n, n), dtype=np.float64)
        for (s, t), lr in self.low_rank.items():
            dense[
                self.tree.starts[s] : self.tree.ends[s],
                self.tree.starts[t] : self.tree.ends[t],
            ] = lr.to_dense()
        for (s, t), block in self.dense.items():
            dense[
                self.tree.starts[s] : self.tree.ends[s],
                self.tree.starts[t] : self.tree.ends[t],
            ] = block
        if permuted:
            return dense
        return dense[np.ix_(self.tree.iperm, self.tree.iperm)]

    def _memory_components(self) -> Dict[str, int]:
        return {
            "low_rank": int(
                sum(lr.left.nbytes + lr.right.nbytes for lr in self.low_rank.values())
            ),
            "dense": int(sum(d.nbytes for d in self.dense.values())),
        }

    def rank_range(self) -> Tuple[int, int]:
        ranks = [lr.rank for lr in self.low_rank.values()]
        if not ranks:
            return (0, 0)
        return (int(min(ranks)), int(max(ranks)))

    def _block_counts(self) -> Tuple[int, int]:
        return (len(self.low_rank), len(self.dense))

    def _extra_statistics(self) -> Dict[str, object]:
        return {"sparsity_constant": self.partition.sparsity_constant()}


def build_hmatrix_aca(
    partition: BlockPartition,
    entries: EntryFunction,
    tol: float = 1e-6,
    max_rank: int | None = None,
) -> HMatrix:
    """Entry-evaluation H-matrix construction: ACA on every admissible block."""
    tree = partition.tree
    h = HMatrix(tree=tree, partition=partition)
    for level in range(tree.num_levels):
        for s in tree.nodes_at_level(level):
            rows = tree.index_set(s)
            for t in partition.far(s):
                cols = tree.index_set(t)
                u, v = aca_from_entry_function(
                    entries, rows, cols, tol=tol, max_rank=max_rank
                )
                h.low_rank[(s, t)] = LowRankMatrix(u, v)
    for s in tree.leaves():
        rows = tree.index_set(s)
        for t in partition.near(s):
            cols = tree.index_set(t)
            h.dense[(s, t)] = entries(rows, cols)
    return h
