"""Per-node skeletonization records.

Every processed cluster stores the outcome of its interpolative decomposition:
its rank, the local/global skeleton indices and the interpolation matrix
(which is the leaf basis ``U_tau`` at the leaf level or the stacked transfer
matrix ``[E_nu1; E_nu2]`` at inner levels).  The constructor reads the global
skeleton indices back when it evaluates coupling blocks and merges children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class NodeSkeleton:
    """Skeletonization result of one cluster."""

    node: int
    #: Local row indices selected by the row ID (indices into the node's sample block).
    skeleton_local: np.ndarray
    #: Global (permuted-ordering) matrix indices of the selected skeleton rows.
    skeleton_global: np.ndarray
    #: Interpolation matrix ``X`` with ``X[skeleton_local, :] = I`` — equals the
    #: leaf basis ``U_tau`` at the leaf level and ``[E_nu1; E_nu2]`` at inner levels.
    interpolation: np.ndarray
    #: Whether this record belongs to a leaf cluster.
    is_leaf: bool

    @property
    def rank(self) -> int:
        return int(self.interpolation.shape[1])


class SkeletonStore:
    """Dictionary of :class:`NodeSkeleton` records keyed by cluster id."""

    def __init__(self) -> None:
        self._records: Dict[int, NodeSkeleton] = {}

    def add(self, record: NodeSkeleton) -> None:
        self._records[record.node] = record

    def get(self, node: int) -> NodeSkeleton:
        return self._records[node]

    def __contains__(self, node: int) -> bool:
        return node in self._records

    def __len__(self) -> int:
        return len(self._records)

    def rank(self, node: int) -> int:
        return self._records[node].rank if node in self._records else 0

    def skeleton_global(self, node: int) -> np.ndarray:
        return self._records[node].skeleton_global

    def nodes(self):
        return self._records.keys()
