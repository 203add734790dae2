"""The nested basis tree of an H2 matrix (Fig. 3).

Leaf clusters store their basis ``U_tau`` explicitly; an inner cluster's basis
is represented implicitly through the transfer matrices ``E`` of its children,

    U_tau = [[U_tau1, 0], [0, U_tau2]] @ [[E_tau1], [E_tau2]]            (Eq. 2)

:class:`BasisTree` stores the leaf bases, the per-child transfer matrices and
the per-node ranks, and provides the (memoised) expansion of the explicit
basis of any node — used for dense reconstruction in tests and the exact
HSS-to-HODLR expansion.  Entry evaluation never expands an inner basis: it
runs the same recursion on the requested rows only
(:mod:`repro.batched.entry_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..tree.cluster_tree import ClusterTree


@dataclass
class BasisTree:
    """Nested (cluster) bases of an H2 matrix.

    Attributes
    ----------
    tree:
        The cluster tree the bases are defined on.
    leaf_bases:
        ``leaf_bases[node]`` is the explicit ``(cluster_size, rank)`` basis of a
        leaf cluster.
    transfers:
        ``transfers[node]`` is the ``(rank(node), rank(parent))`` transfer matrix
        ``E_node`` of a non-root cluster whose parent has a basis.
    ranks:
        ``ranks[node]`` is the basis rank of every cluster that carries a basis.
    """

    tree: ClusterTree
    leaf_bases: Dict[int, np.ndarray] = field(default_factory=dict)
    transfers: Dict[int, np.ndarray] = field(default_factory=dict)
    ranks: Dict[int, int] = field(default_factory=dict)
    _explicit_cache: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ write
    def set_leaf_basis(self, node: int, basis: np.ndarray) -> None:
        # Contiguous storage: the apply-plan stacking, the persist writer and
        # dense reconstruction all consume these arrays; normalizing here makes
        # downstream BLAS results independent of the constructor's slicing
        # (a saved-and-reloaded matrix reproduces to_dense() bitwise).
        basis = np.ascontiguousarray(basis, dtype=np.float64)
        expected_rows = self.tree.cluster_size(node)
        if basis.shape[0] != expected_rows:
            raise ValueError(
                f"leaf basis for node {node} must have {expected_rows} rows, "
                f"got {basis.shape[0]}"
            )
        self.leaf_bases[node] = basis
        self.ranks[node] = int(basis.shape[1])
        self._explicit_cache.pop(node, None)

    def set_transfer(self, node: int, transfer: np.ndarray) -> None:
        self.transfers[node] = np.ascontiguousarray(transfer, dtype=np.float64)
        self._explicit_cache.clear()

    def set_rank(self, node: int, rank: int) -> None:
        self.ranks[node] = int(rank)

    # ------------------------------------------------------------------- read
    def rank(self, node: int) -> int:
        return int(self.ranks.get(node, 0))

    def has_basis(self, node: int) -> bool:
        return node in self.ranks

    def transfer(self, node: int) -> np.ndarray:
        return self.transfers[node]

    def leaf_basis(self, node: int) -> np.ndarray:
        return self.leaf_bases[node]

    def explicit_basis(self, node: int) -> np.ndarray:
        """The explicit ``(cluster_size, rank)`` basis of ``node`` (memoised).

        Leaves return their stored basis; inner nodes expand Eq. (2)
        recursively.  Intended for tests and dense reconstruction on moderate
        problem sizes — the H2 format never needs the explicit inner bases
        for matvec, entry evaluation or construction.
        """
        cached = self._explicit_cache.get(node)
        if cached is not None:
            return cached
        if self.tree.is_leaf(node):
            basis = self.leaf_bases.get(node)
            if basis is None:
                basis = np.zeros((self.tree.cluster_size(node), self.rank(node)))
        else:
            left, right = self.tree.children(node)
            ul = self.explicit_basis(left)
            ur = self.explicit_basis(right)
            el = self.transfers.get(left)
            er = self.transfers.get(right)
            rank = self.rank(node)
            if el is None or er is None:
                basis = np.zeros((self.tree.cluster_size(node), rank))
            else:
                basis = np.vstack([ul @ el, ur @ er])
        self._explicit_cache[node] = basis
        return basis

    # -------------------------------------------------------------- reporting
    def memory_bytes(self) -> int:
        """Bytes stored in leaf bases and transfer matrices."""
        total = sum(b.nbytes for b in self.leaf_bases.values())
        total += sum(e.nbytes for e in self.transfers.values())
        return int(total)

    def rank_range(self) -> tuple[int, int]:
        """Smallest and largest rank over all clusters carrying a basis."""
        values = [r for r in self.ranks.values()]
        if not values:
            return (0, 0)
        return (int(min(values)), int(max(values)))

    def validate_shapes(self) -> None:
        """Structural consistency checks used by the test-suite."""
        for node, basis in self.leaf_bases.items():
            assert basis.shape[0] == self.tree.cluster_size(node)
            assert basis.shape[1] == self.rank(node)
        for node, transfer in self.transfers.items():
            parent = self.tree.parent(node)
            assert transfer.shape[0] == self.rank(node), (
                f"transfer of node {node} has {transfer.shape[0]} rows, rank is {self.rank(node)}"
            )
            assert transfer.shape[1] == self.rank(parent), (
                f"transfer of node {node} has {transfer.shape[1]} cols, parent rank is "
                f"{self.rank(parent)}"
            )
