"""HODLR (hierarchically off-diagonal low-rank) matrices.

HODLR is the simplest weak-admissibility format: at every level of the cluster
tree the two off-diagonal sibling blocks are stored in (non-nested) low-rank
form and the diagonal leaf blocks are dense.  The paper uses HODLR (as
implemented in STRUMPACK) as one of the weak-admissibility comparators for the
frontal-matrix memory study (Fig. 6b), and the H2Opus top-down construction
internally builds a HODLR-like intermediate whose ranks grow quickly for 3D
geometries — the root cause of its large sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from ..core.recompression import _recompress_weak
from ..hmatrix.h2matrix import H2Matrix
from ..hmatrix.mixin import HierarchicalOperatorMixin
from ..linalg.low_rank import LowRankMatrix
from ..tree.cluster_tree import ClusterTree
from .aca import aca_from_entry_function

EntryFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class HODLRMatrix(HierarchicalOperatorMixin):
    """A HODLR matrix over a cluster tree (permuted ordering).

    The applies (including the exact transpose ``rmatvec``/``rmatmat`` and
    the block-RHS ``matmat``) come from the apply shell it shares with
    :class:`~repro.hmatrix.h2matrix.H2Matrix`.
    """

    format_name = "hodlr"

    tree: ClusterTree
    #: ``off_diagonal[(s, t)]`` holds the low-rank factorization of sibling block (s, t).
    off_diagonal: Dict[Tuple[int, int], LowRankMatrix] = field(default_factory=dict)
    #: ``diagonal[s]`` is the dense diagonal block of leaf cluster ``s``.
    diagonal: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def shape(self) -> Tuple[int, int]:
        n = self.tree.num_points
        return (n, n)

    def _apply_permuted(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        yp = np.zeros_like(x)
        for (s, t), lr in self.off_diagonal.items():
            rows = slice(self.tree.starts[s], self.tree.ends[s])
            cols = slice(self.tree.starts[t], self.tree.ends[t])
            if transpose:
                yp[cols] += lr.rmatvec(x[rows])
            else:
                yp[rows] += lr.matvec(x[cols])
        for s, block in self.diagonal.items():
            rows = slice(self.tree.starts[s], self.tree.ends[s])
            yp[rows] += (block.T if transpose else block) @ x[rows]
        return yp

    def to_dense(self, permuted: bool = False) -> np.ndarray:
        n = self.tree.num_points
        dense = np.zeros((n, n), dtype=np.float64)
        for (s, t), lr in self.off_diagonal.items():
            dense[
                self.tree.starts[s] : self.tree.ends[s],
                self.tree.starts[t] : self.tree.ends[t],
            ] = lr.to_dense()
        for s, block in self.diagonal.items():
            dense[
                self.tree.starts[s] : self.tree.ends[s],
                self.tree.starts[s] : self.tree.ends[s],
            ] = block
        if permuted:
            return dense
        return dense[np.ix_(self.tree.iperm, self.tree.iperm)]

    def _memory_components(self) -> Dict[str, int]:
        return {
            "low_rank": int(
                sum(lr.left.nbytes + lr.right.nbytes for lr in self.off_diagonal.values())
            ),
            "dense": int(sum(d.nbytes for d in self.diagonal.values())),
        }

    def rank_range(self) -> Tuple[int, int]:
        ranks = [lr.rank for lr in self.off_diagonal.values()]
        if not ranks:
            return (0, 0)
        return (int(min(ranks)), int(max(ranks)))

    def _block_counts(self) -> Tuple[int, int]:
        return (len(self.off_diagonal), len(self.diagonal))


def build_hodlr(
    tree: ClusterTree,
    entries: EntryFunction,
    tol: float = 1e-6,
    max_rank: int | None = None,
) -> HODLRMatrix:
    """Construct a HODLR matrix from an entry-evaluation function.

    Every off-diagonal sibling block is compressed independently with
    partial-pivoted ACA; diagonal leaf blocks are evaluated densely.  The entry
    function receives *permuted* index arrays (the HODLR matrix lives in the
    cluster-tree ordering, like all formats in this library).
    """
    hodlr = HODLRMatrix(tree=tree)
    for level in range(1, tree.num_levels):
        nodes = list(tree.nodes_at_level(level))
        for i in range(0, len(nodes), 2):
            s, t = nodes[i], nodes[i + 1]
            for a, b in ((s, t), (t, s)):
                rows = tree.index_set(a)
                cols = tree.index_set(b)
                u, v = aca_from_entry_function(
                    entries, rows, cols, tol=tol, max_rank=max_rank
                )
                hodlr.off_diagonal[(a, b)] = LowRankMatrix(u, v)
    for leaf in tree.leaves():
        rows = tree.index_set(leaf)
        hodlr.diagonal[leaf] = entries(rows, rows)
    return hodlr


def _hodlr_from_h2(h2: H2Matrix) -> HODLRMatrix:
    """Flatten a weak-admissibility (HSS) :class:`H2Matrix` into HODLR form.

    The sketching constructor run with
    :class:`~repro.tree.admissibility.WeakAdmissibility` produces nested bases
    on the HODLR partition; expanding every coupling block ``B_{s,t}`` with the
    explicit bases ``U_s B_{s,t} U_t^T`` yields the equivalent (non-nested)
    HODLR matrix.  The loss of nestedness costs memory; no library path pays
    it to factor a matrix any more (:func:`repro.solvers.factorize` works on
    the nested generators) — it is a format conversion, and the test oracle
    of that factorization.

    This is the weak-partition (exact) path of :func:`convert`, which first
    re-compresses onto the weak partition with the sketching constructor when
    the source lives on a strong-admissibility partition.

    Raises :class:`ValueError` when the H2 matrix does not live on the weak
    partition (off-diagonal dense blocks or non-sibling coupling blocks).
    """
    defect = h2.weak_partition_defect()
    if defect is not None:
        raise ValueError(f"{defect}: matrix is not on the weak partition")
    hodlr = HODLRMatrix(tree=h2.tree)
    for (s, _), block in h2.dense.items():
        hodlr.diagonal[s] = np.array(block, dtype=np.float64)
    for (s, t), b in h2.coupling.items():
        left = h2.basis.explicit_basis(s) @ b
        right = h2.basis.explicit_basis(t)
        hodlr.off_diagonal[(s, t)] = LowRankMatrix(left, right)
    return hodlr


def convert(
    op: object, target_format: str, tol: float = 1e-6, max_rank: int | None = None
) -> HODLRMatrix:
    """``op`` as a :class:`HODLRMatrix` — the only conversion there is.

    On the weak (HSS) partition an :class:`H2Matrix` expands *exactly* into
    non-nested sibling blocks (``tol`` / ``max_rank`` are ignored).  On a
    strong partition it is first re-compressed onto the weak partition of its
    own tree (:func:`~repro.core.recompression._recompress_weak` at ``tol`` /
    ``max_rank``, ``seed=0``) and that is expanded.  A :class:`HODLRMatrix`
    is returned unchanged.  Any other target raises :class:`ValueError`:
    every operator reaches a dense matrix through ``to_dense()``.
    """
    if target_format.lower() != "hodlr":
        raise ValueError(
            f"no conversion to {target_format!r}: the only target is 'hodlr' "
            "(use op.to_dense() for a dense matrix)"
        )
    if isinstance(op, HODLRMatrix):
        return op
    if not isinstance(op, H2Matrix):
        raise ValueError(f"no conversion from {type(op).__name__} to 'hodlr'")
    if op.weak_partition_defect() is not None:
        op = _recompress_weak(op, tol=tol, max_rank=max_rank)
    return _hodlr_from_h2(op)
