"""Top-down peeling construction through a HODLR intermediate (H2Opus substitute).

The reference GPU implementation the paper compares against (H2Opus) uses the
matrix-vector-product-only construction of Lin, Lu & Ying: hierarchical levels
are processed *top down*; at every level the off-diagonal sibling blocks are
sketched with random vectors restricted to the sibling's columns, after
*peeling off* the contribution of the (already compressed) coarser-level
blocks.  Because the intermediate representation is weakly admissible
(HODLR-like), the block ranks for 3D geometries grow with the block size, so
the number of random vectors grows far beyond the O(1) vectors needed by the
paper's bottom-up algorithm — this is exactly the effect the Fig. 5 sample
annotations (262…18920 vectors) show.

The implementation below reproduces that algorithm faithfully for symmetric
matrices:

* per level, the two sibling-parity groups are excited separately so a row
  cluster never sees its own columns;
* coarser-level contributions are peeled using the already computed low-rank
  factors;
* ranks are detected adaptively with the same QR convergence test used by the
  bottom-up constructor;
* a second sketching pass (with the orthonormalised range) produces the
  right factors.

Dense diagonal leaf blocks are evaluated with the entry extractor, as in the
reference implementations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..linalg.low_rank import LowRankMatrix
from ..linalg.qr import smallest_r_diagonal, truncated_pivoted_qr
from ..linalg.norm_estimation import estimate_spectral_norm
from ..sketching.entry_extractor import EntryExtractor
from ..sketching.operators import SketchingOperator
from ..tree.cluster_tree import ClusterTree
from ..utils.rng import SeedLike, as_generator
from .hodlr import HODLRMatrix


@dataclass
class PeelingResult:
    """Outcome of the top-down peeling construction."""

    matrix: HODLRMatrix
    total_samples: int
    operator_applications: int
    elapsed_seconds: float
    samples_per_level: Dict[int, int] = field(default_factory=dict)
    rank_per_level: Dict[int, int] = field(default_factory=dict)
    truncated: bool = False

    def memory_mb(self) -> float:
        return self.matrix.memory_bytes()["total"] / (1024.0**2)

    def rank_range(self) -> Tuple[int, int]:
        return self.matrix.rank_range()


class TopDownPeelingConstructor:
    """Matrix-free top-down HODLR construction by peeling (Lin-Lu-Ying style)."""

    def __init__(
        self,
        tree: ClusterTree,
        operator: SketchingOperator,
        extractor: EntryExtractor,
        tolerance: float = 1e-6,
        sample_block_size: int = 32,
        max_rank: int | None = None,
        seed: SeedLike = None,
    ):
        self.tree = tree
        self.operator = operator
        self.extractor = extractor
        self.tolerance = float(tolerance)
        self.sample_block_size = int(sample_block_size)
        self.max_rank = max_rank
        self.rng = as_generator(seed)
        if operator.n != tree.num_points or extractor.n != tree.num_points:
            raise ValueError("operator/extractor dimension must match the cluster tree")

    # ------------------------------------------------------------------ public
    def construct(self) -> PeelingResult:
        start = time.perf_counter()
        self.operator.reset_statistics()
        tree = self.tree
        n = tree.num_points
        hodlr = HODLRMatrix(tree=tree)

        norm = estimate_spectral_norm(
            self.operator.matvec, n, num_iterations=6, seed=self.rng
        )
        threshold = self.tolerance * max(norm, np.finfo(np.float64).tiny)

        samples_per_level: Dict[int, int] = {}
        rank_per_level: Dict[int, int] = {}
        truncated = False

        for level in range(1, tree.num_levels):
            level_samples_before = self.operator.samples_taken
            nodes = list(tree.nodes_at_level(level))
            # Sibling pairs: (nodes[2i], nodes[2i+1]).  The matrix is symmetric,
            # so a single parity pass covers every pair and the transposed block
            # is mirrored from the computed factors; a non-symmetric variant
            # would run both parities.
            for parity in (0,):
                # Row clusters whose sibling has this parity.
                rows = [nodes[i] for i in range(len(nodes)) if i % 2 != parity]
                cols = [nodes[i] for i in range(len(nodes)) if i % 2 == parity]
                if not rows:
                    continue
                bases, capped = self._sketch_ranges(hodlr, rows, cols, threshold)
                truncated = truncated or capped
                right_factors = self._second_pass(hodlr, rows, cols, bases)
                for s, t in zip(rows, cols):
                    q = bases[s]
                    w = right_factors[s]
                    hodlr.off_diagonal[(s, t)] = LowRankMatrix(q, w)
                    if (t, s) not in hodlr.off_diagonal:
                        # Symmetric matrix: the transpose block is (W, Q).
                        hodlr.off_diagonal[(t, s)] = LowRankMatrix(w, q)
            samples_per_level[level] = self.operator.samples_taken - level_samples_before
            ranks = [
                hodlr.off_diagonal[(nodes[i], nodes[i ^ 1])].rank
                for i in range(len(nodes))
            ]
            rank_per_level[level] = max(ranks) if ranks else 0

        # Dense diagonal leaf blocks.
        for leaf in tree.leaves():
            idx = tree.index_set(leaf)
            hodlr.diagonal[leaf] = self.extractor.extract(idx, idx)

        return PeelingResult(
            matrix=hodlr,
            total_samples=self.operator.samples_taken,
            operator_applications=self.operator.applications,
            elapsed_seconds=time.perf_counter() - start,
            samples_per_level=samples_per_level,
            rank_per_level=rank_per_level,
            truncated=truncated,
        )

    # ---------------------------------------------------------------- internals
    def _peel_rows(
        self,
        hodlr: HODLRMatrix,
        row_node: int,
        omega: np.ndarray,
        sample_rows: np.ndarray,
    ) -> np.ndarray:
        """Subtract the contribution of coarser-level blocks from ``sample_rows``.

        ``sample_rows`` holds the rows ``I_row_node`` of ``K @ omega``; every
        already-computed off-diagonal block ``(a, b)`` with ``I_a`` containing
        ``I_row_node`` contributes ``U_a[local rows] (V_b^T omega[I_b])``.
        """
        tree = self.tree
        result = sample_rows
        # Walk the ancestor chain: at each coarser level the ancestor `anc` of
        # row_node has an (already computed) off-diagonal block with its sibling.
        anc = row_node
        offset_start = tree.starts[row_node]
        while anc != 0:
            parent = tree.parent(anc)
            left, right = tree.children(parent)
            anc_sibling = right if anc == left else left
            block = hodlr.off_diagonal.get((anc, anc_sibling))
            if block is not None and block.rank > 0:
                local = slice(
                    offset_start - tree.starts[anc],
                    offset_start - tree.starts[anc] + tree.cluster_size(row_node),
                )
                contribution = block.left[local] @ (
                    block.right.T
                    @ omega[tree.starts[anc_sibling] : tree.ends[anc_sibling]]
                )
                result = result - contribution
            anc = parent
        return result

    def _sketch_ranges(
        self,
        hodlr: HODLRMatrix,
        rows: List[int],
        cols: List[int],
        threshold: float,
    ) -> Tuple[Dict[int, np.ndarray], bool]:
        """Adaptively sketch the range of every block ``K(I_row, I_col)`` of a parity group."""
        tree = self.tree
        n = tree.num_points
        samples: Dict[int, np.ndarray] = {s: np.zeros((tree.cluster_size(s), 0)) for s in rows}
        capped = False
        cap = self.max_rank if self.max_rank is not None else min(
            tree.cluster_size(cols[0]), n
        )

        while True:
            mins = [smallest_r_diagonal(samples[s]) if samples[s].shape[1] else np.inf for s in rows]
            if all(m <= threshold for m in mins):
                break
            current = max(block.shape[1] for block in samples.values())
            if current >= cap:
                capped = True
                break
            block_size = min(self.sample_block_size, cap - current)
            omega = np.zeros((n, block_size))
            for t in cols:
                omega[tree.starts[t] : tree.ends[t]] = self.rng.standard_normal(
                    (tree.cluster_size(t), block_size)
                )
            y = self.operator.multiply(omega)
            for s in rows:
                rows_of_y = y[tree.starts[s] : tree.ends[s]]
                peeled = self._peel_rows(hodlr, s, omega, rows_of_y)
                samples[s] = np.hstack([samples[s], peeled])

        bases: Dict[int, np.ndarray] = {}
        for s in rows:
            block = samples[s]
            if block.shape[1] == 0:
                bases[s] = np.zeros((block.shape[0], 0))
                continue
            q, r, _, rank = truncated_pivoted_qr(block, abs_tol=threshold)
            rank = min(rank, block.shape[1])
            if self.max_rank is not None:
                rank = min(rank, self.max_rank)
            bases[s] = q[:, :rank]
        return bases, capped

    def _second_pass(
        self,
        hodlr: HODLRMatrix,
        rows: List[int],
        cols: List[int],
        bases: Dict[int, np.ndarray],
    ) -> Dict[int, np.ndarray]:
        """Second sketching pass: ``W_s = K(I_col, I_row) Q_s`` for every pair.

        All row clusters of the parity group are excited simultaneously (their
        index ranges are disjoint), so a single operator application with
        ``max rank`` columns serves the whole group; contributions of coarser
        blocks are peeled from the sibling's rows.
        """
        tree = self.tree
        n = tree.num_points
        max_rank = max((bases[s].shape[1] for s in rows), default=0)
        right: Dict[int, np.ndarray] = {}
        if max_rank == 0:
            for s, t in zip(rows, cols):
                right[s] = np.zeros((tree.cluster_size(t), 0))
            return right
        omega = np.zeros((n, max_rank))
        for s in rows:
            q = bases[s]
            omega[tree.starts[s] : tree.ends[s], : q.shape[1]] = q
        y = self.operator.multiply(omega)
        for s, t in zip(rows, cols):
            rank = bases[s].shape[1]
            rows_of_y = y[tree.starts[t] : tree.ends[t]]
            peeled = self._peel_rows(hodlr, t, omega, rows_of_y)
            right[s] = peeled[:, :rank]
        return right
