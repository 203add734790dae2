"""Colored-probing sketching construction of a non-nested H matrix
(ButterflyPACK substitute).

The paper's second comparator is ButterflyPACK's sketching-based construction
of a strongly-admissible H matrix [Levitt & Martinsson 2022], which compresses
every admissible block of the partition from matrix-vector products by probing
groups of blocks that do not interfere with each other (graph coloring), and
therefore needs O(log N) *blocks* of random vectors (the Fig. 5 annotations:
262-513 vectors, growing with N) and produces a non-nested representation with
O(N log N) memory.

This module implements that scheme directly on our block partition:

* levels are processed from coarse to fine; for every level the *column*
  clusters are greedily colored so that no row cluster interacts (at this or a
  finer level) with two excited columns of the same color;
* for each color a random block restricted to the excited columns is pushed
  through the black-box operator; contributions of coarser, already-compressed
  admissible blocks are peeled off, leaving each target block's sketch clean;
* a second pass with the orthonormalised ranges produces the right factors;
* dense inadmissible leaf blocks are evaluated with the entry extractor.

Ranks are detected adaptively with the same QR criterion as the bottom-up
constructor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..linalg.low_rank import LowRankMatrix
from ..linalg.norm_estimation import estimate_spectral_norm
from ..linalg.qr import smallest_r_diagonal, truncated_pivoted_qr
from ..sketching.entry_extractor import EntryExtractor
from ..sketching.operators import SketchingOperator
from ..tree.block_partition import BlockPartition
from ..utils.rng import SeedLike, as_generator
from .hmatrix import HMatrix


@dataclass
class HMatrixSketchResult:
    """Outcome of the colored-probing H-matrix construction."""

    matrix: HMatrix
    total_samples: int
    operator_applications: int
    elapsed_seconds: float
    colors_per_level: Dict[int, int] = field(default_factory=dict)
    samples_per_level: Dict[int, int] = field(default_factory=dict)

    def memory_mb(self) -> float:
        return self.matrix.memory_bytes()["total"] / (1024.0**2)

    def rank_range(self) -> Tuple[int, int]:
        return self.matrix.rank_range()


class HMatrixSketchingConstructor:
    """Sketching-based construction of a strongly-admissible H matrix."""

    def __init__(
        self,
        partition: BlockPartition,
        operator: SketchingOperator,
        extractor: EntryExtractor,
        tolerance: float = 1e-6,
        sample_block_size: int = 32,
        max_rank: int | None = None,
        seed: SeedLike = None,
    ):
        self.partition = partition
        self.tree = partition.tree
        self.operator = operator
        self.extractor = extractor
        self.tolerance = float(tolerance)
        self.sample_block_size = int(sample_block_size)
        self.max_rank = max_rank
        self.rng = as_generator(seed)
        if operator.n != self.tree.num_points or extractor.n != self.tree.num_points:
            raise ValueError("operator/extractor dimension must match the cluster tree")

    # ------------------------------------------------------------------ public
    def construct(self) -> HMatrixSketchResult:
        start = time.perf_counter()
        self.operator.reset_statistics()
        tree = self.tree
        h = HMatrix(tree=tree, partition=self.partition)

        norm = estimate_spectral_norm(
            self.operator.matvec, tree.num_points, num_iterations=6, seed=self.rng
        )
        threshold = self.tolerance * max(norm, np.finfo(np.float64).tiny)

        colors_per_level: Dict[int, int] = {}
        samples_per_level: Dict[int, int] = {}

        for level in range(1, tree.num_levels):
            pairs = self.partition.admissible_pairs_at_level(level)
            if not pairs:
                continue
            before = self.operator.samples_taken
            color_classes = self._color_columns(level, pairs)
            colors_per_level[level] = len(color_classes)
            for excited_cols in color_classes:
                targets = [(s, t) for (s, t) in pairs if t in excited_cols]
                self._compress_color(h, level, targets, excited_cols, threshold)
            samples_per_level[level] = self.operator.samples_taken - before

        # Dense inadmissible leaf blocks.
        for s in tree.leaves():
            rows = tree.index_set(s)
            for t in self.partition.near(s):
                h.dense[(s, t)] = self.extractor.extract(rows, tree.index_set(t))

        return HMatrixSketchResult(
            matrix=h,
            total_samples=self.operator.samples_taken,
            operator_applications=self.operator.applications,
            elapsed_seconds=time.perf_counter() - start,
            colors_per_level=colors_per_level,
            samples_per_level=samples_per_level,
        )

    # --------------------------------------------------------------- coloring
    def _unresolved_partners(self, node: int, level: int) -> set:
        """Clusters at ``level`` whose interaction with ``node`` is *not* covered
        by a coarser admissible block (i.e. the pair is admissible or refined at
        this level) — exciting two of them simultaneously would contaminate the
        probe of ``node``'s block row."""
        partners = set(self.partition.far(node))
        # Inadmissible (refined) pairs at this level: recover them by walking the
        # dual traversal one level at a time — a pair (node, t) is unresolved if
        # neither it nor any ancestor pair is admissible.
        for t in self.tree.nodes_at_level(level):
            if t in partners:
                continue
            s_anc, t_anc = node, t
            covered = False
            while True:
                if t_anc in self.partition.far(s_anc):
                    covered = True
                    break
                if s_anc == 0:
                    break
                s_anc = self.tree.parent(s_anc)
                t_anc = self.tree.parent(t_anc)
            if not covered:
                partners.add(t)
        return partners

    def _color_columns(
        self, level: int, pairs: Sequence[Tuple[int, int]]
    ) -> List[set]:
        """Greedy coloring of the level's column clusters.

        Two column clusters conflict when some row cluster has *unresolved*
        interactions with both; members of a color class can be excited in the
        same probing pass without contaminating each other's block rows.
        """
        columns = sorted({t for _, t in pairs})
        unresolved: Dict[int, set] = {}
        for s in self.tree.nodes_at_level(level):
            unresolved[s] = self._unresolved_partners(s, level)

        conflicts: Dict[int, set] = {t: set() for t in columns}
        for s, partners in unresolved.items():
            members = [t for t in columns if t in partners]
            for i, t1 in enumerate(members):
                for t2 in members[i + 1 :]:
                    conflicts[t1].add(t2)
                    conflicts[t2].add(t1)

        color_of: Dict[int, int] = {}
        classes: List[set] = []
        for t in columns:
            used = {color_of[u] for u in conflicts[t] if u in color_of}
            color = 0
            while color in used:
                color += 1
            color_of[t] = color
            while len(classes) <= color:
                classes.append(set())
            classes[color].add(t)
        return classes

    # ------------------------------------------------------------ compression
    def _peel_rows(
        self,
        h: HMatrix,
        row_node: int,
        omega: np.ndarray,
        sample_rows: np.ndarray,
    ) -> np.ndarray:
        """Subtract *strictly coarser* compressed blocks from the probed rows of ``row_node``.

        Same-level blocks are never peeled: the coloring guarantees that no
        same-level partner of ``row_node`` other than the probe's own target is
        excited, and peeling the (possibly already computed) transposed target
        block would cancel the very contribution being measured.
        """
        tree = self.tree
        result = sample_rows
        anc = tree.parent(row_node) if row_node != 0 else 0
        offset_start = tree.starts[row_node]
        size = tree.cluster_size(row_node)
        while anc != 0:
            parent = tree.parent(anc)
            for b in self.partition.far(anc):
                block = h.low_rank.get((anc, b))
                if block is None or block.rank == 0:
                    continue
                projected = block.right.T @ omega[tree.starts[b] : tree.ends[b]]
                if not np.any(projected):
                    continue
                local = slice(
                    offset_start - tree.starts[anc],
                    offset_start - tree.starts[anc] + size,
                )
                result = result - block.left[local] @ projected
            anc = parent
        return result

    def _compress_color(
        self,
        h: HMatrix,
        level: int,
        targets: List[Tuple[int, int]],
        excited_cols: set,
        threshold: float,
    ) -> None:
        """Sketch and factorize every target block of one color class."""
        if not targets:
            return
        tree = self.tree
        n = tree.num_points
        cap = self.max_rank if self.max_rank is not None else max(
            tree.cluster_size(t) for _, t in targets
        )

        samples: Dict[Tuple[int, int], np.ndarray] = {
            (s, t): np.zeros((tree.cluster_size(s), 0)) for s, t in targets
        }
        omegas: List[np.ndarray] = []
        while True:
            mins = [
                smallest_r_diagonal(block) if block.shape[1] else np.inf
                for block in samples.values()
            ]
            if all(m <= threshold for m in mins):
                break
            current = max(block.shape[1] for block in samples.values())
            if current >= cap:
                break
            block_size = min(self.sample_block_size, cap - current)
            omega = np.zeros((n, block_size))
            for t in excited_cols:
                omega[tree.starts[t] : tree.ends[t]] = self.rng.standard_normal(
                    (tree.cluster_size(t), block_size)
                )
            omegas.append(omega)
            y = self.operator.multiply(omega)
            for s, t in targets:
                probe = y[tree.starts[s] : tree.ends[s]]
                peeled = self._peel_rows(h, s, omega, probe)
                samples[(s, t)] = np.hstack([samples[(s, t)], peeled])

        # Orthonormalise the ranges.
        bases: Dict[Tuple[int, int], np.ndarray] = {}
        for key, block in samples.items():
            if block.shape[1] == 0:
                bases[key] = np.zeros((block.shape[0], 0))
                continue
            q, _, _, rank = truncated_pivoted_qr(block, abs_tol=threshold)
            if self.max_rank is not None:
                rank = min(rank, self.max_rank)
            bases[key] = q[:, :rank]

        # Second pass: right factors W = K(I_t, I_s) Q_{s,t}.  Roles are swapped
        # (row clusters are excited with their bases, column clusters are read),
        # so the *row* clusters of the targets are re-colored with the same
        # conflict rule; each sub-color needs one application of max-rank columns.
        if all(bases[key].shape[1] == 0 for key in bases):
            for s, t in targets:
                h.low_rank[(s, t)] = LowRankMatrix(
                    bases[(s, t)], np.zeros((tree.cluster_size(t), 0))
                )
            return
        swapped = [(t, s) for (s, t) in targets]
        row_color_classes = self._color_columns(level, swapped)
        for excited_rows in row_color_classes:
            sub_targets = [(s, t) for (s, t) in targets if s in excited_rows]
            max_rank = max((bases[(s, t)].shape[1] for s, t in sub_targets), default=0)
            if max_rank == 0:
                for s, t in sub_targets:
                    h.low_rank[(s, t)] = LowRankMatrix(
                        bases[(s, t)], np.zeros((tree.cluster_size(t), 0))
                    )
                continue
            omega2 = np.zeros((n, max_rank))
            for s, t in sub_targets:
                q = bases[(s, t)]
                omega2[tree.starts[s] : tree.ends[s], : q.shape[1]] = q
            y2 = self.operator.multiply(omega2)
            for s, t in sub_targets:
                rank = bases[(s, t)].shape[1]
                probe = y2[tree.starts[t] : tree.ends[t]]
                peeled = self._peel_rows(h, t, omega2, probe)
                h.low_rank[(s, t)] = LowRankMatrix(bases[(s, t)], peeled[:, :rank])
