"""Per-node sample store of the construction sweep.

The second store behind the one level driver of :mod:`repro.core.builder`,
with the lifecycle of
:class:`~repro.batched.construction_plan.PackedSweepEngine` (``load_dense`` →
``init_leaf`` → ``finish_level`` → ``load_couplings`` → ``merge_to_parent``,
``sweep_slab`` for fresh samples) over one exact-shape array per node and the
non-uniform :class:`~repro.batched.bsr.BlockSparseRowMatrix` product.  Nothing
is padded and the extracted blocks are referenced rather than restacked, so
its working set stays near the finished operator's; it is the oracle the
compiled sweep is tested against (``H2Constructor.construct_loop``) and the
fallback when the compiled workspace does not fit or keeps failing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from ..observe.tracer import phase_span
from .backend import BatchedBackend
from .bsr import BlockSparseRowMatrix
from .construction_plan import ConstructionPlan, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sketching.entry_extractor import EntryExtractor

Blocks = List[np.ndarray]


class _NodeLevelState:
    """One tree level's sample blocks ``y`` and random inputs ``omega``, a list
    entry per node."""

    def __init__(self, depth: int, nodes: Sequence[int], omega: Blocks, y: Blocks):
        self.depth = int(depth)
        self.nodes = list(nodes)
        self.count = len(self.nodes)
        self.omega = omega
        self.y = y

    @property
    def y_active(self) -> Blocks:
        return self.y

    def node_blocks(self) -> Blocks:
        return self.y

    def append(self, omega_slab: Blocks, y_slab: Blocks) -> None:
        """Append one sampling round's columns to every node's blocks."""
        self.y = [np.hstack(pair) for pair in zip(self.y, y_slab)]
        self.omega = [np.hstack(pair) for pair in zip(self.omega, omega_slab)]


def _bsr(
    nodes: Sequence[int], pairs: Sequence[Tuple[int, int]], blocks: Blocks
) -> BlockSparseRowMatrix:
    """The level's block-sparse matrix of ``blocks[i]`` at node pair ``pairs[i]``."""
    pos = {node: i for i, node in enumerate(nodes)}
    bsr = BlockSparseRowMatrix(num_block_rows=len(nodes))
    for (s, t), block in zip(pairs, blocks):
        if block.size:
            bsr.add_block(pos[s], pos[t], block)
    return bsr


class NodeSweep:
    """Per-node executor of the construction sweep (Algorithm 1 as written)."""

    name = "loop"

    def __init__(
        self, plan: ConstructionPlan, backend: BatchedBackend, tracer: object
    ):
        self.plan = plan
        self.backend = backend
        self.counter = backend.counter
        self.tracer = tracer
        #: ``records[depth]``: the row IDs of a skeletonised level, replayed on
        #: fresh samples by :meth:`sweep_slab`.
        self.records: Dict[int, Sequence] = {}
        self._dense_bsr = BlockSparseRowMatrix(num_block_rows=plan.num_leaves)
        self._coupling_bsr: Dict[int, BlockSparseRowMatrix] = {}

    # ---------------------------------------------------------- entry blocks
    def _extract(
        self, extractor: "EntryExtractor", requests: Sequence[Request]
    ) -> Blocks:
        with phase_span(self.tracer, "entry_generation"):
            return extractor.extract_blocks(requests, counter=self.counter)

    def load_dense(
        self, extractor: "EntryExtractor", requests: Sequence[Request]
    ) -> Blocks:
        """Evaluate ``plan.dense_pairs``; the blocks become the leaf BSR product."""
        blocks = self._extract(extractor, requests)
        self._dense_bsr = _bsr(self.plan.leaf_nodes, self.plan.dense_pairs, blocks)
        return blocks

    def load_couplings(
        self, depth: int, extractor: "EntryExtractor", requests: Sequence[Request]
    ) -> Blocks:
        """Evaluate ``plan.coupling_pairs[depth]``; the blocks become the
        level's coupling-subtract product."""
        blocks = self._extract(extractor, requests)
        self._coupling_bsr[depth] = _bsr(
            self.plan.level_nodes[depth], self.plan.coupling_pairs[depth], blocks
        )
        return blocks

    # -------------------------------------------------------- level lifecycle
    def _leaf_slabs(self, omega: np.ndarray, y: np.ndarray) -> Tuple[Blocks, Blocks]:
        """Per-leaf slices of a global ``(n, b)`` sketch, dense part subtracted."""
        tree = self.plan.tree
        with phase_span(self.tracer, "shrink_upsweep"):
            spans = [(tree.starts[t], tree.ends[t]) for t in self.plan.leaf_nodes]
            omega_loc = [np.ascontiguousarray(omega[a:b]) for a, b in spans]
            y_loc = [y[a:b].copy() for a, b in spans]
        with phase_span(self.tracer, "bsr_gemm"):
            self._dense_bsr.multiply_accumulate(
                y_loc, omega_loc, self.backend, alpha=-1.0
            )
        return omega_loc, y_loc

    def init_leaf(
        self, omega: np.ndarray, y: np.ndarray, capacity_hint: int = 0
    ) -> _NodeLevelState:
        """Load the initial global sketch into the leaf level's state."""
        return _NodeLevelState(
            self.plan.tree.depth, self.plan.leaf_nodes, *self._leaf_slabs(omega, y)
        )

    def finish_level(
        self, state: _NodeLevelState, decompositions: Sequence
    ) -> Tuple[int, Blocks, Blocks]:
        """Skeletonise a level: ``Y^{l+1} = Y_loc(J, :)``, ``Omega^{l+1} = X^T Omega^l
        = Omega^l(J, :) + T Omega^l(redundant, :)``.

        Algorithm 1 runs these two lines at every level; this store does too,
        the topmost included, where nothing consumes the result.
        """
        with phase_span(self.tracer, "shrink_upsweep"):
            rest = self.backend.batched_gemm(
                [dec.T for dec in decompositions],
                [om[dec.redundant] for om, dec in zip(state.omega, decompositions)],
            )
            omega_next = [
                om[dec.skeleton] + product
                for om, dec, product in zip(state.omega, decompositions, rest)
            ]
            y_next = [y[dec.skeleton] for y, dec in zip(state.y, decompositions)]
        self.records[state.depth] = decompositions
        return state.depth, y_next, omega_next

    def _merge(
        self, depth: int, y_next: Blocks, omega_next: Blocks
    ) -> Tuple[Blocks, Blocks]:
        """Subtract level ``depth``'s couplings from its shrunk samples (in
        place), then stack sibling pairs into the parents' blocks."""
        bsr = self._coupling_bsr.get(depth)
        if bsr is not None:
            with phase_span(self.tracer, "bsr_gemm"):
                bsr.multiply_accumulate(y_next, omega_next, self.backend, alpha=-1.0)
        tree = self.plan.tree
        pos = {node: i for i, node in enumerate(self.plan.level_nodes[depth])}
        with phase_span(self.tracer, "shrink_upsweep"):
            siblings = [
                [pos[child] for child in tree.children(tau)]
                for tau in self.plan.level_nodes[depth - 1]
            ]
            omega = [np.vstack([omega_next[i] for i in pair]) for pair in siblings]
            y = [np.vstack([y_next[i] for i in pair]) for pair in siblings]
        return omega, y

    def merge_to_parent(
        self, depth: int, y_next: Blocks, omega_next: Blocks, capacity_hint: int = 0
    ) -> _NodeLevelState:
        """Build the parent level's state from a skeletonised level."""
        return _NodeLevelState(
            depth - 1,
            self.plan.level_nodes[depth - 1],
            *self._merge(depth, y_next, omega_next),
        )

    def sweep_slab(
        self, new_omega: np.ndarray, new_y: np.ndarray, to_depth: int
    ) -> Tuple[Blocks, Blocks]:
        """``updateSamples``: push fresh sample columns up to ``to_depth`` by
        replaying the recorded row IDs node by node."""
        omega, y = self._leaf_slabs(new_omega, new_y)
        for depth in range(self.plan.tree.depth, to_depth, -1):
            with phase_span(self.tracer, "shrink_upsweep"):
                decompositions = self.records[depth]
                omega_next = [
                    block[dec.skeleton] + dec.T @ block[dec.redundant]
                    for dec, block in zip(decompositions, omega)
                ]
                y_next = [
                    block[dec.skeleton] for dec, block in zip(decompositions, y)
                ]
            omega, y = self._merge(depth, y_next, omega_next)
        return omega, y

    def memory_bytes(self) -> int:
        """No workspace of its own: blocks and row IDs are held by reference."""
        return 0
