"""Reference loops the compiled engines are tested against.

Plain NumPy, one ``@`` per node or block — Algorithm 1 and the H2 matvec as
written, with nothing batched, padded or fused:

* :class:`NodeSweep` — the per-node sample store of the construction sweep,
  with the lifecycle of :class:`~repro.batched.PackedSweepEngine`;
* :class:`LoopConstructor` — :class:`~repro.H2Constructor` over that store.
  It overrides only the store factory (``H2Constructor._new_sweep``), so every
  numerical decision is still the shared level driver's;
* :func:`matvec_loop` — the per-node H2 apply;
* :func:`low_rank_update_reference_matvec` — the apply of ``H2 + U V^T``
  as two separate products, for checking a recompressed update;
* :func:`dense_relative_error` — the exact error of a dense reconstruction,
  for problems small enough to hold the dense matrix.

Every per-node product records one ``node_gemm`` launch on the constructor's
counter: one kernel launch per product is what a per-node schedule costs.
Entry generation, the convergence QR and the row IDs run through the
constructor's backend, exactly as in the product.

The per-node sweep selects the compiled sweep's skeletons at a fixed seed.
One benign exception: for a node with *no* admissible interactions anywhere
(its sketched samples are pure cancellation), the compiled store's fused
block-row GEMM leaves an exactly-zero sample block and the ID assigns rank 0,
while the per-node accumulation leaves ~1e-13 roundoff that a relative ID
tolerance inflates to full rank.  The matrices are identical (no coupling
references such a node); the compiled basis is just smaller.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import H2Constructor, H2Matrix
from repro.batched import ConstructionPlan, KernelLaunchCounter
from repro.observe.tracer import phase_span

Blocks = List[np.ndarray]
#: ``rows[i]`` lists the ``(source position, block)`` pairs of block row ``i``.
BlockRows = List[List[Tuple[int, np.ndarray]]]


def _block_rows(
    nodes: Sequence[int], pairs: Sequence[Tuple[int, int]], blocks: Blocks
) -> BlockRows:
    """A level's block-sparse rows: ``blocks[i]`` sits at node pair ``pairs[i]``."""
    pos = {node: i for i, node in enumerate(nodes)}
    rows: BlockRows = [[] for _ in nodes]
    for (s, t), block in zip(pairs, blocks):
        if block.size:
            rows[pos[s]].append((pos[t], block))
    return rows


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


class NodeSweep:
    """Per-node sample store of the construction sweep (Algorithm 1 as written)."""

    def __init__(
        self, plan: ConstructionPlan, counter: KernelLaunchCounter, tracer: object
    ):
        self.plan = plan
        self.counter = counter
        self.tracer = tracer
        #: ``records[depth]``: the row IDs of a skeletonised level, replayed on
        #: fresh samples by :meth:`sweep_slab`.
        self.records: Dict[int, Sequence] = {}
        self._dense_rows: BlockRows = [[] for _ in plan.leaves.nodes]
        self._coupling_rows: Dict[int, BlockRows] = {}

    def _products(self, count: int) -> None:
        if count:
            self.counter.record("node_gemm", count)

    def _subtract(self, rows: BlockRows, y: Blocks, omega: Blocks) -> None:
        """``y[i] -= sum_j A_ij @ omega[j]`` over the block rows, in place."""
        with phase_span(self.tracer, "bsr_gemm"):
            for out, row in zip(y, rows):
                for j, block in row:
                    out -= block @ omega[j]
        self._products(sum(len(row) for row in rows))

    # ---------------------------------------------------------- entry blocks
    def _extract(self, extractor, requests) -> Blocks:
        with phase_span(self.tracer, "entry_generation"):
            return extractor.extract_blocks(requests, counter=self.counter)

    def load_dense(self, extractor, requests) -> Blocks:
        """Evaluate ``plan.dense_pairs``; they become the leaf subtract."""
        blocks = self._extract(extractor, requests)
        self._dense_rows = _block_rows(
            self.plan.leaves.nodes, self.plan.dense_pairs, blocks
        )
        return blocks

    def load_couplings(self, depth: int, extractor, requests) -> Blocks:
        """Evaluate ``plan.coupling_pairs[depth]``; they become the level's
        coupling subtract."""
        blocks = self._extract(extractor, requests)
        self._coupling_rows[depth] = _block_rows(
            self.plan.level_nodes[depth], self.plan.coupling_pairs[depth], blocks
        )
        return blocks

    # -------------------------------------------------------- level lifecycle
    def _leaf_slabs(self, omega: np.ndarray, y: np.ndarray) -> Tuple[Blocks, Blocks]:
        """Per-leaf slices of a global ``(n, b)`` sketch, dense part subtracted."""
        tree = self.plan.tree
        with phase_span(self.tracer, "shrink_upsweep"):
            spans = [(tree.starts[t], tree.ends[t]) for t in self.plan.leaves.nodes]
            omega_loc = [np.ascontiguousarray(omega[a:b]) for a, b in spans]
            y_loc = [y[a:b].copy() for a, b in spans]
        self._subtract(self._dense_rows, y_loc, omega_loc)
        return omega_loc, y_loc

    def init_leaf(
        self, omega: np.ndarray, y: np.ndarray, capacity_hint: int = 0
    ) -> _NodeLevelState:
        """Load the initial global sketch into the leaf level's state."""
        return _NodeLevelState(
            self.plan.tree.depth, self.plan.leaves.nodes, *self._leaf_slabs(omega, y)
        )

    def _shrink_upsweep(
        self, decompositions: Sequence, omega: Blocks, y: Blocks
    ) -> Tuple[Blocks, Blocks]:
        """``Y^{l+1} = Y_loc(J, :)`` and ``Omega^{l+1} = X^T Omega^l =
        Omega^l(J, :) + T Omega^l(redundant, :)``, node by node."""
        with phase_span(self.tracer, "shrink_upsweep"):
            y_next = [block[dec.skeleton] for dec, block in zip(decompositions, y)]
            omega_next = [
                block[dec.skeleton] + dec.T @ block[dec.redundant]
                for dec, block in zip(decompositions, omega)
            ]
        self._products(len(decompositions))
        return y_next, omega_next

    def finish_level(
        self, state: _NodeLevelState, decompositions: Sequence
    ) -> Tuple[int, Blocks, Blocks]:
        """Skeletonise a level.  Algorithm 1 shrinks and upsweeps at every
        level; this store does too, the topmost included, where nothing
        consumes the result."""
        self.records[state.depth] = decompositions
        return (state.depth, *self._shrink_upsweep(decompositions, state.omega, state.y))

    def _merge(
        self, depth: int, y_next: Blocks, omega_next: Blocks
    ) -> Tuple[Blocks, Blocks]:
        """Subtract level ``depth``'s couplings from its shrunk samples (in
        place), then stack sibling pairs into the parents' blocks."""
        self._subtract(self._coupling_rows.get(depth, []), y_next, omega_next)
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
            y_next, omega_next = self._shrink_upsweep(self.records[depth], omega, y)
            omega, y = self._merge(depth, y_next, omega_next)
        return omega, y

    def apply_operands(self) -> None:
        """Nothing marshaled: the matrix compiles its apply plan on first use."""
        return None

    def memory_bytes(self) -> int:
        """No workspace of its own: blocks and row IDs are held by reference."""
        return 0


class LoopConstructor(H2Constructor):
    """:class:`~repro.H2Constructor` over the per-node store."""

    def _new_sweep(self) -> NodeSweep:
        return NodeSweep(self.plan, self.counter, self.tracer)


def matvec_loop(h2: H2Matrix, x: np.ndarray, permuted: bool = False) -> np.ndarray:
    """Per-node H2 apply: upward pass, coupling phase, downward pass, dense
    phase, one ``@`` per node or block.  ``x`` is 1-D or 2-D, in the original
    ordering unless ``permuted``."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    if x.shape[0] != h2.num_rows:
        raise ValueError(
            f"dimension mismatch: matrix has {h2.num_rows} rows, x has {x.shape[0]}"
        )
    tree, basis = h2.tree, h2.basis
    xp = x if permuted else x[tree.perm]
    k = xp.shape[1]
    yp = np.zeros_like(xp)

    # Upward pass: xhat_tau = U_tau^T x_tau at leaves, transfer-accumulated
    # at inner nodes.
    xhat: Dict[int, np.ndarray] = {}
    for node in tree.leaves():
        if basis.has_basis(node):
            u = basis.leaf_bases.get(node)
            if u is None or u.shape[1] == 0:
                xhat[node] = np.zeros((basis.rank(node), k))
            else:
                xhat[node] = u.T @ xp[tree.starts[node] : tree.ends[node]]
    for level in range(tree.depth - 1, 0, -1):
        for node in tree.nodes_at_level(level):
            if not basis.has_basis(node):
                continue
            acc = np.zeros((basis.rank(node), k))
            for child in tree.children(node):
                e = basis.transfers.get(child)
                child_hat = xhat.get(child)
                if e is not None and child_hat is not None and e.size:
                    acc += e.T @ child_hat
            xhat[node] = acc

    # Coupling phase: yhat_s += B_{s,t} xhat_t for every admissible pair.
    yhat: Dict[int, np.ndarray] = {}
    for (s, t), b in h2.coupling.items():
        xt = xhat.get(t)
        if b.size == 0 or xt is None:
            continue
        if s not in yhat:
            yhat[s] = np.zeros((basis.rank(s), k))
        yhat[s] += b @ xt

    # Downward pass: push yhat down the tree and expand at the leaves.
    for level in range(1, tree.depth):
        for node in tree.nodes_at_level(level):
            parent_hat = yhat.get(node)
            if parent_hat is None or tree.is_leaf(node):
                continue
            for child in tree.children(node):
                e = basis.transfers.get(child)
                if e is None or e.size == 0:
                    continue
                if child not in yhat:
                    yhat[child] = np.zeros((basis.rank(child), k))
                yhat[child] += e @ parent_hat
    for node in tree.leaves():
        u = basis.leaf_bases.get(node)
        if node in yhat and u is not None and u.shape[1]:
            yp[tree.starts[node] : tree.ends[node]] += u @ yhat[node]

    # Dense (inadmissible leaf) phase.
    for (s, t), d in h2.dense.items():
        yp[tree.starts[s] : tree.ends[s]] += d @ xp[tree.starts[t] : tree.ends[t]]

    y = yp if permuted else yp[tree.iperm]
    return y[:, 0] if single else y


def low_rank_update_reference_matvec(h2: H2Matrix, low_rank_update=None):
    """Reference (permuted-ordering) matvec of ``h2 + low_rank_update``."""

    def matvec(x: np.ndarray) -> np.ndarray:
        y = h2.matvec(x, permuted=True)
        if low_rank_update is not None:
            y = y + low_rank_update.matvec(x)
        return y

    return matvec


def dense_relative_error(
    approx_dense: np.ndarray, reference_dense: np.ndarray, norm: str = "fro"
) -> float:
    """Exact relative error ``|A - R| / |R|`` in the Frobenius or 2-norm."""
    approx_dense = np.asarray(approx_dense, dtype=np.float64)
    reference_dense = np.asarray(reference_dense, dtype=np.float64)
    if approx_dense.shape != reference_dense.shape:
        raise ValueError("matrices must have identical shapes")
    if norm not in ("fro", "2"):
        raise ValueError("norm must be 'fro' or '2'")
    order = None if norm == "fro" else 2
    denominator = np.linalg.norm(reference_dense, order)
    numerator = np.linalg.norm(approx_dense - reference_dense, order)
    if denominator == 0.0:
        return 0.0 if numerator == 0.0 else np.inf
    return float(numerator / denominator)
