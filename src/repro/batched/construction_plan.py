"""Compiled batched execution engine for the construction sweep.

PR 2 compiled the H2 *apply* into O(levels) batched launches
(:mod:`repro.batched.apply_plan`); this module applies the same treatment to
the *construction* upward sweep of :mod:`repro.core.builder`, which had
remained a per-node Python loop (per-node ``omega[start:end]`` slices,
dict-of-ragged-arrays sweep state, per-node ``hstack`` re-copies on every
adaptive sampling round) and had become the dominant cost of every
hyperparameter sweep.

Two pieces cooperate:

:class:`ConstructionPlan`
    The *static* (kernel-independent) packing of one ``(tree, partition)``
    pair: the leaf layout turning the global sketch ``(n, d)`` into a
    zero-padded uniform ``(leaves + 1, m_pad, d)`` stack, the fan-grouped
    block-row structure of the dense (inadmissible leaf) BSR product, and the
    per-level fan-grouped block-row structure of the coupling BSR products —
    marshaled by :mod:`repro.batched.block_rows`, as the compiled apply is.
    Every construction compiles its own, including each construction of a
    :class:`~repro.api.facade.Session` sweep.

:class:`PackedSweepEngine`
    The per-construction executor.  It owns the :class:`_LevelState` sample
    buffers — preallocated ``(count + 1, m_pad, capacity)`` stacks (the last
    block is the sentinel zero block read by fan-in padding) into which
    adaptive sampling rounds write only the *new* columns instead of
    re-copying every node's sample block — the fan-grouped dense and coupling
    operands, and the per-level *replay records* (skeleton/redundant row
    gather maps, the stacked ID coefficients ``T``, child-to-parent merge
    maps) that push freshly drawn samples up the tree (``updateSamples``) in
    O(levels) batched launches per round.  The random inputs are projected
    as ``X^T Omega = Omega(J) + T Omega(redundant)``: the identity block of
    ``X = P [I; T^T]`` is a gather, never a multiply.
    Lifecycle, driven by ``H2Constructor._run_levels``: ``load_dense`` →
    ``init_leaf`` → per level ``finish_level`` → ``load_couplings`` →
    ``merge_to_parent``, with ``sweep_slab`` + ``state.append`` for every
    adaptive round.  It is the only sample store of the product; the
    per-node reference store of the test-suite (``tests/oracles.py``) has the
    same lifecycle.

All heavy steps execute through the pluggable
:class:`~repro.batched.backend.BatchedBackend` (``batched_gemm_scatter`` for
sketch accumulation, ``batched_min_r_diag`` on the packed stacks for the
convergence test, the rank-grouped ``batched_row_id`` for the IDs), so the
serial and vectorized backends run the identical schedule.  Zero-padding is
exact everywhere — padded operand rows/columns are zero, padded sample rows
stay zero through every launch — so the packed sweep reproduces the per-node
reference sweep's skeleton selections at fixed seed (launch fusion only
reorders floating-point accumulations at the ~1e-15 level).

**Launch schedule.**  A sample slab (the first block, then one per further
adaptive round) is loaded at the leaves and carried up through every level
already skeletonised below the level that asked for it.  With ``rounds_d`` the
sampling rounds of depth ``d``, ``slabs = 1 + sum_d (rounds_d - 1)`` and
``passes_d = 1 + sum_{d' < d} (rounds_d' - 1)`` the slabs carried through depth
``d`` (every depth below ``top_depth``), the sweep issues

====================  ====================================================
``batched_rand``      ``slabs``
``construct_dense``   ``slabs * (dense fan groups)``
``construct_coupling``  ``sum_d passes_d * (coupling fan groups of d)``
``construct_upsweep``   ``sum_d passes_d`` over the depths whose ID left a
                      redundant row (``t_pad > 0``)
``batched_gather``    ``slabs + 2 * sum_d passes_d`` (leaf load; per level
                      the ``[J; redundant]`` row gather and the sibling merge)
``batched_qr``        ``sum_d rounds_d`` (adaptive constructions)
====================  ====================================================

which :meth:`ConstructionPlan.launch_schedule` computes and the tests hold
against ``ConstructionResult.kernel_launches``.  ``batched_gen`` and, on the
vectorized backend, ``batched_id`` count *shape groups* and are not a function
of the schedule; ``batched_gen`` counts those of the evaluated half of the
blocks (below).

**Mirrored pairs.**  The matrix is symmetric and so is its partition: the
block list of a level holds ``(s, t)`` and ``(t, s)`` alike, and ``D_{t,s} =
D_{s,t}^T``, ``B_{t,s} = B_{s,t}^T``.  :class:`PairMirror` splits each list
once (pure geometry) into the *owners* ``s <= t``, the only blocks the entry
extractor is asked for, and their twins, which one transposed copy fills in
a transient padded extraction stack.  A ``(q, p)`` twin shape no longer forms
a shape group of its own.

**One copy of every block.**  The padded stack lives only inside
``load_dense`` / ``load_couplings``: it is marshaled into the fan-grouped
subtract operands (:class:`~repro.batched.block_rows.FanOperands`, owners and
twins each at their own slot) and dropped.  Those operands are what the
compiled apply of the finished matrix reads
(:meth:`PackedSweepEngine.apply_operands`, adopted by
:class:`~repro.batched.apply_plan.H2ApplyPlan` at every level whose nodes all
carry a nonzero rank) and what an artifact of the matrix stores
(:mod:`repro.persist.serializers`), and the blocks the constructor stores are
views into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observe.tracer import phase_span
from .backend import BatchedBackend
from .block_rows import FanOperands, LeafLayout, RowGroup, build_row_groups, pad_blocks
from .counters import KernelLaunchCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sketching.entry_extractor import EntryExtractor
    from ..tree.block_partition import BlockPartition

Request = Tuple[np.ndarray, np.ndarray]

#: The operands of a level without admissible blocks.
_NO_OPERANDS = FanOperands((), (), ())


@dataclass(frozen=True)
class PairMirror:
    """The evaluated half of a symmetric list of block pairs.

    ``owners`` index the pairs ``(s, t)`` with ``s <= t`` — plus any pair
    whose twin ``(t, s)`` is not in the list; block ``twins[i]`` is the
    transpose of block ``sources[i]``.
    """

    owners: np.ndarray
    twins: np.ndarray
    sources: np.ndarray

    @classmethod
    def of(cls, pairs: Sequence[Tuple[int, int]]) -> "PairMirror":
        position = {pair: i for i, pair in enumerate(pairs)}
        owners: List[int] = []
        twins: List[int] = []
        sources: List[int] = []
        for i, (s, t) in enumerate(pairs):
            source = position.get((t, s)) if s > t else None
            if source is None:
                owners.append(i)
            else:
                twins.append(i)
                sources.append(source)
        return cls(*(np.asarray(v, dtype=np.int64) for v in (owners, twins, sources)))

    @property
    def nbytes(self) -> int:
        return int(self.owners.nbytes + self.twins.nbytes + self.sources.nbytes)


class ConstructionPlan:
    """Static packing of the construction sweep for one ``(tree, partition)``.

    Everything here depends only on the geometry — node orderings, leaf index
    ranges, near/far block structure — so a single plan serves every kernel
    parameter point of a hyperparameter sweep (the dynamic, rank-dependent
    state lives in :class:`PackedSweepEngine`).
    """

    def __init__(self, partition: "BlockPartition"):
        self.partition = partition
        self.tree = partition.tree
        tree = self.tree
        #: The global sketch ``(n, d)`` as a zero-padded ``(leaves + 1,
        #: height, d)`` stack.
        self.leaves = LeafLayout(tree)

        # ----------------------------------------- dense (leaf) BSR structure
        self.dense_pairs: List[Tuple[int, int]] = []
        dense_rows: List[Tuple[int, List[Tuple[int, int]]]] = []
        for i, tau in enumerate(self.leaves.nodes):
            blocks = []
            for b in partition.near(tau):
                blocks.append((self.leaves.pos[b], len(self.dense_pairs)))
                self.dense_pairs.append((tau, b))
            dense_rows.append((i, blocks))
        self.dense_groups = build_row_groups(dense_rows, sentinel=self.num_leaves)
        self.dense_mirror = PairMirror.of(self.dense_pairs)

        # ------------------------------------- per-level coupling structure
        #: ``coupling_pairs[depth]`` lists the level's far pairs in the
        #: reference loop's order; ``coupling_groups[depth]`` the fan-grouped
        #: block-row structure over the level's node positions,
        #: ``coupling_mirrors[depth]`` the pairs evaluated and mirrored.
        self.coupling_pairs: Dict[int, List[Tuple[int, int]]] = {}
        self.coupling_groups: Dict[int, List[RowGroup]] = {}
        self.coupling_mirrors: Dict[int, PairMirror] = {}
        self.level_nodes: Dict[int, List[int]] = {}
        for depth in range(tree.depth, -1, -1):
            nodes = list(tree.nodes_at_level(depth))
            self.level_nodes[depth] = nodes
            node_pos = {node: i for i, node in enumerate(nodes)}
            pairs: List[Tuple[int, int]] = []
            rows: List[Tuple[int, List[Tuple[int, int]]]] = []
            for i, tau in enumerate(nodes):
                blocks = []
                for b in partition.far(tau):
                    blocks.append((node_pos[b], len(pairs)))
                    pairs.append((tau, b))
                rows.append((i, blocks))
            self.coupling_pairs[depth] = pairs
            self.coupling_groups[depth] = build_row_groups(rows, sentinel=len(nodes))
            self.coupling_mirrors[depth] = PairMirror.of(pairs)
        #: Shallowest depth carrying admissible blocks, where the upward sweep
        #: stops (``None`` for a fully dense partition).
        self.top_depth: Optional[int] = min(
            (depth for depth, pairs in self.coupling_pairs.items() if pairs),
            default=None,
        )

    @property
    def num_leaves(self) -> int:
        return len(self.leaves.nodes)

    def memory_bytes(self) -> int:
        """Bytes held by the static leaf mask, grouping and mirror arrays."""
        total = self.leaves.mask.nbytes
        for groups in [self.dense_groups, *self.coupling_groups.values()]:
            for g in groups:
                total += g.dest_pos.nbytes + g.src_pos.nbytes + g.block_req.nbytes
        for mirror in [self.dense_mirror, *self.coupling_mirrors.values()]:
            total += mirror.nbytes
        return int(total)

    def sweep_workspace_bytes(self, columns: int) -> int:
        """Peak bytes a :class:`PackedSweepEngine` allocates at the leaf level
        for ``columns`` sample columns: the transient padded dense stack, the
        fan-grouped operands it becomes (the matrix's dense storage) and the
        ``omega``/``y`` sample stacks (float64)."""
        height = self.leaves.height
        block = height * height
        dense_stack = len(self.dense_pairs) * block
        dense_operands = sum(g.num_rows * g.fan for g in self.dense_groups) * block
        samples = 2 * (self.num_leaves + 1) * height * columns
        return 8 * (dense_stack + dense_operands + samples)

    def launch_schedule(
        self,
        rounds: Dict[int, int],
        upsweep_depths: Collection[int],
        adaptive: bool = True,
    ) -> Dict[str, int]:
        """Launches of a compiled construction, per operation (module docstring).

        ``rounds[depth]`` is the level's ``LevelReport.sampling_rounds`` for
        every depth from the leaves to ``top_depth``; ``upsweep_depths`` the
        depths at which some node kept fewer skeleton rows than it had rows.
        """
        slabs = 1 + sum(r - 1 for r in rounds.values())
        schedule = {
            "batched_rand": slabs,
            "batched_gather": slabs,
            "construct_dense": slabs * len(self.dense_groups),
            "construct_coupling": 0,
            "construct_upsweep": 0,
        }
        if adaptive:
            schedule["batched_qr"] = sum(rounds.values())
        passes = 1
        for depth in range(self.top_depth + 1, self.tree.depth + 1):
            passes += rounds[depth - 1] - 1
            schedule["batched_gather"] += 2 * passes
            schedule["construct_coupling"] += passes * len(self.coupling_groups[depth])
            schedule["construct_upsweep"] += passes * (depth in upsweep_depths)
        return {op: count for op, count in schedule.items() if count}

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ConstructionPlan(n={self.tree.num_points}, leaves={self.num_leaves}, "
            f"dense_blocks={len(self.dense_pairs)}, "
            f"coupling_blocks={sum(len(p) for p in self.coupling_pairs.values())})"
        )


class _LevelState:
    """Packed sample-sweep state of one tree level.

    ``y``/``omega`` are ``(count + 1, m_pad, capacity)`` stacks — block ``i``
    holds node ``i``'s sample block in its first ``heights[i]`` rows and first
    ``cols`` columns, everything else is exactly zero, and block ``count`` is
    the sentinel zero block addressed by fan-in padding.  Appending a sampling
    round's new columns writes into the preallocated capacity (amortised
    doubling) instead of re-copying every node's block.
    """

    def __init__(
        self,
        depth: int,
        nodes: Sequence[int],
        heights: np.ndarray,
        m_pad: int,
        cols: int,
        capacity: int,
    ):
        self.depth = int(depth)
        self.nodes = list(nodes)
        self.count = len(self.nodes)
        self.heights = np.asarray(heights, dtype=np.int64)
        self.m_pad = int(m_pad)
        self.cols = int(cols)
        capacity = max(int(capacity), self.cols)
        self.y = np.zeros((self.count + 1, self.m_pad, capacity), dtype=np.float64)
        self.omega = np.zeros_like(self.y)

    @property
    def capacity(self) -> int:
        return int(self.y.shape[2])

    # Active column windows (sentinel included for gemm-scatter addressing).
    @property
    def y_view(self) -> np.ndarray:
        return self.y[:, :, : self.cols]

    @property
    def omega_view(self) -> np.ndarray:
        return self.omega[:, :, : self.cols]

    @property
    def y_active(self) -> np.ndarray:
        """The real nodes' sample blocks (sentinel excluded), for convergence."""
        return self.y[: self.count, :, : self.cols]

    def node_block(self, i: int, padded: bool = False) -> np.ndarray:
        """Node ``i``'s sample block ``Y_loc`` (exact height unless ``padded``)."""
        rows = self.m_pad if padded else int(self.heights[i])
        return self.y[i, :rows, : self.cols]

    def node_blocks(self) -> List[np.ndarray]:
        """Every node's exact-height sample block, the row ID's input."""
        return [self.node_block(i) for i in range(self.count)]

    def _grow(self, needed: int) -> None:
        capacity = max(2 * self.capacity, needed)
        for name in ("y", "omega"):
            old = getattr(self, name)
            fresh = np.zeros(
                (self.count + 1, self.m_pad, capacity), dtype=np.float64
            )
            fresh[:, :, : self.cols] = old[:, :, : self.cols]
            setattr(self, name, fresh)

    def append(self, omega_slab: np.ndarray, y_slab: np.ndarray) -> None:
        """Append one sampling round's columns (``(count + 1, m_pad, b)`` slabs)."""
        b = int(y_slab.shape[2])
        if self.cols + b > self.capacity:
            self._grow(self.cols + b)
        self.y[:, :, self.cols : self.cols + b] = y_slab
        self.omega[:, :, self.cols : self.cols + b] = omega_slab
        self.cols += b


@dataclass
class _ReplayRecord:
    """Everything needed to replay one skeletonised level on fresh samples.

    The gather maps are ``(node, row)`` index pairs into the level's
    ``(count + 1, m_pad, b)`` sample stacks.  Padded slots — and the whole
    extra last block of ``shrink_*`` / ``merge_*`` — address row 0 of the
    sentinel zero block, so a gather needs no mask and returns a stack that
    already carries its own sentinel.
    """

    depth: int
    count: int
    r_pad: int
    #: Skeleton rows ``J`` of every node: ``(count + 1, r_pad)``.
    shrink_node: np.ndarray
    shrink_row: np.ndarray
    #: ``(count, r_pad, t_pad)`` stack of the IDs' coefficient matrices ``T``
    #: and the ``(count, t_pad)`` gather of the redundant rows they multiply;
    #: all ``None`` when no node of the level has a redundant row.
    t_stack: Optional[np.ndarray]
    rest_node: Optional[np.ndarray]
    rest_row: Optional[np.ndarray]
    #: Child-to-parent merge gather (into the *next* level's packed stack):
    #: ``(parents + 1, max parent height)`` indices into this level's shrunk stacks.
    parent_nodes: List[int]
    parent_heights: np.ndarray
    merge_node: np.ndarray
    merge_row: np.ndarray


class PackedSweepEngine:
    """Per-construction executor of the packed level-wise construction sweep.

    Owns the dynamic (kernel- and rank-dependent) state: the fan-grouped
    dense and coupling operands (the blocks' only storage, handed to the
    finished matrix's apply plan by :meth:`apply_operands`), the per-level
    :class:`_LevelState` sample buffers and the :class:`_ReplayRecord` chain
    used by ``updateSamples``.  The driving
    :class:`~repro.core.builder.H2Constructor` keeps all numerical decisions
    (convergence, tolerances, IDs, skeleton bookkeeping); the engine only
    marshals packed buffers and issues batched launches —
    :meth:`ConstructionPlan.launch_schedule` states how many.
    """

    def __init__(
        self,
        plan: ConstructionPlan,
        backend: BatchedBackend,
        tracer: object,
    ):
        self.plan = plan
        self.backend = backend
        self.counter: KernelLaunchCounter = backend.counter
        self.tracer = tracer
        self.records: Dict[int, _ReplayRecord] = {}
        #: Largest rank of every skeletonised level: its coupling padding.
        self.level_rank: Dict[int, int] = {}
        self.dense_ops: Optional[FanOperands] = None
        self.coupling_ops: Dict[int, FanOperands] = {}

    # ------------------------------------------------------------- marshaling
    def _gather(self, launches: int = 1) -> None:
        self.counter.record("batched_gather", launches)

    def _extract(
        self,
        extractor: "EntryExtractor",
        requests: Sequence[Request],
        mirror: PairMirror,
        pad: int,
    ) -> np.ndarray:
        """The ``(len(requests), pad, pad)`` zero-padded stack of all requested
        blocks: the owners evaluated straight into it, each twin one
        transposed copy of its owner (square padding keeps both in place)."""
        padded = np.zeros((len(requests), pad, pad), dtype=np.float64)
        with phase_span(self.tracer, "entry_generation"):
            extractor.extract_blocks_into(
                padded,
                mirror.owners,
                [requests[i] for i in mirror.owners],
                counter=self.counter,
            )
            padded[mirror.twins] = padded[mirror.sources].transpose(0, 2, 1)
        return padded

    def _operands(
        self, keys: Sequence[Tuple[int, int]], groups: Sequence[RowGroup],
        padded: np.ndarray, requests: Sequence[Request],
    ) -> Tuple[FanOperands, List[np.ndarray]]:
        """Marshal the padded extraction into fan-grouped operands, and every
        block as an exact-shape view of its slot (the padding is exact
        zeros); ``padded`` is garbage once the caller returns."""
        with phase_span(self.tracer, "misc"):
            operands = FanOperands.from_padded(keys, groups, padded)
            return operands, operands.views(
                [(len(rows), len(cols)) for rows, cols in requests]
            )

    def load_dense(
        self, extractor: "EntryExtractor", requests: Sequence[Request]
    ) -> List[np.ndarray]:
        """Evaluate ``plan.dense_pairs`` in one padded ``batchedGen`` launch
        (the owners only, twins mirrored) into the fan-grouped dense-subtract
        operands; returns the blocks as views into them."""
        plan = self.plan
        padded = self._extract(
            extractor, requests, plan.dense_mirror, plan.leaves.height
        )
        self.dense_ops, blocks = self._operands(
            plan.dense_pairs, plan.dense_groups, padded, requests
        )
        return blocks

    def load_couplings(
        self, depth: int, extractor: "EntryExtractor", requests: Sequence[Request]
    ) -> List[np.ndarray]:
        """Evaluate ``plan.coupling_pairs[depth]`` at the level's skeletons
        (the owners only, twins mirrored) into the level's fan-grouped
        coupling operands, padded to the level's largest rank; returns the
        blocks as views into them.

        Below ``plan.top_depth`` the operands are also the level's
        coupling-subtract launches.
        """
        plan = self.plan
        padded = self._extract(
            extractor, requests, plan.coupling_mirrors[depth], self.level_rank[depth]
        )
        self.coupling_ops[depth], blocks = self._operands(
            plan.coupling_pairs[depth], plan.coupling_groups[depth], padded, requests
        )
        return blocks

    def apply_operands(self) -> Tuple[FanOperands, Dict[int, FanOperands]]:
        """The dense and per-depth coupling operands, for the finished
        matrix's :class:`~repro.batched.apply_plan.H2ApplyPlan` to adopt."""
        return self.dense_ops, self.coupling_ops

    def _load_leaves(
        self,
        omega: np.ndarray,
        y: np.ndarray,
        omega_stack: np.ndarray,
        y_stack: np.ndarray,
    ) -> None:
        """Gather global ``(n, b)`` sketches into zeroed ``(leaves + 1, m_pad, b)``
        stacks (one marshaling launch) and subtract the dense part:
        ``y -= D @ omega``, one launch per fan group."""
        with phase_span(self.tracer, "shrink_upsweep"):
            self.plan.leaves.load(omega, omega_stack)
            self.plan.leaves.load(y, y_stack)
            self._gather()
        with phase_span(self.tracer, "bsr_gemm"):
            for group, a in zip(self.dense_ops.groups, self.dense_ops.operands):
                self.backend.batched_gemm_scatter(
                    y_stack,
                    group.dest_pos,
                    a,
                    omega_stack,
                    group.src_pos,
                    alpha=-1.0,
                    operation="construct_dense",
                )

    # ---------------------------------------------------------- level lifecycle
    def init_leaf(
        self, omega: np.ndarray, y: np.ndarray, capacity_hint: int = 0
    ) -> _LevelState:
        """Load the initial global sketch into the leaf level's packed state."""
        plan = self.plan
        state = _LevelState(
            depth=plan.tree.depth,
            nodes=plan.leaves.nodes,
            heights=plan.leaves.sizes,
            m_pad=plan.leaves.height,
            cols=int(omega.shape[1]),
            capacity=max(capacity_hint, int(omega.shape[1])),
        )
        self._load_leaves(omega, y, state.omega_view, state.y_view)
        return state

    def finish_level(
        self, state: _LevelState, decompositions: Sequence
    ) -> Optional[Tuple[_ReplayRecord, np.ndarray, np.ndarray]]:
        """Skeletonise a level: build its replay record, shrink & upsweep.

        Returns the stored :class:`_ReplayRecord` plus the shrunk samples and
        upswept inputs as ``(count + 1, r_pad, cols)`` stacks (sentinel zero
        block last) — or ``None`` at ``plan.top_depth``, where the sweep ends
        and nothing would read them.
        """
        self.level_rank[state.depth] = max((d.rank for d in decompositions), default=0)
        if state.depth == self.plan.top_depth:
            return None
        with phase_span(self.tracer, "shrink_upsweep"):
            record = self._build_record(state, decompositions)
            self.records[state.depth] = record
        return (record, *self._shrink_upsweep(record, state.omega_view, state.y_view))

    def _build_record(
        self, state: _LevelState, decompositions: Sequence
    ) -> _ReplayRecord:
        """Pack a level's row IDs ``(J, redundant, T)`` into gather maps and the
        ``T`` stack, plus the child-to-parent merge gather: a parent's rows are
        its children's stacked skeleton rows."""
        count = state.count
        ranks = [dec.rank for dec in decompositions]
        r_pad = max(ranks, default=0)
        t_pad = max((len(dec.redundant) for dec in decompositions), default=0)
        shrink_node = np.full((count + 1, r_pad), count, dtype=np.int64)
        shrink_row = np.zeros((count + 1, r_pad), dtype=np.int64)
        for i, dec in enumerate(decompositions):
            shrink_node[i, : dec.rank] = i
            shrink_row[i, : dec.rank] = dec.skeleton
        t_stack = rest_node = rest_row = None
        if t_pad:
            t_stack = pad_blocks([dec.T for dec in decompositions], r_pad, t_pad)
            rest_node = np.full((count, t_pad), count, dtype=np.int64)
            rest_row = np.zeros((count, t_pad), dtype=np.int64)
            for i, dec in enumerate(decompositions):
                rest = len(dec.redundant)
                rest_node[i, :rest] = i
                rest_row[i, :rest] = dec.redundant

        tree = self.plan.tree
        parents = self.plan.level_nodes[state.depth - 1]
        child_pos = {node: i for i, node in enumerate(state.nodes)}
        siblings = [
            [child_pos[child] for child in tree.children(tau)] for tau in parents
        ]
        heights = np.array(
            [ranks[c1] + ranks[c2] for c1, c2 in siblings], dtype=np.int64
        )
        m_pad = int(heights.max(initial=0))
        merge_node = np.full((len(parents) + 1, m_pad), count, dtype=np.int64)
        merge_row = np.zeros((len(parents) + 1, m_pad), dtype=np.int64)
        for i, (c1, c2) in enumerate(siblings):
            r1, r2 = ranks[c1], ranks[c2]
            merge_node[i, :r1] = c1
            merge_row[i, :r1] = np.arange(r1)
            merge_node[i, r1 : r1 + r2] = c2
            merge_row[i, r1 : r1 + r2] = np.arange(r2)
        return _ReplayRecord(
            depth=state.depth,
            count=count,
            r_pad=r_pad,
            shrink_node=shrink_node,
            shrink_row=shrink_row,
            t_stack=t_stack,
            rest_node=rest_node,
            rest_row=rest_row,
            parent_nodes=list(parents),
            parent_heights=heights,
            merge_node=merge_node,
            merge_row=merge_row,
        )

    def _shrink_upsweep(
        self, record: _ReplayRecord, omega_stack: np.ndarray, y_stack: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``Y^{l+1} = Y_loc(J, :)`` and ``Omega^{l+1} = X^T Omega^l`` over a
        level's ``(count + 1, m_pad, b)`` stacks.

        One marshaling launch gathers the skeleton rows of both stacks and the
        redundant rows of ``Omega``; ``X^T Omega = Omega(J) + T Omega(redundant)``
        is then one GEMM over the ``T`` stack — none when the level has no
        redundant row, where ``X`` is a permutation.
        """
        with phase_span(self.tracer, "shrink_upsweep"):
            y_next = y_stack[record.shrink_node, record.shrink_row]
            omega_next = omega_stack[record.shrink_node, record.shrink_row]
            if record.t_stack is not None:
                omega_rest = omega_stack[record.rest_node, record.rest_row]
            self._gather()
            if record.t_stack is not None:
                nodes = np.arange(record.count, dtype=np.int64)
                self.backend.batched_gemm_scatter(
                    omega_next,
                    nodes,
                    record.t_stack,
                    omega_rest,
                    nodes,
                    operation="construct_upsweep",
                )
        return y_next, omega_next

    def _merge(
        self, record: _ReplayRecord, y_next: np.ndarray, omega_next: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Level ``record.depth``'s shrunk stacks to its parents' ``(parents + 1,
        parent height, b)`` stacks: subtract the couplings, ``Y^{l+1} -= B @
        Omega^{l+1}`` (one launch per fan group), then stack sibling pairs
        (one marshaling launch)."""
        operands = self.coupling_ops.get(record.depth, _NO_OPERANDS)
        with phase_span(self.tracer, "bsr_gemm"):
            for group, a in zip(operands.groups, operands.operands):
                self.backend.batched_gemm_scatter(
                    y_next,
                    group.dest_pos,
                    a,
                    omega_next,
                    group.src_pos,
                    alpha=-1.0,
                    operation="construct_coupling",
                )
        with phase_span(self.tracer, "shrink_upsweep"):
            y_merged = y_next[record.merge_node, record.merge_row]
            omega_merged = omega_next[record.merge_node, record.merge_row]
            self._gather()
        return omega_merged, y_merged

    def merge_to_parent(
        self,
        record: _ReplayRecord,
        y_next: np.ndarray,
        omega_next: np.ndarray,
        capacity_hint: int = 0,
    ) -> _LevelState:
        """Build the parent level's packed state from a skeletonised level
        (the reference loop's inner-level prologue)."""
        omega_merged, y_merged = self._merge(record, y_next, omega_next)
        d = int(y_merged.shape[2])
        state = _LevelState(
            depth=record.depth - 1,
            nodes=record.parent_nodes,
            heights=record.parent_heights,
            m_pad=int(y_merged.shape[1]),
            cols=d,
            capacity=max(capacity_hint, d),
        )
        with phase_span(self.tracer, "shrink_upsweep"):
            state.y[:, :, :d] = y_merged
            state.omega[:, :, :d] = omega_merged
        return state

    # --------------------------------------------------------------- replay
    def sweep_slab(
        self, new_omega: np.ndarray, new_y: np.ndarray, to_depth: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``updateSamples``: push fresh sample columns up to ``to_depth``.

        Replays the already-skeletonised levels on the ``(n, b)`` slab —
        leaf gather, dense subtract, then per level the shrink/upsweep, the
        coupling subtracts and the merge gather — and returns ``(omega, y)``
        slabs ready to append to the packed state at ``to_depth``.  O(levels)
        launches total, no per-node Python state.
        """
        plan = self.plan
        shape = (plan.num_leaves + 1, plan.leaves.height, int(new_omega.shape[1]))
        omega_stack = np.zeros(shape, dtype=np.float64)
        y_stack = np.zeros(shape, dtype=np.float64)
        self._load_leaves(new_omega, new_y, omega_stack, y_stack)
        for depth in range(plan.tree.depth, to_depth, -1):
            record = self.records[depth]
            shrunk = self._shrink_upsweep(record, omega_stack, y_stack)
            omega_stack, y_stack = self._merge(record, *shrunk)
        return omega_stack, y_stack

    # ------------------------------------------------------------- statistics
    def memory_bytes(self) -> int:
        """Bytes of the replay records' ``T`` stacks: the dense and coupling
        operands are the constructed matrix's storage, accounted there."""
        return int(sum(
            record.t_stack.nbytes
            for record in self.records.values()
            if record.t_stack is not None
        ))
