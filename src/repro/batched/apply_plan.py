"""Compiled batched apply engine for H2 matrices.

PR 1 turned every constructed format into a linear-system workload, which makes
``H2Matrix.matvec`` the Krylov hot path — and the reference implementation is a
per-node Python loop over dicts.  The paper's central point (Section IV) is
that all per-node work of a tree level should execute as a *handful of batched
launches*; this module applies the same treatment to the H2 apply that
:mod:`repro.core.builder` already applies to construction.

:func:`compile_apply_plan` flattens an ``H2Matrix`` once into an
:class:`H2ApplyPlan`: a short sequence of per-level *stages*.  Each stage is a
uniform batch of block-row GEMMs in the paper's non-uniform-BSR formulation —
all static blocks sharing a destination (the coupling blocks of a block row,
the dense blocks of a leaf row, the two child transfers of a parent) are
fused side by side into one ``(p, c*q)`` operand, pre-stacked into a
contiguous 3-D array at compile time.  The dynamic per-node vectors (``x̂`` /
``ŷ`` of every level, and the leaf-blocked input/output) live in plain
``(count + 1, rows, k)`` stacks whose last block is the zero sentinel.
Executing the plan walks the stages through a pluggable
:class:`~repro.batched.backend.BatchedBackend` (``batched_gemm_scatter``), so a
matvec costs O(levels) batched dispatches instead of one small GEMM per tree
node, and every dispatch is recorded in the backend's
:class:`~repro.batched.counters.KernelLaunchCounter`.

The forward dense and coupling operands are the matrix's block storage.  The
construction sweep (:mod:`repro.batched.construction_plan`) stacks exactly
these operands for its own subtract launches, and an artifact
(:mod:`repro.persist.serializers`) stores them as they are; the plan of a
constructed or a loaded matrix *adopts* them (``H2ApplyPlan(matrix, dense,
coupling)``) and compiles only the four basis phases.
:meth:`H2ApplyPlan.view_blocks` makes every block of the matrix's dicts a
view of its slot, so each block exists once.

The phases mirror the reference loop exactly:

========================  ====================================================
``apply_leaf``            upward pass at the leaves, ``x̂_tau = U_tau^T x_tau``
``apply_upsweep``         transfer accumulation, ``x̂_p += [E_c1^T E_c2^T] x̂``
``apply_coupling``        coupling rows, ``ŷ_s += [B_{s,t1} … B_{s,tc}] x̂``
``apply_downsweep``       downward pass, ``ŷ_c += E_c ŷ_p``
``apply_expand``          leaf expansion, ``y_tau += U_tau ŷ_tau``
``apply_dense``           dense leaf rows, ``y_s += [D_{s,t1} … D_{s,tc}] x``
========================  ====================================================

The transpose apply (``rmatvec``/``rmatmat``) runs the forward stages: the
bases are shared (``V = U``) and the construction stores every twin block as
the exact transpose of its owner, so ``A^T x`` is ``A x`` bit for bit.  The
plan checks once that the stored pairs are mirrored and otherwise refuses the
transpose apply.  Multi-RHS applies (``matmat``) reuse the same plan — only
the number of columns ``k`` of the hat buffers changes at execution time.

Zero-padding
------------
Batched GPU kernels want uniform batches; the compiler manufactures them with
the block-row marshaling it shares with the construction sweep
(:mod:`repro.batched.block_rows`), with exact zero-padding:

* node ranks are padded to the maximum rank of their level, so every hat
  buffer is a uniform stack;
* leaf blocks of the input/output vectors are padded to the maximum leaf size
  (:class:`~repro.batched.block_rows.LeafLayout`);
* block rows are grouped by fan-in; a fan-in above
  :data:`~repro.batched.block_rows.FAN_PAD` is padded to a multiple of it with
  zero blocks that read the sentinel zero source block;
* each fan group's blocks are padded to the stage's block shape
  (:func:`~repro.batched.block_rows.pad_blocks`) and laid side by side into
  its operand (:func:`~repro.batched.block_rows.fan_operands`).

Padded rows and columns of ``U``/``E``/``B``/``D`` are zero, so the padded hat
entries stay exactly zero through every phase — the compiled apply is
bit-for-bit a reordering of the reference loop's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..observe.tracer import NOOP_TRACER
from .backend import BatchedBackend, get_backend
from .block_rows import (
    FanOperands,
    LeafLayout,
    RowGroup,
    build_row_groups,
    fan_operands,
    pad_blocks,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hmatrix.basis_tree import BasisTree
    from ..hmatrix.h2matrix import H2Matrix
    from ..tree.cluster_tree import ClusterTree


def hat_layout(
    tree: "ClusterTree", basis: "BasisTree"
) -> Tuple[Dict[int, Dict[int, int]], Dict[int, int]]:
    """The per-level hat-vector layout of an apply plan: per level, the
    position of every node carrying a (nonzero-rank) basis, and the largest
    rank, to which the level's hat stack and coupling slots are padded.
    Levels without such a node are omitted."""
    level_pos: Dict[int, Dict[int, int]] = {}
    level_rank: Dict[int, int] = {}
    for level in range(tree.depth, -1, -1):
        nodes = [
            node
            for node in tree.nodes_at_level(level)
            if basis.has_basis(node) and basis.rank(node) > 0
        ]
        if nodes:
            level_pos[level] = {node: i for i, node in enumerate(nodes)}
            level_rank[level] = max(basis.rank(node) for node in nodes)
    return level_pos, level_rank


#: Buffer keys: ``("x",)`` / ``("y",)`` are the leaf-blocked (padded)
#: input/output vectors, ``("hat", level)`` / ``("ghat", level)`` the
#: upward/downward per-level hat vectors.
BufferKey = Tuple


@dataclass(frozen=True, eq=False)
class ApplyStage:
    """One batched launch of block-row GEMMs.

    ``a`` is the contiguous ``(g, p, c*q)`` stack of row operands: slot ``j``
    of row ``i`` holds its block top-left (zero for padding).  ``dest_pos``
    holds the ``g`` (unique) destination block positions and ``src_pos`` the
    ``g*c`` gathered source block positions in the stacks named by
    ``dest``/``src``.
    """

    op: str
    level: int
    dest: BufferKey
    src: BufferKey
    group: RowGroup
    a: np.ndarray

    @property
    def dest_pos(self) -> np.ndarray:
        return self.group.dest_pos

    @property
    def src_pos(self) -> np.ndarray:
        return self.group.src_pos

    @property
    def fan_in(self) -> int:
        return self.group.fan

    @property
    def num_blocks(self) -> int:
        """Number of real (un-padded) block products fused into this stage."""
        return self.group.num_blocks

    @property
    def batch_size(self) -> int:
        return int(self.a.shape[0])

    def flops(self, k: int) -> int:
        """Multiply-add flops of this stage for a ``k``-column apply (padding included)."""
        g, p, cq = self.a.shape
        return int(2 * g * p * cq * k)


@dataclass
class _Phase:
    """The block rows of one (phase, level) before compilation.

    ``rows`` maps a destination position to its ``(source position, block
    index)`` pairs, the index into ``blocks`` (views of the matrix blocks,
    transposed where the stage reads a transpose) and ``keys`` (the block's
    dict key, ``None`` for a basis block); every block is zero-padded to
    ``shape``.
    """

    op: str
    level: int
    dest: BufferKey
    src: BufferKey
    shape: Tuple[int, int]
    sentinel: int
    blocks: List[np.ndarray] = field(default_factory=list)
    keys: List[Optional[Tuple[int, int]]] = field(default_factory=list)
    rows: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)

    def add(
        self, dest_pos: int, src_pos: int, block: np.ndarray,
        key: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.rows.setdefault(dest_pos, []).append((src_pos, len(self.blocks)))
        self.blocks.append(block)
        self.keys.append(key)

    def compile(self) -> FanOperands:
        """One operand per fan group of the rows; each group's blocks are
        padded on their own, so no second copy of a whole phase is held."""
        p, q = self.shape
        groups = build_row_groups(self.rows.items(), self.sentinel)
        operands = [
            fan_operands(group, pad_blocks([self.blocks[i] for i in group.real_blocks], p, q))
            for group in groups
        ]
        return FanOperands(self.keys, groups, operands)

    def stages(self, operands: FanOperands) -> List[ApplyStage]:
        return [
            ApplyStage(self.op, self.level, self.dest, self.src, group, a)
            for group, a in zip(operands.groups, operands.operands)
        ]


class H2ApplyPlan:
    """Per-level batched execution plan of an :class:`~repro.hmatrix.h2matrix.H2Matrix`.

    Build with :func:`compile_apply_plan` (or ``H2Matrix.apply_plan()``, which
    caches the compiled plan on the matrix).  The forward dense and coupling
    stages are either compiled from the matrix's blocks or *adopted*: given as
    fan-grouped operands already in the plan's layout (``dense`` /
    ``coupling``, keyed by level, whose slots the matrix's blocks already
    view), in which case only the four basis phases are compiled.  The
    construction sweep hands over its operands of every level whose nodes all
    carry a nonzero rank (the sweep's positions are then the plan's); a
    loaded artifact hands over the operands :meth:`block_operands` saved.

    :meth:`view_blocks` makes the operands the blocks' only storage: the
    matrix's dense and coupling dicts become views of their slots.  A matrix
    mutated after compilation must recompile (``apply_plan(rebuild=True)``).
    """

    def __init__(
        self,
        matrix: "H2Matrix",
        dense: Optional[FanOperands] = None,
        coupling: Optional[Mapping[int, FanOperands]] = None,
    ):
        tree = matrix.tree
        self.n = tree.num_points
        self.num_levels = tree.num_levels
        self.depth = tree.depth
        self.leaves = LeafLayout(tree)
        self._level_pos, self._level_rank = hat_layout(tree, matrix.basis)

        # The mirror check reads these block dicts.  Holding them, not the
        # matrix (which holds this plan), leaves no reference cycle: a dropped
        # matrix is freed at once instead of at the next cyclic collection.
        self._tree, self._coupling, self._dense = tree, matrix.coupling, matrix.dense
        #: The forward dense/coupling phases with their operands and whether
        #: those were adopted, and the bytes of the blocks stored as views
        #: into them.
        self._block_operands: List[Tuple[_Phase, FanOperands, bool]] = []
        self._viewed_bytes = 0
        self._forward_stages = self._assemble(matrix, dense, coupling or {})
        self._mirrored = False

    # ------------------------------------------------------------ compilation
    @staticmethod
    def _compile(phase: _Phase) -> List[ApplyStage]:
        """One stage per fan group of ``phase``'s rows."""
        return phase.stages(phase.compile())

    def _sweep_stages(self, matrix: "H2Matrix"):
        """Leaf, upsweep, downsweep and expansion stages."""
        tree = matrix.tree
        basis = matrix.basis
        depth = tree.depth
        leaf_level = self._level_pos.get(depth, {})
        r_leaf = self._level_rank.get(depth, 0)
        m = self.leaves.height

        leaf = _Phase(
            "apply_leaf", depth, ("hat", depth), ("x",), (r_leaf, m),
            sentinel=len(self.leaves.nodes),
        )
        expand = _Phase(
            "apply_expand", depth, ("y",), ("ghat", depth), (m, r_leaf),
            sentinel=len(leaf_level),
        )
        for node, pos in leaf_level.items():
            u = basis.leaf_bases.get(node)
            if u is None or u.size == 0:
                continue
            lpos = self.leaves.pos[node]
            leaf.add(pos, lpos, u.T)
            expand.add(lpos, pos, u)

        up: List[ApplyStage] = []
        down: List[ApplyStage] = []
        for level in range(depth, 1, -1):
            child_pos = self._level_pos.get(level)
            parent_pos = self._level_pos.get(level - 1)
            if not child_pos or not parent_pos:
                continue
            rc, rp = self._level_rank[level], self._level_rank[level - 1]
            upsweep = _Phase(
                "apply_upsweep", level, ("hat", level - 1), ("hat", level), (rp, rc),
                sentinel=len(child_pos),
            )
            downsweep = _Phase(
                "apply_downsweep", level, ("ghat", level), ("ghat", level - 1), (rc, rp),
                sentinel=len(parent_pos),
            )
            for child, cpos in child_pos.items():
                e = basis.transfers.get(child)
                parent = tree.parent(child)
                if e is None or e.size == 0 or parent not in parent_pos:
                    continue
                ppos = parent_pos[parent]
                upsweep.add(ppos, cpos, e.T)
                downsweep.add(cpos, ppos, e)
            up.extend(self._compile(upsweep))
            down.extend(self._compile(downsweep))
        down.reverse()  # downsweep pushes root-ward hats before leaf-ward ones
        return self._compile(leaf), up, down, self._compile(expand)

    def _forward(
        self, phase: _Phase, given: Optional[FanOperands]
    ) -> List[ApplyStage]:
        """A forward dense/coupling phase: its given operands, or compiled
        ones; either way remembered for :meth:`view_blocks`."""
        operands = given if given is not None else phase.compile()
        self._block_operands.append((phase, operands, given is not None))
        return phase.stages(operands)

    def _coupling_phase(self, level: int) -> _Phase:
        r = self._level_rank[level]
        return _Phase(
            "apply_coupling", level, ("ghat", level), ("hat", level), (r, r),
            sentinel=len(self._level_pos[level]),
        )

    def _coupling_stages(self, given: Mapping[int, FanOperands]) -> List[ApplyStage]:
        phases = {level: self._coupling_phase(level) for level in given}
        # Walk the blocks only when some lie outside the adopted levels.
        adopted_blocks = sum(len(operands.keys) for operands in given.values())
        pairs = sorted(self._coupling) if adopted_blocks < len(self._coupling) else []
        for (s, t) in pairs:
            block = self._coupling[(s, t)]
            level = self._tree.level_of(s)
            if block.size == 0 or level in given:
                continue
            pos = self._level_pos.get(level)
            if pos is None or s not in pos or t not in pos:
                continue
            if level not in phases:
                phases[level] = self._coupling_phase(level)
            phases[level].add(pos[s], pos[t], block, (s, t))
        stages: List[ApplyStage] = []
        for level in sorted(phases):
            stages += self._forward(phases[level], given.get(level))
        return stages

    def _dense_stages(self, given: Optional[FanOperands]) -> List[ApplyStage]:
        m = self.leaves.height
        phase = _Phase(
            "apply_dense", self.depth, ("y",), ("x",), (m, m),
            sentinel=len(self.leaves.nodes),
        )
        if given is None:
            for (s, t) in sorted(self._dense):
                block = self._dense[(s, t)]
                if block.size == 0:
                    continue
                phase.add(self.leaves.pos[s], self.leaves.pos[t], block, (s, t))
        return self._forward(phase, given)

    def _assemble(
        self,
        matrix: "H2Matrix",
        dense: Optional[FanOperands],
        coupling: Mapping[int, FanOperands],
    ) -> List[ApplyStage]:
        leaf_stages, up, down, expand_stages = self._sweep_stages(matrix)
        return [
            *leaf_stages,
            *up,
            *self._coupling_stages(coupling),
            *down,
            *expand_stages,
            *self._dense_stages(dense),
        ]

    def block_operands(self) -> Tuple[FanOperands, Dict[int, FanOperands]]:
        """The forward dense operands and the coupling operands per level:
        the blocks' storage, in the layout ``H2ApplyPlan(matrix, dense,
        coupling)`` adopts (what an artifact stores)."""
        dense, coupling = None, {}
        for phase, operands, _ in self._block_operands:
            if phase.op == "apply_dense":
                dense = operands
            else:
                coupling[phase.level] = operands
        return dense, coupling

    def view_blocks(self) -> None:
        """Store every dense and coupling block of the compiled-from matrix as
        an exact-shape view of its forward operand slot, so the operands are
        the blocks' only copy; :meth:`memory_bytes` then counts only the bytes
        beyond them (padding and basis operands)."""
        viewed = 0
        for phase, operands, adopted in self._block_operands:
            blocks = self._dense if phase.op == "apply_dense" else self._coupling
            keys = operands.keys
            if not adopted:  # adopted operands' blocks view them already
                views = operands.views([blocks[key].shape for key in keys])
                blocks.update(zip(keys, views))
            viewed += sum(blocks[key].nbytes for key in keys)
        self._viewed_bytes = viewed

    def _check_mirrored(self) -> None:
        """Raise ``ValueError`` unless every stored block pair is mirrored:
        ``B_{t,s}`` is exactly ``B_{s,t}^T`` and ``D_{t,s}`` exactly
        ``D_{s,t}^T``, diagonal blocks included.  Then ``A^T = A`` and the
        forward stages are the transpose apply.  The verdict is kept, so the
        blocks are read once per plan; a matrix edited afterwards recompiles
        (``apply_plan(rebuild=True)``), and its new plan checks again."""
        if self._mirrored:
            return
        for name, blocks in (("coupling", self._coupling), ("dense", self._dense)):
            for (s, t), block in blocks.items():
                twin = blocks.get((t, s))
                if twin is None or (s <= t and not np.array_equal(twin, block.T)):
                    raise ValueError(
                        f"the transpose apply needs mirrored blocks: {name} block "
                        f"({t}, {s}) is not the transpose of ({s}, {t})"
                    )
        self._mirrored = True

    # -------------------------------------------------------------- execution
    def execute(
        self,
        x: np.ndarray,
        backend: BatchedBackend | str = "vectorized",
        transpose: bool = False,
        tracer: object = NOOP_TRACER,
    ) -> np.ndarray:
        """Apply the compiled plan to ``x`` of shape ``(n, k)`` (permuted ordering).

        Under an enabled ``tracer`` (a bound matrix passes its own) the apply
        runs inside an ``apply`` span with the plan's launch deltas, flop
        count and operand bytes; otherwise the only instrumentation cost is
        this ``enabled`` check.
        """
        be = get_backend(backend)
        if not tracer.enabled:
            return self._execute(x, be, transpose)
        with tracer.span(
            "apply", category="apply", n=self.n, transpose=transpose,
            backend=be.name, levels=self.num_levels,
            block_products=self.num_block_products,
        ) as span:
            out = self._execute(x, be, transpose)
            k = out.shape[1]
            operand_bytes = int(sum(s.a.nbytes for s in self._forward_stages))
            span.set(k=k, operand_bytes=operand_bytes)
            span.add_flops(self.flops(k))
            span.add_bytes(operand_bytes + 2 * self.n * k * 8)
        return out

    def _execute(
        self,
        x: np.ndarray,
        be: BatchedBackend,
        transpose: bool = False,
    ) -> np.ndarray:
        """The untraced apply body (also the overhead-test baseline)."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(
                f"plan expects a ({self.n}, k) array in the permuted ordering, "
                f"got shape {x.shape}"
            )
        k = x.shape[1]
        leaf_shape = (len(self.leaves.nodes) + 1, self.leaves.height, k)
        buffers: Dict[BufferKey, np.ndarray] = {
            ("x",): np.zeros(leaf_shape),
            ("y",): np.zeros(leaf_shape),
        }
        self.leaves.load(x, buffers[("x",)])
        for level, pos in self._level_pos.items():
            shape = (len(pos) + 1, self._level_rank[level], k)
            buffers[("hat", level)] = np.zeros(shape)
            buffers[("ghat", level)] = np.zeros(shape)

        if transpose:
            self._check_mirrored()
        for stage in self._forward_stages:
            be.batched_gemm_scatter(
                buffers[stage.dest],
                stage.dest_pos,
                stage.a,
                buffers[stage.src],
                stage.src_pos,
                operation=stage.op,
            )
        return self.leaves.read(buffers[("y",)], np.empty_like(x))

    # ------------------------------------------------------------- statistics
    @property
    def stages(self) -> List[ApplyStage]:
        return list(self._forward_stages)

    @property
    def num_stages(self) -> int:
        """Batched dispatches (= launches) per forward apply."""
        return len(self._forward_stages)

    @property
    def num_block_products(self) -> int:
        """Real per-node block GEMMs fused into the stages (the per-node loop's count)."""
        return sum(stage.num_blocks for stage in self._forward_stages)

    def flops(self, k: int = 1) -> int:
        """Multiply-add flops of one ``k``-column forward apply (padding included)."""
        return sum(stage.flops(k) for stage in self._forward_stages)

    def memory_bytes(self) -> int:
        """Bytes held by the pre-stacked static operand arrays, less the
        matrix blocks stored in them (:meth:`view_blocks`)."""
        total = sum(stage.a.nbytes for stage in self._forward_stages)
        return int(total - self._viewed_bytes)

    def stage_counts(self) -> Dict[str, int]:
        """Number of batched dispatches per phase, e.g. ``{"apply_coupling": 7, ...}``."""
        counts: Dict[str, int] = {}
        for stage in self._forward_stages:
            counts[stage.op] = counts.get(stage.op, 0) + 1
        return counts

    def describe(self) -> str:
        counts = self.stage_counts()
        phases = ", ".join(f"{op}={n}" for op, n in sorted(counts.items()))
        return (
            f"H2ApplyPlan(n={self.n}, levels={self.num_levels}, "
            f"stages={self.num_stages} [{phases}], "
            f"block_products={self.num_block_products})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return self.describe()


def compile_apply_plan(matrix: "H2Matrix") -> H2ApplyPlan:
    """Flatten ``matrix`` into a batched per-level :class:`H2ApplyPlan`.

    The compilation walks every basis, transfer, coupling and dense block
    exactly once, fuses the blocks of each block row side by side (the
    non-uniform BSR row formulation), zero-pads ranks, leaf sizes and row
    fan-ins to uniform shapes, and stacks every (level, phase, fan-in) group
    into one contiguous 3-D operand array; the returned plan applies the
    matrix (and its transpose) to any number of right-hand-side columns
    through a pluggable batched backend in O(levels) launches.
    """
    return H2ApplyPlan(matrix)
