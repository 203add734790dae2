"""All of the marshaling: variable-size blocks into padded uniform stacks.

The paper's GPU contribution is the marshaling step: the variable-size work of
all nodes on a tree level becomes a few uniform batched launches.  This module
is the only code that writes ragged blocks into padded stacks; the compiled
apply (:mod:`repro.batched.apply_plan`), the compiled construction sweep
(:mod:`repro.batched.construction_plan`) and the HSS factorization
(:mod:`repro.solvers.hss_factor`) all call it.  The two compiled engines
phrase a level's block products as non-uniform BSR *block rows* ``(dest,
[(src, block_index), ...])`` over plain ``(count + 1, rows, k)`` stacks whose
last block is the *sentinel*, which stays zero:

* :func:`pad_blocks` writes ragged 2-D blocks top-left into a zeroed
  ``(g, rows, cols)`` stack;
* :func:`build_row_groups` groups the rows by bucketed fan-in
  (:func:`fan_bucket`), one launch per group; a row shorter than its bucket is
  padded with zero blocks that read the sentinel;
* :func:`fan_operands` lays a group's padded blocks side by side into its
  ``(g, p, fan * q)`` GEMM operand;
* :class:`FanOperands` keeps a keyed block list as those operands — the only
  copy of the blocks: :meth:`FanOperands.views` hands each block back as an
  exact-shape view of its slot, and :meth:`FanOperands.check` holds operands
  read back from an artifact to that layout;
* :class:`LeafLayout` lays the leaf blocks of an ``(n, k)`` array out as a
  zero-padded ``(leaves + 1, height, k)`` stack and reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tree.cluster_tree import ClusterTree

#: Fan-in bucket width of the block-row groups.
FAN_PAD = 4


def fan_bucket(fan: int) -> int:
    """Bucketed row fan-in: exact up to :data:`FAN_PAD`, multiples of it above.

    Small fans (the sweeps' 1-2 blocks per row) stay exact — padding them
    would multiply the operand bytes — while wide coupling/dense rows
    collapse into a handful of fan groups.
    """
    if fan <= FAN_PAD:
        return fan
    return ((fan + FAN_PAD - 1) // FAN_PAD) * FAN_PAD


@dataclass(frozen=True)
class RowGroup:
    """A fan-in group of block rows: one batched launch.

    ``dest_pos[i]`` is the destination block of row ``i`` and
    ``src_pos[i * fan + j]`` the source block of its ``j``-th slot (the
    sentinel block for padded slots).  ``block_req[i * fan + j]`` indexes the
    caller's block list (``-1`` for padding); :func:`fan_operands` stacks the
    blocks into the ``(g, p, fan * q)`` GEMM operand.
    """

    fan: int
    dest_pos: np.ndarray
    src_pos: np.ndarray
    block_req: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.dest_pos.shape[0])

    @property
    def num_blocks(self) -> int:
        """Real (un-padded) blocks of the group."""
        return int(np.count_nonzero(self.block_req >= 0))

    @property
    def real_blocks(self) -> np.ndarray:
        """The caller's block indices of the real slots, in slot order."""
        return self.block_req[self.block_req >= 0]


def build_row_groups(
    rows: Iterable[Tuple[int, Sequence[Tuple[int, int]]]], sentinel: int
) -> List[RowGroup]:
    """Group block rows ``(dest, [(src, block_index), ...])`` by bucketed fan-in.

    Groups come in increasing fan order, rows within a group in input order;
    rows without a block are skipped.
    """
    by_fan: dict = {}
    for dest, blocks in rows:
        if blocks:
            by_fan.setdefault(fan_bucket(len(blocks)), []).append((dest, blocks))
    groups = []
    for fan in sorted(by_fan):
        members = by_fan[fan]
        g = len(members)
        dest_pos = np.empty(g, dtype=np.int64)
        src_pos = np.full(g * fan, sentinel, dtype=np.int64)
        block_req = np.full(g * fan, -1, dtype=np.int64)
        for i, (dest, blocks) in enumerate(members):
            dest_pos[i] = dest
            for j, (src, req) in enumerate(blocks):
                src_pos[i * fan + j] = src
                block_req[i * fan + j] = req
        groups.append(
            RowGroup(fan=fan, dest_pos=dest_pos, src_pos=src_pos, block_req=block_req)
        )
    return groups


def pad_blocks(
    blocks: Sequence[Optional[np.ndarray]], rows: int, cols: int
) -> np.ndarray:
    """The 2-D ``blocks`` as a zeroed ``(len(blocks), rows, cols)`` stack, each
    block top-left; a ``None`` or empty block leaves its slot zero.  Blocks
    may be views of any strides (a transpose is copied as such)."""
    stack = np.zeros((len(blocks), rows, cols), dtype=np.float64)
    for slot, block in zip(stack, blocks):
        if block is not None and block.size:
            slot[: block.shape[0], : block.shape[1]] = block
    return stack


def fan_operands(group: RowGroup, stack: np.ndarray) -> np.ndarray:
    """The ``(g, p, fan * q)`` GEMM operand of ``group``.

    ``stack`` is the ``(num_blocks, p, q)`` stack of the group's real blocks in
    slot order (block ``group.real_blocks[m]`` of the caller's list is
    ``stack[m]``); slot ``j`` of row ``i`` gets columns ``j * q`` to ``(j + 1)
    * q``, padded slots stay exactly zero.  A fan-1 group has no padded slot,
    so a contiguous ``stack`` *is* its operand (returned, not copied).
    """
    g, fan = group.num_rows, group.fan
    if fan == 1:
        return np.ascontiguousarray(stack, dtype=np.float64)
    p, q = int(stack.shape[1]), int(stack.shape[2])
    a = np.zeros((g, p, fan * q), dtype=np.float64)
    # Viewing ``a`` as ``(g, fan, p, q)`` (slot-major) lets one fancy
    # assignment place every real block without an intermediate copy.
    rows, slots = np.divmod(np.nonzero(group.block_req >= 0)[0], fan)
    a.reshape(g, p, fan, q).transpose(0, 2, 1, 3)[rows, slots] = stack
    return a


@dataclass(frozen=True, eq=False)
class FanOperands:
    """A keyed block list as fan-grouped GEMM operands.

    ``operands[i]`` is the ``(g, p, fan * q)`` operand of ``groups[i]``; a
    group's ``block_req`` entry ``b`` is the block ``keys[b]``.  Every block
    sits in exactly one slot, so the operands can be the blocks' only storage.
    """

    keys: Sequence[Tuple[int, int]]
    groups: Sequence[RowGroup]
    operands: Sequence[np.ndarray]

    @classmethod
    def from_padded(
        cls,
        keys: Sequence[Tuple[int, int]],
        groups: Sequence[RowGroup],
        padded: np.ndarray,
    ) -> "FanOperands":
        """The operands of ``groups`` over the ``(len(keys), p, q)`` stack of
        every block (``padded`` is not referenced afterwards)."""
        operands = [fan_operands(g, padded[g.real_blocks]) for g in groups]
        return cls(keys, groups, operands)

    def check(
        self,
        pos: Mapping[int, int],
        shape: Tuple[int, int],
        block_shapes: Sequence[Tuple[int, int]],
    ) -> None:
        """Raise ``ValueError`` unless these are well-formed operands over the
        positions ``pos`` (node -> position; the sentinel is ``len(pos)``),
        padded to slots of ``shape``, of blocks of ``block_shapes`` (in key
        order): every operand ``(g, p, fan * q)`` with ``g * fan`` int64 slot
        indices, every block in exactly one slot, in the row of its key's
        destination and reading its key's source, and no larger than its
        slot.  For operands read from a file: a valid one is applied as is."""
        p, q = shape
        sentinel = len(pos)
        try:
            dest = np.array([pos[s] for s, _ in self.keys], dtype=np.int64)
            src = np.array([pos[t] for _, t in self.keys], dtype=np.int64)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"a block of node {exc} lies outside the layout") from exc
        sizes = np.asarray(block_shapes, dtype=np.int64).reshape(-1, 2)
        if sizes.shape[0] != len(self.keys) or sizes.min(initial=0) < 0:
            raise ValueError("the block shapes do not match the blocks")
        if sizes[:, 0].max(initial=0) > p or sizes[:, 1].max(initial=0) > q:
            raise ValueError(f"a block is larger than its {p} x {q} slot")
        if len(self.groups) != len(self.operands):
            raise ValueError("every fan group needs one operand")
        placed = []
        for group, a in zip(self.groups, self.operands):
            g, fan = group.num_rows, group.fan
            arrays = (group.dest_pos, group.src_pos, group.block_req)
            if not (
                g > 0 and fan > 0
                and all(x.dtype == np.int64 for x in arrays)
                and [x.shape for x in arrays] == [(g,), (g * fan,), (g * fan,)]
                and a.dtype == np.float64 and a.shape == (g, p, fan * q)
            ):
                raise ValueError(
                    f"a fan-{fan} group of {g} rows does not match its operand "
                    f"of shape {a.shape} ({p} x {q} slots)"
                )
            if (
                group.dest_pos.min() < 0 or group.dest_pos.max() >= sentinel
                or group.src_pos.min() < 0 or group.src_pos.max() > sentinel
                or np.unique(group.dest_pos).size != g
            ):
                raise ValueError(
                    f"a slot position lies outside [0, {sentinel}] or a row repeats"
                )
            req = group.block_req
            if req.min() < -1 or req.max() >= len(self.keys):
                raise ValueError(f"a slot's block lies outside [-1, {len(self.keys)})")
            real = req >= 0
            blocks = req[real]
            rows = np.nonzero(real)[0] // fan
            if not (
                np.array_equal(group.dest_pos[rows], dest[blocks])
                and np.array_equal(group.src_pos[real], src[blocks])
            ):
                raise ValueError("a block sits in a slot of other positions than its key's")
            placed.append(blocks)
        if not np.array_equal(
            np.sort(np.concatenate([np.empty(0, np.int64), *placed])),
            np.arange(len(self.keys)),
        ):
            raise ValueError("every block must sit in exactly one slot")

    def views(self, shapes: Sequence[Tuple[int, int]]) -> List[np.ndarray]:
        """Block ``b`` of shape ``shapes[b]`` as a view of its operand slot, in
        key order.  An empty block is a fresh empty array: a view would keep
        its operand alive for no data."""
        views: List[Optional[np.ndarray]] = [None] * len(self.keys)
        for group, a in zip(self.groups, self.operands):
            q = int(a.shape[2]) // group.fan
            for slot, b in enumerate(group.block_req.tolist()):
                if b < 0:
                    continue
                row, j = divmod(slot, group.fan)
                rows, cols = shapes[b]
                views[b] = (
                    a[row, :rows, j * q : j * q + cols]
                    if rows and cols
                    else np.zeros((rows, cols))
                )
        return views


class LeafLayout:
    """The leaf blocks of an ``(n, k)`` array as a ``(leaves + 1, height, k)`` stack.

    Leaf ``i`` (``nodes[i]``, at position ``pos[node]``) owns the first
    ``sizes[i]`` rows of block ``i``; ``height`` is the largest leaf size and
    ``mask`` marks the real rows.  The leaves of a cluster tree tile
    ``[0, n)`` in order, so the real rows in stack order *are* the array's
    rows: equal leaves are one reshape, ragged ones one masked copy.
    """

    def __init__(self, tree: "ClusterTree"):
        self.nodes: List[int] = list(tree.leaves())
        self.pos = {node: i for i, node in enumerate(self.nodes)}
        self.sizes = np.array(
            [tree.cluster_size(node) for node in self.nodes], dtype=np.int64
        )
        self.height = int(self.sizes.max())
        self.mask = np.arange(self.height) < self.sizes[:, None]
        self.ragged = int(self.sizes.min()) < self.height

    def load(self, values: np.ndarray, stack: np.ndarray) -> None:
        """Write ``(n, k)`` ``values`` into the leaf blocks of a zeroed stack
        (padded rows and the sentinel stay zero)."""
        count = len(self.nodes)
        if self.ragged:
            stack[:count][self.mask] = values
        else:
            stack[:count] = values.reshape(count, self.height, values.shape[1])

    def read(self, stack: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Copy the leaf blocks of ``stack`` back into the ``(n, k)`` ``out``."""
        count = len(self.nodes)
        if self.ragged:
            out[...] = stack[:count][self.mask]
        else:
            out[...] = stack[:count].reshape(out.shape)
        return out
