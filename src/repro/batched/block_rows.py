"""Block-row marshaling shared by the compiled apply and construction sweeps.

The paper's GPU contribution is the marshaling step: the variable-size work of
all nodes on a tree level becomes a few uniform batched launches.  Both
compiled engines (:mod:`repro.batched.apply_plan`,
:mod:`repro.batched.construction_plan`) phrase a level's block products as
non-uniform BSR *block rows* ``(dest, [(src, block_index), ...])`` over plain
``(count + 1, rows, k)`` stacks whose last block is the *sentinel*, which
stays zero, and marshal them here:

* :func:`build_row_groups` groups the rows by bucketed fan-in
  (:func:`fan_bucket`), one launch per group; a row shorter than its bucket is
  padded with zero blocks that read the sentinel;
* :class:`LeafLayout` lays the leaf blocks of an ``(n, k)`` array out as a
  zero-padded ``(leaves + 1, height, k)`` stack and reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

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
    caller's block list (``-1`` for padding) and drives the stacking of the
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
