"""Compiled batched entry evaluation for H2 matrices.

The paper's construction needs two batched operations from its input: the
sketching operator and the *entry evaluation function* (``batchedGen``).  When
the input is itself an H2 matrix — the low-rank update application, the
re-compression of a strong H2 matrix onto the weak partition behind its
factorization, the baselines' HODLR conversion and ACA builders — the
entries of arbitrary sub-blocks ``A[rows, cols]`` have to come out of the
nested representation.  :class:`H2EntryPlan` is compiled once per
:class:`~repro.hmatrix.h2matrix.H2Matrix` and evaluates a stack of requests
(one shape group of a request list) in a number of vectorised passes that
depends on the tree depth, not on the number of requests:

1. **Index map.**  The distinct index sets of the batch are concatenated and
   sorted once; one ``searchsorted`` over the leaf starts maps every index to
   its leaf, which cuts every index set into (set, leaf cluster) *segments*.
   An index set that occurs several times in a batch (every skeleton ``Ĩ_s``
   is requested ``2·|F_s|`` times by a construction) is processed once.
2. **Governing blocks.**  A request is the union of its (row segment, column
   segment) tiles.  All tiles walk up both clusters in lock-step — one
   ``searchsorted`` per level against the sorted ``s·num_nodes + t`` key
   tables of the dense and the coupling blocks — until they hit the partition
   block that governs them; tiles of one request under the same coupling
   block merge into one.
3. **Dense tiles** are one ragged gather from the dense blocks they touch.
4. **Admissible tiles** run the nested-basis upsweep on *selected rows*: the
   requested rows of the leaf bases are gathered, then one batched GEMM per
   level multiplies them with the transfer matrices (the sibling segments of
   an index set are adjacent rows, so they concatenate exactly as Eq. 2
   does) until every row reached the level of its governing block, where one
   batched ``W_r · B_{s,t} · W_cᵀ`` per level scatters into the output.

The plan holds index tables, unpadded flat copies of the (small) leaf bases
and transfer matrices, and *references* to the coupling and dense blocks in
key order — the pointer arrays of a batched GPU kernel.  Every pass marshals
the blocks it touches into a transient flat buffer and materialises its
padded GEMM operands inside a bounded workspace (:data:`_WORKSPACE` entries),
so neither explicit inner-node bases nor a second copy of the coupling and
dense data is ever stored.  ``passes`` reports the vectorised passes of the
most recent evaluation: ``O(levels + entries / workspace)``.

All indices refer to the cluster-tree permuted ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

import numpy as np

from ..utils.prefix_sum import exclusive_prefix_sum
from ..utils.validation import as_index_array, check_index_range

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hmatrix.h2matrix import H2Matrix

#: Largest row/column count of one batched tile; longer segments are cut into
#: chunks so that one outsized request cannot inflate the padding of a batch.
_TILE_CAP = 64
#: Entries of the transient operand stacks of one pass (2 MiB of float64): small
#: enough to stay in cache and off the allocator's fresh-page path.
_WORKSPACE = 1 << 18


def _ragged_arange(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, local)`` enumerating ``range(counts[i])`` for every ``i``."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - exclusive_prefix_sum(counts)[owner]


def _cross(na: np.ndarray, nb: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(owner, a, b)`` enumerating ``range(na[i]) x range(nb[i])`` for every ``i``."""
    owner, local = _ragged_arange(na * nb)
    width = nb[owner]
    a = local // width
    return owner, a, local - a * width


def _lookup(keys: np.ndarray, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(hit, position)`` of ``query`` in the sorted ``keys`` table."""
    if keys.size == 0:
        return np.zeros(query.shape, dtype=bool), np.zeros(query.shape, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return keys[pos] == query, pos


def _require_shape(block: np.ndarray, shape: Tuple[int, int]) -> None:
    if block.shape != shape:
        raise ValueError(
            f"H2 block of shape {block.shape} where the ranks and cluster "
            f"sizes prescribe {shape}"
        )


def _pack(blocks, rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat row-major copy of ``blocks`` and the offset of each.

    ``rows``/``cols`` are the shapes the tree and the ranks prescribe; a
    missing or empty block is stored as zeros, a block of any other shape is
    an inconsistent matrix.
    """
    sizes = rows * cols
    offsets = exclusive_prefix_sum(sizes)
    flat = np.zeros(int(sizes.sum()), dtype=np.float64)
    for block, off, r, c in zip(blocks, offsets.tolist(), rows.tolist(), cols.tolist()):
        if block is None or block.size == 0:
            continue
        _require_shape(block, (r, c))
        flat[off : off + r * c] = block.reshape(-1)
    return flat, offsets


def _gather_padded(
    flat: np.ndarray, off: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    pad_rows: int, pad_cols: int,
) -> np.ndarray:
    """The ``(g, pad_rows, pad_cols)`` zero-padded stack of flat-stored blocks."""
    i = np.arange(pad_rows)[None, :, None]
    j = np.arange(pad_cols)[None, None, :]
    cols = cols[:, None, None]
    inside = (i < rows[:, None, None]) & (j < cols)
    if not flat.size:
        return np.zeros(inside.shape, dtype=np.float64)
    src = off[:, None, None] + i * cols + j
    return np.where(inside, np.take(flat, src, mode="clip"), 0.0)


def _subtiles(r0, rlen, c0, clen, total: int):
    """Cut tiles ``[r0, r0+rlen) x [c0, c0+clen)`` into uniform sub-tiles.

    Returns ``(tile, rows, rvalid, cols, cvalid)``: the owning tile of every
    sub-tile and its ``(cap_r,)`` / ``(cap_c,)`` row and column positions with
    their validity masks; positions past a tile's end are masked out and
    clipped below ``total`` so that they stay addressable.
    """
    cap_r = min(int(rlen.max()), _TILE_CAP)
    cap_c = min(int(clen.max()), _TILE_CAP)
    tile, i, j = _cross(-(-rlen // cap_r), -(-clen // cap_c))
    lane_r, lane_c = np.arange(cap_r), np.arange(cap_c)
    rows = np.minimum((r0[tile] + i * cap_r)[:, None] + lane_r, total - 1)
    cols = np.minimum((c0[tile] + j * cap_c)[:, None] + lane_c, total - 1)
    rvalid = lane_r < (rlen[tile] - i * cap_r)[:, None]
    cvalid = lane_c < (clen[tile] - j * cap_c)[:, None]
    return tile, rows, rvalid, cols, cvalid


@dataclass
class _Rows:
    """The distinct index sets of one batch, concatenated and sorted by
    ``(set, index)``; one entry per requested row or column ("row" below)."""

    #: Per request: the set ids of its row and column index arrays.
    pair_sets: np.ndarray
    #: Per row: the sort key ``set*n + index``.
    key: np.ndarray
    #: Per row: position inside the caller's index array.
    position: np.ndarray
    #: Per row: owning leaf (as a position among the leaves) and offset in it.
    leaf: np.ndarray
    local: np.ndarray
    #: Per (set, leaf) segment: first row, length, leaf node id.
    seg_first: np.ndarray
    seg_len: np.ndarray
    seg_node: np.ndarray
    #: Per set: first segment and number of segments.
    set_seg0: np.ndarray
    set_nseg: np.ndarray


class H2EntryPlan:
    """Level-batched evaluator of sub-blocks of an H2 matrix.

    Build with ``H2EntryPlan(matrix)`` (or ``H2Matrix.entry_plan()``, which
    caches the plan on the matrix).  The plan copies the bases and keeps
    references to the coupling and dense blocks it was compiled from —
    replacing or mutating blocks of the matrix afterwards requires
    recompiling (``H2Matrix.apply_plan(rebuild=True)`` drops both compiled
    plans).
    """

    def __init__(self, matrix: "H2Matrix"):
        tree, basis = matrix.tree, matrix.basis
        num_nodes = tree.num_nodes
        self.n = tree.num_points
        self.depth = tree.depth
        self.num_nodes = num_nodes
        self.first_leaf = (1 << tree.depth) - 1
        self.starts = np.asarray(tree.starts, dtype=np.int64)
        self.ends = np.asarray(tree.ends, dtype=np.int64)
        self.leaf_starts = self.starts[self.first_leaf :]
        self.sizes = self.ends - self.starts

        self.rank = np.zeros(num_nodes, dtype=np.int64)
        for node, rank in basis.ranks.items():
            self.rank[node] = rank
        parent_rank = np.zeros(num_nodes, dtype=np.int64)
        parent_rank[1:] = self.rank[(np.arange(1, num_nodes) - 1) >> 1]
        #: Largest rank per level: the padded operand width of that level.
        self.level_rank = [
            int(self.rank[(1 << level) - 1 : (1 << (level + 1)) - 1].max())
            for level in range(tree.depth + 1)
        ]

        leaves = range(self.first_leaf, num_nodes)
        self.u_flat, self.u_off = _pack(
            [basis.leaf_bases.get(node) for node in leaves],
            self.sizes[self.first_leaf :], self.rank[self.first_leaf :],
        )
        self.e_flat, self.e_off = _pack(
            [basis.transfers.get(node) for node in range(num_nodes)],
            self.rank, parent_rank,
        )
        self.b_keys, self.b_s, self.b_t, self.b_blocks, self.b_live = (
            self._index_blocks(matrix.coupling, self.rank)
        )
        self.d_keys, _, self.d_t, self.d_blocks, self.d_live = (
            self._index_blocks(matrix.dense, self.sizes)
        )
        #: Vectorised passes of the most recent :meth:`evaluate`.
        self.passes = 0

    def _index_blocks(self, blocks: Dict[Tuple[int, int], np.ndarray], extent: np.ndarray):
        """Sorted ``s*num_nodes + t`` key table of a block dict, its blocks in
        key order and which of them have entries."""
        pairs = sorted(blocks)
        s = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        t = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
        ordered = [blocks[pair] for pair in pairs]
        live = np.fromiter((b.size > 0 for b in ordered), dtype=bool, count=len(pairs))
        for block, shape in zip(ordered, zip(extent[s].tolist(), extent[t].tolist())):
            if block.size:
                _require_shape(block, shape)
        return s * self.num_nodes + t, s, t, ordered, live

    def memory_bytes(self) -> int:
        """Bytes held by the flat basis buffers and the index tables (the
        coupling and dense blocks are referenced, not copied)."""
        arrays = (
            self.u_flat, self.u_off, self.e_flat, self.e_off, self.rank,
            self.b_keys, self.b_s, self.b_t, self.b_live,
            self.d_keys, self.d_t, self.d_live,
        )
        return int(sum(a.nbytes for a in arrays))

    # -------------------------------------------------------------- evaluation
    def evaluate(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The ``(g, p, q)`` stack of the sub-blocks ``A[rows[i], cols[i]]``.

        ``rows``/``cols`` are ``(g, p)`` / ``(g, q)`` index arrays, possibly
        unsorted and with repeated indices; a non-integer index array or an
        index outside ``[0, n)`` raises :class:`IndexError`, a leaf pair that
        no partition block covers :class:`KeyError`.
        """
        self.passes = 0
        rows_idx, cols_idx = self._index_stack(rows), self._index_stack(cols)
        if len(rows_idx) != len(cols_idx):
            raise ValueError(
                f"{len(rows_idx)} row index arrays for {len(cols_idx)} column index arrays"
            )
        p, q = rows_idx.shape[1], cols_idx.shape[1]
        out = np.zeros((len(rows_idx), p, q), dtype=np.float64)
        if out.size == 0:
            return out
        rows = self._index_rows(rows_idx, cols_idx)
        flat = out.reshape(-1)

        def scatter(req, r, rvalid, c, cvalid, values):
            dst = (
                (req * (p * q))[:, None, None]
                + (rows.position[r] * q)[:, :, None]
                + rows.position[c][:, None, :]
            )
            if rvalid.all() and cvalid.all():
                flat[dst.reshape(-1)] = values.reshape(-1)
            else:
                valid = rvalid[:, :, None] & cvalid[:, None, :]
                flat[dst[valid]] = values[valid]

        # Every (row leaf segment, column leaf segment) tile of every request
        # walks up both clusters in lock-step until a block key matches.
        rset, cset = rows.pair_sets[:, 0], rows.pair_sets[:, 1]
        req, ia, ib = _cross(rows.set_nseg[rset], rows.set_nseg[cset])
        rseg = rows.set_seg0[rset[req]] + ia
        cseg = rows.set_seg0[cset[req]] + ib
        a, b = rows.seg_node[rseg], rows.seg_node[cseg]

        hit, pos = _lookup(self.d_keys, a * self.num_nodes + b)
        self.passes += 1
        if hit.any():
            live = hit & self.d_live[pos]
            if live.any():
                self._dense_tiles(
                    rows, scatter, req[live], rseg[live], cseg[live], pos[live]
                )
            keep = ~hit
            req, rseg, cseg, a, b = req[keep], rseg[keep], cseg[keep], a[keep], b[keep]

        #: Lowest level (closest to the root) at which a segment's rows are needed.
        seg_top = np.full(rows.seg_first.size, self.depth + 1, dtype=np.int64)
        #: Per level: ``(request, coupling block)`` of the merged admissible tiles.
        tiles: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        num_blocks = max(self.b_keys.size, 1)
        for level in range(self.depth, -1, -1):
            if req.size == 0:
                break
            hit, pos = _lookup(self.b_keys, a * self.num_nodes + b)
            self.passes += 1
            if hit.any():
                live = hit & self.b_live[pos]
                seg_top[rseg[live]] = level
                seg_top[cseg[live]] = level
                merged = np.unique(req[live] * num_blocks + pos[live])
                if merged.size:
                    tiles[level] = (merged // num_blocks, merged % num_blocks)
                keep = ~hit
                req, rseg, cseg, a, b = req[keep], rseg[keep], cseg[keep], a[keep], b[keep]
            a, b = (a - 1) >> 1, (b - 1) >> 1
        if req.size:
            raise KeyError(
                f"no partition block covers leaf pair ({int(rows.seg_node[rseg[0]])}, "
                f"{int(rows.seg_node[cseg[0]])}): the block partition is inconsistent"
            )
        if not tiles:
            return out

        # Upsweep on the selected rows; the tiles of a level are multiplied
        # as soon as their rows have reached it.
        row_top = np.repeat(seg_top, rows.seg_len)
        by_leaf = np.argsort(rows.leaf, kind="stable")
        top_by_leaf = row_top[by_leaf]
        w = self._leaf_rows(rows, np.flatnonzero(row_top <= self.depth))
        top_level = min(tiles)
        for level in range(self.depth, top_level - 1, -1):
            if level in tiles:
                self._coupling_tiles(rows, scatter, w, level, *tiles[level])
            if level > top_level:
                w = self._transfer(w, level, by_leaf[top_by_leaf < level], rows.leaf)
        return out

    def _index_stack(self, indices: np.ndarray) -> np.ndarray:
        """``indices`` as a validated ``(g, k)`` ``int64`` array."""
        stack = np.asarray(indices)
        if stack.ndim != 2:
            raise ValueError(f"expected a (g, k) index array, got shape {stack.shape}")
        stack = as_index_array(stack.reshape(-1)).reshape(stack.shape)
        check_index_range(stack, self.n)
        return stack

    def _index_rows(self, rows_idx: np.ndarray, cols_idx: np.ndarray) -> _Rows:
        """Deduplicate, concatenate and sort the (non-empty) index arrays of a
        batch and cut them into (set, leaf) segments."""
        set_ids: Dict[bytes, int] = {}
        sets = []
        pair_sets = np.empty((len(rows_idx), 2), dtype=np.int64)
        for side, stack in enumerate((rows_idx, cols_idx)):
            for i, indices in enumerate(stack):
                key = indices.tobytes()
                set_id = set_ids.get(key)
                if set_id is None:
                    set_id = set_ids[key] = len(sets)
                    sets.append(indices)
                pair_sets[i, side] = set_id
        index = np.concatenate(sets)
        set_sizes = np.fromiter((a.size for a in sets), dtype=np.int64, count=len(sets))
        owner, position = _ragged_arange(set_sizes)
        key = owner * self.n + index
        order = np.argsort(key, kind="stable")
        key, owner, index = key[order], owner[order], index[order]
        leaf = np.searchsorted(self.leaf_starts, index, side="right") - 1
        self.passes += 1

        seg_key = owner * self.leaf_starts.size + leaf
        seg_first = np.flatnonzero(np.r_[True, seg_key[1:] != seg_key[:-1]])
        set_nseg = np.bincount(owner[seg_first], minlength=len(sets))
        return _Rows(
            pair_sets=pair_sets, key=key, position=position[order], leaf=leaf,
            local=index - self.leaf_starts[leaf], seg_first=seg_first,
            seg_len=np.diff(np.r_[seg_first, index.size]),
            seg_node=leaf[seg_first] + self.first_leaf,
            set_seg0=exclusive_prefix_sum(set_nseg), set_nseg=set_nseg,
        )

    def _marshal(self, blocks: List[np.ndarray], pos: np.ndarray):
        """Flat copy of the distinct blocks ``pos`` touches and, per entry of
        ``pos``, the offset of its block in it."""
        unique, inverse = np.unique(pos, return_inverse=True)
        parts = [blocks[k].reshape(-1) for k in unique.tolist()]
        sizes = np.fromiter((part.size for part in parts), dtype=np.int64, count=len(parts))
        return np.concatenate(parts), exclusive_prefix_sum(sizes)[inverse]

    def _dense_tiles(self, rows: _Rows, scatter: Callable, req, rseg, cseg, pos) -> None:
        """Ragged gather of the tiles governed by dense blocks ``pos``."""
        ncols = self.sizes[self.d_t[pos]]
        tile, r, rvalid, c, cvalid = _subtiles(
            rows.seg_first[rseg], rows.seg_len[rseg],
            rows.seg_first[cseg], rows.seg_len[cseg], rows.key.size,
        )
        slab = max(1, _WORKSPACE // (r.shape[1] * c.shape[1]))
        for lo in range(0, tile.size, slab):
            sl = slice(lo, lo + slab)
            t = tile[sl]
            flat, off = self._marshal(self.d_blocks, pos[t])
            src = (
                (off[:, None] + rows.local[r[sl]] * ncols[t][:, None])[:, :, None]
                + rows.local[c[sl]][:, None, :]
            )
            scatter(
                req[t], r[sl], rvalid[sl], c[sl], cvalid[sl],
                np.take(flat, src, mode="clip"),
            )
            self.passes += 1

    def _leaf_rows(self, rows: _Rows, active: np.ndarray) -> np.ndarray:
        """Rows of the leaf bases: ``w[row] = U_leaf[local]`` for ``active`` rows."""
        width = self.level_rank[self.depth]
        w = np.zeros((rows.key.size, width), dtype=np.float64)
        if width and self.u_flat.size:
            lane = np.arange(width)
            leaf = rows.leaf[active]
            k = self.rank[self.first_leaf + leaf]
            src = (self.u_off[leaf] + rows.local[active] * k)[:, None] + lane
            w[active] = np.where(
                lane < k[:, None], np.take(self.u_flat, src, mode="clip"), 0.0
            )
        self.passes += 1
        return w

    def _coupling_tiles(
        self, rows: _Rows, scatter: Callable, w: np.ndarray, level: int, req, pos
    ) -> None:
        """Batched ``W_r · B_{s,t} · W_cᵀ`` of the admissible tiles of ``level``."""
        s, t = self.b_s[pos], self.b_t[pos]
        rkey = rows.pair_sets[req, 0] * self.n
        ckey = rows.pair_sets[req, 1] * self.n
        r0 = np.searchsorted(rows.key, rkey + self.starts[s])
        r1 = np.searchsorted(rows.key, rkey + self.ends[s])
        c0 = np.searchsorted(rows.key, ckey + self.starts[t])
        c1 = np.searchsorted(rows.key, ckey + self.ends[t])
        tile, r, rvalid, c, cvalid = _subtiles(r0, r1 - r0, c0, c1 - c0, rows.key.size)
        width = self.level_rank[level]
        slab = max(1, _WORKSPACE // (max(r.shape[1], width) * max(c.shape[1], width)))
        for lo in range(0, tile.size, slab):
            sl = slice(lo, lo + slab)
            tl = tile[sl]
            flat, off = self._marshal(self.b_blocks, pos[tl])
            coupling = _gather_padded(
                flat, off, self.rank[s[tl]], self.rank[t[tl]], width, width
            )
            values = (w[r[sl]] @ coupling) @ w[c[sl]].transpose(0, 2, 1)
            scatter(req[tl], r[sl], rvalid[sl], c[sl], cvalid[sl], values)
            self.passes += 1

    def _transfer(
        self, w: np.ndarray, level: int, active: np.ndarray, leaf: np.ndarray
    ) -> np.ndarray:
        """One upsweep step on the ``active`` rows: ``w_row <- w_row @ E_node``.

        ``active`` lists rows leaf by leaf, hence node by node at every level;
        the rows of a node are cut into chunks of at most :data:`_TILE_CAP`
        rows and every chunk multiplies its node's transfer matrix in one
        batched GEMM.
        """
        node = ((leaf[active] + self.first_leaf + 1) >> (self.depth - level)) - 1
        new = np.r_[True, node[1:] != node[:-1]]
        run0 = np.flatnonzero(new)
        run_id = np.cumsum(new) - 1
        run_len = np.diff(np.r_[run0, active.size])
        cap = min(int(run_len.max()), _TILE_CAP)
        nchunk = -(-run_len // cap)
        offset = np.arange(active.size) - run0[run_id]
        chunk = exclusive_prefix_sum(nchunk)[run_id] + offset // cap
        slot = offset % cap
        chunk_node = np.repeat(node[run0], nchunk)

        width, parent_width = self.level_rank[level], self.level_rank[level - 1]
        operand = np.zeros((chunk_node.size, cap, width), dtype=np.float64)
        operand[chunk, slot] = w[active]
        transfer = _gather_padded(
            self.e_flat, self.e_off[chunk_node], self.rank[chunk_node],
            self.rank[(chunk_node - 1) >> 1], width, parent_width,
        )
        out = np.zeros((w.shape[0], parent_width), dtype=np.float64)
        out[active] = (operand @ transfer)[chunk, slot]
        self.passes += 1
        return out

