"""(De)serialization of the one persisted format, the H2 matrix.

:func:`_pack_h2` turns an :class:`~repro.hmatrix.h2matrix.H2Matrix` (HSS
included: it is H2 on the weak partition) into header metadata + ordered raw
buffers and :func:`_unpack_h2` reverses it; :data:`H2_FORMAT_VERSION` is
bumped whenever that layout changes.  :func:`load` reads ``"h2"`` artifacts
of the current version only, rejects any other recorded format with
:class:`~repro.persist.format.ArtifactFormatError` and version mismatches
(version-1 and version-2 files included) with
:class:`~repro.persist.format.ArtifactVersionError`.

The dense and coupling blocks are stored as the matrix's apply plan holds
them (:meth:`~repro.batched.apply_plan.H2ApplyPlan.block_operands`): per
operand set (the dense phase, and the coupling phase of every level) the
fan-grouped ``(g, p, fan * q)`` operands, one buffer per fan group, with the
group's ``dest_pos`` / ``src_pos`` / ``block_req`` index arrays and the
set's block order; per block dict its keys and exact block shapes.  Saving a
matrix without a plan builds the plan first; the operands are contiguous, so
they are written as they are, padding included.  Loading builds the matrix
with :meth:`~repro.hmatrix.h2matrix.H2Matrix.from_operands`: every block an
exact-shape view of its mapped slot, nothing compiled; its first apply adopts
the mapped operands.  Malformed metadata, a missing buffer or an index array
that does not fit the plan's layout raise
:class:`~repro.persist.format.ArtifactFormatError`.

Round trips are *exact*: buffers are raw float64/int64 bytes, dictionary key
orders are preserved through explicit key lists, and loaded arrays are
zero-copy read-only views into the artifact's memmap (the formats only ever
read their block data during applies).  ``load(path).to_dense()`` is
bitwise-equal to the saved operator's ``to_dense()``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from ..batched.block_rows import FanOperands, RowGroup
from ..hmatrix.basis_tree import BasisTree
from ..hmatrix.h2matrix import H2Matrix
from ..tree.admissibility import (
    AdmissibilityCondition,
    GeneralAdmissibility,
    WeakAdmissibility,
)
from ..tree.block_partition import BlockPartition
from ..tree.cluster_tree import ClusterTree
from .format import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactVersionError,
    read_artifact,
    write_artifact,
)

Buffers = List[Tuple[str, np.ndarray]]


#: Layout version of the one persisted format, ``"h2"`` (HSS is H2 on the weak
#: partition); bump it whenever :func:`_pack_h2` changes.  Version 2 stores
#: the dense and coupling blocks as the fan-grouped operands of the apply
#: plan; version 3 adds the tolerance the matrix was built at.  Files of
#: other versions are not read.
H2_FORMAT_VERSION = 3

#: Format names that persist; both store an ``"h2"`` artifact.
_SAVED_FORMATS = ("h2", "hss")


def format_version(name: str) -> int:
    """The current ``format_version`` of the artifact stored for ``name``."""
    if name.lower() not in _SAVED_FORMATS:
        raise ArtifactError(
            f"unknown persist format {name!r}; only H2 matrices ('h2'/'hss') "
            "persist"
        )
    return H2_FORMAT_VERSION


def save(op: object, path: str | os.PathLike) -> Path:
    """Write ``op`` to ``path`` as a versioned artifact and return the path."""
    if not isinstance(op, H2Matrix):
        raise ArtifactError(
            f"cannot persist {type(op).__name__}: only H2 matrices ('h2'/'hss') "
            "persist"
        )
    meta, buffers = _pack_h2(op)
    return write_artifact(path, "h2", H2_FORMAT_VERSION, meta, buffers)


def load(path: str | os.PathLike, mmap: bool = True, verify: bool = False):
    """Load the operator stored at ``path``.

    ``mmap=True`` (default) maps the block data zero-copy, so a multi-GB
    operator opens in milliseconds and pages in lazily; its first apply
    adopts the mapped operands.  ``verify=True``
    checks every buffer's stored SHA-256 before reconstruction (see
    :func:`~repro.persist.format.read_artifact`).  Raises
    :class:`~repro.persist.format.ArtifactVersionError` when the artifact's
    recorded format version differs from :data:`H2_FORMAT_VERSION`, and
    :class:`~repro.persist.format.ArtifactFormatError` on any format but
    ``"h2"`` (the ``"hodlr"`` / ``"hmatrix"`` artifacts of earlier releases
    included), corrupted files and malformed metadata or index arrays.
    """
    header, buffers = read_artifact(path, mmap=mmap, verify=verify)
    name = str(header["format"]).lower()
    if name != "h2":
        raise ArtifactFormatError(
            f"{path}: artifact stores format {name!r}; this library reads 'h2' "
            "artifacts only"
        )
    recorded = int(header["format_version"])
    if recorded != H2_FORMAT_VERSION:
        raise ArtifactVersionError(
            f"{path}: format {name!r} artifact is version {recorded}, this "
            f"library reads version {H2_FORMAT_VERSION}"
        )
    try:
        return _unpack_h2(header["meta"], buffers)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ArtifactFormatError(
            f"{path}: malformed 'h2' artifact ({type(exc).__name__}: {exc})"
        ) from exc


# -------------------------------------------------------------- shared pieces
def _pack_tree(tree: ClusterTree, meta: dict, buffers: Buffers) -> None:
    meta["tree"] = {"depth": int(tree.depth), "leaf_size": int(tree.leaf_size)}
    buffers.extend(
        [
            ("tree/points", tree.points),
            ("tree/perm", tree.perm),
            ("tree/iperm", tree.iperm),
            ("tree/starts", tree.starts),
            ("tree/ends", tree.ends),
            ("tree/box_low", tree.box_low),
            ("tree/box_high", tree.box_high),
        ]
    )


def _unpack_tree(meta: dict, buffers: Dict[str, np.ndarray]) -> ClusterTree:
    info = meta["tree"]
    return ClusterTree(
        points=buffers["tree/points"],
        perm=buffers["tree/perm"],
        iperm=buffers["tree/iperm"],
        starts=buffers["tree/starts"],
        ends=buffers["tree/ends"],
        box_low=buffers["tree/box_low"],
        box_high=buffers["tree/box_high"],
        depth=int(info["depth"]),
        leaf_size=int(info["leaf_size"]),
    )


def admissibility_descriptor(admissibility: AdmissibilityCondition) -> dict:
    """JSON descriptor of an admissibility condition (also the cache-key form)."""
    if isinstance(admissibility, WeakAdmissibility):
        return {"type": "weak"}
    if isinstance(admissibility, GeneralAdmissibility):
        return {"type": "general", "eta": float(admissibility.eta)}
    raise ArtifactError(
        f"cannot serialize admissibility {type(admissibility).__name__}; "
        "only GeneralAdmissibility/WeakAdmissibility artifacts are supported"
    )


def _admissibility_from(descriptor: dict) -> AdmissibilityCondition:
    kind = descriptor.get("type")
    if kind == "weak":
        return WeakAdmissibility()
    if kind == "general":
        return GeneralAdmissibility(eta=float(descriptor["eta"]))
    raise ArtifactFormatError(f"unknown admissibility descriptor {descriptor!r}")


def _pack_partition(
    partition: BlockPartition, meta: dict, buffers: Buffers
) -> None:
    def flatten(rows: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
        flat = np.fromiter(
            (t for row in rows for t in row), dtype=np.int64,
            count=sum(len(row) for row in rows),
        )
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=offsets[1:])
        return flat, offsets

    far_flat, far_offsets = flatten(partition.far_field)
    near_flat, near_offsets = flatten(partition.near_field)
    meta["partition"] = {
        "admissibility": admissibility_descriptor(partition.admissibility)
    }
    buffers.extend(
        [
            ("partition/far_flat", far_flat),
            ("partition/far_offsets", far_offsets),
            ("partition/near_flat", near_flat),
            ("partition/near_offsets", near_offsets),
        ]
    )


def _unpack_partition(
    tree: ClusterTree, meta: dict, buffers: Dict[str, np.ndarray]
) -> BlockPartition:
    def unflatten(flat: np.ndarray, offsets: np.ndarray) -> List[List[int]]:
        return [
            flat[offsets[i] : offsets[i + 1]].tolist()
            for i in range(offsets.shape[0] - 1)
        ]

    return BlockPartition(
        tree=tree,
        admissibility=_admissibility_from(meta["partition"]["admissibility"]),
        far_field=unflatten(
            buffers["partition/far_flat"], buffers["partition/far_offsets"]
        ),
        near_field=unflatten(
            buffers["partition/near_flat"], buffers["partition/near_offsets"]
        ),
    )


def _index_buffer(buffers: Dict[str, np.ndarray], name: str, ndim: int) -> np.ndarray:
    array = buffers[name]
    if array.dtype != np.int64 or array.ndim != ndim or (ndim == 2 and array.shape[1] != 2):
        raise ArtifactFormatError(
            f"buffer {name!r} of dtype {array.dtype} and shape {array.shape} is "
            f"not an int64 {'(n, 2) ' if ndim == 2 else ''}index array"
        )
    return array


def _pack_blocks(
    name: str,
    blocks: Dict[Tuple[int, int], np.ndarray],
    stored: List[Tuple[str, FanOperands]],
    buffers: Buffers,
) -> None:
    """The keys and shapes of ``blocks`` (dict order), then every operand set
    of ``stored`` as it is: its blocks (indices into the keys) and per fan
    group the index arrays and the operand."""
    index = {key: i for i, key in enumerate(blocks)}
    placed = set()
    buffers.extend(
        [
            (f"{name}/keys", np.array(list(blocks), dtype=np.int64).reshape(-1, 2)),
            (
                f"{name}/shapes",
                np.array([b.shape for b in blocks.values()], dtype=np.int64).reshape(-1, 2),
            ),
        ]
    )
    for prefix, operands in stored:
        try:
            order = [index[key] for key in operands.keys]
        except KeyError as exc:
            raise ArtifactError(
                f"{name} block {exc} of the apply plan is not a block of the "
                "matrix: recompile it first (apply_plan(rebuild=True))"
            ) from exc
        placed.update(order)
        buffers.append((f"{prefix}/blocks", np.array(order, dtype=np.int64)))
        for j, (group, a) in enumerate(zip(operands.groups, operands.operands)):
            buffers.extend(
                [
                    (f"{prefix}/{j}/dest_pos", group.dest_pos),
                    (f"{prefix}/{j}/src_pos", group.src_pos),
                    (f"{prefix}/{j}/block_req", group.block_req),
                    (f"{prefix}/{j}/operand", a),
                ]
            )
    for key, block in blocks.items():
        if block.size and index[key] not in placed:
            raise ArtifactError(
                f"{name} block {key} is not in the apply plan: recompile it "
                "first (apply_plan(rebuild=True))"
            )


def _unpack_shapes(
    name: str, buffers: Dict[str, np.ndarray]
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    keys = _index_buffer(buffers, f"{name}/keys", 2).tolist()
    shapes = _index_buffer(buffers, f"{name}/shapes", 2).tolist()
    out = {(s, t): (rows, cols) for (s, t), (rows, cols) in zip(keys, shapes)}
    if not len(out) == len(keys) == len(shapes):
        raise ArtifactFormatError(f"the {name} keys repeat or miss their shapes")
    return out


def _unpack_operands(
    prefix: str, groups: int, keys: List[Tuple[int, int]],
    buffers: Dict[str, np.ndarray],
) -> FanOperands:
    order = _index_buffer(buffers, f"{prefix}/blocks", 1)
    if order.size and (order.min() < 0 or order.max() >= len(keys)):
        raise ArtifactFormatError(f"{prefix}: a block index lies outside the keys")
    row_groups, operands = [], []
    for j in range(groups):  # H2Matrix.from_operands checks them
        dest, src = buffers[f"{prefix}/{j}/dest_pos"], buffers[f"{prefix}/{j}/src_pos"]
        row_groups.append(
            RowGroup(
                fan=src.size // max(dest.size, 1), dest_pos=dest, src_pos=src,
                block_req=buffers[f"{prefix}/{j}/block_req"],
            )
        )
        operands.append(buffers[f"{prefix}/{j}/operand"])
    return FanOperands([keys[b] for b in order.tolist()], row_groups, operands)


# ------------------------------------------------------------------ H2 format
def _pack_h2(h2: H2Matrix) -> Tuple[dict, Buffers]:
    meta: dict = {"symmetric": bool(h2.symmetric), "tolerance": h2.tolerance}
    buffers: Buffers = []
    _pack_tree(h2.tree, meta, buffers)
    _pack_partition(h2.partition, meta, buffers)
    basis = h2.basis
    meta["basis"] = {
        "leaf_nodes": [int(node) for node in basis.leaf_bases],
        "transfer_nodes": [int(node) for node in basis.transfers],
        "ranks": [[int(node), int(rank)] for node, rank in basis.ranks.items()],
    }
    buffers.extend(
        (f"leaf_basis/{i}", array)
        for i, array in enumerate(basis.leaf_bases.values())
    )
    buffers.extend(
        (f"transfer/{i}", array) for i, array in enumerate(basis.transfers.values())
    )
    dense, coupling = h2.apply_plan().block_operands()
    meta["operands"] = {
        "dense": len(dense.groups),
        "coupling": [[int(level), len(ops.groups)] for level, ops in coupling.items()],
    }
    _pack_blocks("dense", h2.dense, [("dense", dense)], buffers)
    _pack_blocks(
        "coupling", h2.coupling,
        [(f"coupling/{level}", ops) for level, ops in coupling.items()], buffers,
    )
    return meta, buffers


def _unpack_h2(meta: dict, buffers: Dict[str, np.ndarray]) -> H2Matrix:
    tree = _unpack_tree(meta, buffers)
    partition = _unpack_partition(tree, meta, buffers)
    basis_meta = meta["basis"]
    basis = BasisTree(
        tree=tree,
        leaf_bases={
            int(node): buffers[f"leaf_basis/{i}"]
            for i, node in enumerate(basis_meta["leaf_nodes"])
        },
        transfers={
            int(node): buffers[f"transfer/{i}"]
            for i, node in enumerate(basis_meta["transfer_nodes"])
        },
        ranks={int(node): int(rank) for node, rank in basis_meta["ranks"]},
    )
    dense_shapes = _unpack_shapes("dense", buffers)
    coupling_shapes = _unpack_shapes("coupling", buffers)
    counts = meta["operands"]
    coupling_keys = list(coupling_shapes)
    matrix = H2Matrix.from_operands(
        tree=tree,
        partition=partition,
        basis=basis,
        coupling_shapes=coupling_shapes,
        dense_shapes=dense_shapes,
        coupling_operands={
            int(level): _unpack_operands(
                f"coupling/{int(level)}", int(groups), coupling_keys, buffers
            )
            for level, groups in counts["coupling"]
        },
        dense_operands=_unpack_operands(
            "dense", int(counts["dense"]), list(dense_shapes), buffers
        ),
        symmetric=bool(meta["symmetric"]),
    )
    matrix.tolerance = meta["tolerance"]
    return matrix
