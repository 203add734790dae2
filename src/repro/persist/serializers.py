"""(De)serialization of the one persisted format, the H2 matrix.

:func:`_pack_h2` turns an :class:`~repro.hmatrix.h2matrix.H2Matrix` (HSS
included: it is H2 on the weak partition) into header metadata + ordered raw
buffers and :func:`_unpack_h2` reverses it; :data:`H2_FORMAT_VERSION` is
bumped whenever that layout changes.  :func:`load` reads ``"h2"`` artifacts
only, rejects any other recorded format with
:class:`~repro.persist.format.ArtifactFormatError` and version mismatches with
:class:`~repro.persist.format.ArtifactVersionError`.

Round trips are *exact*: buffers are raw float64/int64 bytes, dictionary key
orders are preserved through explicit key lists in the metadata, and loaded
arrays are zero-copy read-only views into the artifact's memmap (the formats
only ever read their block data during applies).  ``load(path).to_dense()``
is bitwise-equal to the saved operator's ``to_dense()``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

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
#: partition); bump it whenever :func:`_pack_h2` changes.
H2_FORMAT_VERSION = 1

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
    operator opens in milliseconds and pages in lazily.  ``verify=True``
    checks every buffer's stored SHA-256 before reconstruction (see
    :func:`~repro.persist.format.read_artifact`).  Raises
    :class:`~repro.persist.format.ArtifactVersionError` when the artifact's
    recorded format version differs from :data:`H2_FORMAT_VERSION`, and
    :class:`~repro.persist.format.ArtifactFormatError` on any format but
    ``"h2"`` (the ``"hodlr"`` / ``"hmatrix"`` artifacts of earlier releases
    included) or corrupted files.
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
    return _unpack_h2(header["meta"], buffers)


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


def _pack_block_dict(
    blocks: Dict[Tuple[int, int], np.ndarray], prefix: str, meta: dict,
    buffers: Buffers,
) -> None:
    meta[f"{prefix}_keys"] = [[int(s), int(t)] for s, t in blocks]
    buffers.extend(
        (f"{prefix}/{i}", array) for i, array in enumerate(blocks.values())
    )


def _unpack_block_dict(
    prefix: str, meta: dict, buffers: Dict[str, np.ndarray]
) -> Dict[Tuple[int, int], np.ndarray]:
    return {
        (int(s), int(t)): buffers[f"{prefix}/{i}"]
        for i, (s, t) in enumerate(meta[f"{prefix}_keys"])
    }


# ------------------------------------------------------------------ H2 format
def _pack_h2(h2: H2Matrix) -> Tuple[dict, Buffers]:
    meta: dict = {"symmetric": bool(h2.symmetric)}
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
    _pack_block_dict(h2.coupling, "coupling", meta, buffers)
    _pack_block_dict(h2.dense, "dense", meta, buffers)
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
    return H2Matrix(
        tree=tree,
        partition=partition,
        basis=basis,
        coupling=_unpack_block_dict("coupling", meta, buffers),
        dense=_unpack_block_dict("dense", meta, buffers),
        symmetric=bool(meta["symmetric"]),
    )
