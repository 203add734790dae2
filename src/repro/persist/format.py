"""The ``REPROART`` binary container: header JSON + aligned raw buffers.

One artifact file holds one compressed operator:

* an 20-byte preamble — the magic ``b"REPROART"``, a ``uint32`` container
  version and a ``uint64`` header length;
* a UTF-8 JSON header carrying the format name, the per-format
  ``format_version``, format-specific metadata (key lists, scalars) and a
  buffer directory (name, dtype, shape, offset, byte count);
* the raw array buffers, each aligned to :data:`ALIGNMENT` bytes.

The layout is deliberately dumb so it is fast: arrays are written as their
contiguous bytes and read back as *views into a single* :class:`numpy.memmap`
— opening a multi-GB operator costs milliseconds and no copies, and the OS
pages block data in on first touch.  Buffer offsets in the directory are
relative to the (aligned) start of the data section, so the header length
never feeds back into the offsets it describes.  Buffers hold native
little-endian ``float64`` / ``int64`` only (:data:`DTYPES`, everything an H2
matrix stores); a directory entry with another dtype, or a negative or
non-integer shape, offset or byte count, is a format error.

Each buffer is made contiguous (a no-op for the contiguous arrays an H2
artifact stores: its tree, bases and apply-plan operands; a strided view is
copied once), hashed as is, and the file is written with gathered ``writev``
calls, not one ``write`` per buffer and gap.

Writes are atomic: the file is assembled under a temporary name in the target
directory and :func:`os.replace`-d into place, so readers (and the
content-addressed :class:`~repro.persist.cache.ArtifactCache`) never observe a
half-written artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: File magic of every artifact.
MAGIC = b"REPROART"
#: Version of the container layout (preamble + header + buffer directory).
#: Independent of the per-format ``format_version`` carried in the header.
#: Version 2 adds a ``sha256`` hex digest to every buffer directory entry;
#: version-1 artifacts (no digests) remain readable, they just cannot be
#: checksum-verified.
CONTAINER_VERSION = 2
#: Buffer alignment in bytes — generous enough for any numpy dtype and for
#: cache-line/SIMD-friendly access through the memmap.
ALIGNMENT = 64
#: The buffer dtypes a container stores (``numpy.dtype.str``).
DTYPES = ("<f8", "<i8")

_PREAMBLE = struct.Struct("<8sIQ")
_ZEROS = memoryview(bytes(ALIGNMENT))
#: Buffers per ``writev`` call, well inside every platform's ``IOV_MAX``.
_GATHER = 512


class ArtifactError(Exception):
    """Base error of the :mod:`repro.persist` subsystem."""


class ArtifactFormatError(ArtifactError):
    """The file is not a valid artifact (bad magic, corrupt header, bad bounds)."""


class ArtifactVersionError(ArtifactError):
    """The artifact was written by an incompatible container/format version."""


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _is_count(value: object) -> bool:
    """A non-negative JSON integer (``bool`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _write_gathered(fd: int, chunks: List[memoryview | np.ndarray]) -> None:
    """Write the bytes of ``chunks`` (memoryviews and C-contiguous arrays) in
    order at ``fd``'s position, :data:`_GATHER` per ``writev`` call, resuming
    after a short write."""
    for start in range(0, len(chunks), _GATHER):
        batch = chunks[start : start + _GATHER]
        while batch:
            written = os.writev(fd, batch)
            while batch and written >= batch[0].nbytes:
                written -= batch[0].nbytes
                batch.pop(0)
            if batch:
                batch[0] = memoryview(batch[0]).cast("B")[written:]


def write_artifact(
    path: str | os.PathLike,
    format_name: str,
    format_version: int,
    meta: dict,
    buffers: Sequence[Tuple[str, np.ndarray]],
) -> Path:
    """Write one artifact atomically and return its path.

    ``buffers`` is an *ordered* sequence of ``(name, array)`` pairs; the order
    is preserved in the buffer directory, so serializers can rely on it to
    reconstruct insertion-ordered dictionaries exactly.  An array whose dtype
    is not in :data:`DTYPES` raises :class:`ArtifactFormatError` before
    anything is written.
    """
    path = Path(path)
    directory: List[dict] = []
    chunks: List[memoryview | np.ndarray] = []
    offset = 0
    for name, array in buffers:
        array = np.ascontiguousarray(array)
        if array.dtype.str not in DTYPES:
            raise ArtifactFormatError(
                f"cannot store buffer {name!r} of dtype {array.dtype.str!r}; "
                f"artifacts hold {' / '.join(DTYPES)} only"
            )
        start = _align(offset)
        directory.append(
            {
                "name": str(name),
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": start,
                "nbytes": int(array.nbytes),
                "sha256": hashlib.sha256(array).hexdigest(),
            }
        )
        if start > offset:
            chunks.append(_ZEROS[: start - offset])
        chunks.append(array)
        offset = start + array.nbytes

    header = {
        "container_version": CONTAINER_VERSION,
        "format": str(format_name),
        "format_version": int(format_version),
        "meta": meta,
        "buffers": directory,
    }
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    data_start = _align(_PREAMBLE.size + len(payload))

    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb", buffering=0) as fh:
            _write_gathered(fh.fileno(), [
                memoryview(_PREAMBLE.pack(MAGIC, CONTAINER_VERSION, len(payload))),
                memoryview(payload),
                _ZEROS[: data_start - _PREAMBLE.size - len(payload)],
                *chunks,
            ])
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()
    return path


def read_artifact(
    path: str | os.PathLike, mmap: bool = True, verify: bool = False
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read one artifact: ``(header, {buffer name -> array})``.

    With ``mmap=True`` (default) every returned array is a zero-copy
    read-only view into one :class:`numpy.memmap` over the file; with
    ``mmap=False`` the file is read into memory once (the views are still
    marked read-only for symmetry).  ``verify=True`` recomputes every
    buffer's SHA-256 against the digest stored in the directory (container
    version ≥ 2; version-1 entries without a digest are skipped) — this
    touches every byte, so it trades the memmap's lazy paging for integrity.
    Raises :class:`ArtifactFormatError` on anything malformed (including a
    checksum mismatch) and :class:`ArtifactVersionError` on a container
    written by a newer library.
    """
    path = Path(path)
    try:
        file_size = os.path.getsize(path)
        with open(path, "rb") as fh:
            preamble = fh.read(_PREAMBLE.size)
            if len(preamble) < _PREAMBLE.size:
                raise ArtifactFormatError(f"{path}: truncated artifact preamble")
            magic, container_version, header_length = _PREAMBLE.unpack(preamble)
            if magic != MAGIC:
                raise ArtifactFormatError(
                    f"{path}: not a repro artifact (bad magic {magic!r})"
                )
            if container_version > CONTAINER_VERSION:
                raise ArtifactVersionError(
                    f"{path}: container version {container_version} is newer "
                    f"than this library supports ({CONTAINER_VERSION})"
                )
            # Bounds-check before trusting header_length: a truncated or
            # bit-flipped preamble must fail typed, not allocate gigabytes or
            # hand json a short read.
            if _PREAMBLE.size + header_length > file_size:
                raise ArtifactFormatError(
                    f"{path}: header length {header_length} exceeds the file "
                    f"size {file_size} (truncated or corrupted artifact)"
                )
            payload = fh.read(header_length)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    if len(payload) != header_length:
        raise ArtifactFormatError(f"{path}: truncated artifact header")
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactFormatError(f"{path}: corrupted artifact header: {exc}") from exc
    for key in ("format", "format_version", "meta", "buffers"):
        if key not in header:
            raise ArtifactFormatError(f"{path}: artifact header missing {key!r}")

    data_start = _align(_PREAMBLE.size + header_length)
    if mmap:
        raw = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        raw = np.fromfile(path, dtype=np.uint8)
        raw.flags.writeable = False
    buffers: Dict[str, np.ndarray] = {}
    for entry in header["buffers"]:
        try:
            name = entry["name"]
            dtype, shape = entry["dtype"], entry["shape"]
            offset, nbytes = entry["offset"], entry["nbytes"]
        except (KeyError, TypeError) as exc:
            raise ArtifactFormatError(
                f"{path}: malformed buffer directory entry: {exc}"
            ) from exc
        if dtype not in DTYPES:
            raise ArtifactFormatError(
                f"{path}: buffer {name!r} has dtype {dtype!r}; artifacts hold "
                f"{' / '.join(DTYPES)} only"
            )
        if not (
            isinstance(shape, list)
            and all(_is_count(s) for s in shape)
            and _is_count(offset)
            and _is_count(nbytes)
        ):
            raise ArtifactFormatError(
                f"{path}: buffer {name!r} has a malformed directory entry "
                f"(shape {shape!r}, offset {offset!r}, nbytes {nbytes!r}: "
                "each must be a non-negative integer)"
            )
        dtype = np.dtype(dtype)
        offset += data_start
        expected = dtype.itemsize * math.prod(shape)
        if expected != nbytes:
            raise ArtifactFormatError(
                f"{path}: buffer {name!r} declares {nbytes} bytes but its "
                f"dtype/shape imply {expected}"
            )
        if offset < data_start or offset + nbytes > raw.size:
            raise ArtifactFormatError(
                f"{path}: buffer {name!r} exceeds the file bounds"
            )
        raw_bytes = raw[offset : offset + nbytes]
        if verify:
            digest = entry.get("sha256")
            if digest is not None:
                actual = hashlib.sha256(raw_bytes).hexdigest()
                if actual != digest:
                    raise ArtifactFormatError(
                        f"{path}: buffer {name!r} failed its checksum "
                        f"(stored {digest[:12]}…, computed {actual[:12]}…)"
                    )
        # A plain ndarray over the map (its base), not a memmap: memmap's
        # Python-level indexing would tax every block view taken of it.
        buffers[name] = raw_bytes.view(dtype).reshape(tuple(shape)).view(np.ndarray)
    return header, buffers
