"""Persistent operator artifacts: versioned save/load + content-addressed cache.

The construction is expensive; the operator it produces is reusable across
processes.  This package makes it survive:

* :mod:`repro.persist.format` — the ``REPROART`` binary container (header
  JSON + 64-byte-aligned raw buffers, mmap-able for zero-copy loads);
* :mod:`repro.persist.serializers` — exact round-trip (de)serialization of
  the one persisted format, the H2 matrix (HSS included);
* :mod:`repro.persist.cache` — :class:`ArtifactCache`, content-addressed by
  (geometry, kernel identity, tolerance, format, format version, seed), the
  cache-aside layer :func:`repro.compress` and :class:`repro.Session`
  consult before constructing.

Quick use::

    op = repro.compress(points, kernel, tol=1e-6)
    op.save("operator.repro")                  # H2Matrix.save
    same = repro.persist.load("operator.repro")  # zero-copy memmap views

    # opt-in caching: cold run constructs + stores, warm runs load
    op = repro.compress(points, kernel, tol=1e-6, cache_dir="~/.cache/repro")
"""

from .cache import ArtifactCache, default_cache, kernel_descriptor
from .format import (
    ALIGNMENT,
    CONTAINER_VERSION,
    MAGIC,
    ArtifactError,
    ArtifactFormatError,
    ArtifactVersionError,
    read_artifact,
    write_artifact,
)
from .serializers import (
    H2_FORMAT_VERSION,
    format_version,
    load,
    save,
)

#: Collision-safe aliases re-exported at the ``repro`` top level (plain
#: ``load``/``save`` stay local to this package).
save_operator = save
load_operator = load

__all__ = [
    "ALIGNMENT",
    "ArtifactCache",
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactVersionError",
    "CONTAINER_VERSION",
    "H2_FORMAT_VERSION",
    "MAGIC",
    "default_cache",
    "format_version",
    "kernel_descriptor",
    "load",
    "load_operator",
    "read_artifact",
    "save",
    "save_operator",
    "write_artifact",
]
