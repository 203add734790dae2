"""Content-addressed artifact cache: cache-aside persistence for operators.

The construction is the expensive step of the whole pipeline; the operator it
produces is a pure function of (geometry, kernel, tolerance, format, library
format version).  :class:`ArtifactCache` hashes exactly those ingredients
into a SHA-256 key and stores one artifact file per key, so any process that
asks for the same compression again loads it in milliseconds (zero-copy
memmap) instead of re-constructing — the same cache-aside discipline as a
Redis layer, but for operators, and consulted automatically by
:func:`repro.compress` and :class:`repro.Session` when a cache is configured
(``cache_dir=`` or the ``REPRO_CACHE_DIR`` environment variable).

Key ingredients (any change produces a different key, any irrelevant change —
backend, tracer, construction path — does not):

* the point coordinates (raw float64 bytes) and the cluster-tree leaf size;
* the admissibility descriptor (weak, or general with its ``eta``);
* the kernel *identity*: class qualname plus scalar hyperparameters,
  recursing through composite kernels;
* the construction tolerance, the requested format (``hss`` and ``h2`` hash
  differently even though both store an ``h2`` artifact), the
  ``format_version`` of the stored layout, the sketching seed and any extra
  sampling knobs the caller passes.

Entries are written atomically (temp file + rename) so concurrent readers
never see a torn artifact; eviction is LRU by file modification time against
an optional byte budget.  Hits, misses and evictions are counted on the cache
instance (``hits`` / ``misses`` / ``evictions``, read by a server's
``/metrics`` scrape); loads run under a ``persist.load`` span when a tracer is
supplied.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..kernels.base import KernelFunction
from ..utils.env import normalize_choice
from .format import ArtifactError
from .serializers import (
    admissibility_descriptor,
    format_version,
    load,
    save,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.policy import ExecutionPolicy

#: ``get(on_corruption=...)`` under each recovery mode (see :meth:`get_or_build`).
_CORRUPTION_MODES = {"strict": "raise", "warn": "warn", "recover": "evict"}

#: File extension of cache entries.
ARTIFACT_SUFFIX = ".repro"


class ArtifactLockError(ArtifactError):
    """Timed out acquiring the cache directory lock."""


class _DirectoryLock:
    """Advisory file lock serialising writers of one cache directory.

    Acquisition is ``O_CREAT | O_EXCL`` (atomic on every POSIX filesystem and
    on Windows) with exponential backoff from 1 ms up to 50 ms per attempt;
    a lock file older than ``stale_seconds`` is presumed orphaned (writer
    crashed between create and unlink) and stolen.  Readers never take the
    lock — artifact writes are atomic renames, so ``get`` stays lock-free.
    """

    def __init__(
        self,
        directory: Path,
        timeout: float = 10.0,
        stale_seconds: float = 30.0,
    ):
        self.path = directory / ".repro-cache.lock"
        self.timeout = float(timeout)
        self.stale_seconds = float(stale_seconds)
        self._held = False

    def __enter__(self) -> "_DirectoryLock":
        delay = 0.001
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat: retry now
                if age > self.stale_seconds:
                    # Orphaned lock (writer died): steal it.  The unlink may
                    # race with another staleness check — both proceed to a
                    # fresh O_CREAT|O_EXCL attempt, only one wins.
                    try:
                        self.path.unlink()
                    except OSError:
                        pass
                    continue
                if time.monotonic() >= deadline:
                    raise ArtifactLockError(
                        f"timed out after {self.timeout:.1f}s waiting for "
                        f"{self.path} (held by pid "
                        f"{self._holder_pid() or 'unknown'})"
                    )
                time.sleep(delay)
                delay = min(delay * 2, 0.05)
            else:
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                self._held = True
                return self

    def __exit__(self, *exc: object) -> None:
        if self._held:
            self._held = False
            try:
                self.path.unlink()
            except OSError:  # pragma: no cover - stolen as stale meanwhile
                pass

    def _holder_pid(self) -> Optional[str]:
        try:
            return self.path.read_text().strip() or None
        except OSError:  # pragma: no cover - released meanwhile
            return None


def kernel_descriptor(kernel: KernelFunction) -> dict:
    """JSON identity of a kernel: class qualname + scalar hyperparameters.

    Recurses through composite kernels (``ScaledKernel.kernel``,
    ``SumKernel.kernels``) so two compositions with identical parameter
    dictionaries but different component classes hash differently.
    """
    descriptor: dict = {
        "class": f"{type(kernel).__module__}.{type(kernel).__qualname__}"
    }
    params = kernel.hyperparameters() if hasattr(kernel, "hyperparameters") else {}
    descriptor["params"] = {
        str(name): float(value) for name, value in sorted(params.items())
    }
    inner = getattr(kernel, "kernel", None)
    if isinstance(inner, KernelFunction):
        descriptor["inner"] = kernel_descriptor(inner)
    components = getattr(kernel, "kernels", None)
    if isinstance(components, (tuple, list)):
        descriptor["components"] = [
            kernel_descriptor(component)
            for component in components
            if isinstance(component, KernelFunction)
        ]
    return descriptor


class ArtifactCache:
    """A directory of operator artifacts addressed by construction content.

    Parameters
    ----------
    directory:
        Cache root; created (with parents) on first use.
    max_bytes:
        Optional byte budget.  After every :meth:`put` the least-recently-used
        entries (by file mtime) are evicted until the cache fits; ``None``
        (default) never evicts.
    mmap:
        Whether :meth:`get` loads entries as zero-copy memmap views
        (default) or materialised in-memory copies.
    verify:
        When ``True``, every :meth:`get` recomputes the stored per-buffer
        SHA-256 digests before trusting an entry (container version ≥ 2).
        Costs a full read of the artifact, so it is off by default;
        :meth:`get_or_build` turns it on per call when the policy carries a
        :class:`~repro.resilience.RecoveryPolicy`.
    lock_timeout:
        Seconds :meth:`put`/:meth:`clear` wait for the cache directory lock
        (concurrent writers back off exponentially; a lock older than 30 s
        is presumed orphaned and stolen).  Timeout raises
        :class:`ArtifactLockError`.

    Thread-safety: the ``_DirectoryLock`` only serializes *cross-process*
    writers; in-process LRU bookkeeping (hit/miss/eviction counters, the
    mtime refresh of :meth:`get`, the eviction scan of :meth:`put`) is
    additionally serialized by a per-instance :class:`threading.RLock`, so
    one cache instance can be shared by the serving layer's worker threads.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int | None = None,
        mmap: bool = True,
        verify: bool = False,
        lock_timeout: float = 10.0,
    ):
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self.mmap = bool(mmap)
        self.verify = bool(verify)
        self.lock_timeout = float(lock_timeout)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # In-process counterpart of the cross-process _DirectoryLock:
        # serializes counter/index mutation across worker threads sharing
        # this instance (reentrant — put() takes it around _enforce_budget).
        self._mutex = threading.RLock()

    def _lock(self) -> _DirectoryLock:
        return _DirectoryLock(self.directory, timeout=self.lock_timeout)

    # ----------------------------------------------------------------- keying
    def key(
        self,
        points: np.ndarray,
        kernel: KernelFunction,
        *,
        tol: float,
        format: str = "h2",
        leaf_size: int = 64,
        admissibility: object | None = None,
        seed: int | None = None,
        extra: Optional[dict] = None,
    ) -> str:
        """The SHA-256 content key of one compression request.

        ``extra`` carries any further construction knobs that change the
        result (sampling block size, rank caps, ...); it must be
        JSON-serializable.  Raises :class:`ArtifactError` for formats that
        do not persist (anything but ``h2`` / ``hss``) or admissibilities
        without a descriptor.  ``hss`` and ``h2`` hash differently although
        both store an ``h2`` artifact.
        """
        fmt = normalize_choice(format)
        version = format_version(fmt)
        pts = np.ascontiguousarray(
            np.atleast_2d(np.asarray(points, dtype=np.float64))
        )
        digest = hashlib.sha256()
        digest.update(b"repro.persist.key.v1\0")
        digest.update(str(pts.shape).encode("ascii"))
        digest.update(pts.tobytes())
        payload = {
            "leaf_size": int(leaf_size),
            "admissibility": (
                admissibility_descriptor(admissibility)
                if admissibility is not None
                else None
            ),
            "kernel": kernel_descriptor(kernel),
            "tol": float(tol),
            "format": fmt,
            "format_version": version,
            "seed": None if seed is None else int(seed),
            "extra": extra or {},
        }
        digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    def path_for(self, key: str) -> Path:
        """Artifact path of ``key`` (whether or not the entry exists)."""
        return self.directory / f"{key}{ARTIFACT_SUFFIX}"

    # ---------------------------------------------------------------- get/put
    def get(
        self,
        key: str,
        tracer: object | None = None,
        on_corruption: str = "evict",
        verify: bool | None = None,
    ):
        """The cached operator for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's LRU timestamp.  ``on_corruption``
        decides what a corrupted / version-mismatched entry does:

        ``"evict"``
            (default) drop the entry and count a miss — the caller rebuilds
            and overwrites it;
        ``"warn"``
            evict *and* announce the corruption through the
            ``repro.resilience`` structured logger;
        ``"raise"``
            raise :class:`~repro.resilience.ArtifactIntegrityError` (the
            strict-mode behaviour: nothing is papered over).

        ``verify`` overrides the instance's checksum-verification default
        for this call.
        """
        if on_corruption not in ("evict", "warn", "raise"):
            raise ValueError(
                f"on_corruption must be 'evict', 'warn' or 'raise', "
                f"not {on_corruption!r}"
            )
        check = self.verify if verify is None else bool(verify)
        path = self.path_for(key)
        if path.exists():
            try:
                if tracer is not None and getattr(tracer, "enabled", False):
                    with tracer.span("persist.load", category="persist", key=key):
                        operator = load(path, mmap=self.mmap, verify=check)
                else:
                    operator = load(path, mmap=self.mmap, verify=check)
            except ArtifactError as exc:
                if on_corruption == "raise":
                    from ..resilience.errors import ArtifactIntegrityError

                    raise ArtifactIntegrityError(
                        f"cache entry {key} is corrupted: {exc}",
                        stage="persist.get",
                        context={"key": key, "path": str(path)},
                    ) from exc
                if on_corruption == "warn":
                    from ..resilience.policy import resilience_adapter

                    resilience_adapter().warn(
                        "artifact-corrupted", key=key, error=str(exc)
                    )
                # A torn/stale entry must not poison the cache: drop it and
                # report a miss so the caller reconstructs.
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - race with other process
                    pass
            else:
                with self._mutex:
                    self.hits += 1
                    now = time.time()
                    try:
                        os.utime(path, (now, now))
                    except OSError:  # pragma: no cover - evicted meanwhile
                        pass
                return operator
        with self._mutex:
            self.misses += 1
        return None

    def put(self, key: str, operator: object) -> Path:
        """Store ``operator`` under ``key`` (atomic write), evict over budget.

        Writers of the same cache directory are serialised by an advisory
        file lock with exponential backoff, so concurrent processes sharing
        one cache cannot interleave eviction scans with each other's writes.
        """
        with self._mutex, self._lock():
            path = save(operator, self.path_for(key))
            self._enforce_budget()
        return path

    def get_or_build(
        self,
        key: str,
        build: Callable[[], object],
        policy: "ExecutionPolicy",
    ) -> Tuple[object, bool]:
        """``(operator, hit)``: the entry of ``key``, or ``build()`` stored there.

        The library's one cache-aside.  Reads record to ``policy.tracer``;
        under ``policy.recovery`` they verify checksums and a corrupted entry
        raises (``strict``) or is evicted, with a warning under ``warn``, and
        rebuilt.  ``policy.faults`` may corrupt the freshly stored file.
        """
        integrity = (
            {}
            if policy.recovery is None
            else {"on_corruption": _CORRUPTION_MODES[policy.recovery.mode], "verify": True}
        )
        operator = self.get(key, tracer=policy.tracer, **integrity)
        if operator is not None:
            return operator, True
        operator = build()
        self.put(key, operator)
        if policy.faults is not None:
            policy.faults.corrupt_artifact(self.path_for(key))
        return operator, False

    # -------------------------------------------------------------- lifecycle
    def _entries(self) -> List[Tuple[Path, os.stat_result]]:
        """``(path, stat)`` of every entry, oldest mtime first.

        Each file is stat-ed once, and one that vanishes between the
        directory scan and its stat (evicted by another thread's
        :meth:`put`, or by another process) is skipped.
        """
        entries = []
        for path in self.directory.glob(f"*{ARTIFACT_SUFFIX}"):
            try:
                info = path.stat()
            except FileNotFoundError:
                continue
            if stat.S_ISREG(info.st_mode):
                entries.append((path, info))
        entries.sort(key=lambda entry: entry[1].st_mtime)
        return entries

    def _enforce_budget(self) -> None:
        if self.max_bytes is None:
            return
        entries = self._entries()
        total = sum(info.st_size for _, info in entries)
        for path, info in entries:  # oldest mtime first — LRU
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - race with other process
                continue
            total -= info.st_size
            with self._mutex:
                self.evictions += 1

    def clear(self) -> None:
        """Delete every cache entry."""
        with self._mutex, self._lock():
            for path, _ in self._entries():
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - race with other process
                    pass

    # ------------------------------------------------------------- reporting
    def size_bytes(self) -> int:
        return sum(info.st_size for _, info in self._entries())

    def statistics(self) -> Dict[str, object]:
        with self._mutex:
            entries = self._entries()
            return {
                "directory": str(self.directory),
                "entries": len(entries),
                "bytes": sum(info.st_size for _, info in entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        stats = self.statistics()
        return (
            f"ArtifactCache({stats['directory']!r}, entries={stats['entries']}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def default_cache(mmap: bool = True) -> Optional[ArtifactCache]:
    """The environment-configured cache (``REPRO_CACHE_DIR``), or ``None``.

    The path value is stripped but never casefolded (paths are
    case-sensitive); unset or blank means caching stays off.
    """
    from ..utils.env import env_path

    directory = env_path("REPRO_CACHE_DIR")
    if directory is None:
        return None
    return ArtifactCache(directory, mmap=mmap)
