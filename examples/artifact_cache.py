"""Operator persistence and the content-addressed artifact cache.

The construction is the expensive step of the pipeline; the operator it
produces is a pure function of (geometry, kernel, tolerance, format, seed).
:mod:`repro.persist` makes that investment durable:

1. save any compressed operator to a versioned ``REPROART`` artifact file
   (``op.save(path)``) and load it back bitwise-identically — zero-copy, the
   block data stays memmapped and pages in lazily;
2. opt into the content-addressed :class:`repro.ArtifactCache` with
   ``cache_dir=`` (or the ``REPRO_CACHE_DIR`` environment variable): the
   first process to request a compression constructs and stores it, every
   later identical request — across processes and sessions — loads it in
   milliseconds;
3. anything that changes the result (tolerance, kernel hyperparameters,
   seed, leaf size, format) changes the key, so stale hits cannot happen.

The demo checks what it shows: the loaded operator's ``to_dense()`` and first
matvec are bitwise those of the saved one, and the warm compression is a cache
hit with the same bits.  It prints ``artifact cache demo: OK`` and exits
non-zero otherwise.

Run with:  python examples/artifact_cache.py [N]
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro


def main(n: int = 4096) -> None:
    print(f"== Operator persistence & artifact cache (N={n}) ==")
    points = repro.uniform_cube_points(n, dim=3, seed=0)
    kernel = repro.ExponentialKernel(length_scale=0.2)

    with tempfile.TemporaryDirectory(prefix="repro-artifacts-") as tmp:
        # --- explicit save/load -----------------------------------------
        h2 = repro.compress(points, kernel, tol=1e-6, seed=1)
        path = Path(tmp) / "operator.repro"
        start = time.perf_counter()
        h2.save(path)
        save_s = time.perf_counter() - start
        start = time.perf_counter()
        loaded = repro.load_operator(path)
        load_s = time.perf_counter() - start
        x = np.random.default_rng(2).standard_normal(n)
        failures = []
        if not np.array_equal(loaded @ x, h2 @ x):
            failures.append("the loaded operator's first matvec differs")
        exact = np.array_equal(loaded.to_dense(), h2.to_dense())
        if not exact:
            failures.append("the loaded operator's to_dense() differs")
        print(
            f"save: {save_s:.3f}s ({path.stat().st_size / 2**20:.1f} MB), "
            f"zero-copy load: {load_s * 1e3:.1f}ms, bitwise round trip: {exact}"
        )

        # --- cache-aside compression ------------------------------------
        cache_dir = Path(tmp) / "cache"
        start = time.perf_counter()
        repro.compress(points, kernel, tol=1e-6, seed=1, cache_dir=cache_dir)
        cold_s = time.perf_counter() - start
        cache = repro.ArtifactCache(cache_dir)
        start = time.perf_counter()
        warm = repro.compress(points, kernel, tol=1e-6, seed=1, cache=cache)
        warm_s = time.perf_counter() - start
        if cache.hits != 1:
            failures.append(f"the warm compress was no cache hit ({cache.statistics()})")
        if not np.array_equal(warm @ x, h2 @ x):
            failures.append("the warm operator's matvec differs")
        print(
            f"cold compress (construct + store): {cold_s:.2f}s, "
            f"warm compress (cache hit): {warm_s * 1e3:.1f}ms "
            f"-> {cold_s / max(warm_s, 1e-9):.0f}x"
        )
        y = warm @ np.ones(n)
        print(f"warm operator matvec norm: {np.linalg.norm(y):.6g}")

        # A different tolerance (or kernel, or seed, ...) is a different key.
        repro.compress(points, kernel, tol=1e-4, seed=1, cache=cache)
        print(f"cache after a tol=1e-4 request: {cache.statistics()}")

        # Sessions share the same cache-aside path.  Session geometry defaults
        # to the weak (HSS) partition, a different key than the strong-H2
        # requests above: the first Session constructs and stores, a second
        # one (a later process in real use) loads the artifact.
        repro.Session(points, seed=1, cache_dir=cache_dir).compress(kernel, tol=1e-6)
        sess = repro.Session(points, seed=1, cache_dir=cache_dir)
        sess.compress(kernel, tol=1e-6)
        hits = sess.statistics.artifact_cache_hits
        print(
            f"second Session construction_path={sess.result.construction_path!r} "
            f"(artifact cache hits: {hits})"
        )
    if failures:
        print("artifact cache demo: FAILED: " + "; ".join(failures))
        sys.exit(1)
    print("artifact cache demo: OK")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 4096
    main(size)
