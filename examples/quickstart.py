"""Quickstart: compress a 3D covariance matrix into an H2 matrix.

This is the minimal end-to-end workflow of the library through the
:mod:`repro.api` façade:

1. generate a 3D point cloud;
2. hand points + kernel to :func:`repro.compress` — the cluster tree, the
   strong-admissibility block partition and the sketching operator/entry
   evaluator of Algorithm 1 are assembled behind the scenes;
3. use the resulting H2 operator: fast matvec, memory report, error check.

Both formats (``h2``/``hss``) return an ``H2Matrix`` (HSS is H2 on the weak
partition), so everything below works unchanged with ``format="hss"``.

Run with:  python examples/quickstart.py [N]
"""

import sys
import time

import numpy as np

import repro
from repro.diagnostics import construction_error


def main(n: int = 8192) -> None:
    print(f"== Quickstart: H2 compression of an exponential covariance matrix (N={n}) ==")

    # Three lines from points to a compressed hierarchical operator.
    points = repro.uniform_cube_points(n, dim=3, seed=0)
    kernel = repro.ExponentialKernel(length_scale=0.2)
    start = time.perf_counter()
    result = repro.compress(
        points, kernel, format="h2", tol=1e-6, seed=1, full_result=True
    )
    elapsed = time.perf_counter() - start
    h2 = result.matrix

    stats = h2.statistics()
    print(
        f"construction: {elapsed:.2f}s, {result.total_samples} samples, "
        f"ranks {stats['rank_min']}-{stats['rank_max']}, "
        f"Csp = {stats['sparsity_constant']}"
    )
    print(
        f"memory: {h2.total_memory_mb():.1f} MB "
        f"(dense would be {n * n * 8 / 2**20:.1f} MB)"
    )

    # Use the operator: compiled batched apply in the original point ordering.
    x = np.random.default_rng(2).standard_normal(n)
    y = h2 @ x
    print(f"matvec output norm: {np.linalg.norm(y):.6g}")

    operator = repro.KernelMatVecOperator(kernel, h2.tree.points)
    error = construction_error(h2, operator, num_iterations=8, seed=3)
    print(f"measured relative error vs the kernel operator: {error:.3e}")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 8192
    main(size)
