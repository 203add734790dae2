"""Solve a kernel linear system end-to-end with the solver subsystem.

The workflow the solver subsystem was built for (kernel regression /
integral-equation solves):

1. compress the covariance matrix into an H2 matrix with the bottom-up
   sketching constructor — this is the fast operator;
2. sketch a *loose* HSS approximation of the same system and factor it on
   its own generators — this is the preconditioner;
3. run CG with and without the preconditioner and compare convergence;
4. cross-check with the near-linear *direct* solve of the H2 operator itself
   (``repro.factorize`` re-compresses it onto the weak partition with the
   same sketching constructor, then factors it), plus the log-determinant,
   the other quantity a Gaussian-process workload needs.

Run with:  python examples/kernel_system_solve.py [N]
"""

import sys
import time

import numpy as np

from repro import (
    ClusterTree,
    ConstructionConfig,
    ExponentialKernel,
    GeneralAdmissibility,
    H2Constructor,
    KernelEntryExtractor,
    KernelMatVecOperator,
    build_block_partition,
    cg,
    compress,
    factorize,
    uniform_cube_points,
)
from repro.diagnostics import convergence_table, residual_series

NUGGET = 1e-2


def main(n: int = 4096) -> None:
    print(f"== Kernel system solve: (K + {NUGGET} I) x = b with N={n} ==")

    points = uniform_cube_points(n, dim=2, seed=0)
    tree = ClusterTree.build(points, leaf_size=64)
    kernel = ExponentialKernel(length_scale=0.2)
    operator = KernelMatVecOperator(kernel, tree.points)
    extractor = KernelEntryExtractor(kernel, tree.points)

    # 1. Fast operator: H2 compression on the strong-admissibility partition.
    partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
    result = H2Constructor(
        partition, operator, extractor, ConstructionConfig(tolerance=1e-8), seed=0
    ).construct()
    h2 = result.matrix
    print(f"operator: H2 construction {result.elapsed_seconds:.2f}s, "
          f"{result.memory_mb():.1f} MB, ranks {result.rank_range}")

    def system_matvec(x):
        return h2.matvec(x) + NUGGET * x

    b = np.random.default_rng(1).standard_normal(n)

    # 2. Preconditioner: loose HSS sketch of the same operator, factored.
    start = time.perf_counter()
    preconditioner = factorize(
        compress(tree=tree, operator=operator, extractor=extractor,
                 format="hss", tol=1e-3, seed=1),
        shift=NUGGET,
    )
    print(f"preconditioner: setup {time.perf_counter() - start:.2f}s, "
          f"{preconditioner.memory_bytes() / 2**20:.1f} MB")

    # 3. CG with and without preconditioning.
    plain = cg(system_matvec, b, tol=1e-10, maxiter=4 * n)
    accelerated = cg(system_matvec, b, tol=1e-10, maxiter=4 * n, M=preconditioner)
    print()
    print(convergence_table({"cg": plain, "cg + HSS preconditioner": accelerated}))
    print()
    print(residual_series(
        {"cg": plain, "cg+M": accelerated},
        every=max(1, plain.iterations // 12),
    ))

    # 4. Direct solve: the strong H2 operator re-compressed onto the weak
    #    partition (tol 1e-6) and factored by HSS skeleton elimination.
    start = time.perf_counter()
    factorization = factorize(h2, shift=NUGGET)
    factor_seconds = time.perf_counter() - start
    x_direct = factorization.solve(b)
    residual = np.linalg.norm(system_matvec(x_direct) - b) / np.linalg.norm(b)
    sign, logabsdet = factorization.slogdet()
    print()
    print(f"HSS direct solve: factor {factor_seconds:.2f}s, "
          f"relative residual {residual:.2e}, "
          f"logdet {sign * logabsdet:+.4e}, "
          f"factor memory {factorization.memory_bytes() / 2**20:.1f} MB")
    iterative_vs_direct = np.linalg.norm(accelerated.x - x_direct) / np.linalg.norm(x_direct)
    print(f"preconditioned CG vs direct solve: relative difference {iterative_vs_direct:.2e}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4096)
