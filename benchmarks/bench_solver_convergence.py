"""Solver convergence study: Krylov methods on kernel systems, with and
without hierarchical preconditioning.

The paper builds H2/HSS matrices so they can be *used*; this benchmark closes
the loop on the covariance workload (Section V-A, Eq. 8): for each problem
size it solves ``(K + sigma I) x = b`` with

* unpreconditioned CG,
* CG preconditioned by a loose sketched-HSS factorization
  (``factorize(compress(..., format="hss", tol=1e-3))``),
* the near-linear HODLR *direct* solve,

and prints the iteration counts, setup/solve times and residuals, mirroring
the format of the paper-figure benches.  Sizes follow ``REPRO_BENCH_SIZES``.
"""

import time

import numpy as np
import pytest

from repro import (
    ClusterTree,
    cg,
    compress,
    factorize,
)
from repro.baselines import HODLRFactorization, build_hodlr
from repro.utils.tables import format_table

from common import (
    DEFAULT_SAMPLE_BLOCK,
    bench_sizes,
    make_covariance_problem,
)

NUGGET = 1e-2
SOLVE_TOL = 1e-8
PRECOND_TOL = 1e-3


def solve_problem(n: int):
    problem = make_covariance_problem(n)
    tree: ClusterTree = problem.tree
    system = problem.dense + NUGGET * np.eye(n)
    b = np.random.default_rng(n).standard_normal(n)

    plain = cg(system, b, tol=SOLVE_TOL, maxiter=8 * n)

    start = time.perf_counter()
    preconditioner = factorize(
        compress(
            tree=tree,
            operator=problem.fresh_operator(),
            extractor=problem.extractor,
            format="hss",
            tol=PRECOND_TOL,
            sample_block_size=DEFAULT_SAMPLE_BLOCK,
            seed=7,
        ),
        shift=NUGGET,
    )
    setup_seconds = time.perf_counter() - start
    # The preconditioner factors K (permuted ordering); the system here is
    # also in the permuted ordering, so apply the factorization directly.
    accelerated = cg(
        system,
        b,
        tol=SOLVE_TOL,
        maxiter=8 * n,
        M=lambda r: preconditioner.solve(r, permuted=True),
    )

    hodlr = build_hodlr(
        tree,
        lambda rows, cols: system[np.ix_(rows, cols)],
        tol=1e-10,
    )
    factorization = HODLRFactorization(hodlr)
    x_direct = factorization.solve(b, permuted=True)
    direct_residual = float(
        np.linalg.norm(system @ x_direct - b) / np.linalg.norm(b)
    )

    return {
        "n": n,
        "cg_iters": plain.iterations,
        "cg_time_s": plain.elapsed_seconds,
        "pcg_iters": accelerated.iterations,
        "pcg_time_s": accelerated.elapsed_seconds,
        "pcg_setup_s": setup_seconds,
        "speedup_iters": plain.iterations / max(1, accelerated.iterations),
        "direct_resid": direct_residual,
        "direct_mb": factorization.memory_bytes() / 2**20,
        "converged": plain.converged and accelerated.converged,
    }


def run_convergence_sweep():
    rows = [solve_problem(n) for n in bench_sizes()]
    print()
    print(
        format_table(
            [
                "N",
                "CG iters",
                "CG s",
                "PCG iters",
                "PCG s",
                "setup s",
                "iter speedup",
                "direct resid",
                "direct MB",
            ],
            [
                [
                    r["n"],
                    r["cg_iters"],
                    r["cg_time_s"],
                    r["pcg_iters"],
                    r["pcg_time_s"],
                    r["pcg_setup_s"],
                    r["speedup_iters"],
                    r["direct_resid"],
                    r["direct_mb"],
                ]
                for r in rows
            ],
            title="Solver convergence: covariance system (K + 1e-2 I) x = b, tol 1e-8",
        )
    )
    return rows


@pytest.mark.benchmark(group="solver-convergence")
def test_solver_convergence(benchmark):
    rows = benchmark.pedantic(run_convergence_sweep, rounds=1, iterations=1)
    for r in rows:
        assert r["converged"]
        # Preconditioning must reduce iterations substantially at every size.
        assert r["pcg_iters"] <= r["cg_iters"] / 2
        # The direct solve is accurate to (roughly) the HODLR tolerance.
        assert r["direct_resid"] < 1e-6


if __name__ == "__main__":
    run_convergence_sweep()
