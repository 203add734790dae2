"""Ablation: ID truncation threshold mode and compression tolerance.

Two design choices of the constructor are swept on a fixed covariance problem:

* the interpolative-decomposition truncation mode — per-node *relative*
  threshold vs an *absolute* threshold derived from the estimated global
  matrix norm (Section III-B);
* the compression tolerance itself, demonstrating the accuracy/memory
  trade-off (rank growth is roughly logarithmic in 1/eps).
"""

import pytest

from repro import ConstructionConfig, DenseEntryExtractor, DenseOperator, H2Constructor
from repro.linalg import construction_error
from repro.utils.tables import format_table

from common import bench_sizes, cached_problem

TOLERANCES = (1e-3, 1e-6, 1e-9)


def run_truncation_ablation():
    n = min(max(bench_sizes()), 4096)
    problem = cached_problem("covariance", n)
    rows = []
    records = []
    for mode in ("relative", "absolute"):
        for tol in TOLERANCES:
            result = H2Constructor(
                problem.partition,
                DenseOperator(problem.dense),
                DenseEntryExtractor(problem.dense),
                ConstructionConfig(
                    tolerance=tol, sample_block_size=64, id_tolerance_mode=mode
                ),
                seed=9,
            ).construct()
            error = construction_error(
                result.matrix, problem.fresh_operator(), num_iterations=8, seed=3
            )
            lo, hi = result.rank_range
            records.append(
                {"mode": mode, "tol": tol, "error": error, "memory": result.memory_mb(),
                 "rank_max": hi, "samples": result.total_samples}
            )
            rows.append(
                [mode, f"{tol:g}", f"{lo}-{hi}", f"{result.memory_mb():.1f}",
                 result.total_samples, f"{error:.2e}"]
            )
    print()
    print(
        format_table(
            ["ID threshold", "tolerance", "rank range", "memory [MB]", "samples", "rel. error"],
            rows,
            title=f"Ablation: ID truncation mode and tolerance (covariance, N={n})",
        )
    )
    return records


@pytest.mark.benchmark(group="ablation-truncation")
def test_ablation_truncation(benchmark):
    records = benchmark.pedantic(run_truncation_ablation, rounds=1, iterations=1)
    for mode in ("relative", "absolute"):
        subset = sorted(
            (r for r in records if r["mode"] == mode), key=lambda r: r["tol"], reverse=True
        )
        errors = [r["error"] for r in subset]
        ranks = [r["rank_max"] for r in subset]
        # tighter tolerance -> smaller error and larger (or equal) ranks
        assert errors[-1] <= errors[0]
        assert ranks[-1] >= ranks[0]
        # every run meets its own tolerance within a modest factor
        assert all(r["error"] < 1000 * r["tol"] for r in subset)
