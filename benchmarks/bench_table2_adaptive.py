"""Table II: effect of leaf size and sample block size, fixed vs adaptive sampling.

The paper fixes a 3D problem (N = 2^18 there; reproduction scale here) and
varies the leaf size (128/256) and the sampling block size (equal to the leaf
size for the fixed-sample variant, 32 for the adaptive variant), reporting
construction time, rank range, memory, total samples and the measured relative
error for both the covariance and IE kernels.
"""

import pytest

from repro.utils.tables import format_table

from common import bench_sizes, cached_problem, construct_h2, measured_error

LEAF_SIZES = (64, 128)
ADAPTIVE_BLOCK = 32
#: Oversampling added to the leaf size for the fixed-sample runs.  The paper
#: uses leaf-size sample blocks with leaf sizes of 128/256, comfortably above
#: the observed ranks; at reproduction scale (leaf 64/128) a small oversampling
#: keeps the fixed-sample variant's rank detection reliable.
FIXED_OVERSAMPLING = 64
TOLERANCE = 1e-6


def run_table2(n: int | None = None):
    n = n if n is not None else max(bench_sizes())
    rows = []
    records = []
    for kind in ("covariance", "ie"):
        for leaf in LEAF_SIZES:
            problem = cached_problem(kind, n, leaf_size=leaf)
            for mode in ("fixed sample", "adaptive"):
                if mode == "fixed sample":
                    fixed_samples = leaf + FIXED_OVERSAMPLING
                    result = construct_h2(
                        problem,
                        backend="vectorized",
                        tolerance=TOLERANCE,
                        adaptive=False,
                        initial_samples=fixed_samples,
                        sample_block_size=fixed_samples,
                    )
                    block = fixed_samples
                else:
                    result = construct_h2(
                        problem,
                        backend="vectorized",
                        tolerance=TOLERANCE,
                        adaptive=True,
                        sample_block_size=ADAPTIVE_BLOCK,
                        initial_samples=ADAPTIVE_BLOCK,
                    )
                    block = ADAPTIVE_BLOCK
                error = measured_error(result, problem)
                lo, hi = result.rank_range
                records.append(
                    {
                        "kind": kind,
                        "mode": mode,
                        "leaf": leaf,
                        "samples": result.total_samples,
                        "error": error,
                        "memory": result.memory_mb(),
                        "time": result.elapsed_seconds,
                    }
                )
                rows.append(
                    [
                        kind,
                        mode,
                        f"{result.elapsed_seconds:.3f}",
                        f"{lo}-{hi}",
                        f"{result.memory_mb():.2f}",
                        result.total_samples,
                        block,
                        leaf,
                        f"{error:.3e}",
                    ]
                )
    print()
    print(
        format_table(
            [
                "kernel",
                "variant",
                "time [s]",
                "rank range",
                "memory [MB]",
                "total samples",
                "sample block",
                "leaf size",
                "rel. error",
            ],
            rows,
            title=f"Table II: leaf size / sample block study (N={n}, tol={TOLERANCE:g})",
        )
    )
    return records


@pytest.mark.benchmark(group="table2-adaptive")
def test_table2_adaptive(benchmark):
    records = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    # every variant meets the tolerance within a modest factor
    assert all(r["error"] < 1e-3 for r in records)
    # adaptive sampling uses fewer (or equal) samples than the fixed-sample runs
    for kind in ("covariance", "ie"):
        for leaf in LEAF_SIZES:
            fixed = next(
                r for r in records if r["kind"] == kind and r["leaf"] == leaf and r["mode"] == "fixed sample"
            )
            adaptive = next(
                r for r in records if r["kind"] == kind and r["leaf"] == leaf and r["mode"] == "adaptive"
            )
            assert adaptive["samples"] <= fixed["samples"]
