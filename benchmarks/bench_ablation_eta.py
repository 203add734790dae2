"""Ablation: admissibility parameter eta (strong vs weak separation).

DESIGN.md lists the admissibility parameter as a design choice worth ablating:
smaller eta (stronger separation requirement) refines the partition, increases
the sparsity constant and the amount of dense storage, but reduces the ranks
of the admissible blocks; larger eta admits bigger blocks with larger ranks.
This benchmark sweeps eta for a fixed covariance problem and reports Csp,
ranks, memory, construction time and measured error.
"""

import pytest

from repro import (
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    GeneralAdmissibility,
    H2Constructor,
    build_block_partition,
)
from repro.linalg import construction_error
from repro.utils.tables import format_table

from common import DEFAULT_TOLERANCE, bench_sizes, cached_problem

ETAS = (0.5, 0.7, 1.0, 1.5)


def run_eta_ablation():
    n = min(max(bench_sizes()), 8192)
    problem = cached_problem("covariance", n)
    rows = []
    records = {}
    for eta in ETAS:
        partition = build_block_partition(problem.tree, GeneralAdmissibility(eta=eta))
        result = H2Constructor(
            partition,
            DenseOperator(problem.dense),
            DenseEntryExtractor(problem.dense),
            ConstructionConfig(tolerance=DEFAULT_TOLERANCE, sample_block_size=64),
            seed=7,
        ).construct()
        error = construction_error(result.matrix, problem.fresh_operator(), num_iterations=8, seed=3)
        lo, hi = result.rank_range
        records[eta] = {
            "csp": partition.sparsity_constant(),
            "admissible": partition.num_admissible_blocks(),
            "memory": result.memory_mb(),
            "time": result.elapsed_seconds,
            "error": error,
            "rank_max": hi,
        }
        rows.append(
            [
                eta,
                partition.sparsity_constant(),
                partition.num_admissible_blocks(),
                f"{lo}-{hi}",
                f"{result.memory_mb():.1f}",
                f"{result.elapsed_seconds:.3f}",
                f"{error:.2e}",
            ]
        )
    print()
    print(
        format_table(
            ["eta", "Csp", "admissible blocks", "rank range", "memory [MB]", "time [s]", "rel. error"],
            rows,
            title=f"Ablation: admissibility parameter eta (covariance, N={n})",
        )
    )
    return records


@pytest.mark.benchmark(group="ablation-eta")
def test_ablation_eta(benchmark):
    records = benchmark.pedantic(run_eta_ablation, rounds=1, iterations=1)
    # accuracy holds across the eta range
    assert all(r["error"] < 100 * DEFAULT_TOLERANCE for r in records.values())
    # weaker admissibility admits more blocks and larger maximum ranks
    assert records[1.5]["admissible"] >= records[0.5]["admissible"]
    assert records[1.5]["rank_max"] >= records[0.5]["rank_max"]
