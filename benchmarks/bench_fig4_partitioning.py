"""Fig. 4(a)-(b): block partitioning of a 3D problem for different admissibility eta.

The paper shows the block partition of an N = 2^15 3D point set for
eta = 0.5 and eta = 0.7 and notes that smaller eta refines the off-diagonal
partition and increases the sparsity constant Csp.  This benchmark rebuilds
the partitions (at reproduction scale) and prints, per eta, the number of
admissible/inadmissible blocks and the per-level and global sparsity
constants.
"""

import pytest

from repro import ClusterTree, GeneralAdmissibility, build_block_partition, uniform_cube_points
from repro.utils.tables import format_table

from common import bench_sizes

ETAS = (0.5, 0.7, 1.0)


def run_partitioning(n: int, leaf_size: int = 64):
    points = uniform_cube_points(n, dim=3, seed=1)
    tree = ClusterTree.build(points, leaf_size=leaf_size)
    rows = []
    results = {}
    for eta in ETAS:
        partition = build_block_partition(tree, GeneralAdmissibility(eta=eta))
        stats = partition.statistics()
        results[eta] = stats
        rows.append(
            [
                eta,
                stats["num_admissible_blocks"],
                stats["num_inadmissible_blocks"],
                stats["sparsity_constant"],
            ]
        )
    print()
    print(
        format_table(
            ["eta", "admissible blocks", "dense blocks", "Csp"],
            rows,
            title=f"Fig. 4: block partitioning statistics (N={n}, 3D, leaf={leaf_size})",
        )
    )
    return results


@pytest.mark.benchmark(group="fig4-partitioning")
def test_fig4_partitioning(benchmark):
    n = max(bench_sizes())
    results = benchmark.pedantic(run_partitioning, args=(n,), rounds=1, iterations=1)
    # Smaller eta must refine the partition: more dense blocks, larger (or equal) Csp.
    assert (
        results[0.5]["num_inadmissible_blocks"]
        >= results[0.7]["num_inadmissible_blocks"]
        >= results[1.0]["num_inadmissible_blocks"]
    )
    assert results[0.5]["sparsity_constant"] >= results[1.0]["sparsity_constant"]
