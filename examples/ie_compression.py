"""Volume integral-equation compression: accuracy/memory vs tolerance.

Compresses the discretized Helmholtz volume-IE operator (Eq. 9 of the paper,
k = 3) on a uniform 3D point cloud for a range of compression tolerances and
reports how the measured error, the ranks and the memory footprint react —
the trade-off a practitioner tunes when embedding the construction in an IE
solver.

Run with:  python examples/ie_compression.py [N]
"""

import sys

from repro import (
    ClusterTree,
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    GeneralAdmissibility,
    H2Constructor,
    HelmholtzKernel,
    build_block_partition,
    uniform_cube_points,
)
from repro.linalg import construction_error
from repro.utils.tables import format_table


def main(n: int = 8192) -> None:
    print(f"== Helmholtz volume-IE compression (N={n}, k=3) ==")
    points = uniform_cube_points(n, dim=3, seed=4)
    tree = ClusterTree.build(points, leaf_size=64)
    partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))

    kernel = HelmholtzKernel(wavenumber=3.0, diagonal_value=0.0)
    dense = kernel.matrix(tree.points)  # reference operator (reproduction scale)
    operator = DenseOperator(dense)
    extractor = DenseEntryExtractor(dense)

    rows = []
    for tolerance in (1e-3, 1e-5, 1e-7):
        config = ConstructionConfig(tolerance=tolerance, sample_block_size=64)
        result = H2Constructor(partition, DenseOperator(dense), extractor, config, seed=5).construct()
        error = construction_error(result.matrix, operator, num_iterations=8, seed=6)
        lo, hi = result.rank_range
        rows.append(
            [
                f"{tolerance:g}",
                f"{result.elapsed_seconds:.2f}",
                result.total_samples,
                f"{lo}-{hi}",
                f"{result.memory_mb():.1f}",
                f"{error:.2e}",
            ]
        )
    print(
        format_table(
            ["tolerance", "time [s]", "samples", "rank range", "memory [MB]", "rel. error"],
            rows,
            title="Accuracy / memory trade-off",
        )
    )
    print(f"dense matrix for reference: {dense.nbytes / 2**20:.1f} MB")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 8192
    main(size)
