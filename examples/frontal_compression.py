"""Compressing multifrontal frontal matrices: H2 vs HSS vs HODLR (Fig. 6b workflow).

Extracts the root-separator frontal matrix (exact Schur complement) of a 3D
Poisson problem, clusters the separator-plane unknowns geometrically and
compresses the front with three hierarchical formats, reporting memory and
measured error for each — the comparison behind Fig. 6(b) of the paper.

Run with:  python examples/frontal_compression.py [grid]
"""

import sys

import numpy as np

from repro import (
    ClusterTree,
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    GeneralAdmissibility,
    H2Constructor,
    build_block_partition,
    compress,
)
from repro.baselines import build_hodlr
from repro.diagnostics import dense_relative_error, format_table
from repro.multifrontal import root_frontal_matrix


def main(grid: int = 20) -> None:
    print(f"== Frontal-matrix compression for a {grid}^3 Poisson problem ==")
    front = root_frontal_matrix((grid, grid, grid))
    print(f"root separator front: {front.size} x {front.size}")

    tree = ClusterTree.build(front.points, leaf_size=32)
    dense = front.matrix[np.ix_(tree.perm, tree.perm)]
    extractor = DenseEntryExtractor(dense)
    tolerance = 1e-6

    rows = []

    partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
    h2 = H2Constructor(
        partition,
        DenseOperator(dense),
        extractor,
        ConstructionConfig(tolerance=tolerance, sample_block_size=32),
        seed=1,
    ).construct()
    rows.append(
        [
            "H2 (strong admissibility, ours)",
            f"{h2.memory_mb():.2f}",
            f"{dense_relative_error(h2.matrix.to_dense(permuted=True), dense):.2e}",
        ]
    )

    hss = compress(
        format="hss",
        tree=tree,
        operator=DenseOperator(dense),
        extractor=extractor,
        tol=tolerance,
        sample_block_size=32,
        seed=2,
        full_result=True,
    )
    rows.append(
        [
            "HSS (weak admissibility)",
            f"{hss.memory_mb():.2f}",
            f"{dense_relative_error(hss.matrix.to_dense(permuted=True), dense):.2e}",
        ]
    )

    hodlr = build_hodlr(tree, extractor.extract, tol=tolerance)
    rows.append(
        [
            "HODLR (ACA)",
            f"{hodlr.memory_bytes()['total'] / 2**20:.2f}",
            f"{dense_relative_error(hodlr.to_dense(permuted=True), dense):.2e}",
        ]
    )
    rows.append(["dense", f"{dense.nbytes / 2**20:.2f}", "0"])

    print(format_table(["format", "memory [MB]", "rel. error"], rows))


if __name__ == "__main__":
    grid = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    main(grid)
