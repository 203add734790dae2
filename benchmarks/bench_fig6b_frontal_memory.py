"""Fig. 6(b): memory of compressing multifrontal frontal matrices.

The paper compresses frontal matrices extracted from the multifrontal
factorization of a 3D Poisson problem with the proposed H2 algorithm and
compares its memory against STRUMPACK's weak-admissibility formats (HSS,
HODLR, HODBF).  The reproduction extracts exact root-separator Schur
complements from n^3 grids, compresses them with (i) the bottom-up H2
constructor on the strong-admissibility partition, (ii) the same constructor
with weak admissibility (= HSS) and (iii) an ACA-built HODLR matrix, and
prints memory per front size.  HODBF (butterfly) is out of scope — see
DESIGN.md.
"""

import numpy as np
import pytest

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
from repro.diagnostics import format_series
from repro.multifrontal import root_frontal_matrix

from common import DEFAULT_TOLERANCE, bench_grids


def compress_front(grid: int, tolerance: float = DEFAULT_TOLERANCE):
    front = root_frontal_matrix((grid, grid, grid))
    tree = ClusterTree.build(front.points, leaf_size=32)
    dense = front.matrix[np.ix_(tree.perm, tree.perm)]
    operator = DenseOperator(dense)
    extractor = DenseEntryExtractor(dense)

    partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
    h2 = H2Constructor(
        partition,
        operator,
        extractor,
        ConstructionConfig(tolerance=tolerance, sample_block_size=32),
        seed=1,
    ).construct()
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
    hodlr = build_hodlr(tree, extractor.extract, tol=tolerance)
    return {
        "front_size": front.size,
        "dense_mb": dense.nbytes / 2**20,
        "h2_mb": h2.memory_mb(),
        "hss_mb": hss.memory_mb(),
        "hodlr_mb": hodlr.memory_bytes()["total"] / 2**20,
    }


def run_frontal_sweep():
    series = {"H2 (ours) [MB]": {}, "HSS [MB]": {}, "HODLR [MB]": {}, "dense [MB]": {}}
    for grid in bench_grids():
        data = compress_front(grid)
        size = data["front_size"]
        series["H2 (ours) [MB]"][size] = data["h2_mb"]
        series["HSS [MB]"][size] = data["hss_mb"]
        series["HODLR [MB]"][size] = data["hodlr_mb"]
        series["dense [MB]"][size] = data["dense_mb"]
    print()
    print(
        format_series(
            "front size",
            series,
            title="Fig. 6(b): frontal-matrix compression memory (3D Poisson root separator)",
        )
    )
    return series


@pytest.mark.benchmark(group="fig6b-frontal")
def test_fig6b_frontal_memory(benchmark):
    series = benchmark.pedantic(run_frontal_sweep, rounds=1, iterations=1)
    sizes = sorted(series["dense [MB]"])
    largest = sizes[-1]
    # every hierarchical format compresses the largest front below dense storage
    for name in ("H2 (ours) [MB]", "HSS [MB]", "HODLR [MB]"):
        assert series[name][largest] < series["dense [MB]"][largest]
    # the H2 memory grows more slowly than the weak-admissibility formats
    if len(sizes) >= 2:
        smallest = sizes[0]
        h2_growth = series["H2 (ours) [MB]"][largest] / series["H2 (ours) [MB]"][smallest]
        hss_growth = series["HSS [MB]"][largest] / series["HSS [MB]"][smallest]
        assert h2_growth <= 1.5 * hss_growth
