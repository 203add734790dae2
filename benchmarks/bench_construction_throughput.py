"""Compiled construction throughput: points/second and launch counts vs N.

The compiled construction engine (:mod:`repro.batched.construction_plan`)
claims the same two things for Algorithm 1 that the apply plan claimed for
matvec:

* the sweep schedule costs O(levels) batched launches per convergence round —
  independent of the number of tree nodes — on both backends, and
* the vectorized backend turns the construction hot path (the inner loop of
  every GP hyperparameter sweep) into a handful of stacked GEMMs/gathers.

For every N this benchmark builds the 2D covariance problem, bootstraps a
compressed matrix once so the timed constructions sample through the fast H2
apply (the paper's black-box regime, the same as ``recompress_h2``), then
times the compiled sweep on both backends, reporting points/second and
sweep/generation launch counts.  Every timed construction compiles its own
:class:`~repro.batched.ConstructionPlan`, as every product construction does,
so points/second includes the plan compile.
Results are printed as a table and emitted as the standard ``BENCH_JSON``
line.  Sizes follow ``REPRO_BENCH_SIZES``.
"""

import time

import numpy as np
import pytest

from repro import (
    ClusterTree,
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    ExponentialKernel,
    GeneralAdmissibility,
    H2Constructor,
    build_block_partition,
    uniform_cube_points,
)
from repro.diagnostics import construction_report, format_table
from repro.sketching.operators import H2Operator

from common import bench_sizes, emit_bench_json

LEAF_SIZE = 8
TOLERANCE = 1e-8
SAMPLE_BLOCK = 8
REPEATS = 2


def _setup(n: int):
    points = uniform_cube_points(n, dim=2, seed=1)
    tree = ClusterTree.build(points, leaf_size=LEAF_SIZE)
    partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
    dense = ExponentialKernel(0.2).matrix(tree.points)
    bootstrap = H2Constructor(
        partition,
        DenseOperator(dense),
        DenseEntryExtractor(dense),
        ConstructionConfig(tolerance=TOLERANCE, norm_estimate=8.0),
        seed=3,
    ).construct()
    bootstrap.matrix.matvec(np.zeros(n))  # compile the sampler's apply plan
    return partition, dense, bootstrap.matrix


def _construct(partition, dense, sampler, backend):
    config = ConstructionConfig(
        tolerance=TOLERANCE,
        sample_block_size=SAMPLE_BLOCK,
        norm_estimate=8.0,
        backend=backend,
    )
    constructor = H2Constructor(
        partition,
        H2Operator(sampler),
        DenseEntryExtractor(dense),
        config,
        seed=7,
    )
    start = time.perf_counter()
    result = constructor.construct()
    return result, time.perf_counter() - start


def bench_size(n: int):
    partition, dense, sampler = _setup(n)
    record = {"n": n, "levels": partition.tree.num_levels, "variants": {}}
    for backend in ("serial", "vectorized"):
        best, result = np.inf, None
        for _ in range(REPEATS):
            result, seconds = _construct(partition, dense, sampler, backend)
            best = min(best, seconds)
        record["num_nodes"] = sum(level.num_nodes for level in result.levels)
        report = construction_report(result)
        record["variants"][backend] = {
            "seconds": best,
            "points_per_second": n / best,
            "sweep_launches": report.sweep_launches,
            "generation_launches": report.generation_launches,
            "sweep_launches_per_round": report.sweep_launches_per_round,
            "sampling_rounds": report.sampling_rounds,
            "total_samples": report.total_samples,
        }
    return record


def run_construction_throughput():
    records = [bench_size(n) for n in bench_sizes()]
    rows = []
    for r in records:
        for backend, v in r["variants"].items():
            rows.append(
                [
                    r["n"],
                    backend,
                    r["levels"],
                    r["num_nodes"],
                    f"{v['seconds']:.2f}",
                    f"{v['points_per_second'] / 1e3:.1f}",
                    v["sweep_launches"],
                    f"{v['sweep_launches_per_round']:.0f}",
                ]
            )
    print()
    print(
        format_table(
            [
                "N",
                "backend",
                "levels",
                "nodes",
                "time [s]",
                "kpts/s",
                "sweep launches",
                "launches/round",
            ],
            rows,
            title=(
                "Compiled construction throughput "
                f"(2D covariance, H2 fast-sampler, tol {TOLERANCE:g})"
            ),
        )
    )
    emit_bench_json("construction_throughput", records)
    return records


@pytest.mark.benchmark(group="construction-throughput")
def test_construction_throughput(benchmark):
    records = benchmark.pedantic(run_construction_throughput, rounds=1, iterations=1)
    for r in records:
        levels = r["levels"]
        for v in r["variants"].values():
            # O(levels) sweep launches per round, far below the node count.
            rounds = max(v["sampling_rounds"], 1)
            assert v["sweep_launches"] <= 10 * levels * rounds
            assert v["sweep_launches_per_round"] < r["num_nodes"]


if __name__ == "__main__":
    run_construction_throughput()
