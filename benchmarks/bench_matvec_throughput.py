"""Batched H2 apply throughput: matvec/matmat time and launch counts vs N.

The compiled apply engine (:mod:`repro.batched.apply_plan`) claims two things:

* launches per apply are O(levels) — independent of the number of tree nodes
  and blocks — on both backends, and
* the vectorized backend turns the Krylov hot path into a handful of stacked
  GEMMs.

For every N this benchmark constructs the 2D covariance H2 matrix, then times
the serial backend and the vectorized backend for ``k = 1`` (matvec) and
``k = 8`` (matmat), reporting per-apply launch counts, effective GFLOP/s and
operand bandwidth, all read from the fastest traced ``apply`` span.  Up to
``DENSE_CHECK_MAX_N`` the apply is also checked against the dense
reconstruction ``h2.to_dense()``.  Results are printed as a table and emitted
as the standard ``BENCH_JSON`` line.  Sizes follow ``REPRO_BENCH_SIZES``.
"""

import numpy as np
import pytest

from repro import (
    ClusterTree,
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    ExecutionPolicy,
    ExponentialKernel,
    GeneralAdmissibility,
    H2Constructor,
    SpanTracer,
    build_block_partition,
    uniform_cube_points,
)
from repro.observe import find_spans
from repro.utils.tables import format_table

from common import bench_sizes, emit_bench_json

LEAF_SIZE = 32
TOLERANCE = 1e-6
MATMAT_COLUMNS = 8
#: Largest N whose apply is checked against ``h2.to_dense()`` (an N x N copy).
DENSE_CHECK_MAX_N = 4096


def _build(n: int):
    points = uniform_cube_points(n, dim=2, seed=1)
    tree = ClusterTree.build(points, leaf_size=LEAF_SIZE)
    partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
    dense = ExponentialKernel(0.2).matrix(tree.points)
    result = H2Constructor(
        partition,
        DenseOperator(dense),
        DenseEntryExtractor(dense),
        ConstructionConfig(tolerance=TOLERANCE),
        seed=7,
    ).construct()
    return result.matrix


def fastest_apply(h2, backend: str, k: int, repeats: int):
    """The fastest of ``repeats`` traced ``k``-column applies, after a warm-up."""
    tracer = SpanTracer()
    traced = ExecutionPolicy(backend=backend, tracer=tracer).resolve_backend()
    plan = h2.apply_plan()
    x = np.random.default_rng(0).standard_normal((h2.num_rows, k))
    plan.execute(x, backend=traced, tracer=tracer)
    tracer.reset()
    for _ in range(repeats):
        plan.execute(x, backend=traced, tracer=tracer)
    return min(find_spans(tracer, name="apply"), key=lambda span: span.duration)


def bench_size(n: int):
    h2 = _build(n)
    x = np.random.default_rng(1).standard_normal(n)
    h2.matvec(x)  # compile the plan once up front
    plan = h2.apply_plan()
    reference = h2.to_dense(permuted=True) @ x if n <= DENSE_CHECK_MAX_N else None

    record = {
        "n": n,
        "levels": h2.tree.num_levels,
        "block_products": plan.num_block_products,
        "launches_per_apply": plan.num_stages,
        "backends": {},
    }
    for backend in ("serial", "vectorized"):
        span = fastest_apply(h2, backend, k=1, repeats=7)
        span_mm = fastest_apply(h2, backend, k=MATMAT_COLUMNS, repeats=3)
        error = None
        if reference is not None:
            batched = plan.execute(x[:, None], backend=backend)[:, 0]
            error = float(
                np.linalg.norm(batched - reference) / np.linalg.norm(reference)
            )
        record["backends"][backend] = {
            "matvec_s": span.duration,
            "matmat_s": span_mm.duration,
            "launches": span.total_calls,
            "gflops": span.flops / span.duration / 1e9,
            "bandwidth_gb_s": span.attributes["operand_bytes"] / span.duration / 2**30,
            "rel_error_vs_dense": error,
        }
    return record


def run_matvec_throughput():
    records = [bench_size(n) for n in bench_sizes()]
    rows = []
    for r in records:
        for backend, b in r["backends"].items():
            rows.append(
                [
                    r["n"],
                    backend,
                    r["levels"],
                    r["block_products"],
                    b["launches"],
                    f"{b['matvec_s'] * 1e3:.2f}",
                    f"{b['matmat_s'] * 1e3:.2f}",
                    f"{b['gflops']:.2f}",
                    f"{b['bandwidth_gb_s']:.2f}",
                ]
            )
    print()
    print(
        format_table(
            [
                "N",
                "backend",
                "levels",
                "block GEMMs",
                "launches",
                "matvec [ms]",
                f"matmat({MATMAT_COLUMNS}) [ms]",
                "GFLOP/s",
                "GiB/s",
            ],
            rows,
            title="Batched H2 apply throughput (2D covariance, tol 1e-6)",
        )
    )
    emit_bench_json("matvec_throughput", records)
    return records


@pytest.mark.benchmark(group="matvec-throughput")
def test_matvec_throughput(benchmark):
    records = benchmark.pedantic(run_matvec_throughput, rounds=1, iterations=1)
    for r in records:
        levels = r["levels"]
        # O(levels) launches, far below the per-node block-product count.
        assert r["launches_per_apply"] <= 12 * levels
        assert r["launches_per_apply"] < 0.25 * r["block_products"]
        for b in r["backends"].values():
            if b["rel_error_vs_dense"] is not None:
                assert b["rel_error_vs_dense"] < 1e-12


if __name__ == "__main__":
    run_matvec_throughput()
