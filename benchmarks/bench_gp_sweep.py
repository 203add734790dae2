"""Gaussian-process hyperparameter sweep: geometry reuse vs cold construction.

The headline workload of the GP subsystem (and the acceptance claim of its
ISSUE): a log-likelihood sweep over kernel length scales re-constructs the
compressed covariance at every parameter point, and a
:class:`~repro.api.facade.Session` makes the re-constructions cheaper than
building from scratch: it builds the cluster tree and block partition once
and samples through the dense kernel-value matrix while that fits.

For every N this benchmark

* times ``len(scales)`` *cold* constructions (fresh tree/partition/operator
  per point, the workflow without geometry reuse),
* times the same sweep through one shared ``Session`` (``Session.construct``;
  the ``BENCH_JSON`` keys ``context_sweep_s`` / ``context`` hold its time and
  its reuse counters),
* runs the full GP model selection (``gp.fit`` over the length-scale grid) and
  reports per-point log-likelihoods, logdet/CG statistics and launch counts.

Results are printed as tables and emitted as the standard ``BENCH_JSON`` line.
Sizes follow ``REPRO_BENCH_SIZES``.
"""

import time

import numpy as np
import pytest

from repro import (
    ClusterTree,
    ConstructionConfig,
    ExponentialKernel,
    GaussianProcess,
    H2Constructor,
    Session,
    WeakAdmissibility,
    build_block_partition,
    gp_sweep_table,
    uniform_cube_points,
)
from repro.utils.tables import format_table
from repro.sketching import KernelEntryExtractor, KernelMatVecOperator

from common import bench_sizes, emit_bench_json

LEAF_SIZE = 64
TOLERANCE = 1e-6
SCALES = [0.15, 0.2, 0.3]
NOISE = 1e-2


def _cold_sweep_seconds(points: np.ndarray) -> float:
    start = time.perf_counter()
    for length_scale in SCALES:
        tree = ClusterTree.build(points, leaf_size=LEAF_SIZE)
        partition = build_block_partition(tree, WeakAdmissibility())
        kernel = ExponentialKernel(length_scale)
        H2Constructor(
            partition,
            KernelMatVecOperator(kernel, tree.points),
            KernelEntryExtractor(kernel, tree.points),
            ConstructionConfig(tolerance=TOLERANCE),
            seed=3,
        ).construct()
    return time.perf_counter() - start


def bench_size(n: int):
    points = uniform_cube_points(n, dim=3, seed=1)
    cold_seconds = _cold_sweep_seconds(points)

    start = time.perf_counter()
    session = Session(points, leaf_size=LEAF_SIZE, seed=3)
    for length_scale in SCALES:
        session.construct(ExponentialKernel(length_scale), tol=TOLERANCE)
    sweep_seconds = time.perf_counter() - start

    # Full GP model selection over the same grid (reuses the session).
    gp = GaussianProcess(
        points,
        ExponentialKernel(SCALES[0]),
        noise=NOISE,
        tolerance=TOLERANCE,
        seed=3,
        session=session,
    )
    y = np.sin(4.0 * points[:, 0]) * np.cos(3.0 * points[:, 1])
    start = time.perf_counter()
    gp.fit(y, length_scales=SCALES)
    fit_seconds = time.perf_counter() - start
    print()
    print(gp_sweep_table(gp.fit_reports_, title=f"GP sweep points at N = {n}"))

    return {
        "n": n,
        "scales": SCALES,
        "cold_sweep_s": cold_seconds,
        "context_sweep_s": sweep_seconds,
        "speedup": cold_seconds / sweep_seconds,
        "context": session.statistics.as_dict(),
        "gp_fit_s": fit_seconds,
        "best_length_scale": gp.kernel.length_scale,
        "log_likelihood": gp.log_marginal_likelihood_,
        "points": [report.summary() for report in gp.fit_reports_],
    }


def run_gp_sweep():
    records = [bench_size(n) for n in bench_sizes()]
    print()
    print(
        format_table(
            [
                "N",
                "cold sweep [s]",
                "session sweep [s]",
                "speedup",
                "GP fit [s]",
                "best l",
                "log-lik",
            ],
            [
                [
                    r["n"],
                    r["cold_sweep_s"],
                    r["context_sweep_s"],
                    f"{r['speedup']:.2f}x",
                    r["gp_fit_s"],
                    r["best_length_scale"],
                    r["log_likelihood"],
                ]
                for r in records
            ],
            title=(
                f"GP length-scale sweep over {SCALES} "
                f"(3D exponential covariance, tol {TOLERANCE:g})"
            ),
        )
    )
    emit_bench_json("gp_sweep", records)
    return records


@pytest.mark.benchmark(group="gp-sweep")
def test_gp_sweep(benchmark):
    records = benchmark.pedantic(run_gp_sweep, rounds=1, iterations=1)
    for r in records:
        # Geometry reuse must beat cold construction at every size.  No test
        # asserts a ratio; tests/test_context.py::TestAcceptance pins the
        # reuse itself (one tree and one partition per sweep).
        assert r["speedup"] > 1.0
        # The sweep should select a grid point and produce a finite likelihood.
        assert r["best_length_scale"] in SCALES
        assert np.isfinite(r["log_likelihood"])


if __name__ == "__main__":
    run_gp_sweep()
