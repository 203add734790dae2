"""Fig. 7: breakdown of the construction time by phase on the two backends.

The paper profiles the share of the total construction time spent in sampling,
entry generation, BSR multiplication, the convergence test, the interpolative
decompositions and miscellaneous work, for growing problem sizes on CPU and
GPU.  The reproduction prints the same percentage breakdown for the serial
("CPU") and vectorized ("GPU-batched") backends, read from the
``construct.phase`` spans of a traced construction.

Runs under pytest-benchmark or standalone (``python
benchmarks/bench_fig7_profile_breakdown.py``; ``REPRO_BENCH_SIZES`` sets N).
Pick N >= 4096: below it the 3D leaf-64, eta = 0.7 partition has no
admissible block, nothing is sampled and only entry generation and misc
register.
"""

import pytest

from repro import SpanTracer
from repro.observe import PHASE_ORDER, PhaseBreakdown
from repro.utils.tables import format_table

from common import bench_sizes, cached_problem, construct_h2, emit_bench_json


def run_profile_breakdown():
    rows = []
    breakdowns = {}
    for n in bench_sizes():
        problem = cached_problem("covariance", n)
        for backend in ("serial", "vectorized"):
            result = construct_h2(problem, backend=backend, tracer=SpanTracer())
            pct = PhaseBreakdown.from_span(result.trace).ordered_percentages()
            breakdowns[(backend, n)] = pct
            rows.append(
                [backend, n, f"{result.elapsed_seconds:.3f}"]
                + [f"{pct.get(phase, 0.0):.1f}" for phase in PHASE_ORDER]
            )
    print()
    print(
        format_table(
            ["backend", "N", "total [s]"] + [f"{p} %" for p in PHASE_ORDER],
            rows,
            title="Fig. 7: construction time breakdown by phase",
        )
    )
    emit_bench_json(
        "fig7_profile_breakdown",
        [
            {"backend": backend, "n": n, "percent": pct}
            for (backend, n), pct in breakdowns.items()
        ],
    )
    return breakdowns


def check_breakdowns(breakdowns):
    for pct in breakdowns.values():
        total = sum(pct.values())
        assert abs(total - 100.0) < 1e-6 or total == 0.0
    largest = max(bench_sizes())
    pct = breakdowns[("vectorized", largest)]
    # A partition without admissible blocks samples nothing and would pass the
    # comparison below vacuously.
    assert pct["sampling"] > 0.0
    # sampling + BSR multiplication dominate, as reported in the paper (Section V-C)
    heavy = pct["sampling"] + pct["bsr_gemm"] + pct["entry_generation"]
    assert heavy > pct["id"]


@pytest.mark.benchmark(group="fig7-profile")
def test_fig7_profile_breakdown(benchmark):
    check_breakdowns(
        benchmark.pedantic(run_profile_breakdown, rounds=1, iterations=1)
    )


if __name__ == "__main__":
    check_breakdowns(run_profile_breakdown())
