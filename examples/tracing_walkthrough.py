"""Trace a full pipeline with repro.observe and read the results three ways.

One :class:`repro.SpanTracer` rides along on the
:class:`~repro.api.policy.ExecutionPolicy` and every layer reports into it:
the constructor emits per-phase and per-level spans, the compiled apply engine
attributes launches/flops/bytes to ``apply`` spans, the Krylov solvers mark
every iteration, and the GP sweep wraps each hyperparameter evaluation.  The
same trace then serves as

1. a console tree (human skim),
2. a Chrome ``trace_event`` file for https://ui.perfetto.dev (timeline), and
3. the one record the views of :mod:`repro.observe.views` read — the Fig. 7
   phase breakdown is read from the phase spans (the constructor keeps no
   other clock), and the launch attribution matches the policy's launch
   counter exactly.

On top of the timings, the run demonstrates the health & resource telemetry:
``ExecutionPolicy(health=..., memory_profile=True)`` probes every produced
operator with a stochastic compression-error estimate, triages the solver
residual history, attributes per-span (and hence per-phase) peak memory, and
everything aggregates into one metrics registry exported as OpenMetrics text.

Run with:  python examples/tracing_walkthrough.py [N]
"""

import sys
import tempfile

import numpy as np

from repro import (
    ExecutionPolicy,
    ExponentialKernel,
    Session,
    SpanTracer,
    uniform_cube_points,
)
from repro.observe import (
    HealthThresholds,
    MetricsRegistry,
    PhaseBreakdown,
    console_tree,
    memory_ledger,
    render_openmetrics,
    save_chrome_trace,
    total_launches,
)

NOISE = 1e-2


def main(n: int = 2048) -> None:
    print(f"== Traced pipeline: construct -> factor -> solve -> GP fit, N={n} ==")

    # One tracer for the whole run; a private metrics registry keeps the
    # demo's histograms separate from the process-wide default.  health=
    # probes every produced operator (warn-only), memory_profile= attaches
    # the per-span peak-memory sampler.
    metrics = MetricsRegistry()
    tracer = SpanTracer(metrics=metrics)
    policy = ExecutionPolicy(
        tracer=tracer, health=HealthThresholds(), memory_profile=True
    )

    points = uniform_cube_points(n, dim=2, seed=0)
    kernel = ExponentialKernel(length_scale=0.2)

    sess = Session(points, policy=policy, seed=1)
    sess.compress(kernel, tol=1e-6).factor(noise=NOISE)
    solve = sess.solve(np.ones(n), tol=1e-8)
    gp = sess.gp(kernel, noise=NOISE)
    gp.fit(np.sin(points[:, 0] * 5.0), length_scales=[0.15, 0.2, 0.3])
    print(f"solve: {solve.iterations} iterations, "
          f"final residual {solve.final_residual:.2e}; "
          f"GP sweep: {len(gp.fit_reports_)} points, "
          f"best length_scale {gp.kernel.length_scale}")

    # 1. Console tree: every span >= 1 ms, indented by nesting.
    print("\n-- span tree (>= 1 ms) " + "-" * 40)
    print(console_tree(tracer, min_duration=1e-3))

    # 2. Chrome trace for Perfetto / chrome://tracing.
    path = save_chrome_trace(
        tracer, tempfile.gettempdir() + "/repro-trace.json"
    )
    print(f"\nchrome trace written to {path} (open in https://ui.perfetto.dev)")

    # 3. Diagnostics as views over the trace.  The construction span carries
    # the phase spans the Fig. 7 breakdown is built from.
    result = sess.result
    from_trace = PhaseBreakdown.from_span(result.trace)
    print("\n-- construction phase shares (from the trace) " + "-" * 18)
    for phase, pct in from_trace.ordered_percentages().items():
        print(f"  {phase:<18} {pct:5.1f}%")

    # Launch attribution is exact: the root spans' inclusive counter deltas
    # sum to precisely what the policy's shared launch counter recorded.
    counter = policy.launch_counter()
    print(f"\nlaunches attributed to spans: {total_launches(tracer)} "
          f"(policy counter total: {counter.total()})")
    assert total_launches(tracer) == counter.total()

    # The duration histograms the tracer feeds per span category.
    print("\n-- span duration histograms " + "-" * 36)
    for name, summary in sorted(metrics.snapshot()["histograms"].items()):
        if not name.startswith("span."):
            continue  # rank/health histograms print in their own sections
        print(f"  {name:<28} count={summary['count']:<4} "
              f"p50={summary['p50'] * 1e3:8.2f} ms  "
              f"p95={summary['p95'] * 1e3:8.2f} ms")

    # 4. Numerical health: the policy probed the constructed operator against
    # exact kernel rows — a flagged report would also have warned through the
    # repro.observe.health logger.
    report = result.health
    print("\n-- operator health probe " + "-" * 39)
    print(f"  est. relative error {report.est_relative_error:.2e} "
          f"(tol {report.tol:g}, flagged={report.flagged})")
    print(f"  compression ratio   {report.compression_ratio:.1f}x dense")
    for level, stats in report.rank_levels.items():
        print(f"  level {level}: ranks {stats['min']:.0f}"
              f"..{stats['max']:.0f} (mean {stats['mean']:.1f})")

    # 5. Memory: per-phase construction peaks (from the span attributes the
    # sampler wrote) and the process-wide category ledger.
    print("\n-- construction peak memory by phase " + "-" * 27)
    for phase, peak in from_trace.ordered_peak_bytes().items():
        print(f"  {phase:<18} {peak / 2**20:7.2f} MiB")
    print("\n-- memory ledger (who holds the bytes) " + "-" * 25)
    for category, nbytes in memory_ledger().by_category().items():
        print(f"  {category:<10} {nbytes / 2**20:7.2f} MiB")

    # 6. OpenMetrics exposition of the same registry — scrape-ready text.
    exposition = render_openmetrics(metrics)
    print("\n-- openmetrics exposition (first 8 lines) " + "-" * 22)
    print("\n".join(exposition.splitlines()[:8]))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2048)
