"""Serial vs vectorized (batched) backend: the reproduction's CPU-vs-GPU story.

The paper's GPU speedup comes from fusing all per-node work of a level into a
handful of batched kernel launches.  This example constructs the same H2
matrix with the serial backend (one BLAS call per node, the "CPU" reference)
and the vectorized backend (one stacked call per shape group, the batched
"GPU-style" execution), and reports wall-clock time, the phase breakdown of
Fig. 7 and the kernel-launch statistics of Section IV-B.

Run with:  python examples/backend_comparison.py [N]
"""

import sys

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
from repro.observe import PHASE_ORDER, PhaseBreakdown, find_spans
from repro.utils.tables import format_table


def main(n: int = 8192) -> None:
    # The 2D covariance regime of the acceptance benchmarks (PR 2's apply
    # claim and the compiled-construction claim share it).
    print(f"== Backend comparison on the 2D covariance problem (N={n}) ==")
    points = uniform_cube_points(n, dim=2, seed=1)
    tree = ClusterTree.build(points, leaf_size=16)
    partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
    dense = ExponentialKernel(0.2).matrix(tree.points)
    extractor = DenseEntryExtractor(dense)

    rows = []
    results = {}
    for backend in ("serial", "vectorized"):
        config = ConstructionConfig(tolerance=1e-6, sample_block_size=64, backend=backend)
        # Traced: the phase breakdown is read from the construction's spans.
        result = H2Constructor(
            partition, DenseOperator(dense), extractor, config, seed=2,
            tracer=SpanTracer(),
        ).construct()
        results[backend] = result
        pct = PhaseBreakdown.from_span(result.trace).ordered_percentages()
        rows.append(
            [backend, f"{result.elapsed_seconds:.3f}", result.total_kernel_calls,
             result.total_kernel_launches]
            + [f"{pct[phase]:.1f}" for phase in PHASE_ORDER]
        )

    print(
        format_table(
            ["backend", "time [s]", "batched calls", "launches"]
            + [f"{p} %" for p in PHASE_ORDER],
            rows,
            title="Construction time, launch counts and phase breakdown",
        )
    )
    speedup = results["serial"].elapsed_seconds / results["vectorized"].elapsed_seconds
    print(f"vectorized (batched) speedup over serial: {speedup:.2f}x")
    print(
        "tree depth:", tree.depth,
        "-> batched calls per level:",
        round(results["vectorized"].total_kernel_calls / max(tree.depth, 1), 1),
    )

    # The same story holds for *applying* the constructed matrix: the compiled
    # per-level plan (h2.apply_plan()) runs matvec/matmat as O(levels) batched
    # launches on either backend instead of one small GEMM per tree node.
    # Every traced apply leaves one ``apply`` span carrying its launches,
    # operand bytes and duration; the table reads the fastest of five.
    import numpy as np

    h2 = results["vectorized"].matrix
    plan = h2.apply_plan()
    x = np.random.default_rng(0).standard_normal((n, 1))  # permuted ordering
    rows = []
    for backend in ("serial", "vectorized"):
        tracer = SpanTracer()
        traced = ExecutionPolicy(backend=backend, tracer=tracer).resolve_backend()
        for _ in range(5):
            plan.execute(x, backend=traced, tracer=tracer)
        span = min(find_spans(tracer, name="apply"), key=lambda s: s.duration)
        rows.append(
            [
                backend,
                f"{span.duration * 1e3:.2f}",
                span.total_calls,
                span.attributes["block_products"],
                f"{span.attributes['operand_bytes'] / span.duration / 2**30:.2f}",
            ]
        )
    print()
    print(
        format_table(
            ["backend", "matvec [ms]", "launches", "block GEMMs", "GiB/s"],
            rows,
            title=f"Compiled batched apply ({plan.describe()})",
        )
    )


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 8192
    main(size)
