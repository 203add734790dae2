"""Low-rank update of an existing H2 matrix (the paper's third application).

Workflow mirroring hierarchical-LU / multifrontal Schur-complement updates:

1. build an H2 representation of a covariance matrix;
2. form a random symmetric rank-32 update ``U U^T``;
3. recompress ``H2 + U U^T`` into a new H2 matrix with Algorithm 1, where the
   black-box sampler is the fast H2 matvec plus the low-rank matvec and the
   entry evaluator extracts entries from both representations;
4. validate the result against the exact sum with the power method.

The partition (leaf 64, eta 1.5) has admissible blocks from N = 1024 on, so
even a small run sketches; the script exits non-zero if the base matrix took
no samples.

Run with:  python examples/lowrank_update.py [N]
"""

import sys

from repro import (
    ClusterTree,
    ConstructionConfig,
    ExecutionPolicy,
    ExponentialKernel,
    GeneralAdmissibility,
    H2Constructor,
    H2Operator,
    KernelEntryExtractor,
    KernelMatVecOperator,
    LowRankOperator,
    SpanTracer,
    SumOperator,
    build_block_partition,
    random_low_rank,
    recompress_h2,
    uniform_cube_points,
)
from repro.linalg import construction_error
from repro.observe import PhaseBreakdown


def main(n: int = 8192, update_rank: int = 32) -> int:
    print(f"== H2 + rank-{update_rank} low-rank update recompression (N={n}) ==")

    # Step 1: an initial H2 matrix of the exponential covariance kernel.
    points = uniform_cube_points(n, dim=3, seed=7)
    tree = ClusterTree.build(points, leaf_size=64)
    partition = build_block_partition(tree, GeneralAdmissibility(eta=1.5))
    kernel = ExponentialKernel(0.2)
    # Traced, so each result's phase split can be read from its spans.  The
    # base is bound to the policy, so its recompression traces there too.
    policy = ExecutionPolicy(tracer=SpanTracer())
    config = ConstructionConfig(
        tolerance=1e-6, sample_block_size=64, backend=policy.resolve_backend()
    )
    base = H2Constructor(
        partition,
        KernelMatVecOperator(kernel, tree.points),
        KernelEntryExtractor(kernel, tree.points),
        config,
        seed=8,
        tracer=policy.tracer,
    ).construct()
    policy.bind(base.matrix)
    print(
        f"base H2 matrix: {base.elapsed_seconds:.2f}s, {base.total_samples} samples, "
        f"{base.memory_mb():.1f} MB"
    )
    if base.total_samples == 0:
        print("the partition has no admissible block: nothing was sketched")
        return 1

    # Step 2: a symmetric low-rank update (permuted ordering, as the H2 matrix).
    update = random_low_rank(n, update_rank, seed=9, symmetric=True, scale=0.5)

    # Step 3: recompress the sum with the same algorithm.  Both inputs are
    # batched: sampling runs the compiled apply plan of the base matrix, entry
    # generation its compiled entry plan (O(levels) passes per shape group).
    result = recompress_h2(base.matrix, update, config=config, seed=10)
    print(
        f"recompression: {result.elapsed_seconds:.2f}s, {result.total_samples} samples, "
        f"ranks {result.rank_range[0]}-{result.rank_range[1]}, {result.memory_mb():.1f} MB"
    )
    phases = PhaseBreakdown.from_span(result.trace).seconds
    print(
        f"  sampling {phases.get('sampling', 0.0):.3f}s, "
        f"entry generation {phases.get('entry_generation', 0.0):.3f}s "
        f"({result.entries_evaluated / 1e6:.1f} M entries)"
    )

    # Step 4: validate against the exact sum (matrix-free).
    reference = SumOperator([H2Operator(base.matrix), LowRankOperator(update)])
    error = construction_error(result.matrix, reference, num_iterations=8, seed=11)
    print(f"measured relative error of the updated H2 matrix: {error:.3e}")
    return 0


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 8192
    sys.exit(main(size))
