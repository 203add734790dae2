"""Fig. 5(c): recompressing an H2 covariance matrix updated with a rank-32 product.

The paper's third application: the black-box sampler is the fast matvec of an
*existing* H2 matrix plus a rank-32 low-rank product, the entry evaluator
extracts entries from both representations, and Algorithm 1 compresses the sum
into a new H2 matrix.  This benchmark builds the input H2 matrix once per N
(with the same constructor), then measures the update/recompression on the
serial and vectorized backends.
"""

import pytest

from repro import ConstructionConfig, random_low_rank, recompress_h2
from repro.linalg import construction_error
from repro.utils.tables import format_series
from repro.sketching import H2Operator, LowRankOperator, SumOperator

from common import DEFAULT_TOLERANCE, bench_sizes, cached_problem, construct_h2


def run_lowrank_update_sweep(rank: int = 32):
    times = {"recompression (vectorized)": {}, "recompression (serial)": {}}
    samples = {}
    errors = {}
    for n in bench_sizes():
        problem = cached_problem("covariance", n)
        base = construct_h2(problem, backend="vectorized").matrix
        update = random_low_rank(n, rank, seed=11, symmetric=True, scale=0.5)
        for backend in ("vectorized", "serial"):
            config = ConstructionConfig(
                tolerance=DEFAULT_TOLERANCE, sample_block_size=64, backend=backend
            )
            result = recompress_h2(base, update, config=config, seed=13)
            times[f"recompression ({backend})"][n] = result.elapsed_seconds
            if backend == "vectorized":
                samples[n] = result.total_samples
                reference = SumOperator([H2Operator(base), LowRankOperator(update)])
                errors[n] = construction_error(result.matrix, reference, num_iterations=8, seed=3)
    print()
    print(
        format_series(
            "N",
            times,
            title=f"Fig. 5(c): H2 + rank-{rank} update recompression time [s] vs N",
        )
    )
    print()
    print(
        format_series(
            "N",
            {"total samples": samples, "relative error": errors},
            title="Recompression samples and measured error (vectorized)",
        )
    )
    return times, samples, errors


@pytest.mark.benchmark(group="fig5c-lowrank-update")
def test_fig5c_lowrank_update(benchmark):
    times, samples, errors = benchmark.pedantic(
        run_lowrank_update_sweep, rounds=1, iterations=1
    )
    assert all(err < 100 * DEFAULT_TOLERANCE for err in errors.values())
    # O(1) sample behaviour: the sample count must not grow with N.  Sizes whose
    # partition is fully dense (no admissible blocks at reproduction scale) take
    # no samples at all and are excluded from the ratio.
    counts = [samples[n] for n in sorted(samples) if samples[n] > 0]
    if len(counts) >= 2:
        assert max(counts) <= 4 * min(counts)
