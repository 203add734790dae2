"""Fig. 5(a): construction time vs N for the 3D covariance matrix.

The paper plots construction time against problem size for (i) the proposed
algorithm on GPU, (ii) the proposed algorithm on CPU, (iii) H2Opus' top-down
GPU construction and (iv) ButterflyPACK's sketched H construction, annotating
the baselines with their total sample counts.  The reproduction maps (i)/(ii)
to the vectorized/serial batched backends and (iii)/(iv) to the
:mod:`repro.baselines` comparators, which are only run up to
``REPRO_BENCH_BASELINE_MAX_N`` (they become impractical quickly — the same
reason the paper's baselines stop early).
"""

import pytest

from repro.baselines import HMatrixSketchingConstructor, TopDownPeelingConstructor
from repro.utils.tables import format_series

from common import (
    DEFAULT_TOLERANCE,
    baseline_max_n,
    bench_sizes,
    cached_problem,
    construct_h2,
    measured_error,
)


def run_covariance_sweep():
    times = {"ours (vectorized)": {}, "ours (serial)": {}, "top-down peeling": {}, "H sketch": {}}
    samples = {"ours (vectorized)": {}, "top-down peeling": {}, "H sketch": {}}
    errors = {}
    eligible = [n for n in bench_sizes() if n <= baseline_max_n()]
    baseline_n = max(eligible) if eligible else None
    for n in bench_sizes():
        problem = cached_problem("covariance", n)
        vec = construct_h2(problem, backend="vectorized")
        ser = construct_h2(problem, backend="serial")
        times["ours (vectorized)"][n] = vec.elapsed_seconds
        times["ours (serial)"][n] = ser.elapsed_seconds
        samples["ours (vectorized)"][n] = vec.total_samples
        errors[n] = measured_error(vec, problem)
        if n == baseline_n:
            peel = TopDownPeelingConstructor(
                problem.tree,
                problem.fresh_operator(),
                problem.extractor,
                tolerance=DEFAULT_TOLERANCE,
                sample_block_size=64,
                max_rank=512,
                seed=3,
            ).construct()
            times["top-down peeling"][n] = peel.elapsed_seconds
            samples["top-down peeling"][n] = peel.total_samples
            sketch = HMatrixSketchingConstructor(
                problem.partition,
                problem.fresh_operator(),
                problem.extractor,
                tolerance=DEFAULT_TOLERANCE,
                sample_block_size=64,
                seed=4,
            ).construct()
            times["H sketch"][n] = sketch.elapsed_seconds
            samples["H sketch"][n] = sketch.total_samples
    print()
    print(
        format_series(
            "N", times, title="Fig. 5(a): covariance construction time [s] vs N"
        )
    )
    print()
    print(format_series("N", samples, title="Fig. 5(a): total samples vs N"))
    print()
    print(
        format_series(
            "N", {"relative error": errors}, title="Measured relative error (ours, vectorized)"
        )
    )
    return times, samples, errors


@pytest.mark.benchmark(group="fig5a-covariance")
def test_fig5a_covariance(benchmark):
    times, samples, errors = benchmark.pedantic(run_covariance_sweep, rounds=1, iterations=1)
    sizes = bench_sizes()
    # accuracy: every constructed matrix meets the tolerance up to a modest factor
    assert all(err < 100 * DEFAULT_TOLERANCE for err in errors.values())
    # the paper's headline: at the comparison size the baselines need far more
    # samples than ours and are slower
    compare_n = max(samples["top-down peeling"])
    assert samples["top-down peeling"][compare_n] > samples["ours (vectorized)"][compare_n]
    assert samples["H sketch"][compare_n] > samples["ours (vectorized)"][compare_n]
    assert times["ours (vectorized)"][compare_n] < times["top-down peeling"][compare_n]
    assert times["ours (vectorized)"][compare_n] < times["H sketch"][compare_n]
    assert len(sizes) == len(times["ours (vectorized)"])
