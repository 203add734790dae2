"""Fig. 5(b): construction time vs N for the 3D Helmholtz volume-IE matrix.

Same sweep as Fig. 5(a) but for the oscillatory IE kernel (Eq. 9, k = 3); the
baselines are run only at the smallest size (they are strictly dominated and
expensive, as in Fig. 5(a)).
"""

import pytest

from repro.baselines import TopDownPeelingConstructor
from repro.utils.tables import format_series

from common import (
    DEFAULT_TOLERANCE,
    baseline_max_n,
    bench_sizes,
    cached_problem,
    construct_h2,
    measured_error,
)


def run_ie_sweep():
    times = {"ours (vectorized)": {}, "ours (serial)": {}, "top-down peeling": {}}
    samples = {"ours (vectorized)": {}, "top-down peeling": {}}
    errors = {}
    for n in bench_sizes():
        problem = cached_problem("ie", n)
        vec = construct_h2(problem, backend="vectorized")
        ser = construct_h2(problem, backend="serial")
        times["ours (vectorized)"][n] = vec.elapsed_seconds
        times["ours (serial)"][n] = ser.elapsed_seconds
        samples["ours (vectorized)"][n] = vec.total_samples
        errors[n] = measured_error(vec, problem)
        if n <= min(baseline_max_n(), min(bench_sizes())):
            peel = TopDownPeelingConstructor(
                problem.tree,
                problem.fresh_operator(),
                problem.extractor,
                tolerance=DEFAULT_TOLERANCE,
                sample_block_size=64,
                max_rank=512,
                seed=5,
            ).construct()
            times["top-down peeling"][n] = peel.elapsed_seconds
            samples["top-down peeling"][n] = peel.total_samples
    print()
    print(format_series("N", times, title="Fig. 5(b): IE construction time [s] vs N"))
    print()
    print(format_series("N", samples, title="Fig. 5(b): total samples vs N"))
    print()
    print(
        format_series(
            "N", {"relative error": errors}, title="Measured relative error (ours, vectorized)"
        )
    )
    return times, samples, errors


@pytest.mark.benchmark(group="fig5b-ie")
def test_fig5b_ie(benchmark):
    times, samples, errors = benchmark.pedantic(run_ie_sweep, rounds=1, iterations=1)
    assert all(err < 100 * DEFAULT_TOLERANCE for err in errors.values())
    for n, count in samples["top-down peeling"].items():
        assert count > samples["ours (vectorized)"][n]
    assert len(times["ours (vectorized)"]) == len(bench_sizes())
