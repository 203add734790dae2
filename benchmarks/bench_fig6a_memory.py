"""Fig. 6(a): memory consumption of the constructed H2 matrices vs N.

The paper shows (close to) linear memory growth for the covariance and IE
matrices.  The reproduction prints the memory of the constructed matrices for
both kernels, plus the dense-matrix memory for reference, and checks that the
H2 memory grows sub-quadratically (the asymptotic O(N) regime needs larger N
than the reproduction default, but the curve must already bend away from the
dense N^2 growth).
"""

import pytest

from repro.utils.tables import format_series

from common import bench_sizes, cached_problem, construct_h2


def run_memory_sweep():
    memory = {"covariance H2 [MB]": {}, "IE H2 [MB]": {}, "dense [MB]": {}}
    for n in bench_sizes():
        cov = cached_problem("covariance", n)
        ie = cached_problem("ie", n)
        cov_result = construct_h2(cov, backend="vectorized")
        ie_result = construct_h2(ie, backend="vectorized")
        memory["covariance H2 [MB]"][n] = cov_result.memory_mb()
        memory["IE H2 [MB]"][n] = ie_result.memory_mb()
        memory["dense [MB]"][n] = cov.dense.nbytes / 2**20
    print()
    print(format_series("N", memory, title="Fig. 6(a): memory consumption vs N"))
    return memory


@pytest.mark.benchmark(group="fig6a-memory")
def test_fig6a_memory(benchmark):
    memory = benchmark.pedantic(run_memory_sweep, rounds=1, iterations=1)
    sizes = sorted(memory["dense [MB]"])
    if len(sizes) >= 2:
        n_small, n_large = sizes[0], sizes[-1]
        ratio_n = n_large / n_small
        for series in ("covariance H2 [MB]", "IE H2 [MB]"):
            growth = memory[series][n_large] / memory[series][n_small]
            dense_growth = memory["dense [MB]"][n_large] / memory["dense [MB]"][n_small]
            # H2 memory must grow strictly slower than the dense N^2 footprint.
            assert growth < dense_growth
            # ... and stay below dense memory at the largest size.
            assert memory[series][n_large] < memory["dense [MB]"][n_large]
        assert dense_growth == pytest.approx(ratio_n**2, rel=0.1)
