"""Section IV-B claim: the batched algorithm needs only O(log N) batched calls.

On a GPU every batched primitive dispatch is a kernel launch with fixed
overhead; the paper argues that the construction needs only a small constant
number of batched operations per level, i.e. O(log N) launches in total, so
launch overhead is negligible.  The reproduction counts batched-primitive
invocations (``kernel_calls``) and shape-group dispatches (``kernel_launches``)
as N grows and checks that the invocation count grows like the number of tree
levels, not like N.
"""

import numpy as np
import pytest

from repro.utils.tables import format_table

from common import bench_sizes, cached_problem, construct_h2


def run_launch_counts():
    rows = []
    data = {}
    for n in bench_sizes():
        problem = cached_problem("covariance", n)
        result = construct_h2(problem, backend="vectorized")
        depth = problem.tree.depth
        csp = problem.partition.sparsity_constant()
        data[n] = {
            "depth": depth,
            "csp": csp,
            "calls": result.total_kernel_calls,
            "launches": result.total_kernel_launches,
        }
        rows.append(
            [n, depth, csp, result.total_kernel_calls, result.total_kernel_launches,
             f"{result.total_kernel_calls / max(depth, 1):.1f}"]
        )
    print()
    print(
        format_table(
            ["N", "tree depth", "Csp", "batched calls", "shape-group launches", "calls / level"],
            rows,
            title="Batched-call counts vs N (paper: O(Csp log N) kernel launches)",
        )
    )
    return data


@pytest.mark.benchmark(group="launch-counts")
def test_launch_counts(benchmark):
    data = benchmark.pedantic(run_launch_counts, rounds=1, iterations=1)
    for n, record in data.items():
        # Far fewer batched calls than matrix rows: per-node (non-batched) dispatch
        # would need several launches per node, i.e. >> N in total.
        assert 0 < record["calls"] < 0.25 * n
        # The batched schedule issues at most a few calls per level plus at most
        # Csp calls per BSR product per level (Section IV-A) — the paper's
        # O(Csp log N) bound.  (At reproduction scale Csp itself still grows with
        # N, so the bound is stated per level rather than as a growth rate.)
        per_level_bound = 3 * record["csp"] + 16
        assert record["calls"] <= max(record["depth"], 1) * per_level_bound
