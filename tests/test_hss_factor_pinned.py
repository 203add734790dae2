"""Pinned HSS factorizations: literals recorded before the shared marshaling.

``HSSFactorization`` stacks each level's leaf diagonal blocks, bases,
transfers and sibling couplings into zero-padded arrays before eliminating.
A change of how those stacks are filled must keep every factor bit.  Four
fixed-seed weak-partition problems — 2D and 3D, one with ragged leaves, and
the 2D one in re-mixed bases (no unit rows, the generic split whose ``W_s``
is folded into the parent's generators) — each pin:

* the sha256 of ``solve(b)`` for fixed ``(n, 1)`` and ``(n, 3)`` inputs;
* ``slogdet()`` (exact floats), ``launches_per_solve`` and ``memory_bytes()``;
* the sha256 over every array of every compiled ``_Stage`` and of the root.
"""

import hashlib

import numpy as np
import pytest

from repro import ExponentialKernel, HSSFactorization, compress, uniform_cube_points
from test_hss_factor import _remixed

#: ``(n, dim, length scale, leaf size, tol, shift)`` per problem;
#: ``remixed2d`` is ``weak2d`` in other bases.
PROBLEMS = {
    "weak2d": (512, 2, 0.2, 32, 1e-8, 1e-2),
    "weak3d": (512, 3, 0.3, 24, 1e-6, 0.0),
    "ragged2d": (300, 2, 0.2, 24, 1e-7, 5e-2),
    "remixed2d": (512, 2, 0.2, 32, 1e-8, 1e-2),
}

_MATRICES = {}


def matrix(problem: str):
    """The fixed-seed HSS matrix of ``problem`` (built once per session)."""
    if problem not in _MATRICES:
        if problem == "remixed2d":
            h2 = _remixed(matrix("weak2d"), np.random.default_rng(11))
        else:
            n, dim, scale, leaf, tol, _ = PROBLEMS[problem]
            points = uniform_cube_points(n, dim=dim, seed=5)
            h2 = compress(
                points, ExponentialKernel(scale), format="hss", tol=tol,
                leaf_size=leaf, seed=1,
            )
        _MATRICES[problem] = h2
    return _MATRICES[problem]


def digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(repr(array.shape).encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def figures(problem: str):
    h2 = matrix(problem)
    factorization = HSSFactorization(h2, shift=PROBLEMS[problem][5])
    out = {}
    for k in (1, 3):
        b = np.random.default_rng(k).standard_normal((h2.shape[0], k))
        out[f"solve_k{k}"] = digest(factorization.solve(b))
    out["slogdet"] = factorization.slogdet()
    out["launches_per_solve"] = factorization.launches_per_solve
    out["memory_bytes"] = factorization.memory_bytes()
    out["stages"] = digest(
        *(array for stage in factorization._stages for array in vars(stage).values())
    )
    out["root"] = digest(
        factorization._root_idx, factorization._root_lu, factorization._root_perm
    )
    return out


PINNED = {'ragged2d': {'solve_k1': '7b0de4525a8a1283',
              'solve_k3': 'ec0aa1162bbc8be6',
              'slogdet': (1.0, -341.7092840542219),
              'launches_per_solve': 26,
              'memory_bytes': 408696,
              'stages': '94d78f51613d151b',
              'root': '5f298d037a30a687'},
 'remixed2d': {'solve_k1': '5730977b7eb05b22',
               'solve_k3': '4f662fbb701d09e6',
               'slogdet': (1.0, -811.3980692596242),
               'launches_per_solve': 36,
               'memory_bytes': 1059440,
               'stages': '9e28fc4f9e6787a5',
               'root': 'ca5754182d64391b'},
 'weak2d': {'solve_k1': '58b48e208a03c261',
            'solve_k3': 'a7ca0d345d6c29c3',
            'slogdet': (1.0, -811.3980692594992),
            'launches_per_solve': 36,
            'memory_bytes': 1059440,
            'stages': '3de76f09fe5c3b88',
            'root': '2b17a46cdf4d9d33'},
 'weak3d': {'solve_k1': '4b9af6f83e08617b',
            'solve_k3': '971cd4888164fe25',
            'slogdet': (1.0, -565.4947786245247),
            'launches_per_solve': 21,
            'memory_bytes': 1607376,
            'stages': 'acd75f84f0c85d90',
            'root': 'cde9febea5fb17be'}}


def test_ragged_problem_has_ragged_leaves():
    tree = matrix("ragged2d").tree
    assert len({int(tree.cluster_size(leaf)) for leaf in tree.leaves()}) > 1


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_pinned_factorization(problem):
    assert figures(problem) == PINNED[problem]


if __name__ == "__main__":  # prints the table above
    import pprint

    pprint.pprint({p: figures(p) for p in sorted(PROBLEMS)}, width=100, sort_dicts=False)
