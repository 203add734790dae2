"""Pinned compiled-apply outcomes: literals recorded before the shared marshaling.

The compiled apply (:mod:`repro.batched.apply_plan`) and the compiled
construction sweep group block rows, pad fan-ins and lay out leaf blocks; a
refactor of that marshaling must keep the stage order, the fan groups and the
operand contents exactly.  Five fixed-seed problems — the four
``tests/test_apply_plan.py`` problems (460 2D points, equal leaves) and one
with ragged leaves (N = 300, leaf 24) — on both backends.  Per problem the
plan's stage count, its per-phase stage counts and its operand bytes before
and after a transpose apply are pinned; per backend the sha256 of the output
bytes of a forward and a transpose apply with ``k = 1`` and ``k = 3`` fixed
inputs.  A hash pins every bit, so a reordered accumulation changes it.

One deliberate change since: the output hashes were re-pinned when
``kernel.matrix`` moved from one 2 MiB band to 128 x 128 tiles, the upper
triangle evaluated and mirrored.  The fixtures' dense matrices are still
bitwise symmetric (so every coupling and dense twin the construction stores is
an exact transpose of its owner), but a few hundred of their N^2 entries moved
in the last bit with the tile boundaries (380 of 211,600 for the exponential
kernel at N = 460).  Stage counts and operand bytes did not change.

A second deliberate change: the transpose apply used to compile a transposed
copy of the coupling and dense rows on first use; it now runs the forward
stages of the mirrored matrix.  Its output hashes were already the forward
ones and did not change; the operand bytes after a transpose apply became the
bytes before it.
"""

import hashlib

import numpy as np
import pytest

from repro import (
    ClusterTree,
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    ExponentialKernel,
    GeneralAdmissibility,
    H2Constructor,
    HelmholtzKernel,
    build_block_partition,
    compile_apply_plan,
    uniform_cube_points,
)

#: The ``test_apply_plan.py`` problems plus the ragged-leaf pipeline problem.
PROBLEMS = {
    "covariance-leaf16": dict(n=460, seed=13, leaf_size=16, kernel="covariance"),
    "covariance-leaf48": dict(n=460, seed=13, leaf_size=48, kernel="covariance"),
    "helmholtz-leaf16": dict(n=460, seed=13, leaf_size=16, kernel="helmholtz"),
    "helmholtz-leaf48": dict(n=460, seed=13, leaf_size=48, kernel="helmholtz"),
    "ragged-leaf24": dict(n=300, seed=21, leaf_size=24, kernel="shifted"),
}

_MATRICES = {}


def matrix(problem: str):
    """The fixed-seed H2 matrix of ``problem`` (built once per session)."""
    if problem not in _MATRICES:
        spec = PROBLEMS[problem]
        points = uniform_cube_points(spec["n"], dim=2, seed=spec["seed"])
        tree = ClusterTree.build(points, leaf_size=spec["leaf_size"])
        partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
        if spec["kernel"] == "shifted":
            dense = ExponentialKernel(0.2).matrix(tree.points) + 0.05 * np.eye(spec["n"])
            config, seed = ConstructionConfig(tolerance=1e-7, sample_block_size=16), 17
        else:
            kernel = (
                ExponentialKernel(length_scale=0.2)
                if spec["kernel"] == "covariance"
                else HelmholtzKernel(wavenumber=3.0)
            )
            dense = kernel.matrix(tree.points)
            config, seed = ConstructionConfig(tolerance=1e-8, sample_block_size=16), 3
        _MATRICES[problem] = H2Constructor(
            partition, DenseOperator(dense), DenseEntryExtractor(dense), config, seed=seed
        ).construct().matrix
    return _MATRICES[problem]


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def plan_figures(problem: str):
    plan = compile_apply_plan(matrix(problem))
    before = plan.memory_bytes()
    plan.execute(np.ones((plan.n, 1)), backend="serial", transpose=True)
    return {
        "num_stages": plan.num_stages,
        "stage_counts": dict(sorted(plan.stage_counts().items())),
        "memory_bytes": (before, plan.memory_bytes()),
    }


def outputs(problem: str, backend: str):
    plan = compile_apply_plan(matrix(problem))
    out = {}
    for k in (1, 3):
        x = np.random.default_rng(k).standard_normal((plan.n, k))
        out[f"forward_k{k}"] = digest(plan.execute(x, backend=backend))
        out[f"transpose_k{k}"] = digest(plan.execute(x, backend=backend, transpose=True))
    return out


PINNED_PLANS = {'covariance-leaf16': {'num_stages': 20,
                       'stage_counts': {'apply_coupling': 10,
                                        'apply_dense': 6,
                                        'apply_downsweep': 1,
                                        'apply_expand': 1,
                                        'apply_leaf': 1,
                                        'apply_upsweep': 1},
                       'memory_bytes': (2049240, 2049240)},
 'covariance-leaf48': {'num_stages': 8,
                       'stage_counts': {'apply_coupling': 4,
                                        'apply_dense': 2,
                                        'apply_expand': 1,
                                        'apply_leaf': 1},
                       'memory_bytes': (1771840, 1771840)},
 'helmholtz-leaf16': {'num_stages': 20,
                      'stage_counts': {'apply_coupling': 10,
                                       'apply_dense': 6,
                                       'apply_downsweep': 1,
                                       'apply_expand': 1,
                                       'apply_leaf': 1,
                                       'apply_upsweep': 1},
                      'memory_bytes': (2359680, 2359680)},
 'helmholtz-leaf48': {'num_stages': 8,
                      'stage_counts': {'apply_coupling': 4,
                                       'apply_dense': 2,
                                       'apply_expand': 1,
                                       'apply_leaf': 1},
                      'memory_bytes': (2078952, 2078952)},
 'ragged-leaf24': {'num_stages': 9,
                   'stage_counts': {'apply_coupling': 5,
                                    'apply_dense': 2,
                                    'apply_expand': 1,
                                    'apply_leaf': 1},
                   'memory_bytes': (805528, 805528)}}

PINNED_OUTPUTS = {('covariance-leaf16', 'serial'): {'forward_k1': 'b49efc0e94a514c2',
                                   'transpose_k1': 'b49efc0e94a514c2',
                                   'forward_k3': '35e100761314fae5',
                                   'transpose_k3': '35e100761314fae5'},
 ('covariance-leaf16', 'vectorized'): {'forward_k1': 'b49efc0e94a514c2',
                                       'transpose_k1': 'b49efc0e94a514c2',
                                       'forward_k3': '35e100761314fae5',
                                       'transpose_k3': '35e100761314fae5'},
 ('covariance-leaf48', 'serial'): {'forward_k1': '775e0ea94db0844c',
                                   'transpose_k1': '775e0ea94db0844c',
                                   'forward_k3': '0c609bf759cdd5c9',
                                   'transpose_k3': '0c609bf759cdd5c9'},
 ('covariance-leaf48', 'vectorized'): {'forward_k1': '775e0ea94db0844c',
                                       'transpose_k1': '775e0ea94db0844c',
                                       'forward_k3': '0c609bf759cdd5c9',
                                       'transpose_k3': '0c609bf759cdd5c9'},
 ('helmholtz-leaf16', 'serial'): {'forward_k1': 'd9e123bd98b0dd06',
                                  'transpose_k1': 'd9e123bd98b0dd06',
                                  'forward_k3': '02cac8ee893d6dcf',
                                  'transpose_k3': '02cac8ee893d6dcf'},
 ('helmholtz-leaf16', 'vectorized'): {'forward_k1': 'd9e123bd98b0dd06',
                                      'transpose_k1': 'd9e123bd98b0dd06',
                                      'forward_k3': '02cac8ee893d6dcf',
                                      'transpose_k3': '02cac8ee893d6dcf'},
 ('helmholtz-leaf48', 'serial'): {'forward_k1': 'f827d2ce1b7d4352',
                                  'transpose_k1': 'f827d2ce1b7d4352',
                                  'forward_k3': 'b6584d03bd2add0d',
                                  'transpose_k3': 'b6584d03bd2add0d'},
 ('helmholtz-leaf48', 'vectorized'): {'forward_k1': 'f827d2ce1b7d4352',
                                      'transpose_k1': 'f827d2ce1b7d4352',
                                      'forward_k3': 'b6584d03bd2add0d',
                                      'transpose_k3': 'b6584d03bd2add0d'},
 ('ragged-leaf24', 'serial'): {'forward_k1': '6dfeb880a2904635',
                               'transpose_k1': '6dfeb880a2904635',
                               'forward_k3': '3bab62897b76eed0',
                               'transpose_k3': '3bab62897b76eed0'},
 ('ragged-leaf24', 'vectorized'): {'forward_k1': '6dfeb880a2904635',
                                   'transpose_k1': '6dfeb880a2904635',
                                   'forward_k3': '3bab62897b76eed0',
                                   'transpose_k3': '3bab62897b76eed0'}}


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_pinned_plan_figures(problem):
    assert plan_figures(problem) == PINNED_PLANS[problem]


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_pinned_outputs(problem, backend):
    assert outputs(problem, backend) == PINNED_OUTPUTS[(problem, backend)]


def test_ragged_problem_has_ragged_leaves():
    tree = matrix("ragged-leaf24").tree
    sizes = {int(tree.cluster_size(leaf)) for leaf in tree.leaves()}
    assert len(sizes) > 1


if __name__ == "__main__":  # prints the tables above
    import pprint

    pprint.pprint({p: plan_figures(p) for p in sorted(PROBLEMS)}, width=100, sort_dicts=False)
    pprint.pprint(
        {(p, b): outputs(p, b) for p in sorted(PROBLEMS) for b in ("serial", "vectorized")},
        width=100,
        sort_dicts=False,
    )
