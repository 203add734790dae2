"""Pinned construction outcomes: literals recorded before the one-driver refactor.

One fixed-seed fixture per admissibility (2D strong leaf 16, 3D weak leaf 48),
both backends, the compiled sweep (``construct()``) and the per-node oracle
(``oracles.LoopConstructor``).  Every number below was printed by the code
*before* the two level drivers were folded into one; a refactor of the
constructor must leave every literal untouched.  Counts are exact; the
skeleton hash covers the global skeleton index set of every node, so one
flipped pivot changes it.

One deliberate change since: the compiled ``weak3d`` entries went from 39 to 7
``construct_upsweep`` launches (totals 260 -> 228 and 261 -> 229) when the
upsweep became ``Omega(J) + T Omega(redundant)`` — the fixture's two lowest
levels keep every row (ranks 32 of 32 and 64 of 64), so there is no ``T`` to
multiply by, and 18 + 14 of the 39 passes run no GEMM.  The schedule is stated
by ``ConstructionPlan.launch_schedule`` and held to these results in
``tests/test_construction_plan.py``.

And one for mirrored pairs: the compiled sweep asks the extractor only for
the dense and coupling blocks ``(s, t)`` with ``s <= t`` and fills each twin
``(t, s)`` with the transpose, so a transposed ``(q, p)`` shape no longer forms
a ``batched_gen`` shape group of its own.  Only the compiled entries'
``batched_gen`` and ``total_kernel_launches`` changed (``strong2d`` 31 -> 26
shape groups, totals 61 -> 56 and 67 -> 62; ``weak3d`` 9 -> 6, totals 228 ->
225 and 229 -> 226); the oracle still evaluates every block, and samples,
levels and skeleton hashes did not change.

And one for the oracle: when the per-node store moved out of the product into
``tests/oracles.py`` it stopped calling the backend's ``batched_gemm`` /
``batched_gemm_accumulate`` and records one ``node_gemm`` launch per per-node
product instead.  Only the oracle entries' ``kernel_launches`` and
``total_kernel_launches`` changed; samples, levels and skeleton hashes did not.
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
    WeakAdmissibility,
    build_block_partition,
    uniform_cube_points,
)
from oracles import LoopConstructor

FIXTURES = {
    "strong2d": dict(n=460, dim=2, leaf_size=16, admissibility=GeneralAdmissibility(eta=0.7)),
    "weak3d": dict(n=512, dim=3, leaf_size=48, admissibility=WeakAdmissibility()),
}


def skeleton_hash(constructor: H2Constructor) -> str:
    digest = hashlib.sha256()
    for node in sorted(constructor.skeletons.nodes()):
        digest.update(np.int64(node).tobytes())
        digest.update(
            np.ascontiguousarray(
                constructor.skeletons.skeleton_global(node), dtype=np.int64
            ).tobytes()
        )
    return digest.hexdigest()[:16]


def construct(fixture: str, backend: str, loop: bool):
    spec = FIXTURES[fixture]
    points = uniform_cube_points(spec["n"], dim=spec["dim"], seed=13)
    tree = ClusterTree.build(points, leaf_size=spec["leaf_size"])
    partition = build_block_partition(tree, spec["admissibility"])
    dense = ExponentialKernel(length_scale=0.2).matrix(tree.points)
    constructor = (LoopConstructor if loop else H2Constructor)(
        partition,
        DenseOperator(dense),
        DenseEntryExtractor(dense),
        ConstructionConfig(tolerance=1e-6, sample_block_size=8, backend=backend),
        seed=3,
    )
    return constructor, constructor.construct()


def run(fixture: str, backend: str, loop: bool):
    constructor, result = construct(fixture, backend, loop)
    return {
        "total_samples": result.total_samples,
        "total_kernel_launches": result.total_kernel_launches,
        "kernel_launches": dict(sorted(result.kernel_launches.items())),
        "levels": [
            (lv.depth, lv.max_rank, lv.min_rank, lv.sampling_rounds)
            for lv in result.levels
        ],
        "skeleton_hash": skeleton_hash(constructor),
    }


PINNED = {('strong2d', 'serial', False): {'total_samples': 16,
                                 'total_kernel_launches': 56,
                                 'kernel_launches': {'batched_gather': 4,
                                                     'batched_gen': 26,
                                                     'batched_id': 2,
                                                     'batched_qr': 3,
                                                     'batched_rand': 2,
                                                     'construct_coupling': 6,
                                                     'construct_dense': 12,
                                                     'construct_upsweep': 1},
                                 'levels': [(5, 13, 10, 2), (4, 16, 10, 1)],
                                 'skeleton_hash': 'ca731c3bac3b5be6'},
 ('strong2d', 'serial', True): {'total_samples': 16,
                                'total_kernel_launches': 1530,
                                'kernel_launches': {'batched_gen': 31,
                                                    'batched_id': 2,
                                                    'batched_qr': 3,
                                                    'batched_rand': 2,
                                                    'node_gemm': 1492},
                                'levels': [(5, 13, 10, 2), (4, 16, 10, 1)],
                                'skeleton_hash': 'ca731c3bac3b5be6'},
 ('strong2d', 'vectorized', False): {'total_samples': 16,
                                     'total_kernel_launches': 62,
                                     'kernel_launches': {'batched_gather': 4,
                                                         'batched_gen': 26,
                                                         'batched_id': 8,
                                                         'batched_qr': 3,
                                                         'batched_rand': 2,
                                                         'construct_coupling': 6,
                                                         'construct_dense': 12,
                                                         'construct_upsweep': 1},
                                     'levels': [(5, 13, 10, 2), (4, 16, 10, 1)],
                                     'skeleton_hash': 'ca731c3bac3b5be6'},
 ('strong2d', 'vectorized', True): {'total_samples': 16,
                                    'total_kernel_launches': 1543,
                                    'kernel_launches': {'batched_gen': 31,
                                                        'batched_id': 8,
                                                        'batched_qr': 10,
                                                        'batched_rand': 2,
                                                        'node_gemm': 1492},
                                    'levels': [(5, 13, 10, 2), (4, 16, 10, 1)],
                                    'skeleton_hash': 'ca731c3bac3b5be6'},
 ('weak3d', 'serial', False): {'total_samples': 176,
                               'total_kernel_launches': 225,
                               'kernel_launches': {'batched_gather': 100,
                                                   'batched_gen': 6,
                                                   'batched_id': 4,
                                                   'batched_qr': 25,
                                                   'batched_rand': 22,
                                                   'construct_coupling': 39,
                                                   'construct_dense': 22,
                                                   'construct_upsweep': 7},
                               'levels': [(4, 32, 32, 5),
                                          (3, 64, 64, 5),
                                          (2, 120, 115, 8),
                                          (1, 160, 157, 7)],
                               'skeleton_hash': '878b7643ef78c6a7'},
 ('weak3d', 'serial', True): {'total_samples': 176,
                              'total_kernel_launches': 1270,
                              'kernel_launches': {'batched_gen': 9,
                                                  'batched_id': 4,
                                                  'batched_qr': 25,
                                                  'batched_rand': 22,
                                                  'node_gemm': 1210},
                              'levels': [(4, 32, 32, 5),
                                         (3, 64, 64, 5),
                                         (2, 120, 115, 8),
                                         (1, 160, 157, 7)],
                              'skeleton_hash': '878b7643ef78c6a7'},
 ('weak3d', 'vectorized', False): {'total_samples': 176,
                                   'total_kernel_launches': 226,
                                   'kernel_launches': {'batched_gather': 100,
                                                       'batched_gen': 6,
                                                       'batched_id': 5,
                                                       'batched_qr': 25,
                                                       'batched_rand': 22,
                                                       'construct_coupling': 39,
                                                       'construct_dense': 22,
                                                       'construct_upsweep': 7},
                                   'levels': [(4, 32, 32, 5),
                                              (3, 64, 64, 5),
                                              (2, 120, 115, 8),
                                              (1, 160, 157, 7)],
                                   'skeleton_hash': '878b7643ef78c6a7'},
 ('weak3d', 'vectorized', True): {'total_samples': 176,
                                  'total_kernel_launches': 1278,
                                  'kernel_launches': {'batched_gen': 9,
                                                      'batched_id': 5,
                                                      'batched_qr': 32,
                                                      'batched_rand': 22,
                                                      'node_gemm': 1210},
                                  'levels': [(4, 32, 32, 5),
                                             (3, 64, 64, 5),
                                             (2, 120, 115, 8),
                                             (1, 160, 157, 7)],
                                  'skeleton_hash': '878b7643ef78c6a7'}}


@pytest.mark.parametrize("loop", [False, True], ids=["construct", "construct_loop"])
@pytest.mark.parametrize("backend", ["serial", "vectorized"])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_pinned_literals(fixture, backend, loop):
    assert run(fixture, backend, loop) == PINNED[(fixture, backend, loop)]


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_compiled_launches_follow_the_stated_schedule(
    fixture, backend, scheduled_launches
):
    constructor, result = construct(fixture, backend, loop=False)
    scheduled = scheduled_launches(constructor, result)
    assert {op: result.kernel_launches[op] for op in scheduled} == scheduled
    # Everything else the counter saw counts shape groups, not schedule steps.
    assert set(result.kernel_launches) - set(scheduled) == {"batched_gen", "batched_id"}


if __name__ == "__main__":  # prints the table above
    import pprint

    pprint.pprint(
        {
            (f, b, lp): run(f, b, lp)
            for f in sorted(FIXTURES)
            for b in ("serial", "vectorized")
            for lp in (False, True)
        },
        width=100,
        sort_dicts=False,
    )
