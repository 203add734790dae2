"""One copy of every dense and coupling block.

The construction sweep marshals the dense and coupling blocks into the
fan-grouped operands of its subtract launches; the apply plan of the finished
matrix adopts those operands, and the matrix keeps every block as a view of
its slot.  A loaded matrix's blocks view the mapped operands it was stored
as, which its first apply adopts (``tests/test_persisted_operands.py``); a
hand-built or mutated one compiles its plan from its blocks and is re-pointed
at it on the first apply.  Either way there is one copy: these tests hold every
block to sharing memory with exactly one forward operand of the matrix's own
plan, and the byte counts of the matrix and the plan (``memory_bytes()``) to
counting it once.
"""

import numpy as np
import pytest

from repro import (
    ConstructionConfig,
    ExecutionPolicy,
    ExponentialKernel,
    compile_apply_plan,
    compress,
    load_operator,
    random_low_rank,
    recompress_h2,
    save_operator,
    uniform_cube_points,
)
from repro.batched import apply_plan as apply_plan_module
from test_apply_pinned import PROBLEMS, _MATRICES, matrix

BLOCK_OPS = ("apply_dense", "apply_coupling")
BASIS_OPS = {"apply_leaf", "apply_upsweep", "apply_downsweep", "apply_expand"}


def block_operands(plan):
    return [stage.a for stage in plan.stages if stage.op in BLOCK_OPS]


def assert_blocks_view(h2, plan):
    """Every non-empty block is a view of exactly one forward dense/coupling
    operand of ``plan`` — not of a padded extraction stack, not a copy."""
    operands = block_operands(plan)
    for blocks in (h2.dense, h2.coupling):
        for key, block in blocks.items():
            if block.size == 0:
                continue
            owners = [a for a in operands if np.shares_memory(block, a)]
            assert len(owners) == 1, key
            assert block.base is owners[0], key


@pytest.fixture(scope="module")
def recompressed():
    """A ``recompress_h2`` product: a constructed matrix as entry evaluator."""
    base = matrix("covariance-leaf16")
    update = random_low_rank(base.num_rows, 4, seed=2, symmetric=True, scale=0.5)
    return recompress_h2(
        base, update, config=ConstructionConfig(tolerance=1e-8, sample_block_size=16),
        seed=5,
    ).matrix


def problem_matrix(problem, recompressed):
    return recompressed if problem == "recompressed" else matrix(problem)


ALL_PROBLEMS = [*sorted(PROBLEMS), "recompressed"]


@pytest.mark.parametrize("problem", ALL_PROBLEMS)
def test_constructed_blocks_view_the_adopted_plan(problem, recompressed):
    h2 = problem_matrix(problem, recompressed)
    assert h2._plan is not None  # attached by the constructor
    assert_blocks_view(h2, h2.apply_plan())


@pytest.mark.parametrize("problem", ALL_PROBLEMS)
def test_adopted_operands_equal_a_fresh_compile(problem, recompressed):
    h2 = problem_matrix(problem, recompressed)
    adopted, compiled = h2.apply_plan(), compile_apply_plan(h2)
    assert [s.op for s in adopted.stages] == [s.op for s in compiled.stages]
    for a, b in zip(adopted.stages, compiled.stages):
        assert (a.op, a.level, a.dest, a.src) == (b.op, b.level, b.dest, b.src)
        assert np.array_equal(a.dest_pos, b.dest_pos)
        assert np.array_equal(a.src_pos, b.src_pos)
        assert a.a.shape == b.a.shape
        assert a.a.tobytes() == b.a.tobytes()


def test_adopted_plan_compiles_only_the_basis_phases(monkeypatch):
    compiled = []
    original = apply_plan_module._Phase.compile

    def recording(phase):
        compiled.append(phase.op)
        return original(phase)

    monkeypatch.setattr(apply_plan_module._Phase, "compile", recording)
    monkeypatch.delitem(_MATRICES, "covariance-leaf16", raising=False)
    h2 = matrix("covariance-leaf16")
    assert set(compiled) == BASIS_OPS
    assert {s.op for s in h2.apply_plan().stages} == BASIS_OPS | set(BLOCK_OPS)


def test_rank_zero_level_is_compiled_and_viewed():
    """A level with rank-0 nodes has other hat positions than the sweep's
    operands: the plan compiles it from the blocks and re-points them."""
    h2 = matrix("ragged-leaf24")
    assert 0 in [h2.basis.rank(node) for node in h2.tree.leaves()]
    assert_blocks_view(h2, h2.apply_plan())


def test_in_place_edit_and_rebuild():
    h2 = compress(
        uniform_cube_points(400, dim=2, seed=5), ExponentialKernel(0.2),
        tol=1e-7, leaf_size=32, seed=5,
    )
    adopted = h2.apply_plan()
    for blocks in (h2.dense, h2.coupling):
        next(iter(blocks.values()))[...] *= 2.0
    plan = h2.apply_plan(rebuild=True)
    assert plan is not adopted
    x = np.random.default_rng(0).standard_normal(h2.num_rows)
    assert np.allclose(h2.matvec(x), h2.to_dense() @ x, rtol=1e-12, atol=1e-12)
    assert_blocks_view(h2, plan)


def test_loaded_operator_views_its_plan_after_the_first_apply(tmp_path):
    """The artifact stores the operands; the loaded plan adopts the mapped
    ones, so each block shares memory with one of them (the base of a view
    of a memmap is the map, not the operand: hence no ``base`` check)."""
    h2 = matrix("helmholtz-leaf48")
    loaded = load_operator(save_operator(h2, tmp_path / "m.reproart"))
    assert loaded._plan is None
    x = np.random.default_rng(1).standard_normal(h2.num_rows)
    assert np.array_equal(loaded.matvec(x), h2.matvec(x))
    operands = block_operands(loaded.apply_plan())
    assert all(isinstance(a.base, np.memmap) for a in operands)
    for blocks in (loaded.dense, loaded.coupling):
        for key, block in blocks.items():
            if block.size:
                assert sum(np.shares_memory(block, a) for a in operands) == 1, key


def test_ledger_counts_every_block_byte_once():
    """The matrix counts its blocks and the plan only the operand bytes
    beyond them, so the two owners count every block byte once."""
    h2 = compress(
        uniform_cube_points(400, dim=2, seed=3), ExponentialKernel(0.2),
        tol=1e-7, leaf_size=32, seed=3,
    )
    plan = h2.apply_plan()
    h2.matvec(np.ones(h2.num_rows))
    parts = h2.memory_bytes()
    block_bytes = parts["coupling"] + parts["dense"]
    assert parts["total"] == parts["basis"] + block_bytes
    operand_bytes = sum(stage.a.nbytes for stage in plan.stages)
    assert plan.memory_bytes() == operand_bytes - block_bytes
    assert parts["total"] + plan.memory_bytes() == parts["basis"] + operand_bytes


def test_retried_compress_views_the_plan_it_returns():
    policy = ExecutionPolicy(recovery="recover", faults="fail-nth-launch:nth=1")
    result = compress(
        uniform_cube_points(400, dim=2, seed=4), ExponentialKernel(0.2),
        tol=1e-7, leaf_size=32, seed=4, policy=policy, full_result=True,
    )
    assert policy.faults.fired("fail-nth-launch") == 1
    h2 = result.matrix
    assert_blocks_view(h2, h2.apply_plan())
