"""An artifact stores an H2 matrix as the operands of its apply plan.

The dense and coupling blocks are saved as the fan-grouped forward operands
of the matrix's apply plan (one buffer per fan group, plus the groups' index
arrays).  A loaded matrix's blocks are exact-shape views of the mapped
operand slots, ``load`` compiles nothing, and the first apply adopts the
mapped operands and compiles the four basis phases only: no dense or coupling
block exists twice, on disk or in memory.  These tests hold the round trip to
the pinned output bits of ``tests/test_apply_pinned.py``, and every kind of
malformed operand data to a typed :class:`ArtifactFormatError`.
"""

import asyncio

import numpy as np
import pytest

from repro import (
    ArtifactCache,
    ExecutionPolicy,
    ExponentialKernel,
    compile_apply_plan,
    compress,
    factorize,
    load_operator,
    save_operator,
    uniform_cube_points,
)
from repro.batched import apply_plan as apply_plan_module
from repro.hmatrix.h2matrix import H2Matrix
from repro.persist import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactVersionError,
    read_artifact,
    write_artifact,
)
from repro.persist import serializers
from repro.resilience import ArtifactIntegrityError
from repro.serve import InferenceServer, MatvecRequest
from test_apply_pinned import PINNED_OUTPUTS, PROBLEMS, digest
from test_block_storage import (
    ALL_PROBLEMS,
    BASIS_OPS,
    block_operands,
    problem_matrix,
    recompressed,  # noqa: F401 - module fixture
)

#: ``load_operator`` keyword sets: zero-copy memmap, and read into memory
#: with every buffer's checksum verified.
LOADS = {"mmap": dict(), "in-memory-verified": dict(mmap=False, verify=True)}


def stored_operands(h2):
    """The operand arrays a loaded matrix holds until its first apply."""
    dense, coupling = h2._operands
    return [*dense.operands, *(a for ops in coupling.values() for a in ops.operands)]


def assert_blocks_view_mapped_operands(h2, operands):
    """Every non-empty block shares memory with exactly one of the forward
    dense/coupling ``operands``, and those were read from the artifact
    (read-only), not compiled."""
    for a in operands:
        assert not a.flags.writeable
    for blocks in (h2.dense, h2.coupling):
        for key, block in blocks.items():
            if block.size:
                owners = [a for a in operands if np.shares_memory(block, a)]
                assert len(owners) == 1, key


@pytest.fixture()
def compiled(monkeypatch):
    """The ops of every ``_Phase.compile`` call, in order."""
    ops = []
    original = apply_plan_module._Phase.compile

    def recording(phase):
        ops.append(phase.op)
        return original(phase)

    monkeypatch.setattr(apply_plan_module._Phase, "compile", recording)
    return ops


@pytest.mark.parametrize("load", sorted(LOADS))
@pytest.mark.parametrize("problem", ALL_PROBLEMS)
def test_round_trip_adopts_the_stored_operands(
    problem, load, recompressed, compiled, tmp_path  # noqa: F811
):
    h2 = problem_matrix(problem, recompressed)
    path = save_operator(h2, tmp_path / "m.reproart")
    compiled.clear()
    loaded = load_operator(path, **LOADS[load])
    assert compiled == [] and loaded._plan is None  # load compiles nothing
    assert_blocks_view_mapped_operands(loaded, stored_operands(loaded))

    rng = np.random.default_rng(7)
    x = rng.standard_normal((h2.num_rows, 3))
    assert np.array_equal(loaded.matmat(x), h2.matmat(x))
    # The first apply adopted the mapped operands: basis phases only.
    assert compiled and set(compiled) <= BASIS_OPS
    plan = loaded.apply_plan()
    assert_blocks_view_mapped_operands(loaded, block_operands(plan))
    assert np.array_equal(loaded.rmatmat(x), h2.rmatmat(x))
    assert np.array_equal(loaded.to_dense(), h2.to_dense())
    rows, cols = rng.choice(h2.num_rows, 40), rng.choice(h2.num_rows, 30)
    assert np.array_equal(loaded.get_block(rows, cols), h2.get_block(rows, cols))
    assert list(loaded.dense) == list(h2.dense)
    assert list(loaded.coupling) == list(h2.coupling)
    assert loaded.memory_bytes() == h2.memory_bytes()
    assert plan.memory_bytes() == h2.apply_plan().memory_bytes()


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_loaded_outputs_are_the_pinned_bits(problem, backend, recompressed, tmp_path):  # noqa: F811
    loaded = load_operator(save_operator(problem_matrix(problem, recompressed), tmp_path / "m"))
    plan = loaded.apply_plan()
    out = {}
    for k in (1, 3):
        x = np.random.default_rng(k).standard_normal((plan.n, k))
        out[f"forward_k{k}"] = digest(plan.execute(x, backend=backend))
        out[f"transpose_k{k}"] = digest(plan.execute(x, backend=backend, transpose=True))
    assert out == PINNED_OUTPUTS[(problem, backend)]


@pytest.mark.parametrize("problem", ALL_PROBLEMS)
def test_adopted_stored_operands_equal_a_fresh_compile(problem, recompressed, tmp_path):  # noqa: F811
    loaded = load_operator(save_operator(problem_matrix(problem, recompressed), tmp_path / "m"))
    adopted, fresh = loaded.apply_plan(), compile_apply_plan(loaded)
    assert [s.op for s in adopted.stages] == [s.op for s in fresh.stages]
    for a, b in zip(adopted.stages, fresh.stages):
        assert (a.op, a.level, a.dest, a.src) == (b.op, b.level, b.dest, b.src)
        assert np.array_equal(a.dest_pos, b.dest_pos)
        assert np.array_equal(a.src_pos, b.src_pos)
        assert a.a.tobytes() == b.a.tobytes()


def test_rank_zero_level_is_stored_and_adopted_in_the_plan_layout(compiled, tmp_path):
    """A level with a rank-0 node is compiled on construction (the sweep's
    positions are not the plan's); the artifact stores it as the plan holds
    it, and the loaded plan adopts it like every other level."""
    h2 = problem_matrix("ragged-leaf24", None)
    depth_ranks = {
        level: [h2.basis.rank(node) for node in h2.tree.nodes_at_level(level)]
        for level in h2.apply_plan().block_operands()[1]
    }
    assert any(0 in ranks for ranks in depth_ranks.values())
    loaded = load_operator(save_operator(h2, tmp_path / "m"))
    compiled.clear()
    loaded.apply_plan()
    assert "apply_coupling" not in compiled and set(compiled) <= BASIS_OPS


def test_save_writes_the_operands_without_a_copy(monkeypatch, tmp_path):
    h2 = problem_matrix("covariance-leaf16", None)
    written = {}
    original = serializers.write_artifact

    def capture(path, fmt, version, meta, buffers):
        written.update(buffers)
        return original(path, fmt, version, meta, buffers)

    monkeypatch.setattr(serializers, "write_artifact", capture)
    save_operator(h2, tmp_path / "m")
    operands = [a for name, a in written.items() if name.endswith("/operand")]
    plan_operands = block_operands(h2.apply_plan())
    assert len(operands) == len(plan_operands)
    assert all(a.flags.c_contiguous for a in operands)
    assert all(any(a is b for b in plan_operands) for a in operands)
    assert not any(name.startswith(("dense/", "coupling/")) and name.split("/")[-1].isdigit()
                   for name in written)  # no buffer per block


def test_save_of_a_hand_built_matrix_builds_its_plan(tmp_path):
    h2 = problem_matrix("helmholtz-leaf16", None)
    fresh = H2Matrix(
        tree=h2.tree, partition=h2.partition, basis=h2.basis,
        coupling={k: np.array(v) for k, v in h2.coupling.items()},
        dense={k: np.array(v) for k, v in h2.dense.items()},
    )
    assert fresh._plan is None
    loaded = load_operator(save_operator(fresh, tmp_path / "m"))
    plan = fresh._plan
    assert plan is not None
    for blocks in (fresh.dense, fresh.coupling):  # re-pointed as on a first apply
        for key, block in blocks.items():
            assert sum(np.shares_memory(block, a) for a in block_operands(plan)) == 1, key
    x = np.random.default_rng(2).standard_normal(h2.num_rows)
    assert np.array_equal(loaded.matvec(x), h2.matvec(x))


def test_a_block_outside_the_plan_is_not_saved(tmp_path):
    h2 = compress(
        uniform_cube_points(300, dim=2, seed=5), ExponentialKernel(0.2),
        tol=1e-7, leaf_size=32, seed=5,
    )
    h2.apply_plan()
    key = next(iter(h2.dense))
    h2.dense[(key[0], key[0] + 10**6)] = np.ones((2, 2))  # a stale plan
    with pytest.raises(ArtifactError, match="rebuild"):
        save_operator(h2, tmp_path / "m")
    assert not (tmp_path / "m").exists()


def test_resave_and_rebuild_of_a_loaded_matrix(tmp_path):
    h2 = problem_matrix("covariance-leaf48", None)
    loaded = load_operator(save_operator(h2, tmp_path / "a"))
    again = load_operator(save_operator(loaded, tmp_path / "b"))
    x = np.random.default_rng(4).standard_normal((h2.num_rows, 2))
    assert np.array_equal(again.matmat(x), h2.matmat(x))
    plan = loaded.apply_plan(rebuild=True)  # compiled from the mapped blocks
    assert all(a.flags.writeable for a in block_operands(plan))
    assert np.array_equal(loaded.matmat(x), h2.matmat(x))


def test_factorize_of_a_loaded_hss_artifact(tmp_path):
    hss = compress(
        uniform_cube_points(400, dim=2, seed=8), ExponentialKernel(0.3),
        format="hss", tol=1e-7, leaf_size=32, seed=8,
    )
    loaded = load_operator(save_operator(hss, tmp_path / "hss"))
    b = np.random.default_rng(9).standard_normal((hss.num_rows, 2))
    assert np.array_equal(
        factorize(loaded, shift=1e-2).solve(b), factorize(hss, shift=1e-2).solve(b)
    )


def test_a_loaded_model_serves_the_original_bits(tmp_path):
    h2 = problem_matrix("helmholtz-leaf48", None)
    path = save_operator(h2, tmp_path / "m")
    server = InferenceServer(batching=False)
    model = server.register("m", path=path)
    assert_blocks_view_mapped_operands(model.operator, block_operands(model.operator._plan))
    xs = [np.random.default_rng(i).standard_normal((h2.num_rows, 2)) for i in range(3)]

    async def main():
        try:
            return await asyncio.gather(
                *[server.handle(MatvecRequest(model="m", x=x)) for x in xs]
            )
        finally:
            await server.aclose()

    for response, x in zip(asyncio.run(main()), xs):
        assert np.array_equal(response.y, h2.matmat(x))


def test_served_model_bytes_count_its_apply_plan():
    h2 = problem_matrix("covariance-leaf16", None)
    server = InferenceServer(batching=False)
    model = server.register("m", h2)
    plan_bytes = h2.apply_plan().memory_bytes()
    assert plan_bytes > 0
    assert model.memory_bytes() == h2.memory_bytes()["total"] + plan_bytes
    asyncio.run(server.aclose())


# ------------------------------------------------------------ hostile files
@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A valid artifact's header and buffers (copied, writable)."""
    h2 = problem_matrix("covariance-leaf16", None)
    path = save_operator(h2, tmp_path_factory.mktemp("valid") / "m")
    header, buffers = read_artifact(path)
    return header, {name: np.array(a) for name, a in buffers.items()}


def rewrite(stored, path, meta=None, version=None, **changes):
    """The stored artifact with ``changes`` (buffer name with ``/`` spelled
    ``__`` -> array, or ``None`` to drop it) written to ``path``."""
    header, buffers = stored
    buffers = dict(buffers)
    for name, array in changes.items():
        name = name.replace("__", "/")
        assert name in buffers, name
        if array is None:
            del buffers[name]
        else:
            buffers[name] = array
    return write_artifact(
        path, "h2", serializers.H2_FORMAT_VERSION if version is None else version,
        header["meta"] if meta is None else meta, list(buffers.items()),
    )


def changed(array, index, value):
    array = np.array(array)
    array[index] = value
    return array


def corruptions(stored):
    """One malformed artifact per kind: name -> rewrite keyword arguments."""
    header, buffers = stored
    g = buffers["dense/0/dest_pos"]
    operand = buffers["dense/0/operand"]
    shapes = buffers["dense/shapes"]
    meta = dict(header["meta"])
    wide = [name for name in buffers if name.endswith("/dest_pos") and buffers[name].size > 1][0]
    wide = wide[: -len("dest_pos")].replace("/", "__")
    return {
        "dest_pos out of range": {"dense__0__dest_pos": changed(g, 0, 10**6)},
        "negative dest_pos": {"dense__0__dest_pos": changed(g, 0, -1)},
        "src_pos out of range": {
            "dense__0__src_pos": changed(buffers["dense/0/src_pos"], 0, 10**6)
        },
        "block_req out of range": {
            "dense__0__block_req": changed(buffers["dense/0/block_req"], 0, 10**6)
        },
        "block index out of range": {"dense__blocks": changed(buffers["dense/blocks"], 0, -1)},
        "swapped rows": {
            wide + "dest_pos": buffers[wide.replace("__", "/") + "dest_pos"][::-1].copy()
        },
        "fan inconsistent with the operand": {
            "dense__0__operand": np.ascontiguousarray(operand[:, :, :-1])
        },
        "operand of other rows": {"dense__0__operand": np.ascontiguousarray(operand[:-1])},
        "block larger than its slot": {"dense__shapes": changed(shapes, (0, 0), 10**3)},
        "float index array": {"dense__0__src_pos": buffers["dense/0/src_pos"].astype(float)},
        "missing operand": {"dense__0__operand": None},
        "missing keys": {"coupling__keys": None},
        "repeated key": {"dense__keys": changed(buffers["dense/keys"], 1, buffers["dense/keys"][0])},
        "meta without operands": {"meta": {k: v for k, v in meta.items() if k != "operands"}},
        "meta of one entry": {"meta": {"symmetric": True}},
        "malformed operand counts": {"meta": {**meta, "operands": {"dense": "x", "coupling": 3}}},
    }


CORRUPTIONS = [
    "dest_pos out of range", "negative dest_pos", "src_pos out of range",
    "block_req out of range", "block index out of range", "swapped rows",
    "fan inconsistent with the operand", "operand of other rows",
    "block larger than its slot", "float index array", "missing operand",
    "missing keys", "repeated key", "meta without operands", "meta of one entry",
    "malformed operand counts",
]


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_malformed_operands_fail_typed(kind, stored, tmp_path):
    path = rewrite(stored, tmp_path / "bad", **corruptions(stored)[kind])
    with pytest.raises(ArtifactFormatError):
        load_operator(path)


@pytest.mark.parametrize("mode", ["evict", "raise"])
def test_cache_treats_a_malformed_artifact_as_corrupted(mode, stored, tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    path = rewrite(stored, cache.path_for("k"), meta={"symmetric": True})
    if mode == "raise":
        with pytest.raises(ArtifactIntegrityError):
            cache.get("k", on_corruption="raise")
        assert path.exists()
    else:
        assert cache.get("k") is None
        assert not path.exists()


def test_format_1_artifact_is_a_version_error_and_rebuilt(stored, tmp_path):
    path = rewrite(stored, tmp_path / "v1", version=1)
    with pytest.raises(ArtifactVersionError):
        load_operator(path)
    cache = ArtifactCache(tmp_path / "cache")
    rewrite(stored, cache.path_for("k"), version=1)
    h2 = problem_matrix("covariance-leaf16", None)
    operator, hit = cache.get_or_build("k", lambda: h2, ExecutionPolicy())
    assert operator is h2 and not hit  # evicted and rebuilt
    assert isinstance(cache.get("k"), H2Matrix)
