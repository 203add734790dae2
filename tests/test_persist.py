"""Tests for repro.persist — versioned artifacts and the content-addressed cache.

Covers the tentpole of the persistence PR:

* exact (bitwise) save → load round trips for every hierarchical format,
  through both the package functions and the ``op.save(path)`` mixin;
* zero-copy loads: every block buffer is a read-only view into one memmap;
* container validation: bad magic, truncated files, corrupted headers and
  format-version mismatches fail loudly with typed errors;
* :class:`repro.persist.ArtifactCache` keying, hit/miss accounting, LRU
  eviction, corrupted-entry recovery;
* the cache-aside integration of :func:`repro.compress` and
  :class:`repro.Session` (including the ``REPRO_CACHE_DIR`` environment
  opt-in), and that a warm re-compression is a pure cache hit.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    ArtifactCache,
    ExecutionPolicy,
    ExponentialKernel,
    Session,
    compress,
    uniform_cube_points,
)
from repro.baselines import build_hmatrix_aca, convert
from repro.persist import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactVersionError,
    MAGIC,
    kernel_descriptor,
    load_operator,
    read_artifact,
    save_operator,
    write_artifact,
)

N = 300
LEAF = 32
TOL = 1e-7


@pytest.fixture(scope="module")
def persist_points() -> np.ndarray:
    return uniform_cube_points(N, dim=2, seed=11)


@pytest.fixture(scope="module")
def persist_kernel() -> ExponentialKernel:
    return ExponentialKernel(length_scale=0.3)


@pytest.fixture(scope="module", params=["h2", "hss"])
def saved_operator(request, persist_points, persist_kernel, tmp_path_factory):
    """One operator of each persisted format: the strong H2 and the HSS
    matrix from :func:`compress`."""
    fmt = request.param
    op = compress(
        persist_points, persist_kernel, format=fmt, tol=TOL, leaf_size=LEAF,
        seed=5,
    )
    path = tmp_path_factory.mktemp("artifacts") / f"{fmt}.repro"
    op.save(path)
    return fmt, op, path


class TestRoundTrip:
    def test_bitwise_exact_to_dense(self, saved_operator):
        _, op, path = saved_operator
        loaded = load_operator(path)
        assert type(loaded) is type(op)
        assert loaded.shape == op.shape
        assert np.array_equal(loaded.to_dense(), op.to_dense())
        assert np.array_equal(
            loaded.to_dense(permuted=True), op.to_dense(permuted=True)
        )

    def test_bitwise_exact_matvec(self, saved_operator):
        _, op, path = saved_operator
        loaded = load_operator(path)
        x = np.random.default_rng(0).standard_normal(N)
        assert np.array_equal(loaded.matvec(x), op.matvec(x))
        assert np.array_equal(loaded.rmatvec(x), op.rmatvec(x))

    def test_tree_round_trips(self, saved_operator):
        _, op, path = saved_operator
        loaded = load_operator(path)
        assert np.array_equal(loaded.tree.perm, op.tree.perm)
        assert np.array_equal(loaded.tree.points, op.tree.points)
        assert loaded.tree.depth == op.tree.depth
        assert loaded.tree.leaf_size == op.tree.leaf_size

    def test_materialized_load_matches(self, saved_operator):
        _, op, path = saved_operator
        loaded = load_operator(path, mmap=False)
        assert np.array_equal(loaded.to_dense(), op.to_dense())

    def test_save_function_matches_mixin(self, saved_operator, tmp_path):
        fmt, op, _ = saved_operator
        path = save_operator(op, tmp_path / "again.repro")
        assert np.array_equal(load_operator(path).to_dense(), op.to_dense())

    def test_build_tolerance_round_trips(self, saved_operator):
        """The artifact records the tolerance the matrix was built at, and a
        cache hit reports it in place of the request's."""
        from repro.core import ConstructionConfig, ConstructionResult

        _, op, path = saved_operator
        loaded = load_operator(path)
        assert op.tolerance == loaded.tolerance == TOL
        hit = ConstructionResult.from_cache(loaded, ConstructionConfig(tolerance=1e-3), 0.0)
        assert hit.config.tolerance == TOL

    def test_statistics_preserved(self, saved_operator):
        _, op, path = saved_operator
        loaded = load_operator(path)
        assert loaded.statistics()["format"] == op.statistics()["format"]
        assert loaded.memory_bytes()["total"] == op.memory_bytes()["total"]


class TestZeroCopy:
    def test_buffers_are_memmap_views(self, saved_operator):
        _, _, path = saved_operator
        _, buffers = read_artifact(path)
        assert buffers
        for name, array in buffers.items():
            assert isinstance(array.base, np.memmap), name
            assert not array.flags.writeable, name

    def test_materialized_buffers_are_read_only(self, saved_operator):
        _, _, path = saved_operator
        _, buffers = read_artifact(path, mmap=False)
        for name, array in buffers.items():
            assert not isinstance(array.base, np.memmap), name
            assert not array.flags.writeable, name

    def test_alignment(self, saved_operator):
        from repro.persist import ALIGNMENT

        _, _, path = saved_operator
        header, _ = read_artifact(path)
        for entry in header["buffers"]:
            assert entry["offset"] % ALIGNMENT == 0


class TestContainerValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.repro"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ArtifactFormatError, match="magic"):
            read_artifact(path)

    def test_truncated_preamble(self, tmp_path):
        path = tmp_path / "short.repro"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(ArtifactFormatError, match="truncated"):
            read_artifact(path)

    def test_corrupted_header_json(self, saved_operator, tmp_path):
        _, _, source = saved_operator
        data = bytearray(source.read_bytes())
        # Scribble over the JSON header, preserving the preamble.
        data[24:40] = b"\xff" * 16
        path = tmp_path / "corrupt.repro"
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactFormatError):
            read_artifact(path)

    def test_truncated_data_section(self, saved_operator, tmp_path):
        _, _, source = saved_operator
        data = source.read_bytes()
        path = tmp_path / "truncated.repro"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactError):
            load_operator(path)

    def test_format_version_mismatch(self, saved_operator, tmp_path):
        _, _, source = saved_operator
        header, buffers = read_artifact(source)
        path = tmp_path / "future.repro"
        write_artifact(
            path,
            header["format"],
            int(header["format_version"]) + 1,
            header["meta"],
            list(buffers.items()),
        )
        with pytest.raises(ArtifactVersionError, match="version"):
            load_operator(path)

    def test_unregistered_format(self, tmp_path):
        path = tmp_path / "alien.repro"
        write_artifact(path, "butterfly", 1, {}, [("x", np.zeros(3))])
        with pytest.raises(ArtifactFormatError, match="butterfly"):
            load_operator(path)

    def test_unpersistable_operator(self, tmp_path):
        with pytest.raises(ArtifactError, match="only H2 matrices"):
            save_operator(object(), tmp_path / "nope.repro")

    def test_baseline_formats_do_not_persist(self, persist_points, persist_kernel, tmp_path):
        """HODLR and H matrices are comparators, not product formats."""
        tree = repro.ClusterTree.build(persist_points, leaf_size=LEAF)
        weak = compress(
            persist_points, persist_kernel, format="hss", tol=TOL,
            leaf_size=LEAF, seed=5,
        )
        hmatrix = build_hmatrix_aca(
            repro.build_block_partition(tree, repro.GeneralAdmissibility(eta=0.7)),
            repro.KernelEntryExtractor(persist_kernel, tree.points).extract,
            tol=TOL,
        )
        for op in (convert(weak, "hodlr"), hmatrix):
            with pytest.raises(ArtifactError, match="only H2 matrices"):
                save_operator(op, tmp_path / "baseline.repro")

    @staticmethod
    def _hand_built(path, entry, data: bytes):
        """A container whose one buffer directory entry is ``entry``."""
        import hashlib
        import json

        from repro.persist.format import CONTAINER_VERSION, _PREAMBLE, _align

        entry = {"name": "a", "offset": 0, "sha256": hashlib.sha256(data).hexdigest(),
                 **entry}
        header = {"container_version": CONTAINER_VERSION, "format": "test",
                  "format_version": 1, "meta": {}, "buffers": [entry]}
        payload = json.dumps(header).encode()
        data_start = _align(_PREAMBLE.size + len(payload))
        with open(path, "wb") as fh:
            fh.write(_PREAMBLE.pack(MAGIC, CONTAINER_VERSION, len(payload)))
            fh.write(payload)
            fh.write(b"\0" * (data_start - _PREAMBLE.size - len(payload)))
            fh.write(data)
        return path

    def test_negative_shape_is_rejected(self, tmp_path):
        path = self._hand_built(
            tmp_path / "neg.repro",
            {"dtype": "<f8", "shape": [-1, 32], "nbytes": -256}, bytes(256),
        )
        with pytest.raises(ArtifactFormatError, match="non-negative integer"):
            read_artifact(path)

    def test_object_dtype_is_a_format_error(self, tmp_path):
        path = self._hand_built(
            tmp_path / "object.repro",
            {"dtype": "|O", "shape": [4], "nbytes": 32}, bytes(32),
        )
        with pytest.raises(ArtifactFormatError, match="artifacts hold"):
            read_artifact(path)

    @pytest.mark.parametrize("dtype", ["<c16", ">f8"])
    def test_foreign_dtype_is_rejected_even_when_verified(self, dtype, tmp_path):
        path = self._hand_built(
            tmp_path / "foreign.repro",
            {"dtype": dtype, "shape": [32 // np.dtype(dtype).itemsize], "nbytes": 32},
            bytes(32),
        )
        with pytest.raises(ArtifactFormatError, match="artifacts hold"):
            read_artifact(path, verify=True)

    def test_foreign_dtype_is_not_written(self, tmp_path):
        with pytest.raises(ArtifactFormatError, match="artifacts hold"):
            write_artifact(tmp_path / "f4.repro", "test", 1, {}, [("x", np.zeros(3, np.float32))])
        assert not list(tmp_path.iterdir())

    def test_strided_buffers_write_their_contiguous_bytes(self, tmp_path):
        stack = np.arange(96.0).reshape(2, 6, 8)
        views = [("a", stack[0, :5, 2:7]), ("b", stack[1].T), ("c", np.zeros((0, 4)))]
        path = write_artifact(tmp_path / "views.repro", "test", 1, {}, views)
        _, buffers = read_artifact(path, verify=True)
        for name, view in views:
            assert np.array_equal(buffers[name], view), name

    @pytest.mark.parametrize("fmt", ["hodlr", "hmatrix"])
    def test_old_baseline_artifact_is_unknown_format(self, fmt, tmp_path):
        """Artifacts of the formats earlier releases persisted load typed."""
        path = tmp_path / f"{fmt}.repro"
        write_artifact(path, fmt, 1, {}, [("x", np.zeros(3))])
        with pytest.raises(ArtifactFormatError, match=fmt):
            load_operator(path)


class TestKernelDescriptor:
    def test_scalar_hyperparameters(self, persist_kernel):
        desc = kernel_descriptor(persist_kernel)
        assert desc["class"].endswith("ExponentialKernel")
        assert desc["params"]["length_scale"] == pytest.approx(0.3)

    def test_composites_recurse(self):
        scaled = repro.ScaledKernel(ExponentialKernel(0.2), variance=2.0)
        summed = repro.SumKernel([ExponentialKernel(0.2), repro.WhiteNoiseKernel(0.1)])
        assert kernel_descriptor(scaled)["inner"]["class"].endswith("ExponentialKernel")
        assert len(kernel_descriptor(summed)["components"]) == 2

    def test_distinguishes_parameters_and_classes(self):
        a = kernel_descriptor(ExponentialKernel(0.2))
        b = kernel_descriptor(ExponentialKernel(0.3))
        c = kernel_descriptor(repro.GaussianKernel(0.2))
        assert a != b and a != c


class TestArtifactCache:
    def test_key_sensitivity(self, persist_points, persist_kernel, tmp_path):
        cache = ArtifactCache(tmp_path)
        base = dict(tol=1e-6, format="h2", leaf_size=LEAF, seed=3)
        key = cache.key(persist_points, persist_kernel, **base)
        assert key == cache.key(persist_points, persist_kernel, **base)
        variants = [
            cache.key(persist_points, persist_kernel, **{**base, "tol": 1e-5}),
            cache.key(persist_points, persist_kernel, **{**base, "seed": 4}),
            cache.key(persist_points, persist_kernel, **{**base, "leaf_size": 16}),
            cache.key(persist_points, persist_kernel, **{**base, "format": "hss"}),
            cache.key(persist_points, ExponentialKernel(0.4), **base),
            cache.key(persist_points * 1.1, persist_kernel, **base),
            cache.key(
                persist_points, persist_kernel, **base, extra={"max_rank": 10}
            ),
        ]
        assert len({key, *variants}) == len(variants) + 1

    def test_unknown_format_raises(self, persist_points, persist_kernel, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ArtifactError, match="butterfly"):
            cache.key(persist_points, persist_kernel, tol=1e-6, format="butterfly")

    @pytest.mark.parametrize("fmt", ["hodlr", "hmatrix"])
    def test_baseline_formats_have_no_key(
        self, persist_points, persist_kernel, tmp_path, fmt
    ):
        with pytest.raises(ArtifactError, match=fmt):
            ArtifactCache(tmp_path).key(
                persist_points, persist_kernel, tol=1e-6, format=fmt
            )

    def test_format_version_is_the_h2_layout(self):
        from repro.persist import H2_FORMAT_VERSION, format_version

        assert format_version("h2") == format_version("HSS") == H2_FORMAT_VERSION == 3
        with pytest.raises(ArtifactError, match="hodlr"):
            format_version("hodlr")

    def test_keys_are_stable_across_releases(self, tmp_path):
        """A fixed h2 and hss request hashes to the key of H2 format version
        3: the key moves with the stored layout's version only, so existing
        cache entries of the current layout stay valid."""
        cache = ArtifactCache(tmp_path)
        points = uniform_cube_points(64, dim=2, seed=0)
        kernel = ExponentialKernel(0.2)
        h2 = cache.key(
            points, kernel, tol=1e-6, format="h2", leaf_size=16,
            admissibility=repro.GeneralAdmissibility(eta=0.7), seed=3,
        )
        hss = cache.key(
            points, kernel, tol=1e-6, format="hss", leaf_size=16,
            admissibility=repro.WeakAdmissibility(), seed=3,
        )
        assert h2 == "8812a4e67bdf056626224ef42e6badc66c9107b836c3e22a0b68368e46f0fb36"
        assert hss == "df15d258aa46e480ebdcbc349fed9e1f769c40cd68c4dba6469685c639d2eca3"

    def test_miss_then_hit(self, saved_operator, persist_points, persist_kernel, tmp_path):
        _, op, _ = saved_operator
        cache = ArtifactCache(tmp_path)
        key = cache.key(persist_points, persist_kernel, tol=TOL, seed=5)
        assert cache.get(key) is None
        assert cache.misses == 1
        cache.put(key, op)
        loaded = cache.get(key)
        assert loaded is not None
        assert cache.hits == 1
        assert np.array_equal(loaded.to_dense(), op.to_dense())

    def test_get_or_build(self, saved_operator, tmp_path):
        _, op, _ = saved_operator
        cache = ArtifactCache(tmp_path)
        builds = []

        def builder():
            builds.append(1)
            return op

        policy = ExecutionPolicy()
        first, first_hit = cache.get_or_build("somekey", builder, policy)
        second, second_hit = cache.get_or_build("somekey", builder, policy)
        assert len(builds) == 1
        assert (first_hit, second_hit) == (False, True)
        assert np.array_equal(first.to_dense(), second.to_dense())

    def test_corrupted_entry_counts_as_miss_and_is_dropped(
        self, saved_operator, tmp_path
    ):
        _, op, _ = saved_operator
        cache = ArtifactCache(tmp_path)
        cache.put("k", op)
        cache.path_for("k").write_bytes(b"garbage")
        assert cache.get("k") is None
        assert cache.misses == 1
        assert not cache.path_for("k").exists()

    def test_lru_eviction(self, saved_operator, tmp_path):
        _, op, _ = saved_operator
        size = save_operator(op, tmp_path / "probe.repro").stat().st_size
        (tmp_path / "probe.repro").unlink()
        cache = ArtifactCache(tmp_path, max_bytes=2 * size + size // 2)
        cache.put("a", op)
        time.sleep(0.01)
        cache.put("b", op)
        time.sleep(0.01)
        assert cache.get("a") is not None  # refresh a's LRU stamp
        time.sleep(0.01)
        cache.put("c", op)  # over budget: evicts b (oldest mtime)
        assert cache.evictions == 1
        assert cache.path_for("a").exists()
        assert not cache.path_for("b").exists()
        assert cache.path_for("c").exists()

    def test_clear_and_statistics(self, saved_operator, tmp_path):
        _, op, _ = saved_operator
        cache = ArtifactCache(tmp_path)
        cache.put("x", op)
        stats = cache.statistics()
        assert stats["entries"] == 1 and stats["bytes"] > 0
        assert cache.size_bytes() == stats["bytes"]
        cache.clear()
        assert cache.statistics()["entries"] == 0

    def test_observe_counters(self, saved_operator, tmp_path):
        _, op, _ = saved_operator
        cache = ArtifactCache(tmp_path)
        cache.get("absent")
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("present", op)
        cache.get("present")
        assert (cache.hits, cache.misses) == (1, 1)


class TestCompressIntegration:
    def test_cold_then_warm(self, persist_points, persist_kernel, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = compress(
            persist_points, persist_kernel, tol=1e-6, leaf_size=LEAF, seed=3,
            cache=cache,
        )
        assert (cache.hits, cache.misses) == (0, 1)
        warm = compress(
            persist_points, persist_kernel, tol=1e-6, leaf_size=LEAF, seed=3,
            cache=cache,
        )
        assert (cache.hits, cache.misses) == (1, 1)
        assert np.array_equal(warm.to_dense(), cold.to_dense())

    @pytest.mark.parametrize("fmt", ["h2", "hss"])
    def test_every_format_participates(
        self, fmt, persist_points, persist_kernel, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        cold = compress(
            persist_points, persist_kernel, format=fmt, tol=1e-6, leaf_size=LEAF,
            seed=3, cache=cache,
        )
        warm = compress(
            persist_points, persist_kernel, format=fmt, tol=1e-6, leaf_size=LEAF,
            seed=3, cache=cache,
        )
        assert cache.hits == 1
        assert np.array_equal(warm.to_dense(), cold.to_dense())

    def test_cache_dir_and_env_opt_in(
        self, persist_points, persist_kernel, tmp_path, monkeypatch
    ):
        compress(
            persist_points, persist_kernel, tol=1e-6, leaf_size=LEAF, seed=3,
            cache_dir=tmp_path,
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        warm_env = compress(
            persist_points, persist_kernel, tol=1e-6, leaf_size=LEAF, seed=3
        )
        warm_again = compress(
            persist_points, persist_kernel, tol=1e-6, leaf_size=LEAF, seed=3,
        )
        assert np.array_equal(warm_env.to_dense(), warm_again.to_dense())
        assert len(list(tmp_path.glob("*.repro"))) == 1

    def test_expert_overrides_bypass_cache(
        self, persist_points, persist_kernel, tmp_path
    ):
        from repro import ClusterTree

        cache = ArtifactCache(tmp_path)
        tree = ClusterTree.build(persist_points, leaf_size=LEAF)
        compress(
            persist_points, persist_kernel, tol=1e-6, seed=3, tree=tree, cache=cache
        )
        compress(
            persist_points, persist_kernel, tol=1e-6, leaf_size=LEAF,
            seed=np.random.default_rng(0), cache=cache,
        )
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.statistics()["entries"] == 0
        # full_result=True is not an override: its repeat is a cache hit.
        kwargs = dict(tol=1e-6, leaf_size=LEAF, seed=3, full_result=True, cache=cache)
        cold = compress(persist_points, persist_kernel, **kwargs)
        warm = compress(persist_points, persist_kernel, **kwargs)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cold.construction_path == "packed"
        assert warm.construction_path == "cache"
        assert warm.config.tolerance == 1e-6
        assert (warm.total_samples, warm.total_kernel_launches) == (0, 0)
        assert np.array_equal(warm.matrix.to_dense(), cold.matrix.to_dense())

    def test_artifact_keys_are_stable(self, persist_points, persist_kernel, tmp_path):
        """A stored entry is named by its request's key; these hex keys are
        those of H2 format version 3, and a change to them orphans every
        cache entry users hold."""
        compress_cache = ArtifactCache(tmp_path / "compress")
        compress(persist_points, persist_kernel, tol=1e-6, seed=3, cache=compress_cache)
        session_cache = ArtifactCache(tmp_path / "session")
        Session(persist_points, seed=1, cache=session_cache).compress(
            persist_kernel, tol=1e-6
        )
        stored = [
            sorted(path.stem for path in cache.directory.glob("*.repro"))
            for cache in (compress_cache, session_cache)
        ]
        assert stored == [
            ["7ae42929b7eeb52fbdcfe645cb11c70d3116754efe0c70190451b30b00508c93"],
            ["4031bb561c9512494099abfc727cb54a0154973eb1f91cebef1ffdbdb42a2c82"],
        ]

    def test_warm_operator_still_solves(self, persist_points, persist_kernel, tmp_path):
        from repro import gmres

        cache = ArtifactCache(tmp_path)
        kwargs = dict(tol=1e-8, leaf_size=LEAF, seed=3, cache=cache)
        compress(persist_points, persist_kernel, **kwargs)
        warm = compress(persist_points, persist_kernel, **kwargs)
        b = np.random.default_rng(1).standard_normal(N)
        result = gmres(warm, b, tol=1e-8, restart=60, maxiter=4000)
        assert result.converged


class TestSessionIntegration:
    def test_second_session_loads_from_cache(
        self, persist_points, persist_kernel, tmp_path
    ):
        first = Session(persist_points, leaf_size=LEAF, seed=1, cache_dir=tmp_path)
        first.compress(persist_kernel, tol=1e-6)
        assert first.statistics.artifact_cache_hits == 0
        assert first.statistics.constructions == 1

        second = Session(persist_points, leaf_size=LEAF, seed=1, cache_dir=tmp_path)
        second.compress(persist_kernel, tol=1e-6)
        stats = second.statistics
        assert stats.artifact_cache_hits == 1
        assert stats.constructions == 0
        assert second.result.construction_path == "cache"
        assert second.result.converged
        assert np.array_equal(
            second.operator.to_dense(), first.operator.to_dense()
        )

    def test_loaded_operator_factors_and_solves(
        self, persist_points, persist_kernel, tmp_path
    ):
        Session(persist_points, leaf_size=LEAF, seed=1, cache_dir=tmp_path).compress(
            persist_kernel, tol=1e-8
        )
        warm = Session(persist_points, leaf_size=LEAF, seed=1, cache_dir=tmp_path)
        solve = (
            warm.compress(persist_kernel, tol=1e-8)
            .factor(noise=1e-2)
            .solve(np.ones(N))
        )
        assert warm.statistics.artifact_cache_hits == 1
        assert solve.converged

    def test_in_memory_result_cache_still_first(
        self, persist_points, persist_kernel, tmp_path
    ):
        sess = Session(persist_points, leaf_size=LEAF, seed=1, cache_dir=tmp_path)
        sess.compress(persist_kernel, tol=1e-6)
        sess.compress(persist_kernel, tol=1e-6)
        stats = sess.statistics
        assert stats.result_cache_hits == 1
        assert stats.artifact_cache_hits == 0

    def test_generator_seed_disables_artifact_cache(
        self, persist_points, persist_kernel, tmp_path
    ):
        session = Session(
            persist_points,
            leaf_size=LEAF,
            seed=np.random.default_rng(0),
            cache=ArtifactCache(tmp_path),
        )
        assert session.artifact_cache is None
        session.construct(persist_kernel, tol=1e-6)
        assert session.statistics.artifact_cache_hits == 0


class TestWarmCompress:
    def test_warm_compress_is_a_cache_hit(self, tmp_path, monkeypatch):
        """A repeated ``compress`` / ``Session.compress`` loads the cached
        artifact: no construction, no operator application, no batched
        launch, and the cold operator bit for bit.  What the load saves in
        wall-clock time is the benchmark's to measure, not a test's."""
        from repro.core.builder import H2Constructor

        points = uniform_cube_points(1024, dim=2, seed=7)
        kernel = ExponentialKernel(length_scale=0.2)
        cache = ArtifactCache(tmp_path)
        kwargs = dict(tol=1e-6, leaf_size=64, seed=3, cache=cache)
        cold = compress(points, kernel, **kwargs)
        cold_session = Session(points, leaf_size=64, seed=3, cache=cache)
        cold_session.compress(kernel, tol=1e-6)
        assert (cache.misses, cache.hits) == (2, 0)  # two keys, two builds

        def no_construction(self):
            raise AssertionError("a warm compress constructed")

        monkeypatch.setattr(H2Constructor, "construct", no_construction)
        policy = ExecutionPolicy(backend=repro.VectorizedBackend())
        warm = compress(points, kernel, policy=policy, **kwargs)
        session = Session(points, leaf_size=64, seed=3, cache=cache, policy=policy)
        result = session.compress(kernel, tol=1e-6).result
        assert cache.hits == 2
        assert result.construction_path == "cache"
        assert result.operator_applications == 0
        assert result.kernel_launches == {}
        assert not any(
            op.startswith("batched_") for op in policy.launch_counter().by_operation()
        )
        assert np.array_equal(warm.to_dense(), cold.to_dense())
        assert np.array_equal(
            result.matrix.to_dense(), cold_session.result.matrix.to_dense()
        )


class TestIntegrityHardening:
    """Container v2 checksums, truncation detection, corruption policies and
    the cache directory lock (the resilience PR's persistence hardening)."""

    @pytest.fixture()
    def small_artifact(self, tmp_path):
        path = tmp_path / "small.repro"
        a = np.arange(20.0).reshape(4, 5)
        b = np.arange(6, dtype=np.int64)
        write_artifact(path, "test", 1, {"k": 1}, [("a", a), ("b", b)])
        return path, a, b

    def test_v2_writes_checksums(self, small_artifact):
        path, a, b = small_artifact
        header, buffers = read_artifact(path, verify=True)
        assert header["container_version"] == 2
        assert all(len(e["sha256"]) == 64 for e in header["buffers"])
        assert np.array_equal(buffers["a"], a)
        assert np.array_equal(buffers["b"], b)

    def test_verify_catches_flipped_payload_byte(self, small_artifact, tmp_path):
        path, _, _ = small_artifact
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        bad = tmp_path / "flipped.repro"
        bad.write_bytes(bytes(data))
        read_artifact(bad)  # lazy read does not touch the payload
        with pytest.raises(ArtifactFormatError, match="checksum"):
            read_artifact(bad, verify=True)

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "zero.repro"
        path.write_bytes(b"")
        with pytest.raises(ArtifactFormatError, match="truncated"):
            read_artifact(path)

    def test_bogus_header_length(self, tmp_path):
        from repro.persist.format import CONTAINER_VERSION, _PREAMBLE

        path = tmp_path / "huge.repro"
        path.write_bytes(_PREAMBLE.pack(MAGIC, CONTAINER_VERSION, 10**15))
        with pytest.raises(ArtifactFormatError, match="exceeds the file size"):
            read_artifact(path)

    def test_v1_artifact_without_digests_still_reads(self, tmp_path):
        # A hand-built version-1 container (no sha256 entries) must load even
        # under verify=True: verification is skipped, not failed.
        import json

        from repro.persist.format import _PREAMBLE, _align

        a = np.arange(12.0).reshape(3, 4)
        header = {
            "container_version": 1,
            "format": "test",
            "format_version": 1,
            "meta": {},
            "buffers": [
                {"name": "a", "dtype": a.dtype.str, "shape": list(a.shape),
                 "offset": 0, "nbytes": int(a.nbytes)}
            ],
        }
        payload = json.dumps(header, separators=(",", ":")).encode()
        data_start = _align(_PREAMBLE.size + len(payload))
        path = tmp_path / "v1.repro"
        with open(path, "wb") as fh:
            fh.write(_PREAMBLE.pack(MAGIC, 1, len(payload)))
            fh.write(payload)
            fh.write(b"\0" * (data_start - _PREAMBLE.size - len(payload)))
            fh.write(a.tobytes())
        _, buffers = read_artifact(path, verify=True)
        assert np.array_equal(buffers["a"], a)

    def _corrupt_entry(self, cache, key):
        path = cache.path_for(key)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        return path

    @pytest.fixture()
    def cached_operator(self, persist_points, persist_kernel, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        op = compress(persist_points, persist_kernel, tol=TOL, seed=3)
        cache.put("k", op)
        return cache, op

    def test_corruption_evicts_by_default(self, cached_operator):
        cache, _ = cached_operator
        path = self._corrupt_entry(cache, "k")
        assert cache.get("k", verify=True) is None
        assert not path.exists()

    def test_corruption_raise_mode(self, cached_operator):
        from repro.resilience import ArtifactIntegrityError

        cache, _ = cached_operator
        path = self._corrupt_entry(cache, "k")
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            cache.get("k", on_corruption="raise", verify=True)
        assert excinfo.value.stage == "persist.get"
        assert path.exists()  # kept for forensics

    def test_corruption_warn_mode(self, cached_operator):
        import logging

        cache, _ = cached_operator
        path = self._corrupt_entry(cache, "k")
        records: list = []
        handler = logging.Handler()
        handler.emit = lambda record: records.append(record.getMessage())
        logger = logging.getLogger("repro.resilience")
        logger.addHandler(handler)
        try:
            assert cache.get("k", on_corruption="warn", verify=True) is None
        finally:
            logger.removeHandler(handler)
        assert not path.exists()
        assert any("artifact-corrupted" in m for m in records)

    def test_zero_byte_cache_entry_is_a_miss(self, cached_operator):
        cache, _ = cached_operator
        cache.path_for("k").write_bytes(b"")
        assert cache.get("k") is None
        assert not cache.path_for("k").exists()

    def test_corrupt_artifact_fault_through_compress(
        self, persist_points, persist_kernel, tmp_path
    ):
        from repro import ExecutionPolicy

        cdir = tmp_path / "cache"
        kwargs = dict(tol=TOL, seed=3, cache_dir=cdir)
        faulty = ExecutionPolicy(
            faults="corrupt-artifact-buffer:nth=1", recovery="recover"
        )
        first = compress(persist_points, persist_kernel, policy=faulty, **kwargs)
        # The artifact on disk is now corrupted; the next compress must
        # detect it, evict and reconstruct rather than return garbage.
        healed = compress(
            persist_points, persist_kernel,
            policy=ExecutionPolicy(recovery="recover"), **kwargs
        )
        x = np.random.default_rng(0).standard_normal(len(persist_points))
        assert np.allclose(first.matvec(x), healed.matvec(x))

    def test_corrupt_artifact_fault_strict_raises(
        self, persist_points, persist_kernel, tmp_path
    ):
        from repro import ExecutionPolicy
        from repro.resilience import ArtifactIntegrityError

        cdir = tmp_path / "cache"
        kwargs = dict(tol=TOL, seed=3, cache_dir=cdir)
        compress(
            persist_points, persist_kernel,
            policy=ExecutionPolicy(
                faults="corrupt-artifact-buffer:nth=1", recovery="recover"
            ),
            **kwargs,
        )
        with pytest.raises(ArtifactIntegrityError):
            compress(
                persist_points, persist_kernel,
                policy=ExecutionPolicy(recovery="strict"), **kwargs
            )

    def test_lock_times_out_then_steals_stale(self, tmp_path):
        from repro.persist.cache import ArtifactLockError, _DirectoryLock

        ldir = tmp_path / "locked"
        ldir.mkdir()
        lock_path = ldir / ".repro-cache.lock"
        lock_path.write_text("99999")  # a foreign holder
        with pytest.raises(ArtifactLockError):
            with _DirectoryLock(ldir, timeout=0.15, stale_seconds=30.0):
                pass
        # Backdate the lock past the staleness horizon: it must be stolen.
        old = os.path.getmtime(lock_path) - 120
        os.utime(lock_path, (old, old))
        with _DirectoryLock(ldir, timeout=0.5, stale_seconds=30.0):
            pass
        assert not lock_path.exists()

    def test_put_is_lock_guarded(self, persist_points, persist_kernel, tmp_path):
        # A held (fresh) lock makes put fail typed instead of racing.
        from repro.persist.cache import ArtifactLockError

        cache = ArtifactCache(tmp_path, lock_timeout=0.15)
        op = compress(persist_points, persist_kernel, tol=TOL, seed=3)
        (tmp_path / ".repro-cache.lock").write_text("99999")
        with pytest.raises(ArtifactLockError):
            cache.put("k", op)


# -------------------------------------------------------------- thread safety
class TestArtifactCacheThreadSafety:
    """The serving registry resolves models through one shared cache from
    concurrent requests; hammer in-process get/put and check the LRU
    bookkeeping stays exact (cross-process safety is the directory lock's
    job, exercised elsewhere)."""

    WORKERS = 4
    ITERS = 3

    @pytest.fixture(scope="class")
    def hammer_operator(self, persist_points, persist_kernel):
        return compress(
            persist_points, persist_kernel, tol=1e-6, leaf_size=LEAF, seed=2
        )

    def test_concurrent_get_put(self, hammer_operator, tmp_path):
        cache = ArtifactCache(tmp_path)
        keys = [f"hammer-{w}" for w in range(self.WORKERS)]
        barrier = threading.Barrier(self.WORKERS)
        errors = []

        def worker(wid):
            try:
                cache.put(keys[wid], hammer_operator)
                barrier.wait()  # every key resident before the gets start
                for _ in range(self.ITERS):
                    # re-put races against the other workers' gets: the
                    # atomic-rename overwrite must always leave a loadable
                    # entry, and every hit/miss must be counted exactly once
                    cache.put(keys[wid], hammer_operator)
                    for key in keys:
                        loaded = cache.get(key)
                        assert loaded is not None
                        assert loaded.shape == hammer_operator.shape
                    assert cache.get(f"missing-{wid}") is None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert cache.hits == self.WORKERS * self.ITERS * len(keys)
        assert cache.misses == self.WORKERS * self.ITERS
        stats = cache.statistics()
        assert stats["hits"] == cache.hits
        assert stats["entries"] == len(keys)

    def test_concurrent_eviction_budget(self, hammer_operator, tmp_path):
        entry_bytes = os.path.getsize(
            ArtifactCache(tmp_path / "probe").put("probe", hammer_operator)
        )
        cache = ArtifactCache(tmp_path / "evict",
                              max_bytes=int(entry_bytes * 2.5))
        errors = []

        def worker(wid):
            try:
                for i in range(self.ITERS):
                    cache.put(f"evict-{wid}-{i}", hammer_operator)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        stats = cache.statistics()
        # budget enforced under concurrency: at most 2 entries survive
        assert stats["entries"] <= 2
        assert stats["bytes"] <= entry_bytes * 2.5
        assert stats["evictions"] >= self.WORKERS * self.ITERS - 2

    def test_entry_unlinked_between_scan_and_stat(
        self, hammer_operator, tmp_path, monkeypatch
    ):
        """The race behind flaky eviction runs, made deterministic: every
        directory scan returns one entry that another writer unlinks right
        after the scan produced it, and one that is already gone."""
        cache = ArtifactCache(tmp_path, max_bytes=2**40)
        victim = cache.put("victim", hammer_operator)
        victim_bytes = victim.read_bytes()
        ghost = cache.path_for("ghost")
        scan = Path.glob

        def racing_glob(self, pattern, **kwargs):
            victim.write_bytes(victim_bytes)
            for path in scan(self, pattern, **kwargs):
                yield path
                if path == victim:
                    victim.unlink()
            yield ghost

        monkeypatch.setattr(Path, "glob", racing_glob)
        cache.put("survivor", hammer_operator)
        assert cache.size_bytes() == 2 * len(victim_bytes)
        stats = cache.statistics()
        assert stats["entries"] == 2
        assert stats["evictions"] == 0

    def test_eviction_sizes_only_the_entries_that_exist(
        self, hammer_operator, tmp_path, monkeypatch
    ):
        """Over budget, a scanned path that is already gone neither raises
        nor counts: the oldest real entry is evicted, exactly once."""
        entry_bytes = os.path.getsize(
            ArtifactCache(tmp_path / "probe").put("probe", hammer_operator)
        )
        cache = ArtifactCache(tmp_path / "evict", max_bytes=int(entry_bytes * 1.5))
        ghost = cache.path_for("ghost")
        scan = Path.glob

        def glob_with_ghost(self, pattern, **kwargs):
            yield ghost
            yield from scan(self, pattern, **kwargs)

        monkeypatch.setattr(Path, "glob", glob_with_ghost)
        old = cache.put("old", hammer_operator)
        os.utime(old, (1.0, 1.0))  # the oldest mtime: evicted first
        new = cache.put("new", hammer_operator)
        assert not old.exists() and new.exists()
        assert cache.evictions == 1
        assert cache.size_bytes() == entry_bytes
        assert cache.statistics()["entries"] == 1
