"""Tests for the unified repro.api surface.

Covers the tentpole of the façade PR:

* the operator conformance suite — every format produced by
  :func:`repro.compress` (plus recompression / low-rank-update results and
  the comparator formats that share the H2 matrix's apply shell) runs
  through the same matvec/matmat/rmatvec/rmatmat/to_dense/dense-equivalence
  and ``permuted=`` round-trip checks;
* :func:`repro.baselines.convert`, the H2 → HODLR conversion of the
  comparator formats;
* the :class:`~repro.api.policy.ExecutionPolicy` / :mod:`repro.backends`
  registry threading;
* :class:`repro.Session` chaining (compress → factor → solve, sweep, gp).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    ExecutionPolicy,
    Session,
    SpanTracer,
    compress,
    random_low_rank,
    recompress_h2,
    uniform_cube_points,
)
from repro.api import FORMATS
from repro.baselines import HODLRMatrix, build_hmatrix_aca, convert
from repro.batched import KernelLaunchCounter, SerialBackend

N = 400
LEAF = 32
TOL = 1e-8


def rel(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(
        np.linalg.norm(actual - expected) / max(np.linalg.norm(expected), 1e-300)
    )


@pytest.fixture(scope="module")
def api_points() -> np.ndarray:
    return uniform_cube_points(N, dim=2, seed=21)


@pytest.fixture(scope="module")
def api_kernel():
    return repro.ExponentialKernel(length_scale=0.3)


@pytest.fixture(scope="module")
def api_dense(api_points, api_kernel) -> np.ndarray:
    """Dense reference in the *original* point ordering."""
    return api_kernel.evaluate(api_points, api_points)


@pytest.fixture(scope="module", params=["h2", "hss", "hodlr", "hmatrix", "recompressed"])
def conforming_operator(request, api_points, api_kernel):
    """Every operator family the solvers take: the sketching
    formats from :func:`compress`, HODLR as the exact expansion of an HSS
    matrix, the H matrix from the ACA builder (its only producer) and a
    recompression result."""
    fmt = request.param
    if fmt == "recompressed":
        base = compress(
            api_points, api_kernel, format="h2", tol=TOL, leaf_size=LEAF, seed=3
        )
        update = random_low_rank(N, 8, seed=4, symmetric=True)
        result = recompress_h2(base, low_rank_update=update, seed=5)
        extra = update.to_dense()
        # The update acts in the permuted ordering; map it back to original.
        extra = extra[np.ix_(base.tree.iperm, base.tree.iperm)]
        return fmt, result.matrix, extra
    if fmt == "hmatrix":
        tree = repro.ClusterTree.build(api_points, leaf_size=LEAF)
        op = build_hmatrix_aca(
            repro.build_block_partition(tree, repro.GeneralAdmissibility(eta=0.7)),
            repro.KernelEntryExtractor(api_kernel, tree.points).extract,
            tol=TOL,
        )
        return fmt, op, None
    op = compress(
        api_points, api_kernel, format="h2" if fmt == "h2" else "hss",
        tol=TOL, leaf_size=LEAF, seed=3,
    )
    return fmt, (convert(op, "hodlr") if fmt == "hodlr" else op), None


@pytest.fixture
def reference(conforming_operator, api_dense):
    fmt, op, extra = conforming_operator
    dense = api_dense if extra is None else api_dense + extra
    return fmt, op, dense


#: What the solvers, diagnostics and benchmarks call on every format.
SOLVER_METHODS = (
    "shape", "dtype", "matvec", "matmat", "rmatvec", "rmatmat", "__matmul__",
    "to_dense", "memory_bytes", "statistics", "rank_range",
)


class TestOperatorConformance:
    def test_has_the_methods_the_solvers_call(self, conforming_operator):
        fmt, op, _ = conforming_operator
        for method in SOLVER_METHODS:
            assert hasattr(op, method), method
        # Only the H2 matrix (HSS and recompression results included) persists.
        assert hasattr(op, "save") == (fmt in ("h2", "hss", "recompressed"))

    def test_shape_and_dtype(self, conforming_operator):
        _, op, _ = conforming_operator
        assert op.shape == (N, N)
        assert op.dtype == np.dtype(np.float64)

    def test_matvec_matches_dense(self, reference):
        _, op, dense = reference
        x = np.random.default_rng(0).standard_normal(N)
        assert rel(op.matvec(x), dense @ x) < 1e-6

    def test_matmat_matches_columnwise(self, reference):
        _, op, dense = reference
        X = np.random.default_rng(1).standard_normal((N, 3))
        out = op.matmat(X)
        assert out.shape == (N, 3)
        assert rel(out, dense @ X) < 1e-6
        cols = np.stack([op.matvec(X[:, j]) for j in range(3)], axis=1)
        assert np.allclose(out, cols, rtol=0, atol=1e-12)

    def test_matmat_rejects_vectors(self, conforming_operator):
        _, op, _ = conforming_operator
        with pytest.raises(ValueError):
            op.matmat(np.ones(N))
        with pytest.raises(ValueError):
            op.rmatmat(np.ones(N))

    def test_rmatvec_is_exact_transpose(self, reference):
        _, op, dense = reference
        x = np.random.default_rng(2).standard_normal(N)
        assert rel(op.rmatvec(x), dense.T @ x) < 1e-6
        X = np.random.default_rng(3).standard_normal((N, 2))
        assert rel(op.rmatmat(X), dense.T @ X) < 1e-6

    def test_matmul_operator(self, reference):
        _, op, dense = reference
        x = np.random.default_rng(4).standard_normal(N)
        assert rel(op @ x, dense @ x) < 1e-6

    def test_to_dense_equivalence(self, reference):
        _, op, dense = reference
        rebuilt = op.to_dense()
        assert rel(rebuilt, dense) < 1e-6

    def test_permuted_round_trip(self, conforming_operator):
        """permuted= semantics are uniform: perm-in/perm-out matches plain."""
        _, op, _ = conforming_operator
        tree = op.tree
        x = np.random.default_rng(5).standard_normal(N)
        plain = op.matvec(x)
        permuted = op.matvec(x[tree.perm], permuted=True)
        assert np.allclose(permuted, plain[tree.perm], rtol=0, atol=1e-12)
        dense_plain = op.to_dense()
        dense_perm = op.to_dense(permuted=True)
        assert np.allclose(
            dense_perm, dense_plain[np.ix_(tree.perm, tree.perm)], rtol=0, atol=0
        )

    def test_dimension_mismatch_raises(self, conforming_operator):
        _, op, _ = conforming_operator
        with pytest.raises(ValueError):
            op.matvec(np.ones(N + 1))

    def test_complex_matvec_splits_real_imag(self, reference):
        """A(x_re + i x_im) = A x_re + i A x_im — no silent .real truncation."""
        _, op, dense = reference
        rng = np.random.default_rng(7)
        z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        out = op.matvec(z)
        assert np.iscomplexobj(out)
        split = op.matvec(z.real.copy()) + 1j * op.matvec(z.imag.copy())
        assert np.allclose(out, split, rtol=0, atol=1e-12)
        assert rel(out, dense @ z) < 1e-6

    def test_complex_matmat_rmatvec_rmatmat(self, reference):
        _, op, dense = reference
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((N, 2)) + 1j * rng.standard_normal((N, 2))
        assert rel(op.matmat(Z), dense @ Z) < 1e-6
        assert rel(op.rmatmat(Z), dense.T @ Z) < 1e-6
        assert rel(op @ Z, dense @ Z) < 1e-6
        z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        assert rel(op.rmatvec(z), dense.T @ z) < 1e-6

    def test_complex_permuted_matches_plain(self, conforming_operator):
        _, op, _ = conforming_operator
        tree = op.tree
        rng = np.random.default_rng(9)
        z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        plain = op.matvec(z)
        permuted = op.matvec(z[tree.perm], permuted=True)
        assert np.allclose(permuted, plain[tree.perm], rtol=0, atol=1e-12)

    def test_adapted_linear_operator_handles_complex(self, reference):
        from repro import as_linear_operator

        _, op, dense = reference
        adapted = as_linear_operator(op)
        rng = np.random.default_rng(10)
        z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        assert rel(adapted.matvec(z), dense @ z) < 1e-6
        assert rel(adapted.rmatvec(z), dense.T @ z) < 1e-6

    def test_unified_memory_keys(self, conforming_operator):
        _, op, _ = conforming_operator
        mem = op.memory_bytes()
        assert {"low_rank", "dense", "total"} <= set(mem)
        assert mem["total"] == mem["low_rank"] + mem["dense"]
        assert mem["total"] > 0
        assert op.total_memory_mb() == pytest.approx(mem["total"] / 2**20)

    def test_unified_statistics_keys(self, conforming_operator):
        fmt, op, _ = conforming_operator
        stats = op.statistics()
        assert {
            "format",
            "n",
            "depth",
            "rank_min",
            "rank_max",
            "num_low_rank_blocks",
            "num_dense_blocks",
            "memory_mb",
        } <= set(stats)
        assert stats["n"] == N
        expected = {"recompressed": "h2", "hss": "h2"}.get(fmt, fmt)
        assert stats["format"] == expected

    def test_solvers_accept_every_format(self, reference):
        """as_linear_operator adapts every format through its matvec, no isinstance."""
        from repro import as_linear_operator, gmres

        _, op, dense = reference
        adapted = as_linear_operator(op)
        assert adapted.source is op
        b = np.random.default_rng(6).standard_normal(N)
        solve = gmres(op, b, tol=1e-10, restart=60, maxiter=4000)
        assert solve.converged
        # Exact residual against the operator the solver iterated on; the
        # dense comparison additionally absorbs compression error amplified
        # by the system's conditioning.
        assert rel(op @ solve.x, b) < 1e-8
        assert rel(dense @ solve.x, b) < 1e-3


class TestCompressFacade:
    def test_unknown_format_raises(self, api_points, api_kernel):
        with pytest.raises(ValueError, match="unknown format"):
            compress(api_points, api_kernel, format="butterfly")

    def test_requires_geometry(self, api_kernel):
        with pytest.raises(ValueError, match="points"):
            compress(None, api_kernel)

    def test_requires_kernel_or_evaluators(self, api_points):
        with pytest.raises(ValueError, match="kernel"):
            compress(api_points, None)

    def test_dense_array_kernel(self, api_points, api_dense):
        op = compress(api_points, api_dense, format="h2", tol=TOL, leaf_size=LEAF, seed=3)
        x = np.random.default_rng(0).standard_normal(N)
        assert np.allclose(op.matvec(x), api_dense @ x, rtol=0, atol=1e-5)

    def test_full_result_carries_statistics(self, api_points, api_kernel):
        result = compress(
            api_points, api_kernel, format="hss", tol=1e-6, leaf_size=LEAF,
            seed=3, full_result=True,
        )
        assert result.matrix.shape == (N, N)
        assert result.total_samples > 0
        assert result.total_kernel_launches > 0

    @pytest.mark.parametrize("fmt", ["hodlr", "hmatrix"])
    def test_aca_formats_are_not_compress_targets(self, api_points, api_kernel, fmt):
        """compress runs only the sketching constructor; HODLR is reached
        through convert and the H matrix only through the ACA builder."""
        assert FORMATS == ("h2", "hss")
        with pytest.raises(ValueError, match="unknown format"):
            compress(api_points, api_kernel, format=fmt)

    def test_hss_uses_weak_partition(self, api_points, api_kernel):
        from repro import WeakAdmissibility

        op = compress(api_points, api_kernel, format="hss", tol=1e-6, leaf_size=LEAF, seed=3)
        assert isinstance(op.partition.admissibility, WeakAdmissibility)


class TestConvertRegistry:
    @pytest.fixture(scope="class")
    def weak_h2(self, api_points, api_kernel):
        return compress(
            api_points, api_kernel, format="hss", tol=TOL, leaf_size=LEAF, seed=7
        )

    def test_h2_to_hodlr(self, weak_h2):
        hodlr = convert(weak_h2, "hodlr")
        assert isinstance(hodlr, HODLRMatrix)
        assert np.allclose(hodlr.to_dense(), weak_h2.to_dense(), rtol=0, atol=1e-10)
        # persist writes H2 matrices only; the comparator has nothing to save.
        assert not hasattr(HODLRMatrix, "save")

    def test_h2_has_no_hmatrix_bridge(self, weak_h2):
        with pytest.raises(ValueError, match="no conversion"):
            convert(weak_h2, "hmatrix")

    def test_to_dense_target(self, weak_h2):
        """There is no ``"dense"`` target: the error points at ``to_dense()``."""
        with pytest.raises(ValueError, match=r"to_dense\(\)"):
            convert(weak_h2, "dense")

    def test_identity_conversion(self, weak_h2):
        hodlr = convert(weak_h2, "hodlr")
        assert convert(hodlr, "hodlr") is hodlr
        for target in ("h2", "hss"):
            with pytest.raises(ValueError, match="no conversion"):
                convert(weak_h2, target)

    def test_unknown_target_raises(self, weak_h2):
        with pytest.raises(ValueError, match="no conversion"):
            convert(weak_h2, "butterfly")

    def test_only_h2_and_hodlr_sources_convert(self, api_points, api_kernel, weak_h2):
        """The target name is case-insensitive; an H matrix has no route."""
        assert isinstance(convert(weak_h2, "HODLR"), HODLRMatrix)
        tree = repro.ClusterTree.build(api_points, leaf_size=LEAF)
        hmatrix = build_hmatrix_aca(
            repro.build_block_partition(tree, repro.GeneralAdmissibility(eta=0.7)),
            repro.KernelEntryExtractor(api_kernel, tree.points).extract,
            tol=1e-4,
        )
        with pytest.raises(ValueError, match="from HMatrix"):
            convert(hmatrix, "hodlr")

    def test_unsupported_source_lists_targets(self, weak_h2):
        hodlr = convert(weak_h2, "hodlr")
        with pytest.raises(ValueError, match="dense"):
            convert(hodlr, "hmatrix")

    def test_strong_partition_converts_to_hodlr(self, api_points, api_kernel):
        """General-admissibility H2 re-compresses onto the weak partition
        with the sketching constructor, then expands into HODLR, instead of
        leaking the internal weak-partition ValueError."""
        strong = compress(
            api_points, api_kernel, format="h2", tol=TOL, leaf_size=LEAF, seed=7
        )
        hodlr = convert(strong, "hodlr", tol=1e-8)
        assert isinstance(hodlr, HODLRMatrix)
        assert rel(hodlr.to_dense(), strong.to_dense()) < 1e-6

    def test_strong_hodlr_conversion_honours_max_rank(self, api_points, api_kernel):
        """``max_rank`` reaches the recompression's construction config and
        caps every sibling block of the expanded HODLR matrix."""
        strong = compress(
            api_points, api_kernel, format="h2", tol=TOL, leaf_size=LEAF, seed=7
        )
        uncapped = convert(strong, "hodlr", tol=1e-10)
        capped = convert(strong, "hodlr", tol=1e-10, max_rank=4)
        assert uncapped.rank_range()[1] > 4
        assert capped.rank_range()[1] <= 4
        assert rel(capped.to_dense(), strong.to_dense()) > rel(
            uncapped.to_dense(), strong.to_dense()
        )

    def test_strong_hodlr_conversion_is_deterministic(self, api_points, api_kernel):
        """The recompression runs at a fixed seed: two conversions of the
        same strong matrix are bit-identical."""
        strong = compress(
            api_points, api_kernel, format="h2", tol=TOL, leaf_size=LEAF, seed=7
        )
        first = convert(strong, "hodlr").to_dense()
        assert np.array_equal(first, convert(strong, "hodlr").to_dense())

    def test_weak_partition_hodlr_conversion_stays_exact(self, weak_h2):
        """The weak-partition fast path is untouched: exact, no re-compression."""
        hodlr = convert(weak_h2, "hodlr")
        assert np.allclose(hodlr.to_dense(), weak_h2.to_dense(), rtol=0, atol=1e-10)


class TestExecutionPolicy:
    def test_backend_registry_roundtrip(self):
        assert repro.backends.get("serial").name == "serial"
        assert repro.backends.get("vectorized").name == "vectorized"
        with pytest.raises(ValueError, match="unknown backend"):
            repro.backends.get("warp")

    def test_register_custom_backend(self, api_points, api_kernel):
        """A custom backend is passed as an instance; no name is registered."""

        class TaggedSerial(SerialBackend):
            name = "tagged-serial"

        backend = TaggedSerial()
        policy = ExecutionPolicy(backend=backend)
        assert policy.resolve_backend() is backend
        result = compress(
            api_points, api_kernel, tol=1e-4, leaf_size=LEAF, seed=1,
            policy=policy, full_result=True,
        )
        assert result.matrix.apply_backend is backend
        assert backend.counter.total() > 0
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionPolicy(backend="tagged-serial").resolve_backend()

    def test_env_override_resolves_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert ExecutionPolicy().resolve_backend().name == "serial"
        assert repro.batched.get_backend("auto").name == "serial"
        monkeypatch.delenv("REPRO_BACKEND")
        assert ExecutionPolicy().resolve_backend().name == "vectorized"

    def test_env_override_normalizes_whitespace_and_case(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  SeRiAl ")
        assert ExecutionPolicy().resolve_backend().name == "serial"
        assert repro.batched.get_backend("auto").name == "serial"

    def test_blank_env_values_fall_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "   ")
        assert ExecutionPolicy().resolve_backend().name == "vectorized"

    def test_inline_values_normalized(self):
        assert repro.batched.get_backend(" Vectorized ").name == "vectorized"

    def test_no_user_set_sweep_selection_or_counter(self, api_points):
        """The compiled sweep is the constructor; nothing selects another."""
        for removed in ({"construction_path": "loop"}, {"counter": KernelLaunchCounter()}):
            with pytest.raises(TypeError):
                ExecutionPolicy(**removed)
        with pytest.raises(TypeError):
            repro.ConstructionConfig(construction_path="loop")
        with pytest.raises(TypeError):
            Session(api_points, construction_path="loop")
        # Backend and tracer reach a session or a GP through its policy only,
        # and recovery / faults are never written onto a backend.
        for removed in ({"backend": "serial"}, {"tracer": SpanTracer()}):
            with pytest.raises(TypeError):
                Session(api_points, **removed)
        with pytest.raises(TypeError):
            repro.GaussianProcess(api_points, repro.ExponentialKernel(0.2), backend="serial")
        for name in ("recovery", "faults"):
            assert not hasattr(repro.VectorizedBackend(), name)
        # The per-node store and apply loop live in tests/oracles.py only.
        assert not hasattr(repro.H2Constructor, "construct_loop")
        assert not hasattr(repro.H2Matrix, "matvec_loop")
        assert not hasattr(repro, "BlockSparseRowMatrix")
        assert not hasattr(repro.batched, "NodeSweep")
        for name in ("BlockSparseRowMatrix", "NodeSweep"):
            assert name not in repro.__all__ and name not in repro.batched.__all__
        for method in (
            "batched_gemm", "batched_gemm_accumulate", "batched_transpose", "batched_rows"
        ):
            for backend in (repro.batched.SerialBackend, repro.VectorizedBackend):
                assert not hasattr(backend, method)

    def test_no_apply_plan_restack_path(self):
        """An apply plan is compiled from its own matrix only: nothing
        re-stacks it with another matrix's blocks, and nothing counts that."""
        from dataclasses import fields

        from repro.api.facade import SessionStatistics

        for name in ("refresh", "matches", "_structure"):
            assert not hasattr(repro.batched.H2ApplyPlan, name)
        assert not hasattr(repro.H2Matrix, "reuse_plan")
        assert "keys" not in {f.name for f in fields(repro.batched.ApplyStage)}
        stats = {f.name for f in fields(SessionStatistics)}
        assert not stats & {"plan_reuses", "plan_compilations"}
        report = {f.name for f in fields(repro.gp.GPFitReport)}
        assert "result_reused" in report and "plan_reused" not in report

    def test_no_variable_batches_or_padding_knobs(self, api_points, api_kernel):
        """Batched buffers are plain 3-D stacks; fan and rank padding are fixed."""
        assert not hasattr(repro, "VariableBatch")
        assert not hasattr(repro.batched, "VariableBatch")
        assert "VariableBatch" not in repro.__all__
        assert "VariableBatch" not in repro.batched.__all__
        assert not hasattr(repro.utils, "offsets_from_sizes")
        assert not hasattr(repro.utils, "total_from_sizes")
        h2 = compress(api_points, api_kernel, tol=1e-4, leaf_size=LEAF, seed=1)
        with pytest.raises(TypeError):
            repro.compile_apply_plan(h2, fan_pad=2)
        with pytest.raises(TypeError):
            repro.compile_apply_plan(h2, pad_to=16)
        partition = repro.build_block_partition(h2.tree, repro.WeakAdmissibility())
        with pytest.raises(TypeError):
            repro.batched.ConstructionPlan(partition, fan_pad=2)

    @pytest.mark.parametrize("backend_name", ["serial", "vectorized"])
    def test_explicit_config_constructs_on_the_policy_backend(
        self, api_points, api_kernel, backend_name
    ):
        """``config=`` sets the construction knobs; the policy still carries
        the backend: the construction runs, counts and binds on it.  The
        vectorized case matters too: the default ``backend="auto"`` must not
        fall back to a fresh vectorized backend of its own."""
        config = repro.ConstructionConfig(tolerance=1e-6)
        policy = ExecutionPolicy(backend=backend_name, tracer=SpanTracer())
        result = compress(
            api_points, api_kernel, leaf_size=LEAF, seed=1, config=config,
            policy=policy, full_result=True,
        )
        backend = policy.resolve_backend()
        assert result.trace.attributes["backend"] == backend_name
        # >=: an attempt retried under REPRO_FAULTS counts on the backend too.
        assert backend.counter.total() >= result.total_kernel_launches > 0
        assert result.matrix.apply_backend is backend

        session = Session(
            api_points, leaf_size=LEAF, seed=1,
            policy=ExecutionPolicy(backend=backend_name),
        )
        result = session.construct(api_kernel, config=config)
        assert session.backend.counter.total() >= result.total_kernel_launches > 0
        assert result.matrix.apply_backend is session.backend

    def test_config_naming_another_backend_raises(self, api_points, api_kernel):
        policy = ExecutionPolicy(backend="serial")
        own = repro.ConstructionConfig(backend=policy.resolve_backend())
        assert compress(
            api_points, api_kernel, leaf_size=LEAF, seed=1, config=own,
            policy=policy,
        ).apply_backend is policy.resolve_backend()
        for other in ("serial", SerialBackend()):
            config = repro.ConstructionConfig(backend=other)
            with pytest.raises(ValueError, match="not the policy's backend"):
                compress(
                    api_points, api_kernel, leaf_size=LEAF, seed=1,
                    config=config, policy=policy,
                )
            with pytest.raises(ValueError, match="not the policy's backend"):
                Session(api_points, leaf_size=LEAF, policy=policy).construct(
                    api_kernel, config=config
                )

    def test_shared_counter_accumulates(self, api_points, api_kernel):
        counter = KernelLaunchCounter()
        policy = ExecutionPolicy(backend=SerialBackend(counter=counter))
        op = compress(
            api_points, api_kernel, tol=1e-4, leaf_size=LEAF, seed=1, policy=policy
        )
        after_construction = counter.total()
        assert after_construction > 0
        op.matvec(np.ones(N))
        assert counter.total() > after_construction

    def test_shared_backend_instance(self):
        policy = ExecutionPolicy(backend="serial")
        assert policy.resolve_backend() is policy.resolve_backend()

    def test_backend_sharing_is_not_a_setting(self):
        with pytest.raises(TypeError):
            ExecutionPolicy(backend="serial", share_backend=False)
        assert not hasattr(ExecutionPolicy(), "share_backend")

    def test_launch_counter_accessor(self):
        policy = ExecutionPolicy(backend="serial")
        assert policy.launch_counter() is policy.resolve_backend().counter


class TestSession:
    @pytest.fixture(scope="class")
    def session(self, api_points):
        return Session(api_points, leaf_size=LEAF, seed=9)

    def test_compress_factor_solve_chain(self, session, api_kernel, api_dense):
        b = np.random.default_rng(10).standard_normal(N)
        solve = session.compress(api_kernel, tol=TOL).factor(noise=1e-2).solve(b)
        assert solve.converged
        assert np.allclose(
            (api_dense + 1e-2 * np.eye(N)) @ solve.x, b, rtol=0, atol=1e-5
        )
        # The weak-admissibility operator is factored on its own generators.
        assert isinstance(session.factorization, repro.HSSFactorization)

    def test_operator_and_result_properties(self, session, api_kernel):
        session.compress(api_kernel, tol=TOL)
        assert isinstance(session.operator, repro.H2Matrix)
        assert session.result.matrix is session.operator

    def test_solve_methods(self, session, api_kernel, api_dense):
        session.compress(api_kernel, tol=TOL).factor(noise=1e-2)
        b = np.ones(N)
        for method in ("cg", "gmres"):
            solve = session.solve(b, tol=1e-8, method=method)
            assert solve.converged, method
        for method in ("direct-inverse", "ladder", "auto"):
            with pytest.raises(ValueError, match="unknown method"):
                session.solve(b, method=method)

    def test_strong_session_factors_by_recompression(self, api_points, api_kernel, api_dense):
        """A strong-admissibility session compresses to strong H2 and its
        factor() recompresses onto the weak partition before the HSS
        factorization; the factorization preconditions the session solve."""
        from repro import GeneralAdmissibility

        strong = Session(
            api_points, leaf_size=LEAF, admissibility=GeneralAdmissibility(eta=0.7),
            seed=9,
        )
        strong.compress(api_kernel, tol=TOL)
        assert strong.operator.weak_partition_defect() is not None
        strong.factor(noise=1e-2)
        assert isinstance(strong.factorization, repro.HSSFactorization)
        a = api_dense + 1e-2 * np.eye(N)
        b = np.random.default_rng(12).standard_normal(N)
        # The recompression runs at tol=1e-6, so the direct solve carries
        # that error amplified by 1/noise; CG on the operator removes it.
        assert rel(strong.factorization.solve(b), np.linalg.solve(a, b)) < 1e-3
        solve = strong.solve(b, tol=1e-8)
        assert solve.converged
        assert rel(a @ solve.x, b) < 1e-5

    def test_recompress_resets_factorization_shift(self, api_points, api_kernel, api_dense):
        """A re-compress must drop the previous factor() and its noise shift."""
        sess = Session(api_points, leaf_size=LEAF, seed=4)
        sess.compress(api_kernel, tol=TOL).factor(noise=0.5)
        other = repro.ExponentialKernel(0.45)
        sess.compress(other, tol=TOL)
        b = np.random.default_rng(11).standard_normal(N)
        solve = sess.solve(b, tol=1e-10)
        dense_other = other.evaluate(api_points, api_points)
        assert solve.converged
        # Unshifted system: with the stale 0.5 shift this residual is ~0.4.
        assert rel(dense_other @ solve.x, b) < 1e-4

    def test_sweep_reuses_geometry(self, session):
        before = session.statistics.constructions
        kernels = [repro.ExponentialKernel(ls) for ls in (0.2, 0.3, 0.45)]
        results = session.sweep(kernels, tol=1e-6)
        assert len(results) == 3
        assert session.statistics.constructions >= before + 2

    def test_gp_shares_context(self, session, api_points):
        gp = session.gp(repro.ExponentialKernel(0.3), noise=1e-2, tolerance=1e-6)
        assert gp.session is session
        y = np.sin(api_points[:, 0] * 4.0)
        gp.fit(y)
        assert np.isfinite(gp.log_marginal_likelihood_)

    def test_requires_compress_before_factor(self, api_points):
        fresh = Session(api_points, leaf_size=LEAF)
        with pytest.raises(RuntimeError, match="compress"):
            fresh.factor()
        with pytest.raises(RuntimeError, match="compress"):
            _ = fresh.operator

    def test_policy_threads_into_construction(self, api_points, api_kernel):
        sess = Session(
            api_points, leaf_size=LEAF, policy=ExecutionPolicy(backend="serial")
        )
        result = sess.compress(api_kernel, tol=1e-4).result
        assert result.matrix.apply_backend.name == "serial"

    def test_describe_and_geometry_accessors(self, session):
        assert session.describe().startswith("Session(")
        assert session.tree.num_points == N
        assert session.partition.tree is session.tree
        assert session.points.shape == (N, 2)
