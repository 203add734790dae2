"""Cross-backend equivalence and property tests of the compiled H2 apply engine.

The batched plan (:mod:`repro.batched.apply_plan`) must be an exact reordering
of the per-node reference loop: every backend, kernel, tree depth and apply
mode (matvec / matmat / rmatvec / rmatmat, permuted and original ordering) has
to agree with that loop (``oracles.matvec_loop``) and with the dense
reconstruction to near machine precision, while issuing O(levels) batched
launches instead of O(nodes) block GEMMs.  Property tests pin down linearity, permutation round-trips,
matmat-vs-stacked-matvec consistency and seed reproducibility of the full
construct → compile → solve pipeline.
"""

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
    VectorizedBackend,
    as_linear_operator,
    build_block_partition,
    cg,
    compile_apply_plan,
    compress,
    uniform_cube_points,
)
from repro.batched import KernelLaunchCounter, SerialBackend
from repro.hmatrix import LinearOperator
from repro.batched.block_rows import FAN_PAD

from oracles import matvec_loop

BACKENDS = ["serial", "vectorized"]
#: (kernel name, leaf size) — leaf size 16 doubles the tree depth vs 48.
PROBLEMS = [
    ("covariance", 16),
    ("covariance", 48),
    ("helmholtz", 16),
    ("helmholtz", 48),
]

TOL = 1e-12


def _kernel(name):
    if name == "covariance":
        return ExponentialKernel(length_scale=0.2)
    return HelmholtzKernel(wavenumber=3.0)


@pytest.fixture(scope="module", params=PROBLEMS, ids=lambda p: f"{p[0]}-leaf{p[1]}")
def h2_problem(request):
    """A constructed H2 matrix over 460 2D points plus its dense reconstruction."""
    name, leaf_size = request.param
    points = uniform_cube_points(460, dim=2, seed=13)
    tree = ClusterTree.build(points, leaf_size=leaf_size)
    partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
    dense = _kernel(name).matrix(tree.points)
    result = H2Constructor(
        partition,
        DenseOperator(dense),
        DenseEntryExtractor(dense),
        ConstructionConfig(tolerance=1e-8, sample_block_size=16),
        seed=3,
    ).construct()
    h2 = result.matrix
    return {
        "h2": h2,
        "tree": tree,
        "h2_dense": h2.to_dense(permuted=True),
        "depth": tree.depth,
    }


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matvec_matches_loop_and_dense(self, h2_problem, backend):
        h2 = h2_problem["h2"]
        x = np.random.default_rng(0).standard_normal(h2.num_rows)
        batched = h2.apply_plan().execute(x[:, None], backend=backend)[:, 0]
        assert rel_err(batched, matvec_loop(h2, x, permuted=True)) < TOL
        assert rel_err(batched, h2_problem["h2_dense"] @ x) < TOL

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matmat_matches_loop_and_dense(self, h2_problem, backend):
        h2 = h2_problem["h2"]
        x = np.random.default_rng(1).standard_normal((h2.num_rows, 6))
        batched = h2.apply_plan().execute(x, backend=backend)
        assert rel_err(batched, matvec_loop(h2, x, permuted=True)) < TOL
        assert rel_err(batched, h2_problem["h2_dense"] @ x) < TOL

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rmatvec_matches_dense_transpose(self, h2_problem, backend):
        h2 = h2_problem["h2"]
        x = np.random.default_rng(2).standard_normal(h2.num_rows)
        batched = h2.apply_plan().execute(x[:, None], backend=backend, transpose=True)[:, 0]
        assert rel_err(batched, h2_problem["h2_dense"].T @ x) < TOL

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rmatmat_matches_dense_transpose(self, h2_problem, backend):
        h2 = h2_problem["h2"]
        x = np.random.default_rng(3).standard_normal((h2.num_rows, 4))
        batched = h2.apply_plan().execute(x, backend=backend, transpose=True)
        assert rel_err(batched, h2_problem["h2_dense"].T @ x) < TOL

    def test_original_ordering_matches_loop(self, h2_problem):
        h2 = h2_problem["h2"]
        x = np.random.default_rng(4).standard_normal(h2.num_rows)
        assert rel_err(h2.matvec(x), matvec_loop(h2, x)) < TOL

    def test_backends_agree_with_each_other(self, h2_problem):
        h2 = h2_problem["h2"]
        x = np.random.default_rng(5).standard_normal((h2.num_rows, 3))
        plan = h2.apply_plan()
        serial = plan.execute(x, backend="serial")
        vectorized = plan.execute(x, backend="vectorized")
        assert rel_err(serial, vectorized) < 1e-14

    def test_transpose_adjoint_identity(self, h2_problem):
        """<y, A x> == <A^T y, x> ties forward and transpose plans together."""
        h2 = h2_problem["h2"]
        rng = np.random.default_rng(6)
        x = rng.standard_normal(h2.num_rows)
        y = rng.standard_normal(h2.num_rows)
        left = float(y @ h2.matvec(x, permuted=True))
        right = float(h2.rmatvec(y, permuted=True) @ x)
        assert abs(left - right) / max(abs(left), 1e-300) < TOL


class TestLaunchCounts:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_launches_per_apply_are_o_levels_not_o_nodes(self, h2_problem, backend):
        h2 = h2_problem["h2"]
        plan = h2.apply_plan()
        counter = KernelLaunchCounter()
        be = {"serial": SerialBackend, "vectorized": VectorizedBackend}[backend](
            counter=counter
        )
        x = np.random.default_rng(7).standard_normal((h2.num_rows, 1))
        plan.execute(x, backend=be)
        calls = counter.total_calls()
        # One dispatch per compiled stage, identically on both backends.
        assert calls == plan.num_stages
        # O(levels): a bounded number of (phase, fan-in) groups per level ...
        levels = h2.tree.num_levels
        assert calls <= 12 * levels
        # ... and far below the per-node block-product count of the loop.
        assert plan.num_block_products > calls
        assert calls < 0.25 * plan.num_block_products

    def test_plan_is_compiled_once_and_cached(self, h2_problem):
        h2 = h2_problem["h2"]
        plan = h2.apply_plan()
        x = np.random.default_rng(8).standard_normal(h2.num_rows)
        h2.matvec(x)
        assert h2.apply_plan() is plan
        assert h2.apply_plan(rebuild=True) is not plan

    def test_stage_phases_cover_all_blocks(self, h2_problem):
        h2 = h2_problem["h2"]
        plan = h2.apply_plan()
        nonzero_coupling = sum(1 for b in h2.coupling.values() if b.size)
        nonzero_dense = sum(1 for d in h2.dense.values() if d.size)
        per_phase = {}
        for stage in plan.stages:
            per_phase[stage.op] = per_phase.get(stage.op, 0) + stage.num_blocks
        assert per_phase.get("apply_coupling", 0) == nonzero_coupling
        assert per_phase.get("apply_dense", 0) == nonzero_dense


class TestPlanProperties:
    def test_linearity(self, h2_problem):
        h2 = h2_problem["h2"]
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((2, h2.num_rows))
        a, b = 0.37, -2.5
        combined = h2.matvec(a * x + b * y, permuted=True)
        split = a * h2.matvec(x, permuted=True) + b * h2.matvec(y, permuted=True)
        assert rel_err(combined, split) < TOL

    def test_permutation_round_trip(self, h2_problem):
        """matvec in original ordering == permute, apply permuted, un-permute."""
        h2 = h2_problem["h2"]
        tree = h2_problem["tree"]
        x = np.random.default_rng(10).standard_normal(h2.num_rows)
        direct = h2.matvec(x, permuted=False)
        round_trip = h2.matvec(x[tree.perm], permuted=True)[tree.iperm]
        assert rel_err(round_trip, direct) < 1e-15

    def test_matmat_consistent_with_stacked_matvecs(self, h2_problem):
        h2 = h2_problem["h2"]
        x = np.random.default_rng(11).standard_normal((h2.num_rows, 5))
        block = h2.matmat(x, permuted=True)
        columns = np.column_stack(
            [h2.matvec(x[:, j], permuted=True) for j in range(x.shape[1])]
        )
        assert rel_err(block, columns) < TOL

    def test_zero_input_and_wrong_shapes(self, h2_problem):
        h2 = h2_problem["h2"]
        assert np.all(h2.matvec(np.zeros(h2.num_rows)) == 0.0)
        with pytest.raises(ValueError):
            h2.matvec(np.ones(h2.num_rows + 1))
        with pytest.raises(ValueError):
            h2.matmat(np.ones(h2.num_rows))  # 1-D input to the block apply
        with pytest.raises(ValueError):
            h2.rmatmat(np.ones(h2.num_rows))

    def test_single_leaf_matrix(self):
        """A tree without subdivision (dense-only plan) still applies exactly."""
        points = uniform_cube_points(40, dim=2, seed=14)
        tree = ClusterTree.build(points, leaf_size=64)
        assert tree.depth == 0
        partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
        dense = ExponentialKernel(0.3).matrix(tree.points)
        h2 = H2Constructor(
            partition,
            DenseOperator(dense),
            DenseEntryExtractor(dense),
            ConstructionConfig(tolerance=1e-8),
            seed=1,
        ).construct().matrix
        x = np.random.default_rng(0).standard_normal(40)
        assert rel_err(h2.matvec(x, permuted=True), dense @ x) < 1e-12

    def test_seed_reproducibility_of_pipeline(self):
        """construct → compile → solve is bit-stable for a fixed seed."""

        def pipeline():
            points = uniform_cube_points(300, dim=2, seed=21)
            tree = ClusterTree.build(points, leaf_size=24)
            partition = build_block_partition(tree, GeneralAdmissibility(eta=0.7))
            dense = ExponentialKernel(0.2).matrix(tree.points) + 0.05 * np.eye(300)
            h2 = H2Constructor(
                partition,
                DenseOperator(dense),
                DenseEntryExtractor(dense),
                ConstructionConfig(tolerance=1e-7, sample_block_size=16),
                seed=17,
            ).construct().matrix
            x = np.random.default_rng(2).standard_normal(300)
            apply_out = h2.matvec(x)
            solve = cg(h2, x, tol=1e-8, maxiter=2000)
            return apply_out, solve

        first_apply, first_solve = pipeline()
        second_apply, second_solve = pipeline()
        assert np.array_equal(first_apply, second_apply)
        assert first_solve.iterations == second_solve.iterations
        assert np.array_equal(first_solve.x, second_solve.x)
        assert np.array_equal(
            first_solve.residual_norms, second_solve.residual_norms
        )


class TestCompileApplyPlanApi:
    def test_compile_standalone_matches_cached(self, h2_problem):
        h2 = h2_problem["h2"]
        plan = compile_apply_plan(h2)
        x = np.random.default_rng(12).standard_normal((h2.num_rows, 2))
        xp = np.ascontiguousarray(x)
        out = plan.execute(xp, backend="vectorized")
        assert rel_err(out, h2.matmat(x, permuted=True)) < 1e-14

    def test_fan_padding_is_exact(self, h2_problem):
        """Fan-ins above ``FAN_PAD`` are padded to multiples of it with zero
        blocks that read the sentinel — results are unchanged."""
        h2 = h2_problem["h2"]
        x = np.random.default_rng(13).standard_normal(h2.num_rows)
        plan = compile_apply_plan(h2)
        padded = [s for s in plan.stages if s.num_blocks < s.batch_size * s.fan_in]
        assert padded and all(s.fan_in % FAN_PAD == 0 for s in padded)
        for stage in padded:
            sentinel = stage.src_pos[stage.group.block_req < 0]
            assert np.all(sentinel == sentinel.max())
        out = plan.execute(x[:, None], backend="vectorized")[:, 0]
        assert rel_err(out, matvec_loop(h2, x, permuted=True)) < TOL

    def test_transpose_apply_runs_the_forward_stages(self, h2_problem):
        """``rmatmat`` is one pass over the forward stages: it records exactly
        ``plan.num_stages`` launches and compiles nothing, so neither the
        matrix's plan nor the plan's bytes move."""
        h2 = h2_problem["h2"]
        plan = h2.apply_plan(rebuild=True)
        forward_bytes = plan.memory_bytes()
        counter = KernelLaunchCounter()
        x = np.random.default_rng(14).standard_normal((h2.num_rows, 3))
        h2.bind(VectorizedBackend(counter=counter))
        out = h2.rmatmat(x)
        assert counter.total_calls() == plan.num_stages
        assert h2.apply_plan() is plan
        assert plan.memory_bytes() == forward_bytes
        assert np.array_equal(out, h2.matmat(x))

    @pytest.mark.parametrize("blocks", ["coupling", "dense"])
    def test_an_unmirrored_pair_refuses_the_transpose_apply(self, blocks):
        """One block of a pair edited and the plan rebuilt: ``matvec`` applies
        the edited matrix, ``rmatvec`` names the pair and raises; restoring the
        block makes the transpose apply work again."""
        points = uniform_cube_points(300, dim=2, seed=4)
        h2 = compress(points, ExponentialKernel(0.2), tol=1e-6, leaf_size=32, seed=1)
        store = getattr(h2, blocks)
        s, t = next(key for key in sorted(store) if key[0] < key[1] and store[key].size)
        x = np.random.default_rng(5).standard_normal(h2.num_rows)
        expected = h2.rmatvec(x)
        original = store[(s, t)][0, 0]
        store[(s, t)][0, 0] += 1.0
        h2.apply_plan(rebuild=True)
        assert np.allclose(h2.matvec(x), h2.to_dense() @ x, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match=rf"{blocks} block \({t}, {s}\)"):
            h2.rmatvec(x)
        store[(s, t)][0, 0] = original
        h2.apply_plan(rebuild=True)
        assert np.array_equal(h2.rmatvec(x), expected)

    def test_a_dropped_matrix_is_freed_without_the_cyclic_gc(self):
        """The plan keeps the matrix's block dicts, not the matrix that holds
        the plan: no reference cycle, so a dropped matrix (and its compiled
        plans) is freed by reference counting at once — a cycle would wait
        for the next cyclic collection and raise the peak footprint."""
        import gc
        import weakref

        points = uniform_cube_points(300, dim=2, seed=4)
        h2 = compress(points, ExponentialKernel(0.2), tol=1e-6, leaf_size=32, seed=1)
        plan = h2.apply_plan()
        x = np.random.default_rng(3).standard_normal((300, 2))
        expected = h2.matmat(x, permuted=True)
        alive = weakref.ref(h2)
        gc.disable()
        try:
            del h2
            assert alive() is None
        finally:
            gc.enable()
        # A plan that outlives its matrix still checks its blocks are mirrored.
        assert np.array_equal(plan.execute(x, transpose=True), expected)

    def test_execute_rejects_bad_shapes(self, h2_problem):
        plan = h2_problem["h2"].apply_plan()
        with pytest.raises(ValueError):
            plan.execute(np.ones(plan.n), backend="vectorized")  # 1-D
        with pytest.raises(ValueError):
            plan.execute(np.ones((plan.n + 2, 1)), backend="vectorized")

    def test_describe_and_stats(self, h2_problem):
        plan = h2_problem["h2"].apply_plan()
        text = plan.describe()
        assert "stages" in text and "block_products" in text
        assert plan.flops(2) == 2 * plan.flops(1)
        assert plan.memory_bytes() > 0
        assert sum(plan.stage_counts().values()) == plan.num_stages


class TestComplexInput:
    """A complex block costs one real apply: ``[Re x | Im x]`` side by side."""

    @pytest.mark.parametrize("method", ["matvec", "rmatmat"])
    def test_complex_apply_is_one_plan_execution(self, h2_problem, method):
        h2 = h2_problem["h2"]
        rng = np.random.default_rng(15)
        shape = (h2.num_rows,) if method == "matvec" else (h2.num_rows, 3)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        counter = KernelLaunchCounter()
        h2.bind(VectorizedBackend(counter=counter))
        apply = getattr(h2, method)
        out = apply(z)
        assert counter.total_calls() == h2.apply_plan().num_stages
        two_parts = apply(z.real.copy()) + 1j * apply(z.imag.copy())
        assert rel_err(out, two_parts) < 1e-14

    def test_wrapped_block_apply_takes_complex_input_in_one_call(self, h2_problem):
        h2 = h2_problem["h2"]
        calls = []

        def matmat(x):
            calls.append(x.shape)
            return h2.matmat(x)

        op = LinearOperator(h2.shape, h2.matvec, matmat=matmat)
        z = np.random.default_rng(16).standard_normal(h2.num_rows) * (1 + 2j)
        assert rel_err(op.matvec(z), h2.matvec(z)) < 1e-14
        assert calls == [(h2.num_rows, 2)]


class TestLinearOperatorRouting:
    def test_block_rhs_routed_through_matmat(self):
        """as_linear_operator must not fall back to column-at-a-time matvec."""

        class BlockOnly:
            shape = (6, 6)

            def matvec(self, x):
                assert np.asarray(x).ndim == 1, "block RHS must use matmat"
                return 2.0 * x

            def matmat(self, x):
                assert np.asarray(x).ndim == 2
                return 2.0 * x

        op = as_linear_operator(BlockOnly())
        block = np.random.default_rng(0).standard_normal((6, 3))
        assert np.allclose(op.matvec(block), 2.0 * block)
        assert np.allclose(op.matmat(block), 2.0 * block)
        assert np.allclose(op.matvec(block[:, 0]), 2.0 * block[:, 0])

    def test_h2_operator_block_apply_matches_matmat(self, h2_problem):
        h2 = h2_problem["h2"]
        op = as_linear_operator(h2)
        assert op.source is h2
        block = np.random.default_rng(1).standard_normal((h2.num_rows, 4))
        assert np.array_equal(op.matvec(block), h2.matmat(block))
        assert rel_err(op.rmatmat(block), h2.rmatmat(block)) == 0.0


@pytest.mark.slow
class TestAcceptance:
    """The compiled apply's launch count is a property of the plan, not of N."""

    def test_apply_launches_are_the_plan_stages_at_every_size(self):
        """One vectorized apply records exactly ``plan.num_stages`` launches;
        at N = 2048 and N = 8192 over partitions of the same depth that is
        O(levels) with one constant, and the apply matches the oracle."""
        levels = []
        for n, leaf_size in ((2048, 8), (8192, 32)):
            points = uniform_cube_points(n, dim=2, seed=1)
            h2 = compress(
                points, ExponentialKernel(0.2), tol=1e-6, leaf_size=leaf_size, seed=7
            )
            plan = h2.apply_plan()
            counter = KernelLaunchCounter()
            x = np.random.default_rng(1).standard_normal(n)
            batched = h2.bind(VectorizedBackend(counter=counter)).matvec(x, permuted=True)
            assert counter.total() == counter.total_calls() == plan.num_stages
            assert plan.num_stages <= 8 * h2.tree.num_levels
            assert rel_err(batched, matvec_loop(h2, x, permuted=True)) < 1e-12
            levels.append(h2.tree.num_levels)
        assert levels[0] == levels[1]
