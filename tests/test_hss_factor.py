"""HSSFactorization: skeleton elimination on the nested generators.

* a differential grid — ``HSSFactorization`` against the recursive Woodbury
  oracle ``HODLRFactorization(convert(h2, "hodlr"))`` and against dense
  ``numpy.linalg`` over kernel x dimension x leaf size x shift;
* one case per structural edge: non-symmetric couplings, all ranks zero, a
  single leaf, full-rank leaves, bases without unit rows, read-only (mmap)
  generators, a strong partition;
* determinant signs including the exactly singular matrix;
* the compiled solve: launches a function of the level count only, re-entrant
  under threads, footprint below the operator's;
* :func:`repro.solvers.factorize`, the one entry point, and the escalation
  ladder's use of it.
"""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest

from repro import (
    ExponentialKernel,
    GaussianKernel,
    H2Matrix,
    HelmholtzKernel,
    HSSFactorization,
    RecoveryPolicy,
    compress,
    factorize,
    load_operator,
    save_operator,
    uniform_cube_points,
)
from repro.solvers import guarded_solve
from repro.baselines import HODLRFactorization, HODLRMatrix, convert
from repro.hmatrix.basis_tree import BasisTree

GRID_N = 320
KERNELS = {
    "exponential": lambda dim: ExponentialKernel(0.3),
    # Short enough that the unshifted matrix is not numerically singular
    # (cond 5e8 / 6e3 / 4e2 in 1D / 2D / 3D).
    "gaussian": lambda dim: GaussianKernel(0.6 * GRID_N ** (-1.0 / dim)),
    "helmholtz": lambda dim: HelmholtzKernel(3.0, diagonal_value=4.0),
}
GRID = list(itertools.product(KERNELS, (1, 2, 3), (16, 64)))


def _hss(n, dim, kernel, leaf, tol=1e-8, seed=5):
    points = uniform_cube_points(n, dim=dim, seed=seed)
    return compress(points, kernel, format="hss", tol=tol, leaf_size=leaf, seed=1)


def _rel(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def _bar(cond, base=1e-10):
    """The parity bar: ``base`` relative, times the condition number of the
    fixture where that exceeds 1e4 (a forward error cannot be asked to beat
    ``cond * eps``)."""
    return base * (cond if cond > 1e4 else 1.0)


@pytest.fixture(scope="module", params=GRID, ids=lambda p: "-".join(map(str, p)))
def grid_operator(request):
    name, dim, leaf = request.param
    h2 = _hss(GRID_N, dim, KERNELS[name](dim), leaf)
    return h2, h2.to_dense(), convert(h2, "hodlr")


@pytest.mark.parametrize("shift", [0.0, 1e-2])
def test_differential_grid(grid_operator, shift):
    """HSSFactorization == Woodbury oracle == dense, for a block, a vector and
    the cluster-tree ordering; ``slogdet`` sign and value."""
    h2, dense, hodlr = grid_operator
    a = dense + shift * np.eye(GRID_N)
    hss = HSSFactorization(h2, shift=shift)
    woodbury = HODLRFactorization(hodlr, shift=shift)
    bar = _bar(float(np.linalg.cond(a)))
    block = np.random.default_rng(0).standard_normal((GRID_N, 4))
    reference = np.linalg.solve(a, block)
    x = hss.solve(block)
    assert _rel(x, reference) <= bar
    assert _rel(x, woodbury.solve(block)) <= bar
    assert _rel(hss.solve(block[:, 0]), reference[:, 0]) <= bar
    perm = h2.tree.perm
    assert _rel(hss.solve(block[perm], permuted=True), reference[perm]) <= bar

    sign_ref, logdet_ref = np.linalg.slogdet(a)
    sign, logdet = hss.slogdet()
    assert sign == sign_ref == woodbury.slogdet()[0]
    assert logdet == pytest.approx(logdet_ref, rel=1e-9)
    if sign > 0:
        assert hss.logdet() == logdet


# ------------------------------------------------------------------ edge cases
def _copy(h2, coupling=None):
    """A deep copy of an H2 matrix (optionally with other couplings)."""
    basis = BasisTree(tree=h2.tree)
    for node, u in h2.basis.leaf_bases.items():
        basis.set_leaf_basis(node, u.copy())
    for node, e in h2.basis.transfers.items():
        basis.set_transfer(node, e.copy())
    for node, rank in h2.basis.ranks.items():
        basis.set_rank(node, rank)
    coupling = h2.coupling if coupling is None else coupling
    return H2Matrix(
        tree=h2.tree, partition=h2.partition, basis=basis,
        coupling={key: b.copy() for key, b in coupling.items()},
        dense={key: d.copy() for key, d in h2.dense.items()},
    )


def _remixed(h2, rng):
    """The same matrix in other bases: ``W -> W G``, ``B -> G^-1 B G^-T`` with a
    random invertible ``G`` per node — no basis keeps a unit row."""
    out = _copy(h2)
    tree = h2.tree
    mix = {
        node: rng.standard_normal((rank, rank)) + 2.0 * np.eye(rank)
        for node, rank in h2.basis.ranks.items()
    }
    for node, u in h2.basis.leaf_bases.items():
        out.basis.set_leaf_basis(node, u @ mix[node])
    for node, e in h2.basis.transfers.items():
        out.basis.set_transfer(
            node, np.linalg.solve(mix[node], e @ mix[tree.parent(node)])
        )
    for (s, t), b in h2.coupling.items():
        out.coupling[(s, t)] = np.linalg.solve(mix[s], np.linalg.solve(mix[t], b.T).T)
    return out


def _check_against_dense(h2, shift=1e-2, base=1e-10):
    n = h2.shape[0]
    a = h2.to_dense() + shift * np.eye(n)
    factorization = HSSFactorization(h2, shift=shift)
    block = np.random.default_rng(3).standard_normal((n, 3))
    bar = _bar(float(np.linalg.cond(a)), base)
    assert _rel(factorization.solve(block), np.linalg.solve(a, block)) <= bar
    sign_ref, logdet_ref = np.linalg.slogdet(a)
    sign, logdet = factorization.slogdet()
    assert sign == sign_ref
    assert logdet == pytest.approx(logdet_ref, rel=1e-9)
    return factorization


@pytest.fixture(scope="module")
def base_hss():
    return _hss(600, 2, ExponentialKernel(0.2), 32)


class TestEdgeCases:
    def test_nonsymmetric_couplings(self, base_hss):
        rng = np.random.default_rng(7)
        h2 = _copy(base_hss, coupling={
            key: b + 0.05 * rng.standard_normal(b.shape)
            for key, b in base_hss.coupling.items()
        })
        dense = h2.to_dense()
        assert np.abs(dense - dense.T).max() > 1e-2  # B_ts != B_st^T
        _check_against_dense(h2)
        # The transpose apply runs the forward plan, so it refuses the matrix.
        x = np.ones(h2.shape[0])
        np.testing.assert_allclose(h2.matvec(x), dense @ x, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="mirrored"):
            h2.rmatvec(x)

    def test_block_diagonal_operator(self, base_hss):
        """Every rank 0: the leaf level (two rank buckets) eliminates
        everything, no root."""
        h2 = H2Matrix(
            tree=base_hss.tree, partition=base_hss.partition,
            basis=BasisTree(tree=base_hss.tree),
            dense={key: d.copy() for key, d in base_hss.dense.items()},
        )
        factorization = _check_against_dense(h2)
        assert factorization.root_size == 0
        assert factorization.launches_per_solve == 10

    def test_single_leaf_tree(self):
        h2 = _hss(40, 2, ExponentialKernel(0.2), 64)
        assert h2.tree.depth == 0
        factorization = _check_against_dense(h2)
        assert factorization.root_size == 40
        assert factorization.launches_per_solve == 1

    def test_full_rank_leaves(self):
        """``n_i == k_i`` on the leaf level (as on ``hss3d_pipeline``): that
        level has nothing to eliminate and costs no launch."""
        h2 = _hss(512, 3, ExponentialKernel(0.3), 16, tol=1e-9)
        tree = h2.tree
        assert all(
            h2.basis.rank(leaf) == tree.cluster_size(leaf) for leaf in tree.leaves()
        )
        factorization = _check_against_dense(h2)
        assert factorization.launches_per_solve < 10 * tree.depth + 1

    def test_remixed_bases_take_the_generic_split(self, base_hss):
        """Bases without unit rows get their split from a pivoted LU of ``W``
        and run the same elimination: same ``x``, same ``logdet``."""
        remixed = _remixed(base_hss, np.random.default_rng(11))
        assert not np.any(next(iter(remixed.basis.leaf_bases.values())) == 1.0)
        # The mixing matrices (cond ~1e2 each, compounding over the levels)
        # are part of this fixture's conditioning.
        generic = _check_against_dense(remixed, base=1e-8)
        exact = HSSFactorization(base_hss, shift=1e-2)
        b = np.random.default_rng(12).standard_normal(600)
        assert _rel(generic.solve(b), exact.solve(b)) <= 1e-8
        assert generic.logdet() == pytest.approx(exact.logdet(), rel=1e-9)
        assert generic.launches_per_solve == exact.launches_per_solve

    def test_loaded_operator_is_read_not_written(self, base_hss, tmp_path):
        path = tmp_path / "hss.reproart"
        save_operator(base_hss, path)
        loaded = load_operator(path)
        generators = (
            list(loaded.basis.leaf_bases.values())
            + list(loaded.basis.transfers.values())
            + list(loaded.coupling.values()) + list(loaded.dense.values())
        )
        assert not any(g.flags.writeable for g in generators)  # mmap views
        factorization = HSSFactorization(loaded, shift=1e-2)
        # The row ID's unit rows survive the round trip bit for bit, so the
        # loaded matrix takes the same split: bitwise the same factorization.
        b = np.random.default_rng(13).standard_normal(600)
        assert np.array_equal(
            factorization.solve(b), HSSFactorization(base_hss, shift=1e-2).solve(b)
        )
        assert np.array_equal(loaded.to_dense(), base_hss.to_dense())
        assert factorization.memory_bytes() <= loaded.memory_bytes()["total"]

    def test_strong_partition_raises(self):
        points = uniform_cube_points(400, dim=2, seed=5)
        strong = compress(points, ExponentialKernel(0.2), tol=1e-6, leaf_size=32, seed=1)
        with pytest.raises(ValueError, match="weak-admissibility"):
            HSSFactorization(strong)

    def test_dimension_mismatch_raises(self, base_hss):
        with pytest.raises(ValueError, match="dimension mismatch"):
            HSSFactorization(base_hss).solve(np.ones(599))


class TestDeterminantSign:
    def test_negative_determinant(self, base_hss):
        dense = base_hss.to_dense()
        eigenvalues = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        # A shift that leaves exactly one eigenvalue negative.
        shift = -0.5 * (eigenvalues[0] + eigenvalues[1])
        factorization = HSSFactorization(base_hss, shift=shift)
        sign_ref, logdet_ref = np.linalg.slogdet(dense + shift * np.eye(600))
        assert sign_ref == -1.0
        assert factorization.slogdet()[0] == -1.0
        assert factorization.determinant_sign == -1.0
        assert factorization.slogdet()[1] == pytest.approx(logdet_ref, rel=1e-9)
        with pytest.raises(ValueError, match="not positive"):
            factorization.logdet()

    def test_exactly_singular(self, base_hss):
        dense = {key: d.copy() for key, d in base_hss.dense.items()}
        first = next(iter(dense))
        dense[first] = np.zeros_like(dense[first])
        h2 = H2Matrix(
            tree=base_hss.tree, partition=base_hss.partition,
            basis=BasisTree(tree=base_hss.tree), dense=dense,
        )
        factorization = HSSFactorization(h2)
        assert factorization.slogdet() == (0.0, -np.inf)
        assert not np.isnan(factorization.slogdet()[1])
        with pytest.raises(ValueError, match="not positive"):
            factorization.logdet()

    def test_singular_pivot_poisoning_later_levels_stays_singular(self):
        """A singular pivot block on the leaf level sends non-finite Schur
        complements upwards; the answer is still (0, -inf), not NaN."""
        h2 = _copy(_hss(300, 2, ExponentialKernel(0.2), 64, tol=1e-4))
        leaf = h2.tree.leaves()[0]
        assert h2.basis.rank(leaf) < h2.tree.cluster_size(leaf)  # rows to eliminate
        h2.dense[(leaf, leaf)] = np.zeros_like(h2.dense[(leaf, leaf)])
        factorization = HSSFactorization(h2)
        assert factorization.slogdet() == (0.0, -np.inf)
        assert factorization.determinant_sign == 0.0


# ---------------------------------------------------------- the compiled solve
class TestCompiledSolve:
    def test_launches_depend_on_the_level_count_only(self):
        """One leaf size, N = 1024 and 2048: the same launches per level (two
        rank buckets of five), all of them on the launch counter of the
        matrix's apply backend, whatever the number of right-hand sides."""
        per_level = []
        for n in (1024, 2048):
            h2 = _hss(n, 2, ExponentialKernel(0.2), 32, tol=1e-4)
            factorization = HSSFactorization(h2, shift=1e-2)
            counter = h2.apply_backend.counter
            assert h2.tree.depth == {1024: 5, 2048: 6}[n]
            for b in (np.ones(n), np.ones((n, 8))):
                before = counter.snapshot()
                factorization.solve(b)
                delta = counter.since(before)
                assert delta.total() == factorization.launches_per_solve
                assert delta.counts == {
                    "hss_gemm": 8 * h2.tree.depth, "hss_getrs": 2 * h2.tree.depth + 1,
                }
            per_level.append((factorization.launches_per_solve - 1) / h2.tree.depth)
        assert per_level[0] == per_level[1] == 10

    def test_concurrent_solves_are_bitwise_the_sequential_ones(self, base_hss):
        """A solve allocates its buffers per call: more threads than cores on
        one factorization, every answer bitwise the single-thread answer."""
        factorization = HSSFactorization(base_hss, shift=1e-2)
        rng = np.random.default_rng(17)
        inputs = [rng.standard_normal((600, k)) for k in (1, 3, 1, 8, 2, 1)]
        expected = [factorization.solve(b) for b in inputs]
        results = {}

        def work(worker):
            for _ in range(5):
                for i, b in enumerate(inputs):
                    results[(worker, i)] = factorization.solve(b)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4 * len(inputs)
        for (_, i), x in results.items():
            assert np.array_equal(x, expected[i])

    def test_footprint_below_operator_and_woodbury(self, base_hss):
        factorization = HSSFactorization(base_hss, shift=1e-2)
        woodbury = HODLRFactorization(convert(base_hss, "hodlr"), shift=1e-2)
        assert factorization.memory_bytes() <= base_hss.memory_bytes()["total"]
        assert factorization.memory_bytes() < woodbury.memory_bytes()


# ------------------------------------------------------- the one entry point
class TestFactorize:
    def test_picks_by_structure(self, base_hss):
        """Only an H2 matrix factors (or takes a guarded solve); its HODLR
        expansion is the oracle."""
        from repro import ExecutionPolicy

        assert isinstance(factorize(base_hss, shift=1e-2), HSSFactorization)
        hodlr = convert(base_hss, "hodlr")
        with pytest.raises(TypeError, match="expected an H2Matrix"):
            factorize(hodlr, shift=1e-2)
        with pytest.raises(TypeError, match="expected an H2Matrix"):
            guarded_solve(hodlr, np.ones(600), tol=1e-8, shift=1e-2,
                          policy=ExecutionPolicy(recovery="recover"))
        woodbury = HODLRFactorization(hodlr, shift=1e-2)
        b = np.random.default_rng(19).standard_normal(600)
        assert _rel(factorize(base_hss, shift=1e-2).solve(b), woodbury.solve(b)) < 1e-10

    def test_strong_h2_is_recompressed_onto_the_weak_partition(self):
        points = uniform_cube_points(256, dim=2, seed=5)
        strong = compress(points, ExponentialKernel(0.2), tol=1e-6, leaf_size=32, seed=1)
        factorization = factorize(strong, shift=1e-2)
        assert isinstance(factorization, HSSFactorization)
        a = strong.to_dense() + 1e-2 * np.eye(256)
        b = np.random.default_rng(23).standard_normal(256)
        assert _rel(factorization.solve(b), np.linalg.solve(a, b)) < 1e-3

    def test_strong_recompression_is_traced_on_the_policy_counter(self):
        """The re-compression of a strong operator runs on its binding (the
        policy's backend and tracer): one ``construct`` span inside the
        caller's span, whose launches land on the policy's counter."""
        from repro import ExecutionPolicy
        from repro.observe import SpanTracer, find_spans

        tracer = SpanTracer()
        policy = ExecutionPolicy(tracer=tracer)
        points = uniform_cube_points(256, dim=2, seed=5)
        strong = compress(
            points, ExponentialKernel(0.2), tol=1e-6, leaf_size=32, seed=1,
            policy=policy,
        )
        before = policy.launch_counter().total()
        with tracer.span("caller") as caller:
            factorize(strong, shift=1e-2)
        constructs = find_spans(caller, name="construct")
        assert len(constructs) == 1
        assert constructs[0].total_launches > 0
        assert caller.total_launches == policy.launch_counter().total() - before
        assert caller.total_launches >= constructs[0].total_launches

    @pytest.mark.parametrize("operator", [np.eye(4), None, "h2"])
    def test_rejects_what_has_no_factorization(self, operator):
        with pytest.raises(TypeError, match="cannot factorize"):
            factorize(operator)

    @pytest.mark.parametrize("fmt", ["hodlr", "hmatrix"])
    def test_rejects_the_baseline_formats(self, base_hss, fmt):
        """The comparator formats have no product factorization."""
        from repro import GeneralAdmissibility, build_block_partition
        from repro.baselines import build_hmatrix_aca

        if fmt == "hodlr":
            op = convert(base_hss, "hodlr")
        else:
            dense = base_hss.to_dense(permuted=True)
            op = build_hmatrix_aca(
                build_block_partition(base_hss.tree, GeneralAdmissibility(eta=0.7)),
                lambda rows, cols: dense[np.ix_(rows, cols)],
                tol=1e-6,
            )
        with pytest.raises(TypeError, match="expected an H2Matrix"):
            factorize(op, shift=1e-2)


class TestNoACAOnProductPaths:
    """Every product path to a factorization or a HODLR matrix runs the
    sketching constructor: with the ACA builders refusing to run,
    :func:`factorize`, ``convert(strong_h2, "hodlr")`` and the factorization
    a guarded solve escalates to all succeed on a strong-admissibility H2
    matrix, and its factorization is as accurate as that of a fresh HSS
    compression."""

    SHIFT = 1e-2
    TOL = 1e-6

    @pytest.fixture
    def no_aca(self, monkeypatch):
        import repro.baselines.hmatrix as hmatrix_module
        import repro.baselines.hodlr as hodlr_module

        def refuse(*args, **kwargs):
            raise AssertionError("ACA entered on a product path")

        monkeypatch.setattr(hodlr_module, "aca_from_entry_function", refuse)
        monkeypatch.setattr(hmatrix_module, "aca_from_entry_function", refuse)

    @staticmethod
    def _cloud(dim):
        # 3D needs small leaves at this size for the strong partition to
        # hold any admissible block.
        leaf = 32 if dim == 2 else 16
        return uniform_cube_points(1024, dim=dim, seed=3), ExponentialKernel(0.2), leaf

    def test_strong_h2_never_enters_aca(self, no_aca):
        from repro import ExecutionPolicy

        points, kernel, leaf = self._cloud(2)
        strong = compress(points, kernel, tol=self.TOL, leaf_size=leaf, seed=1)
        assert strong.weak_partition_defect() is not None
        assert isinstance(factorize(strong, shift=self.SHIFT), HSSFactorization)
        hodlr = convert(strong, "hodlr")
        assert isinstance(hodlr, HODLRMatrix)
        assert _rel(hodlr.to_dense(), strong.to_dense()) < 1e-4
        # A zero-iteration CG escalates: the pcg rung factors the operator.
        solve = guarded_solve(
            strong, np.ones(1024), tol=1e-8, maxiter=0, shift=self.SHIFT,
            policy=ExecutionPolicy(recovery="recover"),
        )
        assert solve.converged and solve.extra["escalation"]["escalations"] >= 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_strong_factorization_matches_fresh_hss(self, no_aca, dim):
        points, kernel, leaf = self._cloud(dim)
        n = points.shape[0]
        strong = compress(points, kernel, tol=self.TOL, leaf_size=leaf, seed=1)
        weak = compress(
            points, kernel, format="hss", tol=self.TOL, leaf_size=leaf, seed=1
        )
        dense = kernel.matrix(points) + self.SHIFT * np.eye(n)
        b = np.random.default_rng(31).standard_normal(n)

        def residual(factorization):
            x = factorization.solve(b)
            return np.linalg.norm(dense @ x - b) / np.linalg.norm(b)

        recompressed = factorize(strong, shift=self.SHIFT)
        assert residual(recompressed) <= 1.5 * residual(
            factorize(weak, shift=self.SHIFT)
        )
        sign, logdet = recompressed.slogdet()
        ref_sign, ref_logdet = np.linalg.slogdet(dense)
        assert sign == ref_sign
        assert logdet == pytest.approx(ref_logdet, rel=1e-6)


class TestLadderFactorization:
    """The factorization an escalation builds is :func:`factorize`'s: an
    error raised while factoring is a defect and propagates (it used to be
    swallowed by ``except Exception: return None``)."""

    @staticmethod
    def _escalate(operator):
        from repro import ExecutionPolicy

        # maxiter=0: the first CG fails without a matvec, so the escalation
        # has to factor the operator.
        return guarded_solve(
            operator, np.ones(600), tol=1e-8, maxiter=0,
            policy=ExecutionPolicy(recovery=RecoveryPolicy(rung_maxiter=200)),
        )

    def test_failure_while_factoring_propagates(self, base_hss):
        broken = _copy(base_hss)
        del broken.dense[next(iter(broken.dense))]
        with pytest.raises(ValueError, match="no dense diagonal block"):
            self._escalate(broken)

    def test_programming_error_propagates(self, base_hss, monkeypatch):
        def boom(self, h2):
            raise AttributeError("a bug, not a missing ingredient")

        monkeypatch.setattr(HSSFactorization, "_factor", boom)
        with pytest.raises(AttributeError, match="a bug"):
            self._escalate(base_hss)


class TestDirectSolve:
    """:func:`repro.solvers.direct_solve`, the one use of a factorization as
    a direct solver: an exact factorization's answer as is, anything else
    measured and polished column by column to its own tolerance."""

    @pytest.fixture(scope="class")
    def strong(self):
        points = uniform_cube_points(256, dim=2, seed=5)
        return compress(points, ExponentialKernel(0.2), tol=1e-6, leaf_size=32, seed=1)

    @staticmethod
    def _residuals(a, x, b, shift):
        x, b = x.reshape(b.shape[0], -1), b.reshape(b.shape[0], -1)
        r = b - a.matmat(x) - shift * x
        return np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0)

    def test_factorization_records_its_matrix_and_shift(self, base_hss, strong):
        import gc

        exact = factorize(base_hss, shift=1e-2)
        assert exact.matrix is base_hss and exact.shift == 1e-2
        # A strong operator is factored through a temporary re-compression,
        # which the factorization does not keep alive.
        recompressed = factorize(strong, shift=1e-2)
        gc.collect()
        assert recompressed.matrix is None and recompressed.shift == 1e-2

    def test_exact_factorization_is_returned_as_is(self, base_hss):
        from repro import ExecutionPolicy
        from repro.solvers import direct_solve

        factorization = factorize(base_hss, shift=1e-2)
        b = np.random.default_rng(29).standard_normal((600, 3))
        solved = direct_solve(base_hss, b, factorization, shift=1e-2, tol=1e-14,
                              policy=ExecutionPolicy())
        assert solved.residuals is None and solved.polishes == {}
        assert np.array_equal(solved.x, factorization.solve(b))
        assert self._residuals(base_hss, solved.x, b, 1e-2).max() < 1e-12
        vector = direct_solve(base_hss, b[:, 0], factorization, shift=1e-2,
                              tol=1e-14, policy=ExecutionPolicy())
        assert vector.x.shape == (600,) and vector.residuals is None
        assert np.array_equal(vector.x, factorization.solve(b[:, 0]))

    def test_exact_factorization_runs_no_krylov_under_a_stall(self, base_hss):
        """With nothing to polish, a strict policy's stall fault has no
        solve to stall."""
        from repro import ExecutionPolicy
        from repro.solvers import direct_solve

        policy = ExecutionPolicy(recovery="strict",
                                 faults="stall-convergence:iters=0")
        solved = direct_solve(base_hss, np.ones(600), factorize(base_hss, shift=1e-2),
                              shift=1e-2, tol=1e-10, policy=policy)
        assert solved.residuals is None
        assert policy.faults.fired("stall-convergence") == 0

    def test_other_shift_is_measured_and_polished(self, base_hss):
        from repro import ExecutionPolicy
        from repro.solvers import direct_solve

        loose = factorize(base_hss, shift=1e-1)
        b = np.random.default_rng(31).standard_normal((600, 2))
        solved = direct_solve(base_hss, b, loose, shift=1e-2, tol=1e-10,
                              policy=ExecutionPolicy())
        assert sorted(solved.polishes) == [0, 1]
        assert all(p.converged for p in solved.polishes.values())
        measured = self._residuals(base_hss, solved.x, b, 1e-2)
        assert np.all(solved.residuals <= 1e-10)
        assert np.allclose(solved.residuals, measured, rtol=1e-6)

    def test_each_column_is_polished_to_its_own_tol(self, strong):
        from repro import ExecutionPolicy
        from repro.solvers import direct_solve

        factorization = factorize(strong, shift=1e-2)
        b = np.random.default_rng(37).standard_normal(256)
        bare = self._residuals(strong, factorization.solve(b), b, 1e-2)[0]
        assert 1e-9 < bare < 1e-2
        block = np.column_stack([b, b])
        solved = direct_solve(strong, block, factorization, shift=1e-2,
                              tol=np.array([1e-2, 1e-10]), policy=ExecutionPolicy())
        # The first column meets 1e-2 unpolished: its residual is the
        # bare direct answer's; the second is polished past 1e-10.
        assert list(solved.polishes) == [1]
        assert solved.residuals[0] == pytest.approx(bare, rel=1e-10)
        assert solved.residuals[1] <= 1e-10
        assert np.allclose(solved.residuals,
                           self._residuals(strong, solved.x, block, 1e-2), rtol=1e-6)

    def test_strict_polish_that_stalls_raises(self, strong):
        from repro import ExecutionPolicy
        from repro.resilience import SolveDidNotConvergeError
        from repro.solvers import direct_solve

        policy = ExecutionPolicy(recovery="strict",
                                 faults="stall-convergence:iters=0")
        with pytest.raises(SolveDidNotConvergeError):
            direct_solve(strong, np.ones(256), factorize(strong, shift=1e-2),
                         shift=1e-2, tol=1e-10, policy=policy)

    def test_ladder_rung_measures_an_exact_factorization(self, base_hss):
        """The ``direct`` rung always states a measured residual."""
        from repro import ExecutionPolicy
        from repro.solvers import direct_solve

        b = np.random.default_rng(41).standard_normal(600)
        solved = direct_solve(base_hss, b, factorize(base_hss, shift=1e-2),
                              shift=1e-2, tol=1e-8, policy=ExecutionPolicy(),
                              rung_maxiter=10)
        assert solved.polishes == {}
        assert solved.residuals.shape == (1,)
        assert solved.residuals[0] == pytest.approx(
            self._residuals(base_hss, solved.x, b, 1e-2)[0], rel=1e-6)
        assert solved.residuals[0] < 1e-12
