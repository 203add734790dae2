"""The compiled H2 entry-evaluation plan (:mod:`repro.batched.entry_plan`).

``to_dense`` expands every block with the explicit (recursively formed) bases
and is the oracle: whatever a batch of requests looks like — mixed shapes,
unsorted and repeated indices, empty sides, single rows, blocks that span many
partition blocks — the plan must return ``to_dense(permuted=True)[rows, cols]``
to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ClusterTree,
    ConstructionConfig,
    DenseEntryExtractor,
    DenseOperator,
    ExponentialKernel,
    H2Constructor,
    H2EntryExtractor,
    H2Operator,
    LowRankEntryExtractor,
    LowRankOperator,
    SumOperator,
    WeakAdmissibility,
    build_block_partition,
    load_operator,
    random_low_rank,
    recompress_h2,
    save_operator,
    uniform_cube_points,
)
from repro.batched import H2EntryPlan


@pytest.fixture(scope="module")
def weak_partition(tree_2d):
    return build_block_partition(tree_2d, WeakAdmissibility())


@pytest.fixture(scope="module")
def weak_h2(weak_partition, dense_cov_2d):
    return H2Constructor(
        weak_partition,
        DenseOperator(dense_cov_2d),
        DenseEntryExtractor(dense_cov_2d),
        ConstructionConfig(tolerance=1e-7, sample_block_size=32),
        seed=6,
    ).construct().matrix


@pytest.fixture(scope="module")
def matrices(cov_h2, weak_h2):
    """``name -> (matrix, its dense form)`` on a strong and a weak partition."""
    return {
        "strong": (cov_h2, cov_h2.to_dense(permuted=True)),
        "weak": (weak_h2, weak_h2.to_dense(permuted=True)),
    }


def _request(kind: str, rng: np.random.Generator, tree: ClusterTree):
    n = tree.num_points
    if kind == "random":  # unsorted, possibly repeated indices
        return rng.integers(0, n, rng.integers(1, 40)), rng.integers(0, n, rng.integers(1, 40))
    if kind == "row":  # the ACA pattern: one row against a whole cluster
        node = int(rng.integers(1, tree.num_nodes))
        return rng.integers(0, n, 1), tree.index_set(node)
    if kind == "span":  # two whole clusters: many partition blocks at once
        s, t = rng.integers(0, min(tree.num_nodes, 15), 2)
        return tree.index_set(int(s)), tree.index_set(int(t))
    if kind == "duplicates":
        rows = rng.integers(0, n, 6)
        return np.concatenate([rows, rows[::-1]]), np.repeat(rng.integers(0, n, 4), 3)
    if kind == "empty_rows":
        return np.zeros(0, dtype=np.int64), rng.integers(0, n, 5)
    assert kind == "empty_cols"
    return rng.integers(0, n, 5), np.zeros(0, dtype=np.int64)


KINDS = ("random", "row", "span", "duplicates", "empty_rows", "empty_cols")


class TestAgainstDense:
    @given(
        name=st.sampled_from(["strong", "weak"]),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_batches_equal_dense_submatrices(self, matrices, name, kinds, seed):
        matrix, dense = matrices[name]
        rng = np.random.default_rng(seed)
        requests = [_request(kind, rng, matrix.tree) for kind in kinds]
        extractor = H2EntryExtractor(matrix)
        blocks = extractor.extract_blocks(requests)
        pad_rows = max(len(rows) for rows, _ in requests)
        pad_cols = max(len(cols) for _, cols in requests)
        padded = np.zeros((len(requests), pad_rows, pad_cols))
        extractor.extract_blocks_into(padded, range(len(requests)), requests)
        for i, ((rows, cols), block) in enumerate(zip(requests, blocks)):
            expected = dense[np.ix_(rows, cols)]
            assert block.shape == expected.shape
            assert np.allclose(block, expected, rtol=0.0, atol=1e-12)
            assert np.array_equal(padded[i, : len(rows), : len(cols)], block)
            assert not padded[i, len(rows) :, :].any()
            assert not padded[i, :, len(cols) :].any()

    @pytest.mark.parametrize("name", ["strong", "weak"])
    def test_whole_matrix_in_one_request(self, matrices, name):
        matrix, dense = matrices[name]
        everything = np.arange(matrix.num_rows)
        block = matrix.get_block(everything, everything)
        assert np.allclose(block, dense, rtol=0.0, atol=1e-12)

    def test_original_ordering(self, matrices):
        matrix, _ = matrices["strong"]
        rows, cols = np.array([5, 0, 699]), np.array([17, 300])
        expected = matrix.to_dense(permuted=False)[np.ix_(rows, cols)]
        block = matrix.get_block(rows, cols, permuted=False)
        assert np.allclose(block, expected, rtol=0.0, atol=1e-12)

    def test_requests_of_another_partition(self, matrices, weak_partition):
        """The blocks a weak-partition construction asks a strong matrix for:
        sibling clusters, i.e. requests that span many blocks of the base."""
        matrix, dense = matrices["strong"]
        tree = matrix.tree
        requests = [
            (tree.index_set(s), tree.index_set(t))
            for level in range(1, tree.num_levels)
            for s in tree.nodes_at_level(level)
            for t in weak_partition.far(s)
        ]
        assert requests
        for (rows, cols), block in zip(
            requests, H2EntryExtractor(matrix).extract_blocks(requests)
        ):
            assert np.allclose(block, dense[np.ix_(rows, cols)], rtol=0.0, atol=1e-12)


class TestPasses:
    def _constructor_like_requests(self, matrix, count, rng):
        """Skeleton-sized index subsets of admissible cluster pairs."""
        tree = matrix.tree
        pairs = sorted(matrix.coupling)
        requests = []
        for k in rng.integers(0, len(pairs), count):
            s, t = pairs[k]
            requests.append(
                (
                    rng.choice(tree.index_set(s), size=12, replace=False),
                    rng.choice(tree.index_set(t), size=12, replace=False),
                )
            )
        return requests

    def test_pass_count_does_not_grow_with_the_number_of_requests(self, matrices):
        matrix, dense = matrices["strong"]
        levels = matrix.tree.num_levels
        plan = matrix.entry_plan()
        extractor = H2EntryExtractor(matrix)
        rng = np.random.default_rng(0)
        passes = {}
        for count in (10, 3000):
            requests = self._constructor_like_requests(matrix, count, rng)
            blocks = extractor.extract_blocks(requests)
            passes[count] = plan.passes
            rows, cols = requests[-1]
            assert np.allclose(blocks[-1], dense[np.ix_(rows, cols)], rtol=0.0, atol=1e-12)
        # Index map, dense lookup, then per level one walk, one transfer and
        # one GEMM pass per 2 MiB of operands: 300 times the requests, a few
        # more GEMM passes, nothing per request.
        assert 0 < passes[10] <= 3 * levels
        assert passes[10] <= passes[3000] <= 4 * levels

    def test_repeated_index_sets_are_processed_once(self, matrices):
        matrix, _ = matrices["strong"]
        plan = matrix.entry_plan()
        (s, t) = sorted(matrix.coupling)[0]
        rows, cols = matrix.tree.index_set(s)[:8], matrix.tree.index_set(t)[:8]
        indexed = plan._index_rows(
            np.stack([rows] * 50 + [cols] * 50), np.stack([cols] * 50 + [rows] * 50)
        )
        assert indexed.key.size == rows.size + cols.size


class TestRecompression:
    def test_fixed_seed_update_reproduces_the_per_block_evaluator(self, cov_h2):
        """Same entries to rounding, so the same ranks, launches and entry
        count as a gather from the dense sum — the oracle runs at the same
        commit, so nothing here depends on the RNG stream or the threshold."""
        n = cov_h2.num_rows
        update = random_low_rank(n, 16, seed=7, symmetric=True, scale=0.5)
        config = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        result = recompress_h2(cov_h2, update, config=config, seed=8)

        dense_sum = cov_h2.to_dense(permuted=True) + update.to_dense()
        oracle = H2Constructor(
            cov_h2.partition,
            SumOperator([H2Operator(cov_h2), LowRankOperator(update)]),
            DenseEntryExtractor(dense_sum),
            config,
            seed=8,
        ).construct()

        def ranks(matrix):
            return [matrix.basis.rank(node) for node in range(cov_h2.tree.num_nodes)]

        assert max(ranks(result.matrix)) > 0
        assert ranks(result.matrix) == ranks(oracle.matrix)
        assert (
            result.total_samples, result.total_kernel_launches, result.entries_evaluated
        ) == (
            oracle.total_samples, oracle.total_kernel_launches, oracle.entries_evaluated
        )
        assert np.allclose(
            result.matrix.to_dense(permuted=True),
            oracle.matrix.to_dense(permuted=True),
            rtol=0.0, atol=1e-12,
        )

    def test_recompress_onto_a_different_partition(self, cov_h2, weak_partition, rel_err):
        config = ConstructionConfig(tolerance=1e-6, sample_block_size=32)
        result = recompress_h2(cov_h2, config=config, partition=weak_partition, seed=3)
        assert result.matrix.partition is weak_partition
        err = rel_err(result.matrix.to_dense(permuted=True), cov_h2.to_dense(permuted=True))
        assert err < 1e-4


@pytest.fixture()
def small_h2():
    """A private matrix the lifecycle tests may mutate."""
    points = uniform_cube_points(300, dim=2, seed=21)
    tree = ClusterTree.build(points, leaf_size=16)
    partition = build_block_partition(tree)
    dense = ExponentialKernel(0.3).matrix(tree.points)
    return H2Constructor(
        partition, DenseOperator(dense), DenseEntryExtractor(dense),
        ConstructionConfig(tolerance=1e-6, sample_block_size=16), seed=2,
    ).construct().matrix


class TestLifecycle:
    def test_plan_is_cached_and_dropped_with_the_apply_plan(self, small_h2):
        plan = small_h2.entry_plan()
        assert isinstance(plan, H2EntryPlan)
        assert small_h2.entry_plan() is plan
        small_h2.apply_plan()  # compiling the apply plan keeps the entry plan
        assert small_h2.entry_plan() is plan
        small_h2.apply_plan(rebuild=True)
        assert small_h2.entry_plan() is not plan

    def test_rebuild_picks_up_a_changed_coupling_block(self, small_h2):
        (s, t) = max(small_h2.coupling, key=lambda pair: small_h2.coupling[pair].size)
        rows, cols = small_h2.tree.index_set(s), small_h2.tree.index_set(t)
        before = small_h2.get_block(rows, cols)
        assert np.abs(before).max() > 0
        small_h2.coupling[(s, t)] = 2.0 * small_h2.coupling[(s, t)]
        assert np.array_equal(small_h2.get_block(rows, cols), before)  # stale plan
        small_h2.apply_plan(rebuild=True)
        after = small_h2.get_block(rows, cols)
        assert np.allclose(after, 2.0 * before, rtol=1e-13, atol=0.0)
        assert np.allclose(
            after, small_h2.to_dense(permuted=True)[np.ix_(rows, cols)],
            rtol=0.0, atol=1e-12,
        )

    def test_loaded_operator_compiles_its_own_plan(self, small_h2, tmp_path):
        small_h2.entry_plan()
        save_operator(small_h2, tmp_path / "m.reproart")
        loaded = load_operator(tmp_path / "m.reproart")
        assert loaded._entry_plan is None
        rows, cols = np.arange(0, 300, 7), np.arange(3, 300, 11)
        assert np.array_equal(
            loaded.get_block(rows, cols), small_h2.get_block(rows, cols)
        )

    def test_plan_bytes_are_reported_as_workspace(self, small_h2):
        plan = small_h2.entry_plan()
        # The plan counts its basis buffers (a copy of the matrix's bases)
        # and its index tables.
        assert plan.memory_bytes() >= plan.u_flat.nbytes + plan.e_flat.nbytes > 0
        # Index tables and bases only: never a second copy of the big blocks.
        blocks = small_h2.memory_bytes()
        assert plan.memory_bytes() < blocks["basis"] + 0.1 * blocks["total"]

    @pytest.mark.parametrize("blocks", ["dense", "coupling"])
    def test_missing_block_is_an_error_not_zeros(self, small_h2, blocks):
        (s, t) = next(iter(getattr(small_h2, blocks)))
        del getattr(small_h2, blocks)[(s, t)]
        rows, cols = small_h2.tree.index_set(s), small_h2.tree.index_set(t)
        with pytest.raises(KeyError, match="no partition block covers leaf pair"):
            small_h2.get_block(rows[:3], cols[:3])
        with pytest.raises(KeyError, match="no partition block covers leaf pair"):
            H2EntryExtractor(small_h2).extract_blocks([(rows, cols), (cols, cols)])

    def test_inconsistent_block_shape_is_a_typed_error(self, small_h2):
        key = next(iter(small_h2.coupling))
        small_h2.coupling[key] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="prescribe"):
            small_h2.entry_plan()


class TestSumWithLowRank:
    def test_low_rank_batches_match_per_block_entries(self):
        lr = random_low_rank(50, 3, seed=5)
        extractor = LowRankEntryExtractor(lr)
        rng = np.random.default_rng(1)
        requests = [(rng.integers(0, 50, 4), rng.integers(0, 50, 6)) for _ in range(5)]
        dense = lr.to_dense()
        for (rows, cols), block in zip(requests, extractor.extract_blocks(requests)):
            assert np.allclose(block, dense[np.ix_(rows, cols)], rtol=0.0, atol=1e-14)
