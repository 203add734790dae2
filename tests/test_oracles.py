"""The reference loops and the dense error of ``tests/oracles.py``, checked
against dense matrices.

The compiled construction sweep and the compiled apply are tested against
these loops, so the loops are tested here on their own: against the kernel
matrix and the dense reconstruction, with no compiled engine in the check.
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
    WeakAdmissibility,
    build_block_partition,
    uniform_cube_points,
)
from oracles import LoopConstructor, dense_relative_error, matvec_loop

FIXTURES = {
    "strong2d": dict(n=460, dim=2, leaf_size=16, admissibility=GeneralAdmissibility(eta=0.7)),
    "weak3d": dict(n=400, dim=3, leaf_size=48, admissibility=WeakAdmissibility()),
}


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def loop_built(request):
    """The oracle's construction of an exponential-kernel matrix, plus that matrix."""
    spec = FIXTURES[request.param]
    points = uniform_cube_points(spec["n"], dim=spec["dim"], seed=5)
    tree = ClusterTree.build(points, leaf_size=spec["leaf_size"])
    partition = build_block_partition(tree, spec["admissibility"])
    dense = ExponentialKernel(length_scale=0.2).matrix(tree.points)
    result = LoopConstructor(
        partition,
        DenseOperator(dense),
        DenseEntryExtractor(dense),
        ConstructionConfig(tolerance=1e-6, sample_block_size=16),
        seed=3,
    ).construct()
    return result, dense


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_construct_loop_matches_the_kernel_matrix(loop_built):
    result, dense = loop_built
    assert result.converged
    assert result.matrix.coupling  # a real low-rank far field was built
    assert dense_relative_error(result.matrix.to_dense(permuted=True), dense) < 1e-5


def test_construct_loop_issues_per_node_products(loop_built):
    result, _ = loop_built
    launches = result.kernel_launches
    assert launches["node_gemm"] > len(result.matrix.dense)
    assert "batched_scatter_gemm" not in launches


@pytest.mark.parametrize("columns", [None, 1, 4], ids=["1d", "2d-1", "2d-4"])
@pytest.mark.parametrize("permuted", [False, True])
def test_matvec_loop_matches_to_dense(loop_built, columns, permuted):
    h2 = loop_built[0].matrix
    shape = (h2.num_rows,) if columns is None else (h2.num_rows, columns)
    x = np.random.default_rng(11).standard_normal(shape)
    y = matvec_loop(h2, x, permuted=permuted)
    assert y.shape == x.shape
    assert rel_err(y, h2.to_dense(permuted=permuted) @ x) < 1e-12


def test_matvec_loop_rejects_a_wrong_dimension(loop_built):
    h2 = loop_built[0].matrix
    with pytest.raises(ValueError, match="dimension mismatch"):
        matvec_loop(h2, np.ones(h2.num_rows + 1))


class TestDenseRelativeError:
    def test_dense_relative_error(self):
        a = np.eye(5)
        b = np.eye(5) + 1e-3
        err = dense_relative_error(b, a)
        assert err == pytest.approx(np.linalg.norm(b - a) / np.linalg.norm(a))

    def test_dense_relative_error_spectral(self):
        a = np.diag([2.0, 1.0])
        b = np.diag([2.0, 1.5])
        assert dense_relative_error(b, a, norm="2") == pytest.approx(0.25)

    def test_identical_matrices(self):
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert dense_relative_error(a, a) == 0.0

    def test_zero_reference(self):
        assert dense_relative_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
        assert dense_relative_error(np.ones((2, 2)), np.zeros((2, 2))) == np.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense_relative_error(np.eye(2), np.eye(3))

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            dense_relative_error(np.eye(2), np.eye(2), norm="max")
