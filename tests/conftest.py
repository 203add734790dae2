"""Shared fixtures for the test-suite.

Fixtures are session-scoped where the underlying objects are immutable and
expensive (cluster trees, dense kernel matrices, constructed H2 matrices) so
the several hundred tests stay fast.  Problem sizes are deliberately small and
mostly two-dimensional: at small N a 2D geometry already produces a rich
strong-admissibility block structure (many admissible blocks over several
levels), whereas a 3D geometry would need far more points to show any
admissible block at eta = 0.7.
"""

from __future__ import annotations

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
    uniform_cube_points,
)


@pytest.fixture(scope="session")
def scheduled_launches():
    """``(constructor, result) -> {operation: launches}``: what the stated
    schedule (``ConstructionPlan.launch_schedule``) predicts for a finished
    compiled construction, from its sampling rounds and the levels whose ID
    left a redundant row."""

    def predict(constructor: H2Constructor, result) -> dict:
        rounds = {level.depth: level.sampling_rounds for level in result.levels}
        upsweep_depths = {
            depth
            for depth in rounds
            for node in constructor.tree.nodes_at_level(depth)
            if constructor.skeletons.get(node).interpolation.shape[0]
            > constructor.skeletons.rank(node)
        }
        return constructor.plan.launch_schedule(
            rounds, upsweep_depths, adaptive=result.config.adaptive
        )

    return predict


@pytest.fixture(scope="session")
def points_2d() -> np.ndarray:
    return uniform_cube_points(700, dim=2, seed=11)


@pytest.fixture(scope="session")
def points_3d() -> np.ndarray:
    return uniform_cube_points(600, dim=3, seed=12)


@pytest.fixture(scope="session")
def tree_2d(points_2d) -> ClusterTree:
    return ClusterTree.build(points_2d, leaf_size=32)


@pytest.fixture(scope="session")
def tree_3d(points_3d) -> ClusterTree:
    return ClusterTree.build(points_3d, leaf_size=32)


@pytest.fixture(scope="session")
def partition_2d(tree_2d):
    return build_block_partition(tree_2d, GeneralAdmissibility(eta=0.7))


@pytest.fixture(scope="session")
def exp_kernel() -> ExponentialKernel:
    return ExponentialKernel(length_scale=0.2)


@pytest.fixture(scope="session")
def helmholtz_kernel() -> HelmholtzKernel:
    return HelmholtzKernel(wavenumber=3.0)


@pytest.fixture(scope="session")
def dense_cov_2d(tree_2d, exp_kernel) -> np.ndarray:
    """Dense exponential-covariance matrix over the permuted 2D points."""
    return exp_kernel.matrix(tree_2d.points)


@pytest.fixture(scope="session")
def cov_operator_2d(dense_cov_2d) -> DenseOperator:
    return DenseOperator(dense_cov_2d)


@pytest.fixture(scope="session")
def cov_extractor_2d(dense_cov_2d) -> DenseEntryExtractor:
    return DenseEntryExtractor(dense_cov_2d)


@pytest.fixture(scope="session")
def cov_h2_result(partition_2d, dense_cov_2d):
    """An adaptively constructed H2 matrix of the 2D covariance problem."""
    constructor = H2Constructor(
        partition_2d,
        DenseOperator(dense_cov_2d),
        DenseEntryExtractor(dense_cov_2d),
        ConstructionConfig(tolerance=1e-7, sample_block_size=32),
        seed=5,
    )
    return constructor.construct()


@pytest.fixture(scope="session")
def cov_h2(cov_h2_result):
    return cov_h2_result.matrix


def relative_error(approx: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(approx - reference) / np.linalg.norm(reference))


@pytest.fixture(scope="session")
def rel_err():
    return relative_error
