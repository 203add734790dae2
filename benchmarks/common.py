"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at reproduction
scale (pure NumPy substrate instead of an A100), printing the same rows/series
the paper reports.  Problem sizes default to laptop-friendly values and can be
scaled with environment variables:

``REPRO_BENCH_SIZES``
    Comma-separated list of N values for the Fig. 5/6 sweeps
    (default ``2048,4096,8192``).
``REPRO_BENCH_BASELINE_MAX_N``
    Largest N at which the expensive comparator algorithms (top-down peeling,
    colored-probing H sketch) are run (default ``4096``) — mirroring the paper,
    where the baselines run out of memory/time well before the proposed method.
``REPRO_BENCH_GRIDS``
    Comma-separated grid extents for the frontal-matrix study (default
    ``12,16,20,24``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

import repro
from repro import (
    ClusterTree,
    DenseEntryExtractor,
    DenseOperator,
    ExecutionPolicy,
    ExponentialKernel,
    GeneralAdmissibility,
    HelmholtzKernel,
    build_block_partition,
    uniform_cube_points,
)
from repro.tree import BlockPartition

DEFAULT_TOLERANCE = 1e-6
DEFAULT_LEAF_SIZE = 64
DEFAULT_ETA = 0.7
DEFAULT_SAMPLE_BLOCK = 64


def bench_sizes() -> List[int]:
    """Problem sizes for the N sweeps (Fig. 5 and Fig. 6a)."""
    raw = os.environ.get("REPRO_BENCH_SIZES", "2048,4096,8192")
    return [int(x) for x in raw.split(",") if x.strip()]


def baseline_max_n() -> int:
    return int(os.environ.get("REPRO_BENCH_BASELINE_MAX_N", "4096"))


def bench_grids() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_GRIDS", "12,16,20,24")
    return [int(x) for x in raw.split(",") if x.strip()]


@dataclass
class Problem:
    """A dense test problem: tree, partition, matrix, operator, extractor."""

    name: str
    n: int
    tree: ClusterTree
    partition: BlockPartition
    dense: np.ndarray
    operator: DenseOperator
    extractor: DenseEntryExtractor

    def fresh_operator(self) -> DenseOperator:
        """A new operator instance so per-run sample statistics start from zero."""
        return DenseOperator(self.dense)


def _make_problem(
    name: str, kernel, n: int, leaf_size: int, eta: float, seed: int
) -> Problem:
    """Shared harness setup: cluster tree, partition, dense reference matrix."""
    points = uniform_cube_points(n, dim=3, seed=seed)
    tree = ClusterTree.build(points, leaf_size=leaf_size)
    dense = kernel.matrix(tree.points)
    return Problem(
        name=name,
        n=n,
        tree=tree,
        partition=build_block_partition(tree, GeneralAdmissibility(eta=eta)),
        dense=dense,
        operator=DenseOperator(dense),
        extractor=DenseEntryExtractor(dense),
    )


def make_covariance_problem(
    n: int,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    eta: float = DEFAULT_ETA,
    seed: int = 1,
    length_scale: float = 0.2,
) -> Problem:
    """3D exponential-covariance problem of Section V-A (Eq. 8)."""
    return _make_problem(
        "covariance", ExponentialKernel(length_scale), n, leaf_size, eta, seed
    )


def make_ie_problem(
    n: int,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    eta: float = DEFAULT_ETA,
    seed: int = 2,
    wavenumber: float = 3.0,
) -> Problem:
    """3D Helmholtz volume-IE problem of Section V-A (Eq. 9)."""
    return _make_problem(
        "ie",
        HelmholtzKernel(wavenumber=wavenumber, diagonal_value=0.0),
        n,
        leaf_size,
        eta,
        seed,
    )


def construct_h2(
    problem: Problem,
    backend: str = "vectorized",
    tolerance: float = DEFAULT_TOLERANCE,
    sample_block_size: int = DEFAULT_SAMPLE_BLOCK,
    adaptive: bool = True,
    initial_samples: int | None = None,
    seed: int = 7,
    tracer=None,
):
    """Run the bottom-up constructor on a benchmark problem (facade path).

    Pass a :class:`repro.SpanTracer` as ``tracer`` to record the phase spans
    a Fig. 7 breakdown is read from (``result.trace``).
    """
    return repro.compress(
        partition=problem.partition,
        operator=problem.fresh_operator(),
        extractor=problem.extractor,
        tol=tolerance,
        sample_block_size=sample_block_size,
        adaptive=adaptive,
        initial_samples=initial_samples,
        seed=seed,
        policy=ExecutionPolicy(backend=backend, tracer=tracer),
        full_result=True,
    )


def measured_error(result, problem: Problem) -> float:
    """Relative spectral-norm error against the dense reference (power method)."""
    from repro.linalg import construction_error

    return construction_error(result.matrix, problem.fresh_operator(), num_iterations=8, seed=3)


_PROBLEM_CACHE: Dict[tuple, Problem] = {}


def cached_problem(kind: str, n: int, **kwargs) -> Problem:
    """Memoise dense problem construction across benchmarks within one session."""
    key = (kind, n, tuple(sorted(kwargs.items())))
    if key not in _PROBLEM_CACHE:
        factory = make_covariance_problem if kind == "covariance" else make_ie_problem
        _PROBLEM_CACHE[key] = factory(n, **kwargs)
    return _PROBLEM_CACHE[key]
