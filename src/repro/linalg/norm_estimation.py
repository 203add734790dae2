"""Randomized spectral-norm estimation.

Two estimators with two different jobs:

* :func:`sketched_spectral_norm` converts the relative compression tolerance
  into the absolute threshold of the adaptive convergence test.  It reuses the
  sample block ``Y = K @ Omega`` the constructor has drawn anyway and costs one
  more black-box application of :data:`SKETCH_NORM_COLUMNS` columns — the
  paper's "sketched norm estimate".
* :func:`estimate_spectral_norm` / :func:`estimate_relative_error` are the
  single-vector power method the paper uses to *validate* a construction,
  ``|K_comp - K| / |K|`` against the black-box sampler (Section V-A);
  :func:`construction_error` applies it to an H2 matrix and its sampler.
  Every iteration is two full operator applications, so it stays off the
  construction path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..utils.rng import SeedLike, as_generator
from .qr import householder_orthonormalize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hmatrix.h2matrix import H2Matrix
    from ..sketching.operators import SketchingOperator

MatVec = Callable[[np.ndarray], np.ndarray]

#: Columns of the sample block that :func:`sketched_spectral_norm` iterates on.
#: Calibration against ``numpy.linalg.norm(K, 2)`` on dense kernel matrices
#: (2D/3D uniform clouds, N = 512 and 2048, pinned by ``tests/test_linalg.py``):
#: 32 columns reach 0.989-1.0 of the norm for the covariance kernels and
#: 0.76-0.99 for Helmholtz kernels, whose top singular vectors sit on a few
#: nearly coincident point pairs; 16 columns reach 0.93 / 0.69 and 8 columns
#: 0.84 / 0.62.  One 32-column application still costs less than the twelve
#: single-vector products of the power iteration it replaced (33 ms against
#: 82 ms on a dense 4096 x 4096 operator).
SKETCH_NORM_COLUMNS = 32


def sketched_spectral_norm(apply: MatVec, sketch: np.ndarray) -> float:
    """Lower bound on ``||A||_2`` from a sample block ``sketch = A @ Omega``.

    One step of randomized subspace iteration (Halko, Martinsson and Tropp,
    arXiv:0909.4061): ``Q = orth(sketch[:, :b])`` with
    ``b =`` :data:`SKETCH_NORM_COLUMNS`, one block application ``Z = A @ Q``
    through ``apply`` and ``sqrt(lambda_max(Z^T Z)) = ||A Q||_2``.

    ``Q`` has orthonormal columns, so the result never exceeds ``||A||_2``
    whatever ``A`` is — no adjoint and no symmetry is needed.  It reaches
    0.99 of the norm for covariance kernels and 0.75 or more for Helmholtz
    kernels (see :data:`SKETCH_NORM_COLUMNS`); on a non-normal matrix whose
    dominant left and right singular vectors differ (strictly triangular,
    column-scaled) one step stops near half the norm.  An under-estimate only
    tightens the thresholds derived from it.
    """
    q = householder_orthonormalize(np.asarray(sketch)[:, :SKETCH_NORM_COLUMNS])
    z = np.asarray(apply(q), dtype=np.float64)
    top = np.linalg.eigvalsh(z.T @ z)[-1]
    return float(np.sqrt(max(top, 0.0)))


def estimate_spectral_norm(
    matvec: MatVec,
    n: int,
    rmatvec: MatVec | None = None,
    num_iterations: int = 10,
    seed: SeedLike = None,
) -> float:
    """Estimate ``||A||_2`` with the power method on ``A^T A``.

    Parameters
    ----------
    matvec:
        Function computing ``A @ x`` for a vector ``x`` of length ``n``.
    n:
        Number of columns of ``A``.
    rmatvec:
        Function computing ``A^T @ x``; defaults to ``matvec`` (symmetric ``A``).
    num_iterations:
        Number of power iterations (the paper uses "a few").
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = as_generator(seed)
    adjoint = rmatvec if rmatvec is not None else matvec
    x = rng.standard_normal(n)
    x_norm = np.linalg.norm(x)
    if x_norm == 0.0:
        return 0.0
    x /= x_norm
    estimate = 0.0
    for _ in range(max(1, num_iterations)):
        y = np.asarray(matvec(x)).reshape(-1)
        y_norm = np.linalg.norm(y)
        if y_norm == 0.0:
            return 0.0
        z = np.asarray(adjoint(y)).reshape(-1)
        z_norm = np.linalg.norm(z)
        # For unit x, z = A^T A x so ||z|| converges to sigma_max(A)^2.
        estimate = np.sqrt(z_norm) if z_norm > 0 else y_norm
        if z_norm == 0.0:
            break
        x = z / z_norm
    return float(estimate)


def estimate_relative_error(
    reference_matvec: MatVec,
    approx_matvec: MatVec,
    n: int,
    num_iterations: int = 10,
    seed: SeedLike = None,
) -> float:
    """Relative spectral-norm error ``||A - B||_2 / ||A||_2`` via power iteration.

    Both operators are accessed only through matrix-vector products, matching
    how the paper validates constructions against the black-box sampler.
    """
    rng = as_generator(seed)

    def diff(x: np.ndarray) -> np.ndarray:
        return np.asarray(reference_matvec(x)).reshape(-1) - np.asarray(
            approx_matvec(x)
        ).reshape(-1)

    num = estimate_spectral_norm(diff, n, num_iterations=num_iterations, seed=rng)
    den = estimate_spectral_norm(
        reference_matvec, n, num_iterations=num_iterations, seed=rng
    )
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def construction_error(
    matrix: "H2Matrix",
    operator: "SketchingOperator",
    num_iterations: int = 10,
    seed: SeedLike = 0,
) -> float:
    """Relative spectral-norm error of ``matrix`` against the black-box ``operator``.

    Both operands act in the permuted ordering; only matrix-vector products are
    used, so this works at any problem size.
    """
    return estimate_relative_error(
        operator.matvec,
        lambda x: matrix.matvec(x, permuted=True),
        matrix.num_rows,
        num_iterations=num_iterations,
        seed=seed,
    )
