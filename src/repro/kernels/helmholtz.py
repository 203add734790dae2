"""Volume integral-equation kernels.

The second application in the paper compresses the discretized volume IE
operator of the Helmholtz equation on uniformly distributed points in a cube,

    K(x, y) = cos(k |x - y|) / |x - y|,   x != y,   k = 3    (Eq. 9).

The kernel is singular at the origin; the diagonal (self-interaction) value is
a discretization-dependent finite constant which we expose as a parameter.
The Laplace kernel ``1 / |x - y|`` is provided as the ``k = 0`` limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import PairwiseKernel


@dataclass
class HelmholtzKernel(PairwiseKernel):
    """Real Helmholtz volume-IE kernel ``cos(k r) / r`` with finite self term."""

    wavenumber: float = 3.0
    #: Value used for coincident points (the paper evaluates the kernel only
    #: for ``x != y``; the self term comes from the discretization and is an
    #: O(1/h) constant, here left configurable).
    diagonal_value: float = 0.0

    def __post_init__(self) -> None:
        if self.wavenumber < 0:
            raise ValueError("wavenumber must be non-negative")

    def profile(self, r: np.ndarray) -> np.ndarray:
        # Singular at r = 0; profile_with_diagonal substitutes diagonal_value.
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.cos(self.wavenumber * r) / r


@dataclass
class LaplaceKernel(PairwiseKernel):
    """Laplace single-layer style kernel ``1 / |x - y|`` with finite self term."""

    diagonal_value: float = 0.0

    def profile(self, r: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 1.0 / r
