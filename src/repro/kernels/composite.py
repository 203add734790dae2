"""Kernel composition: scaling, sums and white-noise (nugget) terms.

Gaussian-process covariance models are built from a smooth base kernel plus
observation noise, ``sigma_f^2 K(r / l) + sigma_n^2 I``.  All compositions
here stay radial (:class:`~repro.kernels.base.PairwiseKernel`), so a
distance-reusing evaluation path works for composite kernels exactly as for
the primitive ones.  Python operators are provided as sugar:
``0.5 * ExponentialKernel(0.2) + WhiteNoiseKernel(1e-2)``.

Hyperparameter naming
---------------------
``hyperparameters()``/``rebind()`` form a consistent dictionary view for
optimizers.  When two components of a composition expose the *same* parameter
name (two variances, two length scales), the colliding names are qualified
with the component index — ``variance.0``, ``variance.1`` — in both the read
and the write direction, and rebinding the bare ambiguous name raises instead
of silently picking a component.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..utils.validation import check_positive
from .base import PairwiseKernel


@dataclass
class ScaledKernel(PairwiseKernel):
    """``variance * K(x, y)`` — a signal-variance (amplitude) hyperparameter."""

    kernel: PairwiseKernel = None  # type: ignore[assignment]
    variance: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kernel, PairwiseKernel):
            raise TypeError("ScaledKernel requires a PairwiseKernel to scale")
        check_positive(self.variance, "variance")

    def profile(self, r: np.ndarray) -> np.ndarray:
        return self.variance * self.kernel.profile(r)

    def profile_with_diagonal(self, r: np.ndarray) -> np.ndarray:
        return self.variance * self.kernel.profile_with_diagonal(r)

    def rebind(self, **params: float) -> "ScaledKernel":
        """Route ``variance`` to the amplitude, everything else to the inner
        kernel; an inner parameter also called ``variance`` is addressed as
        ``variance.0`` (see the module docstring)."""
        variance = params.pop("variance", self.variance)
        if "variance.0" in params:
            params["variance"] = params.pop("variance.0")
        kernel = self.kernel.rebind(**params) if params else self.kernel
        return ScaledKernel(kernel, variance)

    def hyperparameters(self) -> Dict[str, float]:
        params = {
            ("variance.0" if name == "variance" else name): value
            for name, value in self.kernel.hyperparameters().items()
        }
        params["variance"] = self.variance
        return params


@dataclass
class SumKernel(PairwiseKernel):
    """Entrywise sum of radial kernels (e.g. smooth kernel + nugget)."""

    kernels: Tuple[PairwiseKernel, ...] = ()

    def __post_init__(self) -> None:
        self.kernels = tuple(self.kernels)
        if not self.kernels:
            raise ValueError("SumKernel requires at least one kernel")
        for kernel in self.kernels:
            if not isinstance(kernel, PairwiseKernel):
                raise TypeError("SumKernel components must be PairwiseKernels")

    def profile(self, r: np.ndarray) -> np.ndarray:
        result = self.kernels[0].profile(r)
        for kernel in self.kernels[1:]:
            result = result + kernel.profile(r)
        return result

    def profile_with_diagonal(self, r: np.ndarray) -> np.ndarray:
        result = self.kernels[0].profile_with_diagonal(r)
        for kernel in self.kernels[1:]:
            result = result + kernel.profile_with_diagonal(r)
        return result

    def _component_params(self):
        per_component = [kernel.hyperparameters() for kernel in self.kernels]
        counts = Counter(name for params in per_component for name in params)
        return per_component, counts

    def rebind(self, **params: float) -> "SumKernel":
        """Route parameters to components; qualified names (``name.i``)
        address component ``i`` directly, bare names must be unambiguous."""
        per_component, counts = self._component_params()
        routed: list[Dict[str, float]] = [{} for _ in self.kernels]
        for key, value in params.items():
            name, sep, index = key.rpartition(".")
            if counts.get(key, 0) == 1:
                # Unambiguous component key (possibly itself qualified by a
                # nested composition) — exact match wins over index parsing.
                owner = next(
                    i for i, params_i in enumerate(per_component) if key in params_i
                )
                routed[owner][key] = value
            elif counts.get(key, 0) > 1:
                raise TypeError(
                    f"hyperparameter {key!r} is ambiguous in this sum; "
                    f"qualify it as '{key}.<component>'"
                )
            elif sep and name and index.isdigit() and int(index) < len(self.kernels):
                if name not in per_component[int(index)]:
                    raise TypeError(
                        f"component {index} of the sum has no hyperparameter "
                        f"{name!r}"
                    )
                routed[int(index)][name] = value
            else:
                raise TypeError(
                    f"no component of the sum accepts hyperparameter {key!r}"
                )
        rebound = tuple(
            kernel.rebind(**accepted) if accepted else kernel
            for kernel, accepted in zip(self.kernels, routed)
        )
        return SumKernel(rebound)

    def hyperparameters(self) -> Dict[str, float]:
        per_component, counts = self._component_params()
        params: Dict[str, float] = {}
        for i, component in enumerate(per_component):
            for name, value in component.items():
                params[name if counts[name] == 1 else f"{name}.{i}"] = value
        return params


@dataclass
class WhiteNoiseKernel(PairwiseKernel):
    """Nugget kernel ``K(x, y) = variance * [x == y]`` (observation noise).

    Only coincident points interact, so the kernel contributes ``variance`` to
    the diagonal of the covariance matrix and nothing anywhere else — the
    explicit-kernel formulation of the diagonal shift that
    :func:`repro.solvers.factorize` applies through its ``shift`` argument.
    """

    variance: float = 1e-2

    def __post_init__(self) -> None:
        check_positive(self.variance, "variance")

    def profile(self, r: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(r) == 0.0, self.variance, 0.0)
