"""Hyperparameter sweeps and gradient-free likelihood optimization.

The model-selection loop of :meth:`repro.gp.regression.GaussianProcess.fit`:
a cartesian grid over length scales and nuggets (every point re-using the
cached geometry of the GP's :class:`~repro.api.facade.Session`),
optionally refined by a compact Nelder–Mead simplex search in log-parameter
space — gradients of the sketched log-likelihood are noisy, so a
direct-search method is the robust default.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from ..kernels.base import KernelFunction


def hyperparameter_grid(
    kernel: KernelFunction,
    noise: float,
    length_scales: Sequence[float] | None = None,
    noises: Sequence[float] | None = None,
) -> Iterator[Tuple[KernelFunction, float]]:
    """Iterate the cartesian grid of kernel length scales and noise values.

    ``None`` grids collapse to the current value, so the degenerate call
    yields exactly the current ``(kernel, noise)`` point.  Kernels without a
    ``length_scale`` hyperparameter reject a length-scale grid.
    """
    if length_scales is not None and "length_scale" not in kernel.hyperparameters():
        raise TypeError(
            f"{type(kernel).__name__} has no length_scale hyperparameter to sweep"
        )
    kernels = (
        [kernel]
        if length_scales is None
        else [kernel.rebind(length_scale=float(ls)) for ls in length_scales]
    )
    noise_values = [float(noise)] if noises is None else [float(nz) for nz in noises]
    for k in kernels:
        for nz in noise_values:
            yield k, nz


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    initial_step: float = 0.25,
    max_evals: int = 60,
    xtol: float = 1e-3,
    ftol: float = 1e-8,
) -> Tuple[np.ndarray, float]:
    """Minimise ``f`` with a Nelder–Mead simplex search (SciPy-backed).

    A thin convenience wrapper over
    :func:`scipy.optimize.minimize(method="Nelder-Mead") <scipy.optimize.minimize>`
    with the initial simplex spanned by ``initial_step`` along every
    coordinate of ``x0``, a hard evaluation budget and ``xtol``/``ftol``
    termination.  Returns the best evaluated point and its value — tracked on
    our side so a budget-terminated search still reports the true incumbent.
    ``f`` may return ``inf`` for infeasible points (e.g. a
    non-positive-definite covariance).
    """
    from scipy.optimize import minimize

    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    dim = x0.shape[0]
    best: List[object] = [x0, np.inf]
    evals = 0

    def call(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        value = float(f(x))
        if not np.isfinite(value):
            value = np.inf
        if value < best[1]:
            best[0], best[1] = np.array(x), value
        return value

    simplex = np.vstack([x0] + [x0 + initial_step * row for row in np.eye(dim)])
    minimize(
        call,
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "maxfev": max_evals,
            "xatol": xtol,
            "fatol": ftol,
        },
    )
    return np.asarray(best[0], dtype=np.float64), float(best[1])
