"""Gaussian-process regression end-to-end: fit, predict, sweep, sample.

The statistical workload the covariance benchmarks point at, composed from
every subsystem of the library:

1. draw noisy observations of a smooth function at scattered 2D points;
2. fit a Gaussian process through ``Session.gp`` — the covariance is compressed with
   the sketching constructor, and its log-determinant and the representer
   weights come from the HSS factorization of the shifted covariance (a
   direct solve, exact up to round-off);
3. select the kernel length scale and nugget by a grid sweep refined with
   Nelder–Mead — every sweep point re-uses the geometry of the
   :class:`repro.Session` (tree, partition, sample seed), so no sweep point
   builds a tree or a partition;
4. predict mean/uncertainty at held-out points and draw posterior samples.

Run with:  python examples/gp_regression.py [N]
"""

import sys

import numpy as np

from repro import ExponentialKernel, Session, gp_sweep_table, uniform_cube_points

NOISE_TRUE = 0.05


def target_function(points: np.ndarray) -> np.ndarray:
    """A smooth anisotropic test function on the unit square."""
    x, y = points[:, 0], points[:, 1]
    return np.sin(4.0 * x) * np.cos(3.0 * y) + 0.5 * x


def main(n: int = 2048) -> None:
    print(f"== Gaussian-process regression with N={n} training points ==")
    rng = np.random.default_rng(0)
    train = uniform_cube_points(n, dim=2, seed=1)
    y = target_function(train) + NOISE_TRUE * rng.standard_normal(n)

    # --- fit with model selection -----------------------------------------
    # A Session builds the geometry once (tree, partition, sample seed);
    # gp() hands the GP the session whose geometry every sweep point re-uses.
    session = Session(train, seed=2)
    gp = session.gp(
        ExponentialKernel(length_scale=0.5),  # deliberately bad initial guess
        noise=0.5,
        tolerance=1e-7,
    )
    gp.fit(
        y,
        length_scales=[0.1, 0.25, 0.5],
        noises=[1e-3, 1e-2, 1e-1],
        optimize=True,
        max_optimizer_evals=15,
    )
    print()
    print(gp_sweep_table(gp.fit_reports_))
    print()
    print(
        f"selected: length_scale={gp.kernel.length_scale:.4f} "
        f"noise={gp.noise:.2e} log-likelihood={gp.log_marginal_likelihood_:.2f}"
    )
    print(f"geometry reuse: {gp.session.describe()}")

    # --- predict at held-out points ---------------------------------------
    test = uniform_cube_points(512, dim=2, seed=3)
    truth = target_function(test)
    mean, std = gp.predict(test, return_std=True)
    rmse = float(np.sqrt(np.mean((mean - truth) ** 2)))
    inside = float(np.mean(np.abs(mean - truth) <= 2.0 * std + 2.0 * NOISE_TRUE))
    print()
    print(f"held-out RMSE:            {rmse:.4f} (observation noise {NOISE_TRUE})")
    print(f"within 2 sigma of truth:  {100.0 * inside:.1f}%")

    # --- posterior samples -------------------------------------------------
    draws = gp.sample_posterior(test[:8], num_samples=5, seed=4)
    print()
    print("posterior samples at 8 held-out points (rows: points, cols: draws):")
    for row, m in zip(draws, mean[:8]):
        formatted = "  ".join(f"{value:+.3f}" for value in row)
        print(f"  mean {m:+.3f} | {formatted}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2048)
