"""Adaptive-sampling convergence test (Section III-B).

A node has received enough sample vectors when the QR factorization of its
local sample block ``Y_loc_tau`` is numerically rank deficient: the smallest
absolute diagonal entry of ``R`` falls below an absolute threshold
``eps_abs``.  To honour a *relative* compression tolerance ``eps`` the
threshold is ``eps * |K|`` where ``|K|`` is a sketched estimate of the matrix
norm: the constructor takes it from its first sample block
(:func:`repro.linalg.norm_estimation.sketched_spectral_norm`, a lower bound on
``|K|_2``, so the threshold errs on the strict side) unless
``ConstructionConfig.norm_estimate`` supplies the norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..batched.backend import BatchedBackend


@dataclass
class ConvergenceTester:
    """Evaluates the per-node convergence criterion of the adaptive construction."""

    absolute_threshold: float

    def converged_mask(
        self, sample_blocks: Sequence[np.ndarray], backend: BatchedBackend
    ) -> np.ndarray:
        """Boolean mask of which sample blocks satisfy the convergence criterion."""
        if not len(sample_blocks):
            return np.zeros(0, dtype=bool)
        min_diags = backend.batched_min_r_diag(sample_blocks)
        return min_diags <= self.absolute_threshold
