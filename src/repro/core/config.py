"""Configuration of the bottom-up sketching construction (Algorithm 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..batched.backend import BatchedBackend


@dataclass
class ConstructionConfig:
    """Parameters of :class:`repro.core.builder.H2Constructor`.

    Attributes
    ----------
    tolerance:
        Relative compression tolerance ``eps``; both the adaptive convergence
        test and the interpolative-decomposition truncation derive their
        thresholds from it.
    sample_block_size:
        The sample block size ``d``: number of new random vectors drawn per
        adaptive sampling round (Table II studies 32 vs leaf-size blocks).
    initial_samples:
        Number of random vectors of the very first sketch; defaults to
        ``sample_block_size``.  The paper's fixed-sample experiments use 256.
    adaptive:
        When ``True`` (default) nodes are tested for convergence after every
        sampling round and additional sample blocks are drawn until every node
        of the level converges (Section III-B); when ``False`` the
        fixed-sample variant of Section III-A is used with ``initial_samples``
        vectors.
    max_samples:
        Upper bound on the total number of sample vectors (defaults to the
        matrix dimension).  Reaching the bound stops adaptivity and flags the
        result as not fully converged.
    max_rank:
        Optional hard cap on per-node ranks.
    id_tolerance_mode:
        ``"relative"`` truncates each node's ID relative to its own largest
        pivot; ``"absolute"`` uses ``tolerance`` times the estimated matrix
        norm as an absolute pivot threshold (the paper's global-threshold
        variant).
    backend:
        Batched execution backend: a name from the :mod:`repro.backends`
        registry (``"serial"`` — CPU reference; ``"vectorized"`` —
        shape-grouped batched execution, the GPU analogue; plus anything
        registered via :func:`repro.backends.register`) or an existing
        :class:`~repro.batched.backend.BatchedBackend` instance.  The
        default ``"auto"`` follows the ``REPRO_BACKEND`` environment
        variable, falling back to ``"vectorized"``.
    norm_estimate:
        Optional known value of ``||K||_2``.  The adaptive convergence test
        and the absolute-ID mode compare against ``tolerance * ||K||_2``; by
        default the constructor estimates the norm from its first sample
        block with one extra black-box application of 32 columns
        (:func:`repro.linalg.norm_estimation.sketched_spectral_norm` — a
        lower bound, within 1 % for covariance kernels and 25 % for Helmholtz
        kernels, so the threshold is never looser than requested).  Supplying
        the norm skips that application.
    """

    tolerance: float = 1e-6
    sample_block_size: int = 64
    initial_samples: int | None = None
    adaptive: bool = True
    max_samples: int | None = None
    max_rank: int | None = None
    id_tolerance_mode: str = "relative"
    backend: Union[str, BatchedBackend] = "auto"
    norm_estimate: float | None = None

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.sample_block_size <= 0:
            raise ValueError("sample_block_size must be positive")
        if self.initial_samples is not None and self.initial_samples <= 0:
            raise ValueError("initial_samples must be positive when given")
        if self.id_tolerance_mode not in ("relative", "absolute"):
            raise ValueError("id_tolerance_mode must be 'relative' or 'absolute'")
        if self.norm_estimate is not None and self.norm_estimate <= 0:
            raise ValueError("norm_estimate must be positive when given")

    @property
    def effective_initial_samples(self) -> int:
        return self.initial_samples if self.initial_samples is not None else self.sample_block_size

    def fixed_sample(self, num_samples: int) -> "ConstructionConfig":
        """Return a copy configured for the fixed-sample variant with ``num_samples``."""
        from dataclasses import replace

        return replace(self, adaptive=False, initial_samples=num_samples)
