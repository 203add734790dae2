"""Dense linear-algebra building blocks: pivoted QR, interpolative decomposition,
low-rank objects and randomized norm estimation."""

from .interpolative import InterpolativeDecomposition, row_id, column_id
from .low_rank import LowRankMatrix, random_low_rank
from .norm_estimation import (
    construction_error,
    estimate_spectral_norm,
    estimate_relative_error,
)
from .qr import truncated_pivoted_qr, smallest_r_diagonal

__all__ = [
    "InterpolativeDecomposition",
    "row_id",
    "column_id",
    "LowRankMatrix",
    "random_low_rank",
    "construction_error",
    "estimate_spectral_norm",
    "estimate_relative_error",
    "truncated_pivoted_qr",
    "smallest_r_diagonal",
]
