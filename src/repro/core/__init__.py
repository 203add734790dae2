"""The paper's primary contribution: bottom-up sketching-based H2 construction.

:class:`~repro.core.builder.H2Constructor` implements Algorithm 1 in both its
fixed-sample and adaptive-sampling variants, phrased entirely in terms of the
batched primitives of :mod:`repro.batched`;
:mod:`repro.core.recompression` applies it to the H2 + low-rank update
application of the paper.
"""

from .builder import ConstructionResult, H2Constructor
from .config import ConstructionConfig
from .convergence import ConvergenceTester
from .recompression import recompress_h2
from .skeleton_store import NodeSkeleton, SkeletonStore

__all__ = [
    "H2Constructor",
    "ConstructionConfig",
    "ConstructionResult",
    "ConvergenceTester",
    "NodeSkeleton",
    "SkeletonStore",
    "recompress_h2",
]
