"""HSS construction as a special case of the bottom-up H2 constructor.

The paper's Algorithm 1 is an extension of the Martinsson (2011) randomized
HSS construction from weak to general admissibility.  Running the same
constructor with :class:`~repro.tree.admissibility.WeakAdmissibility` therefore
*is* a sketching-based HSS construction — the nested bases live on the HODLR
partition where every off-diagonal sibling block is admissible.  This module
provides a thin convenience wrapper used by the frontal-matrix memory
comparison (Fig. 6b), where the paper compares against STRUMPACK's HSS code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..tree.admissibility import WeakAdmissibility
from ..tree.block_partition import build_block_partition
from ..tree.cluster_tree import ClusterTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.builder import ConstructionResult
    from ..sketching.entry_extractor import EntryExtractor
    from ..sketching.operators import SketchingOperator


def _build_hss(
    tree: ClusterTree,
    operator: "SketchingOperator",
    extractor: "EntryExtractor",
    tolerance: float = 1e-6,
    sample_block_size: int = 64,
    max_samples: int | None = None,
    backend: str = "vectorized",
    seed: int | np.random.Generator | None = None,
) -> "ConstructionResult":
    """Construct an HSS (weak-admissibility H2) matrix with the bottom-up algorithm.

    Parameters mirror :class:`repro.core.builder.H2Constructor`; the only
    difference is that the block partition is built with weak admissibility,
    so the resulting format is HSS.  Returns the full
    :class:`~repro.core.builder.ConstructionResult` (the ``matrix`` attribute
    holds the HSS matrix as an :class:`~repro.hmatrix.h2matrix.H2Matrix` on the
    weak partition).
    """
    from ..core.builder import ConstructionConfig, H2Constructor

    partition = build_block_partition(tree, WeakAdmissibility())
    config = ConstructionConfig(
        tolerance=tolerance,
        sample_block_size=sample_block_size,
        max_samples=max_samples,
        backend=backend,
    )
    constructor = H2Constructor(partition, operator, extractor, config=config, seed=seed)
    return constructor.construct()
