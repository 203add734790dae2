"""Recompression of an existing H2 matrix, optionally with a low-rank update.

The third application in the paper updates an existing H2 representation of a
covariance matrix with an additional rank-32 low-rank product and compresses
the sum into a new H2 matrix — the operation at the heart of hierarchical LU
factorization and multifrontal Schur-complement updates.  The black-box
sampler is the fast H2 matvec plus the low-rank matvec; the entry evaluator
extracts entries from the H2 and low-rank representations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hmatrix.h2matrix import H2Matrix
from ..linalg.low_rank import LowRankMatrix
from ..sketching.entry_extractor import (
    H2EntryExtractor,
    LowRankEntryExtractor,
    SumEntryExtractor,
)
from ..sketching.operators import H2Operator, LowRankOperator, SumOperator
from ..tree.admissibility import WeakAdmissibility
from ..tree.block_partition import BlockPartition, build_block_partition
from ..utils.rng import SeedLike
from .builder import ConstructionResult, H2Constructor
from .config import ConstructionConfig


def recompress_h2(
    h2: H2Matrix,
    low_rank_update: Optional[LowRankMatrix] = None,
    config: ConstructionConfig | None = None,
    partition: BlockPartition | None = None,
    seed: SeedLike = None,
) -> ConstructionResult:
    """Compress ``h2 (+ low_rank_update)`` into a fresh H2 matrix via Algorithm 1.

    Parameters
    ----------
    h2:
        The existing H2 matrix (acts as the fast black-box sampler and as part
        of the entry evaluator).
    low_rank_update:
        Optional explicit low-rank update ``U V^T`` (given in the cluster-tree
        permuted ordering) added to ``h2`` before recompression.  The paper's
        experiments use a random rank-32 update.
    config:
        Construction configuration; defaults to :class:`ConstructionConfig`.
    partition:
        Block partition of the output matrix.  Defaults to the partition of
        the input matrix (the common case for low-rank updates, where the
        geometry does not change).
    seed:
        Seed or generator for the sketching vectors.

    The construction runs under the tracer ``h2`` is bound to
    (:meth:`H2Matrix.bind`), so a bound base matrix traces its
    recompression (``result.trace``); its launches are counted on the
    backend of ``config``.  The result is bound as ``h2`` is: it applies on
    ``h2``'s backend and records its ``apply`` spans to ``h2``'s tracer.

    Returns
    -------
    ConstructionResult
        The construction result whose ``matrix`` approximates
        ``h2 + low_rank_update``.
    """
    target_partition = partition if partition is not None else h2.partition
    if target_partition.tree.num_points != h2.num_rows:
        raise ValueError("partition dimension does not match the input H2 matrix")

    operators = [H2Operator(h2)]
    extractors = [H2EntryExtractor(h2)]
    if low_rank_update is not None:
        if low_rank_update.shape != (h2.num_rows, h2.num_rows):
            raise ValueError(
                "low-rank update must be square with the same dimension as the H2 matrix"
            )
        operators.append(LowRankOperator(low_rank_update))
        extractors.append(LowRankEntryExtractor(low_rank_update))

    operator = operators[0] if len(operators) == 1 else SumOperator(operators)
    extractor = extractors[0] if len(extractors) == 1 else SumEntryExtractor(extractors)

    constructor = H2Constructor(
        target_partition, operator, extractor, config=config, seed=seed,
        tracer=h2.apply_tracer,
    )
    result = constructor.construct()
    result.matrix.bind(h2.apply_backend, h2.apply_tracer)
    return result


def _recompress_weak(
    h2: H2Matrix,
    tol: float = 1e-6,
    max_rank: int | None = None,
) -> H2Matrix:
    """``h2`` re-compressed onto the weak (HSS) partition of its own tree.

    Algorithm 1 with ``h2`` as the black-box sampler and entry evaluator
    (as :func:`recompress_h2`), at ``tol`` / ``max_rank`` and ``seed=0`` so
    the result is deterministic.  It constructs on ``h2``'s binding (its
    apply backend, hence that backend's launch counter, and its tracer), and
    the weak matrix is bound as ``h2`` is.  This is how a
    strong-admissibility matrix reaches the HSS factorization
    (:func:`~repro.solvers.hss_factor.factorize`).
    """
    backend, tracer = h2.apply_backend, h2.apply_tracer
    weak = H2Constructor(
        build_block_partition(h2.tree, WeakAdmissibility()),
        H2Operator(h2),
        H2EntryExtractor(h2),
        config=ConstructionConfig(tolerance=tol, max_rank=max_rank, backend=backend),
        seed=0,
        tracer=tracer,
    ).construct().matrix
    return weak.bind(backend, tracer)

