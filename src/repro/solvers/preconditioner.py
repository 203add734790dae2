"""Hierarchical preconditioning: loose sketched factorizations inside Krylov loops.

The paper's application scenario (Fig. 6b) compresses frontal matrices so a
sparse direct solver can afford them as *approximate* factors; the same idea
applies to dense kernel systems.  A :class:`HierarchicalPreconditioner` runs
the existing sketching constructor at a **loose tolerance** (orders of
magnitude looser than the solve tolerance) and factors its weak-admissibility
(HSS) output once, on the nested generators themselves
(:class:`~repro.solvers.hss_factor.HSSFactorization`); each Krylov iteration
then applies ``M^{-1}`` through that near-linear solve.  Because the construction cost scales with the (low) preconditioner
rank, the setup is cheap even when the accurate compression would not be.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from ..hmatrix.hodlr import HODLRMatrix, build_hodlr
from ..hmatrix.hss import _build_hss
from ..tree.cluster_tree import ClusterTree
from ..utils.rng import SeedLike
from .hodlr_factor import HODLRFactorization
from .hss_factor import HSSFactorization, factorize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.builder import ConstructionResult
    from ..sketching.entry_extractor import EntryExtractor
    from ..sketching.operators import SketchingOperator


class HierarchicalPreconditioner:
    """Apply ``M^{-1}`` from an approximate hierarchical factorization.

    Instances are accepted directly as the ``M`` argument of
    :func:`repro.solvers.krylov.cg` / ``gmres`` / ``bicgstab``.  Use the
    classmethods to build one:

    * :meth:`from_operator` — run the paper's sketching constructor (weak
      admissibility, i.e. ``repro.compress(..., format="hss")``) on a black-box
      operator at a loose tolerance; the intended path when the system matrix
      is only available through matvecs.
    * :meth:`from_entries` — ACA-build a HODLR approximation from an
      entry-evaluation function.
    * :meth:`from_hodlr` — wrap an already-built HODLR matrix.
    """

    def __init__(
        self,
        factorization: "HSSFactorization | HODLRFactorization",
        construction: Optional["ConstructionResult"] = None,
        setup_seconds: float = 0.0,
    ):
        self.factorization = factorization
        #: The loose :class:`~repro.core.builder.ConstructionResult` when the
        #: preconditioner was built with the sketching constructor.
        self.construction = construction
        self.setup_seconds = float(setup_seconds)

    # ---------------------------------------------------------------- builders
    @classmethod
    def from_operator(
        cls,
        tree: ClusterTree,
        operator: "SketchingOperator",
        extractor: "EntryExtractor",
        tolerance: float = 1e-2,
        shift: float = 0.0,
        sample_block_size: int = 64,
        max_samples: int | None = None,
        backend: str = "vectorized",
        seed: SeedLike = None,
    ) -> "HierarchicalPreconditioner":
        """Sketch an HSS approximation at ``tolerance`` and factor it.

        ``shift`` is added to the diagonal of the *factorization* only — the
        preconditioner approximates ``(A + shift I)^{-1}`` — which keeps a
        loose factorization of a barely-positive-definite matrix stable.
        """
        start = time.perf_counter()
        result = _build_hss(
            tree,
            operator,
            extractor,
            tolerance=tolerance,
            sample_block_size=sample_block_size,
            max_samples=max_samples,
            backend=backend,
            seed=seed,
        )
        factorization = factorize(result.matrix, shift=shift)
        return cls(
            factorization,
            construction=result,
            setup_seconds=time.perf_counter() - start,
        )

    @classmethod
    def from_entries(
        cls,
        tree: ClusterTree,
        entries: Callable[[np.ndarray, np.ndarray], np.ndarray],
        tolerance: float = 1e-2,
        shift: float = 0.0,
        max_rank: int | None = None,
    ) -> "HierarchicalPreconditioner":
        """ACA-build a HODLR approximation from permuted-index entries and factor it."""
        start = time.perf_counter()
        hodlr = build_hodlr(tree, entries, tol=tolerance, max_rank=max_rank)
        factorization = HODLRFactorization(hodlr, shift=shift)
        return cls(factorization, setup_seconds=time.perf_counter() - start)

    @classmethod
    def from_hodlr(
        cls, hodlr: HODLRMatrix, shift: float = 0.0
    ) -> "HierarchicalPreconditioner":
        return cls(HODLRFactorization(hodlr, shift=shift))

    # ------------------------------------------------------------------- apply
    def solve(self, b: np.ndarray) -> np.ndarray:
        """``M^{-1} b`` in the original point ordering (the Krylov convention)."""
        return self.factorization.solve(b)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.solve(b)

    # ------------------------------------------------------------- diagnostics
    def statistics(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "n": self.factorization.tree.num_points,
            "factor_memory_mb": self.factorization.memory_bytes() / 2**20,
            "setup_seconds": self.setup_seconds,
            "shift": self.factorization.shift,
        }
        if self.construction is not None:
            lo, hi = self.construction.rank_range
            stats["construction_tolerance"] = self.construction.config.tolerance
            stats["rank_range"] = f"{lo}-{hi}"
            stats["total_samples"] = self.construction.total_samples
            stats["construction_kernel_calls"] = self.construction.total_kernel_calls
        return stats
