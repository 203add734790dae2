"""Admissibility conditions for the dual tree traversal.

The paper uses the *general admissibility condition* (Eq. 1)

    adm(s, t) = 1   iff   (D(s) + D(t)) / 2 <= eta * Dist(s, t)

where ``D`` is the bounding-box diameter of a cluster and ``Dist`` the
distance between the two bounding boxes.  ``eta >= 1`` corresponds to weak
admissibility and ``eta <= 0.5`` to strong admissibility; the experiments use
``eta`` in {0.5, 0.7}.

:class:`WeakAdmissibility` implements the HODLR/HSS partition (every
off-diagonal sibling block is admissible) so the same bottom-up constructor
can produce HSS matrices for the Fig. 6(b) comparison.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .cluster_tree import ClusterTree, _row_norms


class AdmissibilityCondition(ABC):
    """Decides whether the block defined by a cluster pair is low-rank compressible."""

    @abstractmethod
    def is_admissible(self, tree: ClusterTree, s: int, t: int) -> bool:
        """Return ``True`` when block ``(s, t)`` may be stored in low-rank form."""

    def admissible_mask(
        self, tree: ClusterTree, s: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """:meth:`is_admissible` for the pairs ``(s[i], t[i])`` as a boolean array.

        The dual tree traversal tests one level of pairs per call.  This
        default asks :meth:`is_admissible` pair by pair, so a condition that
        defines only the scalar test works unchanged; the built-in conditions
        override it with array expressions.
        """
        return np.fromiter(
            (self.is_admissible(tree, int(a), int(b)) for a, b in zip(s, t)),
            dtype=bool,
            count=len(s),
        )

    def __call__(self, tree: ClusterTree, s: int, t: int) -> bool:
        return self.is_admissible(tree, s, t)


@dataclass(frozen=True)
class GeneralAdmissibility(AdmissibilityCondition):
    """The distance-based general admissibility condition of Eq. (1).

    Parameters
    ----------
    eta:
        Separation parameter.  Smaller values demand more separation before a
        block is declared admissible, producing a finer partition with a
        larger sparsity constant ``Csp`` (Fig. 4).
    """

    eta: float = 0.7

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError("eta must be positive")

    def admissible_mask(
        self, tree: ClusterTree, s: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        low, high = tree.box_low, tree.box_high
        gap = np.maximum(0.0, np.maximum(low[s] - high[t], low[t] - high[s]))
        dist = _row_norms(gap)
        diameters = tree.diameters
        avg_diam = 0.5 * (diameters[s] + diameters[t])
        return (s != t) & (dist > 0.0) & (avg_diam <= self.eta * dist)

    def is_admissible(self, tree: ClusterTree, s: int, t: int) -> bool:
        return bool(self.admissible_mask(tree, np.array([s]), np.array([t]))[0])


@dataclass(frozen=True)
class WeakAdmissibility(AdmissibilityCondition):
    """HODLR-style weak admissibility: any off-diagonal sibling block is admissible.

    Running the bottom-up constructor with this condition yields an HSS
    representation (nested bases on the HODLR partition), which is the
    Martinsson (2011) algorithm the paper generalises.
    """

    def admissible_mask(
        self, tree: ClusterTree, s: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        return np.asarray(s) != np.asarray(t)

    def is_admissible(self, tree: ClusterTree, s: int, t: int) -> bool:
        return bool(self.admissible_mask(tree, np.array([s]), np.array([t]))[0])
