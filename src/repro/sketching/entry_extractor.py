"""Entry-evaluation functions (the ``batchedGen`` input of Algorithm 1).

The construction evaluates two kinds of sub-blocks directly: the dense
inadmissible leaf blocks ``D_{tau,b} = K(I_tau, I_b)`` and the coupling blocks
``B_{s,t} = K(I~_s, I~_t)`` at the skeleton indices.  On the GPU all blocks of
a level are generated with a single batched kernel launch;
:meth:`EntryExtractor.extract_blocks` plays that role.  Requests are grouped
by block shape and every group is one vectorised evaluation of the
``(g, p, q)`` stack (``_extract_stacked``, one ``batched_gen`` launch): a
dense-matrix extractor gathers all blocks with a single fancy index, a
radial-kernel extractor runs one batched distance computation followed by a
single ``profile_with_diagonal`` call, a low-rank extractor one batched GEMM,
:class:`H2EntryExtractor` hands the stack to the matrix's compiled
:class:`~repro.batched.entry_plan.H2EntryPlan` (a number of passes set by the
tree depth, not by the number of blocks) and :class:`SumEntryExtractor` adds
the stacks of its terms.  Extractors without ``supports_stacked`` evaluate a
group block by block.
:meth:`EntryExtractor.extract_blocks_into` additionally writes every block into
a zero-padded stack of one uniform shape, producing the stacked
operand layout the compiled construction engine
(:mod:`repro.batched.construction_plan`) feeds straight into
``batched_gemm_scatter``.

All index arrays refer to the cluster-tree permuted ordering and are validated
once per shape group: a non-integer dtype or an index outside ``[0, n)``
raises :class:`IndexError`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..batched.counters import KernelLaunchCounter
from ..kernels.base import KernelFunction, PairwiseKernel, pairwise_distances_stacked
from ..linalg.low_rank import LowRankMatrix
from ..utils.validation import as_index_array, check_index_range


class EntryExtractor(ABC):
    """Evaluates arbitrary sub-blocks of the matrix being compressed."""

    #: Whether :meth:`_extract_stacked` evaluates a whole shape group in one
    #: vectorised pass (otherwise batched requests fall back to a block loop).
    supports_stacked: bool = False

    def __init__(self) -> None:
        #: Total number of matrix entries evaluated (paper: O(r N) overall).
        self.entries_evaluated: int = 0

    @property
    @abstractmethod
    def n(self) -> int:
        """Matrix dimension."""

    @abstractmethod
    def _extract(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Evaluate the sub-block ``K[rows, cols]``."""

    def _extract_stacked(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Evaluate a uniform stack of sub-blocks ``K[rows[i], cols[i]]``.

        ``rows``/``cols`` are ``(g, p)`` / ``(g, q)`` index arrays; the result
        is the ``(g, p, q)`` stack.  Only called when ``supports_stacked``.
        """
        raise NotImplementedError

    def extract(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows, cols = as_index_array(rows), as_index_array(cols)
        check_index_range(rows, self.n)
        check_index_range(cols, self.n)
        self.entries_evaluated += int(rows.shape[0] * cols.shape[0])
        if rows.size == 0 or cols.size == 0:
            return np.zeros((rows.shape[0], cols.shape[0]), dtype=np.float64)
        return np.asarray(self._extract(rows, cols), dtype=np.float64)

    def _evaluate_shape_groups(
        self,
        requests: Sequence[Tuple[np.ndarray, np.ndarray]],
        counter: KernelLaunchCounter | None,
    ):
        """Group requests by exact block shape and evaluate group by group.

        The shared core of :meth:`extract_blocks` and
        :meth:`extract_blocks_into`: records one ``batched_gen`` launch per
        shape group, checks the indices of each group, evaluates it in a
        single vectorised pass when ``supports_stacked`` (falling back to a
        per-block loop otherwise or for singleton groups) and yields
        ``((p, q), indices, stacked)`` with ``stacked`` of shape
        ``(len(indices), p, q)``.  Zero-size shapes yield ``stacked=None``.
        """
        reqs = [(as_index_array(rows), as_index_array(cols)) for rows, cols in requests]
        groups: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for i, (rows, cols) in enumerate(reqs):
            groups[(int(rows.shape[0]), int(cols.shape[0]))].append(i)
        if counter is not None:
            counter.record("batched_gen", len(groups))
        n = self.n
        for (p, q), indices in groups.items():
            rows_idx = np.stack([reqs[i][0] for i in indices])
            cols_idx = np.stack([reqs[i][1] for i in indices])
            check_index_range(rows_idx, n)
            check_index_range(cols_idx, n)
            self.entries_evaluated += len(indices) * p * q
            if p == 0 or q == 0:
                stacked = None
            elif not self.supports_stacked or len(indices) == 1:
                stacked = np.stack(
                    [self._extract(rows, cols) for rows, cols in zip(rows_idx, cols_idx)]
                ).astype(np.float64, copy=False)
            else:
                stacked = np.asarray(
                    self._extract_stacked(rows_idx, cols_idx), dtype=np.float64
                )
            yield (p, q), indices, stacked

    def extract_blocks(
        self,
        requests: Sequence[Tuple[np.ndarray, np.ndarray]],
        counter: KernelLaunchCounter | None = None,
    ) -> List[np.ndarray]:
        """Evaluate a batch of sub-blocks (the batched entry generator).

        One call evaluates all dense or coupling blocks of a level.  Requests
        are grouped by block shape; every group is one vectorised evaluation
        (one "kernel launch", recorded in ``counter`` when given) for
        extractors with ``supports_stacked``, and one launch covering the
        per-block loop otherwise.  An empty request list records nothing.
        """
        if not requests:
            return []
        out: List[np.ndarray | None] = [None] * len(requests)
        for (p, q), indices, stacked in self._evaluate_shape_groups(requests, counter):
            for pos, i in enumerate(indices):
                out[i] = np.zeros((p, q)) if stacked is None else stacked[pos]
        return out  # type: ignore[return-value]

    def extract_blocks_into(
        self,
        out: np.ndarray,
        slots: Sequence[int],
        requests: Sequence[Tuple[np.ndarray, np.ndarray]],
        counter: KernelLaunchCounter | None = None,
    ) -> None:
        """Evaluate ``requests[i]`` into ``out[slots[i], :len(rows), :len(cols)]``.

        ``out`` is a zero-initialised ``(g, pr, pc)`` stack; slots no request
        names are left untouched (the compiled construction fills them with
        the transposes of their mirrored twins).  Requests are grouped by
        exact shape like :meth:`extract_blocks`; each group's stacked result
        is scattered into ``out`` with one fancy write, so only real entries
        are ever evaluated or moved.  A block larger than the padding raises
        :class:`ValueError`.
        """
        if not requests:
            return
        pad_rows, pad_cols = int(out.shape[1]), int(out.shape[2])
        slots = np.asarray(slots, dtype=np.int64)
        for (p, q), indices, stacked in self._evaluate_shape_groups(requests, counter):
            if p > pad_rows or q > pad_cols:
                raise ValueError(
                    f"a ({p}, {q}) block does not fit the ({pad_rows}, {pad_cols}) padding"
                )
            if stacked is not None:
                out[slots[indices], :p, :q] = stacked

    def __call__(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.extract(rows, cols)


class DenseEntryExtractor(EntryExtractor):
    """Entries of an explicit dense matrix (permuted ordering)."""

    supports_stacked = True

    def __init__(self, matrix: np.ndarray):
        super().__init__()
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("DenseEntryExtractor requires a square matrix")

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    def _extract(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.matrix[np.ix_(rows, cols)]

    def _extract_stacked(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.matrix[rows[:, :, None], cols[:, None, :]]


class KernelEntryExtractor(EntryExtractor):
    """Entries of a kernel matrix over a (permuted) point set.

    Radial (:class:`~repro.kernels.base.PairwiseKernel`) kernels evaluate
    stacked block batches with one batched distance computation followed by a
    single ``profile_with_diagonal`` pass over the whole stack.
    """

    def __init__(self, kernel: KernelFunction, points: np.ndarray):
        super().__init__()
        self.kernel = kernel
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("points must be a (n, dim) array")

    @property
    def supports_stacked(self) -> bool:  # type: ignore[override]
        return isinstance(self.kernel, PairwiseKernel)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    def _extract(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.kernel.evaluate(self.points[rows], self.points[cols])

    def _extract_stacked(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        r = pairwise_distances_stacked(self.points[rows], self.points[cols])
        return self.kernel.profile_with_diagonal(r)


class H2EntryExtractor(EntryExtractor):
    """Entries of an existing H2 matrix (used by the low-rank update application).

    A shape group is one call into the matrix's compiled
    :class:`~repro.batched.entry_plan.H2EntryPlan`.
    """

    supports_stacked = True

    def __init__(self, h2matrix) -> None:
        super().__init__()
        self.h2matrix = h2matrix

    @property
    def n(self) -> int:
        return int(self.h2matrix.num_rows)

    def _extract(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.h2matrix.get_block(rows, cols, permuted=True)

    def _extract_stacked(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.h2matrix.entry_plan().evaluate(rows, cols)


class LowRankEntryExtractor(EntryExtractor):
    """Entries of an explicit low-rank matrix ``U V^T``."""

    supports_stacked = True

    def __init__(self, low_rank: LowRankMatrix):
        super().__init__()
        self.low_rank = low_rank

    @property
    def n(self) -> int:
        return int(self.low_rank.shape[0])

    def _extract(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.low_rank.entries(rows, cols)

    def _extract_stacked(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.low_rank.left[rows] @ self.low_rank.right[cols].transpose(0, 2, 1)


class SumEntryExtractor(EntryExtractor):
    """Entrywise sum of several extractors (H2 matrix + low-rank update)."""

    def __init__(self, extractors: Sequence[EntryExtractor]):
        super().__init__()
        if not extractors:
            raise ValueError("SumEntryExtractor requires at least one extractor")
        sizes = {e.n for e in extractors}
        if len(sizes) != 1:
            raise ValueError(f"extractors have inconsistent sizes: {sorted(sizes)}")
        self.extractors = list(extractors)

    @property
    def n(self) -> int:
        return int(self.extractors[0].n)

    @property
    def supports_stacked(self) -> bool:  # type: ignore[override]
        return all(e.supports_stacked for e in self.extractors)

    def _extract(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        result = self.extractors[0]._extract(rows, cols)
        for extractor in self.extractors[1:]:
            result = result + extractor._extract(rows, cols)
        return result

    def _extract_stacked(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        result = self.extractors[0]._extract_stacked(rows, cols)
        for extractor in self.extractors[1:]:
            result = result + extractor._extract_stacked(rows, cols)
        return result
