"""Entry-evaluation functions (the ``batchedGen`` input of Algorithm 1).

The construction evaluates two kinds of sub-blocks directly: the dense
inadmissible leaf blocks ``D_{tau,b} = K(I_tau, I_b)`` and the coupling blocks
``B_{s,t} = K(I~_s, I~_t)`` at the skeleton indices.  On the GPU all blocks of
a level are generated with a single batched kernel launch;
:meth:`EntryExtractor.extract_blocks` plays that role and
:meth:`EntryExtractor.extract_blocks_padded` additionally zero-pads every
block to one uniform shape, producing the stacked operand layout the compiled
construction engine (:mod:`repro.batched.construction_plan`) feeds straight
into ``batched_gemm_scatter``.

Both evaluate the whole request list through one hook, :meth:`EntryExtractor._fill`:

* by default requests are grouped by block shape and every group is one
  vectorised evaluation of the ``(g, p, q)`` stack (``_extract_stacked``: a
  dense-matrix extractor gathers all blocks with a single fancy index, a
  radial-kernel extractor runs one batched distance computation followed by a
  single ``profile_with_diagonal`` call, a low-rank extractor one batched
  GEMM); extractors without ``supports_stacked`` evaluate a group block by
  block;
* :class:`H2EntryExtractor` hands the whole (ragged) list to the matrix's
  compiled :class:`~repro.batched.entry_plan.H2EntryPlan`, which evaluates it
  in O(levels) passes however many requests and shapes it holds;
* :class:`SumEntryExtractor` fills one output per term and adds the stacks.

Whatever the evaluation path, one ``batched_gen`` launch is recorded per shape
group — the dispatch granularity the constructor sees.  Index arrays refer to
the cluster-tree permuted ordering and are validated once per batch: a
non-integer dtype or an index outside ``[0, n)`` raises :class:`IndexError`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..batched.counters import KernelLaunchCounter
from ..kernels.base import KernelFunction, PairwiseKernel, pairwise_distances_stacked
from ..linalg.low_rank import LowRankMatrix
from ..utils.prefix_sum import exclusive_prefix_sum
from ..utils.validation import as_index_requests

#: One normalised request: ``(rows, cols)`` as ``int64`` arrays.
Request = Tuple[np.ndarray, np.ndarray]
#: Request positions by exact block shape ``(p, q)``.
ShapeGroups = Dict[Tuple[int, int], List[int]]


class EntryExtractor(ABC):
    """Evaluates arbitrary sub-blocks of the matrix being compressed."""

    #: Whether :meth:`_extract_stacked` evaluates a whole shape group in one
    #: vectorised pass (otherwise a group is evaluated block by block).
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

    def _fill(
        self,
        reqs: Sequence[Request],
        groups: ShapeGroups,
        out: np.ndarray,
        base: np.ndarray,
        stride: np.ndarray,
    ) -> None:
        """Write the block of every request into the zero-initialised ``out``.

        ``out`` is either the ``(g, pad_rows, pad_cols)`` stack of
        :meth:`extract_blocks_padded` or the flat buffer of
        :meth:`extract_blocks`, which stores the blocks shape group by shape
        group; in both, entry ``(a, b)`` of request ``i`` lives at flat
        position ``base[i] + a*stride[i] + b``.  The default evaluates shape
        group by shape group.
        """
        for (p, q), indices in groups.items():
            if p == 0 or q == 0:
                continue
            if not self.supports_stacked or len(indices) == 1:
                stacked = [self._extract(*reqs[i]) for i in indices]
            else:
                stacked = self._extract_stacked(
                    np.stack([reqs[i][0] for i in indices]),
                    np.stack([reqs[i][1] for i in indices]),
                )
            if out.ndim == 3:
                out[np.asarray(indices, dtype=np.int64), :p, :q] = stacked
            else:  # the flat buffer stores the blocks of a group back to back
                start = int(base[indices[0]])
                out[start : start + len(indices) * p * q] = np.reshape(stacked, -1)

    def _begin_batch(
        self,
        requests: Sequence[Tuple[np.ndarray, np.ndarray]],
        counter: KernelLaunchCounter | None,
    ) -> Tuple[List[Request], ShapeGroups, np.ndarray, np.ndarray]:
        """Validate a batch, record its launches and return its shape table."""
        reqs = as_index_requests(requests, self.n)
        p = np.fromiter((rows.size for rows, _ in reqs), dtype=np.int64, count=len(reqs))
        q = np.fromiter((cols.size for _, cols in reqs), dtype=np.int64, count=len(reqs))
        groups: ShapeGroups = {}
        for i, shape in enumerate(zip(p.tolist(), q.tolist())):
            groups.setdefault(shape, []).append(i)
        if counter is not None and reqs:
            counter.record("batched_gen", len(groups))
        self.entries_evaluated += int(p @ q)
        return reqs, groups, p, q

    def extract(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        ((rows, cols),) = as_index_requests([(rows, cols)], self.n)
        self.entries_evaluated += int(rows.shape[0] * cols.shape[0])
        if rows.size == 0 or cols.size == 0:
            return np.zeros((rows.shape[0], cols.shape[0]), dtype=np.float64)
        return np.asarray(self._extract(rows, cols), dtype=np.float64)

    def extract_blocks(
        self,
        requests: Sequence[Tuple[np.ndarray, np.ndarray]],
        counter: KernelLaunchCounter | None = None,
    ) -> List[np.ndarray]:
        """Evaluate a batch of sub-blocks (the batched entry generator).

        One call evaluates all dense or coupling blocks of a level; one
        "kernel launch" per distinct block shape is recorded in ``counter``
        when given (an empty request list records nothing).  The returned
        blocks are views into one shared buffer.
        """
        reqs, groups, p, q = self._begin_batch(requests, counter)
        sizes = p * q
        order = np.fromiter(
            (i for indices in groups.values() for i in indices),
            dtype=np.int64, count=len(reqs),
        )
        base = np.empty(len(reqs), dtype=np.int64)
        base[order] = exclusive_prefix_sum(sizes[order])
        out = np.zeros(int(sizes.sum()), dtype=np.float64)
        self._fill(reqs, groups, out, base, q)
        return [
            out[b : b + s].reshape(shape)
            for b, s, shape in zip(base.tolist(), sizes.tolist(), zip(p.tolist(), q.tolist()))
        ]

    def extract_blocks_padded(
        self,
        requests: Sequence[Tuple[np.ndarray, np.ndarray]],
        pad_rows: int,
        pad_cols: int,
        counter: KernelLaunchCounter | None = None,
    ) -> np.ndarray:
        """Evaluate a batch of sub-blocks into one zero-padded ``(g, pr, pc)`` stack.

        Every request's block lands in ``out[i, :len(rows), :len(cols)]`` with
        exact zeros in the padding — the layout the compiled construction
        engine stacks into batched GEMM operands.  Launches are recorded like
        :meth:`extract_blocks`; only real entries are ever evaluated or moved.
        """
        reqs, groups, p, q = self._begin_batch(requests, counter)
        g, pad_rows, pad_cols = len(reqs), int(pad_rows), int(pad_cols)
        if g and (p.max() > pad_rows or q.max() > pad_cols):
            raise ValueError(
                f"a ({int(p.max())}, {int(q.max())}) block does not fit the "
                f"({pad_rows}, {pad_cols}) padding"
            )
        out = np.zeros((g, pad_rows, pad_cols), dtype=np.float64)
        base = np.arange(g, dtype=np.int64) * (pad_rows * pad_cols)
        self._fill(reqs, groups, out, base, np.full(g, pad_cols, dtype=np.int64))
        return out

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

    Batches go to the matrix's compiled
    :class:`~repro.batched.entry_plan.H2EntryPlan` as a whole.
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
        g, p = rows.shape
        q = cols.shape[1]
        out = np.zeros((g, p, q), dtype=np.float64)
        self.h2matrix.entry_plan().evaluate(
            list(zip(rows, cols)), out.reshape(-1),
            np.arange(g, dtype=np.int64) * (p * q), np.full(g, q, dtype=np.int64),
        )
        return out

    def _fill(self, reqs, groups, out, base, stride) -> None:
        self.h2matrix.entry_plan().evaluate(reqs, out.reshape(-1), base, stride)


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
        return sum(e._extract(rows, cols) for e in self.extractors)

    def _extract_stacked(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return sum(e._extract_stacked(rows, cols) for e in self.extractors)

    def _fill(self, reqs, groups, out, base, stride) -> None:
        self.extractors[0]._fill(reqs, groups, out, base, stride)
        for extractor in self.extractors[1:]:
            term = np.zeros_like(out)
            extractor._fill(reqs, groups, term, base, stride)
            out += term
