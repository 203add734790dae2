"""The exclusive prefix sum that lays out variable-size blocks in a flat buffer.

The GPU implementation in the paper avoids many small device allocations by
computing, per level, the offsets of every block with a parallel prefix sum
over block dimensions.  The compiled entry evaluation
(:mod:`repro.batched.entry_plan`) uses the same bookkeeping for its flat block
buffers and ragged index ranges; every other batched buffer is a uniform
``(count + 1, rows, k)`` stack.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def exclusive_prefix_sum(sizes: Sequence[int]) -> np.ndarray:
    """Return the exclusive prefix sum of ``sizes`` as an ``int64`` array.

    The result has the same length as ``sizes``; element ``i`` holds the sum of
    all elements strictly before ``i``.

    Examples
    --------
    >>> exclusive_prefix_sum([2, 3, 1]).tolist()
    [0, 2, 5]
    """
    arr = np.asarray(sizes, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("sizes must be one-dimensional")
    out = np.zeros(arr.shape[0], dtype=np.int64)
    if arr.shape[0] > 1:
        np.cumsum(arr[:-1], out=out[1:])
    return out
