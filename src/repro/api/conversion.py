"""Format-conversion registry between hierarchical representations.

``convert(op, "hodlr")`` turns any registered source format into the
requested target format through a ``(source class, target name)`` registry,
one entry point that third-party formats can extend via
:func:`register_conversion`.

Built-in conversions:

==============  ==========  ====================================================
source          target      notes
==============  ==========  ====================================================
``H2Matrix``    ``hodlr``   weak (HSS) partition: expand nested bases exactly;
                            strong partition: re-compress onto the weak
                            partition of the same tree with Algorithm 1
                            (:func:`~repro.core.recompression.recompress_h2`,
                            ``tol=`` / ``max_rank=`` forwarded, ``seed=0``),
                            then expand — either way the bridge to the HODLR
                            direct solver
``H2Matrix``    ``dense``   dense reconstruction (small problems)
``HODLRMatrix`` ``dense``   dense reconstruction
``HMatrix``     ``dense``   dense reconstruction
any             itself      identity (returned unchanged)
==============  ==========  ====================================================

A conversion either expands structure exactly or re-compresses with the
sketching constructor; none runs a second compression algorithm.
``"hss"`` is accepted as a target alias of ``"h2"`` for matrices already on
the weak partition (HSS *is* an H2 matrix there); requesting it for any
other operator raises :class:`ValueError`.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..core.config import ConstructionConfig
from ..core.recompression import recompress_h2
from ..hmatrix.h2matrix import H2Matrix
from ..hmatrix.hmatrix import HMatrix
from ..hmatrix.hodlr import HODLRMatrix, _hodlr_from_h2
from ..tree.admissibility import WeakAdmissibility
from ..tree.block_partition import build_block_partition

#: ``(source class, target format name) -> conversion callable``.
_CONVERSIONS: Dict[Tuple[type, str], Callable] = {}


def register_conversion(
    source_type: type, target_format: str, fn: Callable, overwrite: bool = False
) -> None:
    """Register ``fn(op, **kwargs)`` as the ``source_type -> target_format`` conversion.

    Lookup walks the source object's MRO, so registering a base class covers
    its subclasses.  Registering an existing pair raises :class:`ValueError`
    unless ``overwrite=True``.
    """
    key = (source_type, target_format.lower())
    if not overwrite and key in _CONVERSIONS:
        raise ValueError(
            f"conversion {source_type.__name__} -> {target_format!r} is already "
            "registered; pass overwrite=True to replace it"
        )
    _CONVERSIONS[key] = fn


def available_conversions() -> Tuple[Tuple[str, str], ...]:
    """Sorted ``(source class name, target format)`` pairs currently registered."""
    return tuple(
        sorted((cls.__name__, fmt) for cls, fmt in _CONVERSIONS)
    )


def convert(op: object, target_format: str, **kwargs: object):
    """Convert a hierarchical operator to ``target_format``.

    ``target_format`` is one of the registry names (``"h2"``, ``"hss"``,
    ``"hodlr"``, ``"dense"``, plus anything registered via
    :func:`register_conversion`); extra keyword arguments are forwarded to
    the conversion (e.g. ``tol=`` for the re-compression of a strong H2
    matrix to ``hodlr``).
    Converting an operator to its own format returns it unchanged.
    """
    fmt = target_format.lower()
    if fmt == "hss":
        # HSS *is* the H2 format on the weak partition — but only there;
        # silently passing a strong-admissibility matrix through would hand
        # downstream HSS consumers (HODLR factorization, GP) a wrong-format
        # operator.
        if isinstance(op, H2Matrix) and isinstance(
            op.partition.admissibility, WeakAdmissibility
        ):
            return op
        raise ValueError(
            "'hss' requires an H2 matrix on the weak-admissibility partition; "
            f"got {type(op).__name__}"
            + (
                f" on {type(op.partition.admissibility).__name__}"
                if isinstance(op, H2Matrix)
                else ""
            )
        )
    if getattr(op, "format_name", None) == fmt and not kwargs:
        return op
    for klass in type(op).__mro__:
        fn = _CONVERSIONS.get((klass, fmt))
        if fn is not None:
            return fn(op, **kwargs)
    targets = sorted(
        {f for cls, f in _CONVERSIONS if isinstance(op, cls)}
    )
    raise ValueError(
        f"no conversion from {type(op).__name__} to {target_format!r}; "
        f"available targets for this operator: {targets or 'none'}"
    )


# ----------------------------------------------------------- built-in bridges
def _recompress_weak(
    h2: H2Matrix, tol: float = 1e-6, max_rank: int | None = None
) -> H2Matrix:
    """``h2`` re-compressed onto the weak (HSS) partition of its own tree.

    Algorithm 1 with ``h2`` as the black-box sampler and entry evaluator
    (:func:`~repro.core.recompression.recompress_h2`), at ``tol`` /
    ``max_rank`` and ``seed=0`` so the result is deterministic; it applies on
    ``h2``'s backend.  This is how a strong-admissibility matrix reaches the
    HSS factorization (:func:`~repro.solvers.hss_factor.factorize`) and the
    HODLR format.
    """
    weak = recompress_h2(
        h2,
        partition=build_block_partition(h2.tree, WeakAdmissibility()),
        config=ConstructionConfig(tolerance=tol, max_rank=max_rank),
        seed=0,
    ).matrix
    weak.apply_backend = h2.apply_backend
    return weak


def _hodlr_from_h2_any(
    h2: H2Matrix, tol: float = 1e-6, max_rank: int | None = None
) -> HODLRMatrix:
    """Convert any H2 matrix to HODLR, whichever partition it lives on.

    On the weak (HSS) partition the nested bases expand *exactly* into
    non-nested low-rank sibling blocks (``tol``/``max_rank`` are ignored —
    no re-compression happens).  On a strong-admissibility partition the
    coupling structure does not match HODLR's sibling blocks, so the matrix
    is first re-compressed onto the weak partition (:func:`_recompress_weak`,
    accuracy governed by ``tol``, default ``1e-6``) and that is expanded.
    """
    if h2.weak_partition_defect() is not None:
        h2 = _recompress_weak(h2, tol=tol, max_rank=max_rank)
    return _hodlr_from_h2(h2)


def _to_dense(op, permuted: bool = False) -> np.ndarray:
    return op.to_dense(permuted=permuted)


register_conversion(H2Matrix, "hodlr", _hodlr_from_h2_any)
register_conversion(H2Matrix, "dense", _to_dense)
register_conversion(HODLRMatrix, "dense", _to_dense)
register_conversion(HMatrix, "dense", _to_dense)
