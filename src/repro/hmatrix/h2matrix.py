"""The H2 matrix data structure.

An :class:`H2Matrix` combines

* a cluster tree and block partition (Fig. 1-2),
* a nested basis tree ``U``/``E`` (Fig. 3),
* coupling matrices ``B_{s,t}`` for every admissible leaf pair, and
* dense matrices ``D_{s,t}`` for every inadmissible leaf pair,

and provides the linear-complexity matrix-vector product (upward pass /
coupling phase / downward pass / dense phase), entry evaluation (used when an
existing H2 matrix serves as the entry evaluator of a new construction, e.g.
the low-rank update experiments), memory accounting for the Fig. 6 plots, and
dense reconstruction for validation on small problems.

The matrix acts on vectors in the *original* point ordering by default; the
internal representation lives in the cluster-tree permuted ordering.  It is
the one operator type of the product: :func:`repro.compress` and
:class:`repro.Session` return it, and :func:`repro.factorize`,
:mod:`repro.persist` and :mod:`repro.serve` take it.

Apply engine
------------
``matvec`` / ``matmat`` and the transpose applies ``rmatvec`` / ``rmatmat``
execute through a *compiled batched plan*
(:mod:`repro.batched.apply_plan`): the matrix is flattened into per-level
stacked block batches which then run as O(levels) batched launches on a
pluggable :class:`~repro.batched.backend.BatchedBackend`.  The plan's dense
and coupling operands are the blocks' only copy: a constructed matrix comes
with the plan that adopted the construction sweep's operands, any other
matrix compiles one on first use, and either way the ``dense`` /
``coupling`` dicts hold views into it (:meth:`H2Matrix.adopt_plan`).  The
transpose applies run the same plan.  A matrix applies under one binding
(:meth:`H2Matrix.bind`): its backend (:attr:`H2Matrix.apply_backend`) and
the tracer its ``apply`` spans go to (:attr:`H2Matrix.apply_tracer`).  The
launch statistics accumulate in the backend's
:class:`~repro.batched.counters.KernelLaunchCounter`.  The compiled plan is
the only apply; the per-node reference loop it is tested against lives in
the test-suite (``tests/oracles.py``).

Entry evaluation
----------------
:meth:`H2Matrix.get_block` evaluates ``A[rows, cols]`` through a second
compiled plan (:mod:`repro.batched.entry_plan`, cached next to the apply
plan): indices are mapped to leaves with one ``searchsorted``, the governing
partition blocks are found by a vectorised walk up the tree, dense parts are
gathered and admissible parts run the nested-basis upsweep on the requested
rows only.  ``get_block`` is the batch-of-one case; request lists go
through :class:`~repro.sketching.entry_extractor.H2EntryExtractor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..tree.block_partition import BlockPartition
from ..tree.cluster_tree import ClusterTree
from ..utils.validation import as_index_array, check_index_range
from .basis_tree import BasisTree
from .mixin import HierarchicalOperatorMixin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..batched.apply_plan import H2ApplyPlan
    from ..batched.backend import BatchedBackend
    from ..batched.block_rows import FanOperands
    from ..batched.entry_plan import H2EntryPlan


@dataclass
class H2Matrix(HierarchicalOperatorMixin):
    """A symmetric H2 matrix over a cluster tree and block partition.

    The applies (``matvec``/``matmat``/``rmatvec``/``rmatmat``/``@``) come
    from :class:`~repro.hmatrix.mixin.HierarchicalOperatorMixin` and run the
    compiled batched plan under the matrix's binding (:meth:`bind`).  The transpose
    applies run the forward plan and need every stored pair mirrored,
    ``B_{t,s} = B_{s,t}^T`` and ``D_{t,s} = D_{s,t}^T`` exactly, as the
    constructor stores them; otherwise they raise ``ValueError`` (``matvec``
    still works).
    """

    format_name = "h2"

    tree: ClusterTree
    partition: BlockPartition
    basis: BasisTree
    #: ``coupling[(s, t)]`` is ``B_{s,t}`` of shape ``(rank(s), rank(t))``.
    coupling: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)
    #: ``dense[(s, t)]`` is ``D_{s,t}`` of shape ``(size(s), size(t))``.
    dense: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)
    #: Whether the matrix is symmetric (``V_t = U_t``); the constructor in this
    #: reproduction always produces symmetric representations, as in the paper.
    symmetric: bool = True
    #: The tolerance the construction finally ran at (``None``: unknown).
    tolerance: Optional[float] = field(default=None, init=False, compare=False)
    #: ``(backend, tracer)`` the applies run under; written by :meth:`bind` only.
    _binding: "Optional[Tuple[BatchedBackend, object]]" = field(
        default=None, init=False, repr=False, compare=False
    )
    _plan: "Optional[H2ApplyPlan]" = field(
        default=None, init=False, repr=False, compare=False
    )
    _entry_plan: "Optional[H2EntryPlan]" = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The dense and per-level coupling operands of a matrix stored as them
    #: (:meth:`from_operands`), until its first :meth:`apply_plan` adopts them.
    _operands: "Optional[Tuple[FanOperands, Dict[int, FanOperands]]]" = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_operands(
        cls,
        tree: ClusterTree,
        partition: BlockPartition,
        basis: BasisTree,
        coupling_shapes: Dict[Tuple[int, int], Tuple[int, int]],
        dense_shapes: Dict[Tuple[int, int], Tuple[int, int]],
        coupling_operands: Dict[int, "FanOperands"],
        dense_operands: "FanOperands",
        symmetric: bool = True,
    ) -> "H2Matrix":
        """The matrix whose blocks are stored as the forward operands of its
        apply plan (what :meth:`~repro.batched.apply_plan.H2ApplyPlan.block_operands`
        returns), as an artifact holds them.

        Every block of ``coupling_shapes`` / ``dense_shapes`` (dict order and
        shapes) becomes an exact-shape view of its slot, or an empty array
        when it has no slot; nothing is copied or compiled, and the first
        :meth:`apply_plan` adopts the operands.  Raises ``ValueError`` unless
        the operands are in that plan's layout (:meth:`FanOperands.check`)
        and every block without a slot is empty.
        """
        from ..batched.apply_plan import hat_layout
        from ..batched.block_rows import LeafLayout

        leaves = LeafLayout(tree)
        level_pos, level_rank = hat_layout(tree, basis)
        shapes = {"dense": dense_shapes, "coupling": coupling_shapes}
        stored = [("dense", dense_operands, leaves.pos, leaves.height)]
        for level, operands in coupling_operands.items():
            if level not in level_pos:
                raise ValueError(f"coupling operands of level {level}, which has no basis")
            stored.append(("coupling", operands, level_pos[level], level_rank[level]))
        views: Dict[str, Dict[Tuple[int, int], np.ndarray]] = {"dense": {}, "coupling": {}}
        for name, operands, pos, size in stored:
            try:
                block_shapes = [shapes[name][key] for key in operands.keys]
            except KeyError as exc:
                raise ValueError(f"{name} operand block {exc} is not a block") from exc
            operands.check(pos, (size, size), block_shapes)
            for key, view in zip(operands.keys, operands.views(block_shapes)):
                if key in views[name]:
                    raise ValueError(f"{name} block {key} sits in two operands")
                views[name][key] = view

        def blocks(name: str) -> Dict[Tuple[int, int], np.ndarray]:
            out = {}
            for key, shape in shapes[name].items():
                block = views[name].get(key)
                if block is None:
                    if shape[0] * shape[1]:
                        raise ValueError(f"{name} block {key} is stored in no operand")
                    block = np.zeros(shape)
                out[key] = block
            return out

        matrix = cls(
            tree=tree, partition=partition, basis=basis,
            coupling=blocks("coupling"), dense=blocks("dense"), symmetric=symmetric,
        )
        matrix._operands = (dense_operands, dict(coupling_operands))
        return matrix

    # ----------------------------------------------------------------- basics
    @property
    def shape(self) -> Tuple[int, int]:
        n = self.tree.num_points
        return (n, n)

    def rank_range(self) -> Tuple[int, int]:
        return self.basis.rank_range()

    def level_ranks(self) -> Dict[int, list]:
        """Basis ranks per tree level, leaves included, for the health
        telemetry's rank histograms (levels whose nodes carry no basis — the
        root — are omitted)."""
        out: Dict[int, list] = {}
        for level in range(self.tree.num_levels):
            ranks = [
                int(self.basis.rank(node))
                for node in self.tree.nodes_at_level(level)
                if self.basis.has_basis(node)
            ]
            if ranks:
                out[level] = ranks
        return out

    def weak_partition_defect(self) -> Optional[str]:
        """Why this is not an HSS matrix, or ``None`` when it is one.

        HSS means the weak partition: dense blocks on the leaf diagonal only
        and coupling blocks between siblings only — what the exact HSS
        factorization and the exact HODLR expansion both require.
        """
        for s, t in self.dense:
            if s != t:
                return f"dense off-diagonal block ({s}, {t})"
        for s, t in self.coupling:
            if s == t or min(s, t) < 1 or (s - 1) // 2 != (t - 1) // 2:
                return f"coupling block ({s}, {t}) is not a sibling pair"
        return None

    # ----------------------------------------------------------------- matvec
    def apply_plan(self, rebuild: bool = False) -> "H2ApplyPlan":
        """The compiled batched apply plan of this matrix, cached.

        A constructed matrix comes with its plan (the construction's operands,
        adopted), a loaded one adopts the operands it was stored as
        (:meth:`from_operands`) on first use, and any other matrix compiles
        one from its blocks on first use.  Either way the matrix then keeps
        its dense and coupling blocks as views of the plan's operands
        (:meth:`adopt_plan`): one copy.  Pass ``rebuild=True`` after mutating
        coupling/dense/basis blocks in place: the apply plan is recompiled
        from the blocks and the blocks re-pointed at it.
        """
        if self._plan is None or rebuild:
            from ..batched.apply_plan import H2ApplyPlan

            operands = () if rebuild or self._operands is None else self._operands
            self.adopt_plan(H2ApplyPlan(self, *operands))
        return self._plan

    def adopt_plan(self, plan: "H2ApplyPlan") -> None:
        """Make ``plan`` (compiled from this matrix's blocks) the cached apply
        plan, with every dense and coupling block re-pointed at a view of its
        operand slot.  The entry plan (:meth:`entry_plan`, which copies the
        bases and references the blocks) is dropped and recompiled on its
        next use, so it never keeps the old blocks alive."""
        plan.view_blocks()
        self._plan = plan
        self._entry_plan = None
        self._operands = None

    # ---------------------------------------------------------------- binding
    def bind(self, backend: "BatchedBackend | str", tracer: object = None) -> "H2Matrix":
        """Apply on ``backend`` and record every ``apply`` span to ``tracer``
        (default: the no-op tracer); returns the matrix.  The one writer of
        :attr:`apply_backend` / :attr:`apply_tracer`: a policy binds what it
        creates (:meth:`repro.api.ExecutionPolicy.bind`), and a matrix never
        bound binds to ``"auto"`` on first use."""
        from ..batched.backend import get_backend
        from ..observe.tracer import NOOP_TRACER

        self._binding = (get_backend(backend), tracer or NOOP_TRACER)
        return self

    def _bound(self) -> "Tuple[BatchedBackend, object]":
        return self._binding or self.bind("auto")._binding

    @property
    def apply_backend(self) -> "BatchedBackend":
        """The backend the applies run on (:meth:`bind`)."""
        return self._bound()[0]

    @property
    def apply_tracer(self) -> object:
        """The tracer the ``apply`` spans go to (:meth:`bind`)."""
        return self._bound()[1]

    def _apply_permuted(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Core apply: execute the compiled batched plan on a permuted 2-D
        block under the matrix's binding."""
        backend, tracer = self._bound()
        return self.apply_plan().execute(
            x, backend=backend, transpose=transpose, tracer=tracer
        )

    # ------------------------------------------------------- entry evaluation
    def entry_plan(self) -> "H2EntryPlan":
        """The compiled entry-evaluation plan of this matrix (built and cached
        on first use, dropped together with the apply plan)."""
        if self._entry_plan is None:
            from ..batched.entry_plan import H2EntryPlan

            self._entry_plan = H2EntryPlan(self)
        return self._entry_plan

    def get_block(self, rows: np.ndarray, cols: np.ndarray, permuted: bool = True) -> np.ndarray:
        """Evaluate the sub-matrix ``A[rows, cols]`` of the H2 approximation.

        This is the entry-evaluation function required when an existing H2
        matrix is used as the input of a new construction (Section V-A, the H2
        update application): a batch of one request to :meth:`entry_plan`.
        Indices refer to the permuted ordering by default; a non-integer index
        array or an index outside ``[0, n)`` raises :class:`IndexError`, a
        matrix whose blocks do not cover the request :class:`KeyError`.  The
        plan reads the blocks it was compiled from: after replacing, adding or
        removing a block call ``apply_plan(rebuild=True)``.
        """
        rows, cols = as_index_array(rows), as_index_array(cols)
        if not permuted:
            check_index_range(rows, self.num_rows)
            check_index_range(cols, self.num_rows)
            rows, cols = self.tree.iperm[rows], self.tree.iperm[cols]
        return self.entry_plan().evaluate(rows[None], cols[None])[0]

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Write this matrix to ``path`` in the :mod:`repro.persist` format.

        The artifact round-trips exactly: ``load(path).to_dense()`` is
        bitwise-equal to ``self.to_dense()``.
        """
        from ..persist import save as _save

        _save(self, path)

    # ------------------------------------------------------------------ dense
    def to_dense(self, permuted: bool = False) -> np.ndarray:
        """Reconstruct the full dense matrix (small problems / tests only)."""
        n = self.num_rows
        dense = np.zeros((n, n), dtype=np.float64)
        for (s, t), block in self.dense.items():
            dense[
                self.tree.starts[s] : self.tree.ends[s],
                self.tree.starts[t] : self.tree.ends[t],
            ] = block
        for (s, t), b in self.coupling.items():
            if b.size == 0:
                continue
            us = self.basis.explicit_basis(s)
            ut = self.basis.explicit_basis(t)
            dense[
                self.tree.starts[s] : self.tree.ends[s],
                self.tree.starts[t] : self.tree.ends[t],
            ] = us @ b @ ut.T
        if permuted:
            return dense
        return dense[np.ix_(self.tree.iperm, self.tree.iperm)]

    # ----------------------------------------------------------------- memory
    def _memory_components(self) -> Dict[str, int]:
        """Byte counts per component (Fig. 6); the mixin adds the unified
        ``low_rank`` (= basis + coupling) / ``dense`` / ``total`` keys."""
        return {
            "basis": self.basis.memory_bytes(),
            "coupling": int(sum(b.nbytes for b in self.coupling.values())),
            "dense": int(sum(d.nbytes for d in self.dense.values())),
        }

    # ------------------------------------------------------------- statistics
    def _block_counts(self) -> Tuple[int, int]:
        return (len(self.coupling), len(self.dense))

    def _extra_statistics(self) -> Dict[str, object]:
        return {
            # Legacy alias of the unified ``num_low_rank_blocks`` key.
            "num_coupling_blocks": len(self.coupling),
            "sparsity_constant": self.partition.sparsity_constant(),
        }
