"""Bottom-up adaptive sketching construction of H2 matrices (Algorithm 1).

The constructor takes a block partition (cluster tree + admissibility), a
black-box sketching operator ``Kblk`` and an entry-evaluation function, and
produces an :class:`~repro.hmatrix.h2matrix.H2Matrix`.  Processing proceeds
level by level from the leaves upward; every step over the nodes of a level is
expressed through the batched primitives of :mod:`repro.batched`
(``batchedRand`` / ``batchedGen`` / ``batchedBSRGemm`` / ``batchedQR`` /
``batchedID`` / ``batchedGemm`` / ``batchedShrink`` in the paper's
annotations), so the same code runs on the serial ("CPU") and the vectorized
shape-grouped ("GPU") backend.

Outline (symmetric matrix, permuted ordering):

* draw ``Omega`` and sketch ``Y = Kblk(Omega)``; estimate ``|K|_2`` from that
  block with one more narrow application ``Kblk(orth(Y[:, :32]))``, which turns
  the relative tolerance into the absolute convergence threshold;
* **leaf level** — evaluate the dense neighbour blocks ``D``, subtract their
  contribution from the sketch (non-uniform BSR product), adaptively add
  sample blocks until every leaf's local sketch is numerically rank deficient,
  run a batched row ID to obtain the leaf bases ``U`` and skeleton indices,
  restrict the sketch to the skeleton rows and project the random inputs;
* **inner levels** — merge the children's skeletonised sketches, subtract the
  contribution of the children's coupling blocks, adapt/ID as above to obtain
  the transfer matrices ``E`` and the level's skeletons;
* at every level evaluate the coupling blocks ``B`` at the skeleton indices,
  once per mirrored pair: the sweep asks the extractor for ``B_{s,t}`` with
  ``s <= t`` and stores ``B_{t,s} = B_{s,t}^T`` (likewise the dense blocks).

Adaptive sampling follows Section III-B: freshly drawn sample blocks are swept
from the leaves up to the current level by replaying the already-computed
skeletonizations (``updateSamples``).

One level driver (:meth:`H2Constructor._run_levels`) owns every numerical
decision — sample schedule, convergence tests, ID tolerances, skeleton
bookkeeping, coupling extraction — over one sample store, the compiled
:class:`~repro.batched.PackedSweepEngine`.  It keeps every level's sample
state in zero-padded contiguous stacks: sketch accumulation and child gathers
are a handful of ``batched_gemm_scatter`` / gather launches, and adaptive
sampling rounds write only the *new* columns into preallocated buffers
(O(levels) launches per round, stated by
:meth:`~repro.batched.ConstructionPlan.launch_schedule`).  The per-node
reference sweep the compiled one is tested against lives in the test-suite
(``tests/oracles.py``), not in the product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..batched.apply_plan import H2ApplyPlan
from ..batched.backend import BatchedBackend, get_backend
from ..batched.construction_plan import ConstructionPlan, PackedSweepEngine
from ..hmatrix.basis_tree import BasisTree
from ..hmatrix.h2matrix import H2Matrix
from ..linalg.norm_estimation import sketched_spectral_norm
from ..sketching.entry_extractor import EntryExtractor
from ..sketching.operators import SketchingOperator
from ..tree.block_partition import BlockPartition
from ..observe.tracer import NOOP_TRACER, phase_span
from ..resilience.errors import (
    ConstructionFaultError,
    MemoryBudgetError,
    RankSaturationError,
    ResilienceError,
    SampleCorruptionError,
)
from ..resilience.policy import resilience_adapter
from ..utils.rng import SeedLike, as_generator
from .config import ConstructionConfig
from .convergence import ConvergenceTester
from .skeleton_store import NodeSkeleton, SkeletonStore

#: Retry budget of the in-place recoveries under a recovery policy:
#: sample-block relaunches after NaN/Inf screening and compiled-sweep retries
#: after an engine failure.
MAX_RETRIES = 2
#: Re-construction budget of the rank-saturation recovery: the first retry
#: multiplies the sample budget by ``SAMPLE_BUDGET_FACTOR``, later retries
#: also multiply the ID tolerance by ``TOLERANCE_RELAX``.
MAX_SAMPLE_RETRIES = 2
SAMPLE_BUDGET_FACTOR = 2.0
TOLERANCE_RELAX = 10.0


@dataclass
class LevelReport:
    """Per-level construction statistics."""

    depth: int
    num_nodes: int
    samples_used: int
    sampling_rounds: int
    max_rank: int
    min_rank: int
    converged: bool


@dataclass
class ConstructionResult:
    """Outcome of a construction: the H2 matrix plus performance metadata."""

    matrix: H2Matrix
    config: ConstructionConfig
    total_samples: int
    operator_applications: int
    entries_evaluated: int
    elapsed_seconds: float
    kernel_launches: Dict[str, int]
    total_kernel_launches: int
    kernel_calls: Dict[str, int]
    total_kernel_calls: int
    norm_estimate: float
    converged: bool
    levels: List[LevelReport] = field(default_factory=list)
    #: What produced the matrix (an outcome, not a setting): ``"packed"`` (the
    #: compiled sweep) or ``"cache"`` (artifact hit).
    construction_path: str = "packed"
    #: Root :class:`repro.observe.Span` of this construction when it ran under
    #: an enabled tracer (``None`` otherwise).  Its ``construct.phase``
    #: children are the only record of the Fig. 7 phase times
    #: (:meth:`repro.observe.views.PhaseBreakdown.from_span`).  Its launches
    #: equal ``kernel_launches`` plus what the black-box sampler issues in the
    #: construction's context on another backend (an H2 sampler's apply).
    trace: Optional[object] = None
    #: :class:`repro.observe.HealthReport` of the stochastic compression-error
    #: probe when the construction ran under ``ExecutionPolicy(health=...)``
    #: (``None`` otherwise — the probe is off by default).
    health: Optional[object] = None

    @classmethod
    def from_cache(
        cls, matrix: H2Matrix, config: ConstructionConfig, elapsed_seconds: float
    ) -> "ConstructionResult":
        """The result of loading ``matrix`` from the artifact cache for a
        request at ``config``: nothing sampled, evaluated or launched.  Its
        config carries the tolerance the artifact was built at, when the
        artifact records one."""
        if matrix.tolerance is not None:
            config = replace(config, tolerance=matrix.tolerance)
        return cls(
            matrix=matrix,
            config=config,
            total_samples=0,
            operator_applications=0,
            entries_evaluated=0,
            elapsed_seconds=elapsed_seconds,
            kernel_launches={},
            total_kernel_launches=0,
            kernel_calls={},
            total_kernel_calls=0,
            norm_estimate=0.0,
            converged=True,
            construction_path="cache",
        )

    @property
    def rank_range(self) -> Tuple[int, int]:
        return self.matrix.rank_range()

    def memory_mb(self) -> float:
        return self.matrix.total_memory_mb()

    def summary(self) -> Dict[str, object]:
        lo, hi = self.rank_range
        return {
            "n": self.matrix.num_rows,
            "time_s": self.elapsed_seconds,
            "total_samples": self.total_samples,
            "rank_range": f"{lo}-{hi}",
            "memory_mb": self.memory_mb(),
            "kernel_launches": self.total_kernel_launches,
            "converged": self.converged,
        }


class H2Constructor:
    """Adaptive sketching-based bottom-up H2 constructor (Algorithm 1)."""

    def __init__(
        self,
        partition: BlockPartition,
        operator: SketchingOperator,
        extractor: EntryExtractor,
        config: ConstructionConfig | None = None,
        seed: SeedLike = None,
        tracer: object | None = None,
        recovery: object | None = None,
        faults: object | None = None,
    ):
        self.partition = partition
        self.tree = partition.tree
        self.operator = operator
        self.extractor = extractor
        self.config = config if config is not None else ConstructionConfig()
        self.rng = as_generator(seed)
        #: The static packing of the sweep, compiled by :meth:`construct`.
        self.plan: ConstructionPlan | None = None

        n = self.tree.num_points
        if operator.n != n or extractor.n != n:
            raise ValueError(
                "operator, extractor and cluster tree must agree on the matrix "
                f"dimension (tree: {n}, operator: {operator.n}, extractor: {extractor.n})"
            )

        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.backend: BatchedBackend = get_backend(self.config.backend)
        self.counter = self.backend.counter

        # The caller's policy, passed in: both stay ``None`` on the unguarded
        # path so every guard below is a single attribute test.
        self.recovery = recovery
        self.faults = faults

        # Construction state (populated by :meth:`construct`).
        self.skeletons = SkeletonStore()
        self.basis = BasisTree(tree=self.tree)
        self.dense_blocks: Dict[Tuple[int, int], np.ndarray] = {}
        self.couplings: Dict[Tuple[int, int], np.ndarray] = {}
        self._total_samples = 0

    # ------------------------------------------------------------------ public
    def construct(self) -> ConstructionResult:
        """Run Algorithm 1 and return the constructed H2 matrix with statistics.

        Always runs the compiled sweep.  When a
        :class:`~repro.resilience.RecoveryPolicy` is installed (via
        ``ExecutionPolicy(recovery=...)`` or the ``recovery=`` argument), the
        run is guarded: a compiled-sweep failure is retried and, once the
        retries run out, raised as the typed ``ConstructionFaultError``; a
        memory-budget breach raises ``MemoryBudgetError`` before the sweep
        allocates; rank saturation re-constructs with escalated
        sample/tolerance budgets.  Every retry restores the RNG to its
        pre-construction state, so a retry whose fault does not re-fire is
        bit-identical to an uninjected run.
        """
        if self.recovery is None:
            return self._construct()
        original_config = self.config
        try:
            return self._construct_guarded()
        finally:
            self.config = original_config

    # ------------------------------------------------------------------ guards
    def _construct_guarded(self) -> ConstructionResult:
        """Run :meth:`_construct` under the installed recovery policy.

        * A *typed failure* (a memory-budget breach, estimated or injected;
          sample corruption that survived its relaunch budget) propagates
          unchanged: running the same sweep again cannot succeed.
        * A *compiled-sweep failure* (any other exception, e.g. an injected
          launch failure) is retried ``MAX_RETRIES`` times from the restored
          RNG, then raised as ``ConstructionFaultError``
          whose ``context`` records the retries.
        * *Rank saturation* (adaptive construction exhausted its sample
          budget without converging) re-constructs with the sample budget
          escalated by ``SAMPLE_BUDGET_FACTOR``, then with the ID tolerance
          relaxed by ``TOLERANCE_RELAX``, up to ``MAX_SAMPLE_RETRIES``
          re-constructions.

        ``strict`` mode raises the typed error at the first detection; in
        ``warn`` mode every recovery is announced through the
        ``repro.resilience`` structured logger.
        """
        policy = self.recovery
        rng_state = self.rng.bit_generator.state
        engine_retries = 0
        sample_retries = 0
        while True:
            try:
                result = self._construct()
            except ResilienceError:
                raise
            except Exception as exc:
                if policy.mode == "strict" or engine_retries >= MAX_RETRIES:
                    raise ConstructionFaultError(
                        f"compiled sweep failed after {engine_retries} "
                        f"retries: {exc}",
                        stage="construct.packed",
                        context={"error": repr(exc), "retries": engine_retries},
                    ) from exc
                engine_retries += 1
                self._announce_recovery(
                    "packed-retry",
                    f"compiled sweep failed ({exc!r}); retry "
                    f"{engine_retries}/{MAX_RETRIES}",
                    stage="construct.packed",
                )
                self._reset_construction_state(rng_state)
                continue

            if result.converged or not self.config.adaptive:
                break
            # Rank saturation: the adaptive loop ran out of sample budget.
            if policy.mode == "strict":
                raise RankSaturationError(
                    "adaptive construction exhausted its sample budget "
                    f"({self._total_samples} samples) without converging",
                    stage="construct.adapt",
                    context={"total_samples": self._total_samples},
                )
            if sample_retries >= MAX_SAMPLE_RETRIES:
                self._announce_recovery(
                    "rank-saturation-exhausted",
                    "rank-saturation retries exhausted; returning the "
                    "non-converged result (flagged converged=False)",
                    stage="construct.adapt",
                )
                break
            sample_retries += 1
            self.config = self._escalated_config(sample_retries)
            self._announce_recovery(
                "rank-saturation-retry",
                f"re-constructing with escalated budgets (retry "
                f"{sample_retries}/{MAX_SAMPLE_RETRIES}: "
                f"max_samples={self.config.max_samples}, "
                f"tolerance={self.config.tolerance:g})",
                stage="construct.adapt",
            )
            self._reset_construction_state(rng_state)

        return result

    def _escalated_config(self, retry: int) -> ConstructionConfig:
        """The construction config of rank-saturation retry number ``retry``.

        The first retry escalates the sample budget (when it is not already
        at the matrix dimension); later retries — or a budget already at the
        cap — additionally relax the ID tolerance.
        """
        cfg = self.config
        n = self.tree.num_points
        cap = n if cfg.max_samples is None else min(cfg.max_samples, n)
        updates: Dict[str, object] = {}
        if cap < n:
            updates["max_samples"] = min(
                n, max(cap + 1, int(cap * SAMPLE_BUDGET_FACTOR))
            )
        if retry > 1 or cap >= n:
            updates["tolerance"] = cfg.tolerance * TOLERANCE_RELAX
        return replace(cfg, **updates)

    def _reset_construction_state(self, rng_state: dict) -> None:
        """Return the constructor to its pre-construction state for a retry.

        Restoring the RNG state makes a retry sketch with exactly the random
        vectors of the first attempt — so a recovery whose fault does not
        re-fire reproduces the uninjected run bit for bit.
        """
        self.skeletons = SkeletonStore()
        self.basis = BasisTree(tree=self.tree)
        self.dense_blocks = {}
        self.couplings = {}
        self._total_samples = 0
        self.rng.bit_generator.state = rng_state

    def _announce_recovery(self, event: str, message: str, stage: str) -> None:
        """Tracer span + (in warn mode) structured-log warning for a recovery."""
        if self.tracer.enabled:
            with self.tracer.span(
                f"resilience/{event}", category="resilience", stage=stage
            ):
                pass
        if self.recovery is not None and self.recovery.mode == "warn":
            resilience_adapter().warn(event, stage=stage, detail=message)

    def _construct(self) -> ConstructionResult:
        tracer = self.tracer
        if not tracer.enabled:
            return self._construct_impl()
        with tracer.span(
            "construct",
            category="construct",
            n=self.tree.num_points,
            backend=self.backend.name,
        ) as span:
            result = self._construct_impl()
        result.trace = span
        return result

    def _new_sweep(self) -> PackedSweepEngine:
        """The sample store one construction runs over."""
        return PackedSweepEngine(self.plan, self.backend, self.tracer)

    def _construct_impl(self) -> ConstructionResult:
        start = time.perf_counter()
        launches_at_start = self.counter.snapshot()
        self.operator.reset_statistics()
        self.extractor.entries_evaluated = 0
        n = self.tree.num_points

        with phase_span(self.tracer, "misc"):
            if self.plan is None:
                self.plan = ConstructionPlan(self.partition)
        if self.faults is not None or self.recovery is not None:
            self._check_memory_budget()
        sweep = self._new_sweep()

        # Dense (inadmissible leaf) blocks are always required.
        self._extract_dense_blocks(sweep)

        levels: List[LevelReport] = []
        all_converged = True
        self._norm_estimate = 0.0  # a fully dense partition draws no sample
        if self.plan.top_depth is not None:
            # The threshold comes *after* the first sample block: the norm
            # estimate reuses it instead of probing the operator on its own.
            omega, y = self._draw_samples(
                min(self.config.effective_initial_samples, n)
            )
            tester = self._convergence_tester(y)
            all_converged = self._run_levels(sweep, tester, omega, y, levels)

        matrix = H2Matrix(
            tree=self.tree,
            partition=self.partition,
            basis=self.basis,
            coupling=self.couplings,
            dense=self.dense_blocks,
        )
        matrix.tolerance = self.config.tolerance
        # The sweep's dense and coupling operands are the blocks' storage and
        # the apply's operands: the plan adopts them and compiles only the
        # basis phases.  The sweep indexes every node of a level, the plan
        # its nonzero-rank nodes: a level with a rank-0 node is compiled.
        operands = sweep.apply_operands()
        if operands is not None:
            dense, coupling = operands
            adoptable = {
                depth: level_operands
                for depth, level_operands in coupling.items()
                if all(
                    self.basis.has_basis(node) and self.basis.rank(node) > 0
                    for node in self.tree.nodes_at_level(depth)
                )
            }
            with phase_span(self.tracer, "misc"):
                matrix.adopt_plan(H2ApplyPlan(matrix, dense, adoptable))
        elapsed = time.perf_counter() - start
        # Per-construction launch numbers even on a shared backend: report
        # the growth of its counter since this construction started.
        launch_delta = self.counter.since(launches_at_start)
        return ConstructionResult(
            matrix=matrix,
            config=self.config,
            total_samples=self._total_samples,
            operator_applications=self.operator.applications,
            entries_evaluated=self.extractor.entries_evaluated,
            elapsed_seconds=elapsed,
            kernel_launches=launch_delta.counts,
            total_kernel_launches=launch_delta.total(),
            kernel_calls=launch_delta.calls,
            total_kernel_calls=launch_delta.total_calls(),
            norm_estimate=self._norm_estimate,
            converged=all_converged,
            levels=levels,
        )

    # --------------------------------------------------------------- internals
    def _check_memory_budget(self) -> None:
        """Compiled-workspace budget guard at the engine allocation boundary.

        Raises :class:`~repro.resilience.errors.MemoryBudgetError` when the
        installed fault injector fires ``memory-budget-exceeded`` or the
        leaf-level peak the compiled plan predicts (the transient padded dense
        extraction, the fan-grouped operands it becomes — the matrix's dense
        storage — and the omega + sketch stacks) exceeds
        ``RecoveryPolicy.memory_budget_bytes`` — in every recovery mode, and
        before the sweep allocates anything.
        """
        if self.faults is not None:
            self.faults.memory_budget("construct.packed")
        policy = self.recovery
        if policy is None or policy.memory_budget_bytes is None:
            return
        cfg = self.config
        columns = min(cfg.effective_initial_samples, self.tree.num_points)
        if cfg.adaptive:
            columns += cfg.sample_block_size
        estimate = self.plan.sweep_workspace_bytes(columns)
        if estimate > policy.memory_budget_bytes:
            raise MemoryBudgetError(
                f"estimated packed workspace {estimate} B exceeds the "
                f"budget {policy.memory_budget_bytes} B",
                stage="construct.packed",
                context={
                    "estimate_bytes": estimate,
                    "budget_bytes": policy.memory_budget_bytes,
                },
            )

    def _convergence_tester(self, sketch: np.ndarray) -> ConvergenceTester:
        """The tester whose threshold is ``tolerance * ||K||_2``.

        Unless ``ConstructionConfig.norm_estimate`` supplies it, the norm is
        the block estimate of the first (already screened) sample block; its
        one extra operator application goes through :meth:`_sketch`, so it is
        counted in ``operator_applications`` and guarded like every draw.
        """
        cfg = self.config
        if not (cfg.adaptive or cfg.id_tolerance_mode == "absolute"):
            norm = 0.0  # nothing is compared against an absolute threshold
        elif cfg.norm_estimate is not None:
            norm = float(cfg.norm_estimate)
        else:
            norm = sketched_spectral_norm(self._sketch, sketch)
        self._norm_estimate = norm
        return ConvergenceTester(absolute_threshold=cfg.tolerance * norm)

    def _id_tolerances(self, count: int) -> Tuple[Optional[float], Optional[Sequence[float]]]:
        """Relative/absolute tolerances handed to the batched row ID."""
        cfg = self.config
        if cfg.id_tolerance_mode == "absolute":
            return None, [cfg.tolerance * self._norm_estimate] * count
        return cfg.tolerance, None

    def _draw_samples(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` fresh random vectors and sketch them through the operator."""
        n = self.tree.num_points
        with phase_span(self.tracer, "sampling"):
            omega = self.backend.batched_random_normal((n, count), seed=self.rng)
        y = self._sketch(omega)
        self._total_samples += count
        return omega, y

    def _sketch(self, omega: np.ndarray) -> np.ndarray:
        """One counted, guarded black-box application ``K @ omega``.

        The only route from the constructor to the operator: sample draws and
        the norm estimate's ``K @ Q`` both pass the fault-injection site and
        the NaN/Inf screen, so no unscreened block reaches a threshold.
        """
        with phase_span(self.tracer, "sampling"):
            y = self.operator.multiply(omega)
        if self.faults is not None and self.faults.installed("nan-in-gemm-output"):
            y = self.faults.corrupt_gemm_output(y)
        if self.recovery is not None:
            y = self._screen_samples(omega, y)
        return y

    def _screen_samples(self, omega: np.ndarray, y: np.ndarray) -> np.ndarray:
        """NaN/Inf screen of a sketched sample block at the launch boundary.

        A corrupted block models a transient failure of the sketching GEMM,
        so recovery *relaunches the same multiply* (same ``omega``) up to
        ``MAX_RETRIES`` times — a relaunch whose fault does not re-fire is
        bitwise identical to the uninjected sketch.  Strict mode raises
        immediately; a block still corrupted after the relaunch budget raises
        in every mode (never a silent wrong answer).
        """
        if np.all(np.isfinite(y)):
            return y
        bad = int(y.size - np.count_nonzero(np.isfinite(y)))
        if self.recovery.mode == "strict":
            raise SampleCorruptionError(
                f"sketched sample block contains {bad} non-finite entries",
                stage="construct.sample",
                context={"bad_entries": bad, "shape": tuple(y.shape)},
            )
        self._announce_recovery(
            "sample-relaunch",
            f"sketched sample block has {bad} non-finite entries; "
            "relaunching the sketch",
            stage="construct.sample",
        )
        for _ in range(MAX_RETRIES):
            with phase_span(self.tracer, "sampling"):
                y = self.operator.multiply(omega)
            if self.faults is not None:
                y = self.faults.corrupt_gemm_output(y)
            if np.all(np.isfinite(y)):
                return y
        bad = int(y.size - np.count_nonzero(np.isfinite(y)))
        raise SampleCorruptionError(
            f"sketched sample block still contains {bad} non-finite entries "
            f"after {MAX_RETRIES} relaunches",
            stage="construct.sample",
            context={"bad_entries": bad, "retries": MAX_RETRIES},
        )

    def _samples_exhausted(self) -> bool:
        cap = self.config.max_samples
        limit = self.tree.num_points if cap is None else min(cap, self.tree.num_points)
        return self._total_samples >= limit

    # ------------------------------------------------------------ entry blocks
    def _extract_dense_blocks(self, sweep) -> None:
        """Evaluate every inadmissible leaf block (``batchedGen`` at the leaf level)."""
        pairs = self.plan.dense_pairs
        index = self.tree.index_set
        blocks = sweep.load_dense(
            self.extractor, [(index(tau), index(b)) for tau, b in pairs]
        )
        self.dense_blocks.update(zip(pairs, blocks))

    def _extract_couplings(self, sweep, depth: int) -> None:
        """Evaluate the coupling blocks ``B_{tau,b}`` of all nodes at ``depth``
        at the skeleton indices just recorded."""
        pairs = self.plan.coupling_pairs[depth]
        if not pairs:
            return
        skeleton = self.skeletons.skeleton_global
        blocks = sweep.load_couplings(
            depth, self.extractor, [(skeleton(tau), skeleton(b)) for tau, b in pairs]
        )
        self.couplings.update(zip(pairs, blocks))

    def _record_node_skeleton(self, tau: int, dec, is_leaf: bool) -> None:
        """Skeleton/basis bookkeeping of one skeletonised node."""
        # The one place the dense ``X = P [I; T^T]`` of an ID is assembled: it
        # is the leaf basis, or the children's stacked transfer matrices.
        interpolation = dec.interpolation
        if is_leaf:
            skeleton_global = self.tree.index_set(tau)[dec.skeleton]
            self.basis.set_leaf_basis(tau, interpolation)
        else:
            nu1, nu2 = self.tree.children(tau)
            rank1 = self.skeletons.rank(nu1)
            merged = np.concatenate(
                [
                    self.skeletons.skeleton_global(nu1),
                    self.skeletons.skeleton_global(nu2),
                ]
            )
            skeleton_global = merged[dec.skeleton]
            self.basis.set_rank(tau, dec.rank)
            self.basis.set_transfer(nu1, interpolation[:rank1])
            self.basis.set_transfer(nu2, interpolation[rank1:])
        self.skeletons.add(
            NodeSkeleton(
                node=tau,
                skeleton_local=dec.skeleton,
                skeleton_global=skeleton_global,
                interpolation=interpolation,
                is_leaf=is_leaf,
            )
        )

    # ------------------------------------------------------------ level driver
    def _run_levels(
        self,
        sweep,
        tester: ConvergenceTester,
        omega: np.ndarray,
        y: np.ndarray,
        levels: List[LevelReport],
    ) -> bool:
        """Sweep the first sample block ``(omega, y)`` from the leaves up to
        ``plan.top_depth`` over the sample store ``sweep`` (:meth:`_new_sweep`).

        Per level: adaptive sampling until every node converges, one batched
        row ID, skeleton bookkeeping, the level report, the store's
        shrink/upsweep, the coupling blocks at the new skeletons, and the
        merge into the parent level.  Returns whether every level converged.
        """
        cfg = self.config
        leaf_depth, top_depth = self.tree.depth, self.plan.top_depth
        headroom = cfg.sample_block_size if cfg.adaptive else 0

        state = sweep.init_leaf(omega, y, capacity_hint=self._total_samples + headroom)
        all_converged = True
        for depth in range(leaf_depth, top_depth - 1, -1):
            # Injected launch failures model the compiled engine failing.
            if self.faults is not None:
                self.faults.fail_launch(f"construct.packed.level={depth}")
            with self.tracer.span(
                f"level={depth}", category="construct.level", depth=depth
            ):
                converged, rounds = True, 1
                if cfg.adaptive:
                    converged, rounds = self._adapt_level(sweep, state, tester)

                # Batched row ID -> bases (leaf) / transfers (inner), skeletons.
                rel_tol, abs_tols = self._id_tolerances(state.count)
                with phase_span(self.tracer, "id"):
                    decompositions = self.backend.batched_row_id(
                        state.node_blocks(),
                        rel_tol=rel_tol,
                        abs_tols=abs_tols,
                        max_rank=cfg.max_rank,
                    )
                is_leaf = depth == leaf_depth
                with phase_span(self.tracer, "shrink_upsweep"):
                    for tau, dec in zip(state.nodes, decompositions):
                        self._record_node_skeleton(tau, dec, is_leaf)

                ranks = [dec.rank for dec in decompositions]
                levels.append(
                    LevelReport(
                        depth=depth,
                        num_nodes=state.count,
                        samples_used=self._total_samples,
                        sampling_rounds=rounds,
                        max_rank=max(ranks, default=0),
                        min_rank=min(ranks, default=0),
                        converged=converged,
                    )
                )
                all_converged = all_converged and converged

                shrunk = sweep.finish_level(state, decompositions)
                self._extract_couplings(sweep, depth)
                if depth > top_depth:
                    state = sweep.merge_to_parent(
                        *shrunk, capacity_hint=self._total_samples + headroom
                    )
        return all_converged

    def _adapt_level(self, sweep, state, tester: ConvergenceTester) -> Tuple[bool, int]:
        """Add sample blocks until every node of the level converges.

        Fresh sample blocks are swept up to the level by the store
        (``updateSamples``) and appended as new columns of its state.
        Returns ``(converged, sampling_rounds)``.
        """
        rounds = 1
        while True:
            with phase_span(self.tracer, "convergence"):
                mask = tester.converged_mask(state.y_active, self.backend)
            if bool(np.all(mask)):
                return True, rounds
            if self._samples_exhausted():
                return False, rounds
            # Not exhausted, so at least one more column fits below n.
            block = min(
                self.config.sample_block_size,
                self.tree.num_points - self._total_samples,
            )
            new_omega, new_y = self._draw_samples(block)
            omega_slab, y_slab = sweep.sweep_slab(new_omega, new_y, state.depth)
            with phase_span(self.tracer, "shrink_upsweep"):
                state.append(omega_slab, y_slab)
            rounds += 1
