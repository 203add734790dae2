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
* at every level evaluate the coupling blocks ``B`` at the skeleton indices.

Adaptive sampling follows Section III-B: freshly drawn sample blocks are swept
from the leaves up to the current level by replaying the already-computed
skeletonizations (``updateSamples``).

Two execution paths implement the same sweep:

* the **packed path** (default) compiles the level-wise sweep through
  :mod:`repro.batched.construction_plan` — every level's sample state lives in
  zero-padded contiguous stacks, sketch accumulation and child gathers run as
  a handful of ``batched_gemm_scatter`` / gather launches, and adaptive
  sampling rounds write only the *new* columns into preallocated workspace
  buffers (O(levels) launches per round);
* the **reference loop** (``construct_loop``, selectable via
  ``ConstructionConfig.construction_path`` or ``REPRO_CONSTRUCT_PATH=loop``)
  keeps the original per-node schedule, exactly like ``matvec_loop`` on the
  apply side.

Both paths share every numerical decision (sample schedule, convergence
tests, ID tolerances), so they produce identical skeleton selections at a
fixed seed.  One benign exception: for a node with *no* admissible
interactions anywhere (its sketched samples are pure cancellation), the
packed path's fused block-row GEMM leaves an exactly-zero sample block and
the ID correctly assigns rank 0, while the loop's per-node accumulation
leaves ~1e-13 roundoff that a relative ID tolerance inflates to full rank —
the resulting matrices are identical (no coupling references such a node),
the packed basis is just smaller.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..batched.backend import BatchedBackend, get_backend
from ..batched.bsr import BlockSparseRowMatrix
from ..batched.construction_plan import ConstructionPlan, PackedSweepEngine
from ..batched.counters import KernelLaunchCounter
from ..hmatrix.basis_tree import BasisTree
from ..hmatrix.h2matrix import H2Matrix
from ..linalg.norm_estimation import sketched_spectral_norm
from ..sketching.entry_extractor import EntryExtractor
from ..sketching.operators import SketchingOperator
from ..tree.block_partition import BlockPartition
from ..observe.metrics import metrics as _metrics
from ..observe.tracer import NOOP_TRACER
from ..resilience.errors import (
    ConstructionFaultError,
    MemoryBudgetError,
    RankSaturationError,
    ResilienceError,
    SampleCorruptionError,
)
from ..resilience.policy import resilience_adapter
from ..utils.rng import SeedLike, as_generator
from ..utils.timing import PhaseTimer
from .config import ConstructionConfig
from .convergence import ConvergenceTester
from .skeleton_store import NodeSkeleton, SkeletonStore


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
    phase_seconds: Dict[str, float]
    kernel_launches: Dict[str, int]
    total_kernel_launches: int
    kernel_calls: Dict[str, int]
    total_kernel_calls: int
    norm_estimate: float
    converged: bool
    levels: List[LevelReport] = field(default_factory=list)
    #: Which sweep produced the matrix: ``"packed"`` (compiled) or ``"loop"``.
    construction_path: str = "packed"
    #: Root :class:`repro.observe.Span` of this construction when it ran under
    #: an enabled tracer (``None`` otherwise).  The per-phase and per-level
    #: child spans carry the same numbers as ``phase_seconds`` /
    #: ``kernel_launches`` — diagnostics accept either.
    trace: Optional[object] = None
    #: :class:`repro.observe.HealthReport` of the stochastic compression-error
    #: probe when the construction ran under ``ExecutionPolicy(health=...)``
    #: (``None`` otherwise — the probe is off by default).
    health: Optional[object] = None

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
        sample_source: Callable[[int], np.ndarray] | None = None,
        plan: ConstructionPlan | None = None,
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
        #: Optional external source of random sample blocks: a callable
        #: ``count -> (n, count)`` replacing the backend's ``batched_rand``.
        #: A :class:`~repro.core.context.GeometryContext` passes a frozen
        #: sample bank here so every construction of a hyperparameter sweep
        #: sketches with the *same* random vectors.
        self.sample_source = sample_source
        #: Optional precompiled :class:`ConstructionPlan` of this partition
        #: (the static packing of the compiled sweep).  A
        #: :class:`~repro.core.context.GeometryContext` compiles it once and
        #: shares it across every construction of a sweep; when absent, the
        #: packed path compiles its own.
        if plan is not None and plan.partition is not partition:
            raise ValueError(
                "the supplied ConstructionPlan was compiled for a different "
                "block partition"
            )
        self.plan = plan

        n = self.tree.num_points
        if operator.n != n or extractor.n != n:
            raise ValueError(
                "operator, extractor and cluster tree must agree on the matrix "
                f"dimension (tree: {n}, operator: {operator.n}, extractor: {extractor.n})"
            )

        # Counter/tracer consolidation: an enabled tracer's counter is handed
        # to the backend factory so one counter spans everything under the
        # owning policy; otherwise each constructor gets a fresh counter (a
        # backend *instance* in the config always keeps its own — per-result
        # launch numbers then come from snapshot deltas, see _construct).
        shared = tracer.counter if (tracer is not None and tracer.enabled) else None
        self.backend: BatchedBackend = get_backend(
            self.config.backend,
            counter=shared if shared is not None else KernelLaunchCounter(),
        )
        self.counter = self.backend.counter
        self.tracer = (
            tracer if tracer is not None
            else getattr(self.backend, "tracer", NOOP_TRACER)
        )
        if self.tracer.enabled:
            self.tracer.bind_counter(self.counter)
        self.timer = PhaseTimer(tracer=self.tracer)

        # Resilience wiring: explicit arguments win; otherwise adopt whatever
        # ExecutionPolicy.resolve_backend installed on the backend instance
        # (mirrors the tracer hand-off above).  Both stay ``None`` on the
        # legacy path so every guard below is a single attribute test.
        self.recovery = (
            recovery if recovery is not None
            else getattr(self.backend, "recovery", None)
        )
        self.faults = (
            faults if faults is not None
            else getattr(self.backend, "faults", None)
        )

        # Construction state (populated by :meth:`construct`).
        self.skeletons = SkeletonStore()
        self.basis = BasisTree(tree=self.tree)
        self.dense_blocks: Dict[Tuple[int, int], np.ndarray] = {}
        self.couplings: Dict[Tuple[int, int], np.ndarray] = {}
        self._sample_draws = 0
        self._total_samples = 0

    # ------------------------------------------------------------------ public
    def construct(self) -> ConstructionResult:
        """Run Algorithm 1 and return the constructed H2 matrix with statistics.

        Dispatches to the compiled packed sweep or the per-node reference loop
        according to ``ConstructionConfig.construction_path`` (``"auto"``
        follows the ``REPRO_CONSTRUCT_PATH`` environment variable and defaults
        to the packed path).

        When a :class:`~repro.resilience.RecoveryPolicy` is installed (via
        ``ExecutionPolicy(recovery=...)`` or the ``recovery=`` argument), the
        run is guarded: packed-engine failures retry and then fall back to the
        reference loop (the result is tagged
        ``construction_path="recovered-loop"``), memory-budget breaches fall
        back immediately, and rank saturation re-constructs with escalated
        sample/tolerance budgets.  Every recovery restores the RNG and sample
        bank to their pre-construction state, so a retry whose fault does not
        re-fire is bit-identical to an uninjected run.
        """
        packed = self._resolve_path() == "packed"
        if self.recovery is None:
            return self._construct(packed=packed)
        return self._construct_guarded(packed=packed)

    def construct_loop(self) -> ConstructionResult:
        """Run the per-node reference sweep (the ``matvec_loop`` analogue)."""
        return self._construct(packed=False)

    def construct_packed(self) -> ConstructionResult:
        """Run the compiled level-wise batched sweep explicitly."""
        return self._construct(packed=True)

    def _resolve_path(self) -> str:
        mode = self.config.construction_path
        if mode == "auto":
            mode = os.environ.get("REPRO_CONSTRUCT_PATH", "packed").lower()
        if mode not in ("packed", "loop"):
            raise ValueError(
                f"unknown construction path {mode!r}; use 'packed' or 'loop'"
            )
        return mode

    # ------------------------------------------------------------------ guards
    def _construct_guarded(self, packed: bool) -> ConstructionResult:
        """Run :meth:`_construct` under the installed recovery policy.

        The recovery ladder, in order of escalation:

        1. *memory budget breach* (estimated packed workspace over
           ``RecoveryPolicy.memory_budget_bytes``, or injected) — fall back
           to the streaming per-node loop immediately (retrying the same
           allocation cannot succeed);
        2. *packed engine failure* (any non-resilience exception out of the
           packed sweep, e.g. an injected launch failure) — retry the packed
           sweep up to ``max_retries`` times, then fall back to the loop;
        3. *rank saturation* (adaptive construction exhausted its sample
           budget without converging) — re-construct with the sample budget
           escalated by ``sample_budget_factor``, then with the ID tolerance
           relaxed by ``tolerance_relax``, up to ``max_sample_retries``
           re-constructions.

        ``strict`` mode raises the typed error at the first detection; in
        ``warn`` mode every recovery is announced through the
        ``repro.resilience`` structured logger.  A result produced by the
        loop fallback is tagged ``construction_path="recovered-loop"``.
        """
        policy = self.recovery
        rng_state = self.rng.bit_generator.state
        original_config = self.config
        engine_retries = 0
        sample_retries = 0
        recovered_to_loop = False
        while True:
            try:
                result = self._construct(packed)
            except MemoryBudgetError as exc:
                if policy.mode == "strict" or not packed:
                    raise
                self._announce_recovery(
                    "memory-budget-fallback",
                    f"packed workspace over budget ({exc}); falling back to "
                    "the per-node loop",
                    stage=exc.stage or "construct.packed",
                )
                packed = False
                recovered_to_loop = True
                self._reset_construction_state(rng_state)
                continue
            except ResilienceError:
                # Already the typed failure surface (e.g. sample corruption
                # that survived its relaunch budget) — nothing to add.
                raise
            except Exception as exc:
                if not packed:
                    raise  # the loop is the fallback; its failures are final
                if policy.mode == "strict":
                    raise ConstructionFaultError(
                        f"packed sweep engine failed: {exc}",
                        stage="construct.packed",
                        context={"error": repr(exc)},
                    ) from exc
                self._reset_construction_state(rng_state)
                if engine_retries < policy.max_retries:
                    engine_retries += 1
                    _metrics().counter("resilience.retries").inc()
                    self._announce_recovery(
                        "packed-retry",
                        f"packed sweep failed ({exc!r}); retry "
                        f"{engine_retries}/{policy.max_retries}",
                        stage="construct.packed",
                    )
                    continue
                self._announce_recovery(
                    "loop-fallback",
                    f"packed sweep failed ({exc!r}) after "
                    f"{engine_retries} retries; falling back to the "
                    "per-node loop",
                    stage="construct.packed",
                )
                packed = False
                recovered_to_loop = True
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
            if sample_retries >= policy.max_sample_retries:
                self._announce_recovery(
                    "rank-saturation-exhausted",
                    "rank-saturation retries exhausted; returning the "
                    "non-converged result (flagged converged=False)",
                    stage="construct.adapt",
                )
                break
            sample_retries += 1
            _metrics().counter("resilience.retries").inc()
            self.config = self._escalated_config(sample_retries)
            self._announce_recovery(
                "rank-saturation-retry",
                f"re-constructing with escalated budgets (retry "
                f"{sample_retries}/{policy.max_sample_retries}: "
                f"max_samples={self.config.max_samples}, "
                f"tolerance={self.config.tolerance:g})",
                stage="construct.adapt",
            )
            self._reset_construction_state(rng_state)

        if recovered_to_loop:
            result.construction_path = "recovered-loop"
            _metrics().counter("resilience.recoveries").inc()
        elif engine_retries or sample_retries:
            _metrics().counter("resilience.recoveries").inc()
        self.config = original_config
        return result

    def _escalated_config(self, retry: int) -> ConstructionConfig:
        """The construction config of rank-saturation retry number ``retry``.

        The first retry escalates the sample budget (when it is not already
        at the matrix dimension); later retries — or a budget already at the
        cap — additionally relax the ID tolerance.
        """
        from dataclasses import replace as _replace

        policy = self.recovery
        cfg = self.config
        n = self.tree.num_points
        cap = n if cfg.max_samples is None else min(cfg.max_samples, n)
        updates: Dict[str, object] = {}
        if cap < n:
            updates["max_samples"] = min(
                n, max(cap + 1, int(cap * policy.sample_budget_factor))
            )
        if retry > 1 or cap >= n:
            updates["tolerance"] = cfg.tolerance * policy.tolerance_relax
        return _replace(cfg, **updates)

    def _reset_construction_state(self, rng_state: dict) -> None:
        """Return the constructor to its pre-construction state for a retry.

        Restoring the RNG state and rewinding the frozen sample bank (when a
        :class:`~repro.core.context.GeometryContext` supplied one) makes a
        retry sketch with exactly the random vectors of the first attempt —
        so a recovery whose fault does not re-fire reproduces the uninjected
        run bit for bit.
        """
        self.skeletons = SkeletonStore()
        self.basis = BasisTree(tree=self.tree)
        self.dense_blocks = {}
        self.couplings = {}
        self._sample_draws = 0
        self._total_samples = 0
        self.timer = PhaseTimer(tracer=self.tracer)
        self.rng.bit_generator.state = rng_state
        reset = getattr(self.sample_source, "reset", None)
        if callable(reset):
            reset()

    def _announce_recovery(self, event: str, message: str, stage: str) -> None:
        """Tracer span + (in warn mode) structured-log warning for a recovery."""
        if self.tracer.enabled:
            with self.tracer.span(
                f"resilience/{event}", category="resilience", stage=stage
            ):
                pass
        if self.recovery is not None and self.recovery.mode == "warn":
            resilience_adapter().warn(event, stage=stage, detail=message)

    def _construct(self, packed: bool) -> ConstructionResult:
        tracer = self.tracer
        if not tracer.enabled:
            return self._construct_impl(packed)
        with tracer.span(
            "construct",
            category="construct",
            n=self.tree.num_points,
            backend=self.backend.name,
            path="packed" if packed else "loop",
        ) as span:
            result = self._construct_impl(packed)
        result.trace = span
        return result

    def _construct_impl(self, packed: bool) -> ConstructionResult:
        start = time.perf_counter()
        launches_at_start = self.counter.snapshot()
        self.operator.reset_statistics()
        self.extractor.entries_evaluated = 0

        tree = self.tree
        n = tree.num_points

        with self.timer.phase("misc"):
            min_depth = self._min_admissible_depth()
        self._norm_estimate = 0.0  # a fully dense partition draws no sample

        engine: Optional[PackedSweepEngine] = None
        if packed:
            if self.faults is not None or self.recovery is not None:
                self._check_memory_budget(n)
            with self.timer.phase("misc"):
                if self.plan is None:
                    self.plan = ConstructionPlan(self.partition)
                engine = PackedSweepEngine(self.plan, self.backend, self.timer)

        # Dense (inadmissible leaf) blocks are always required.
        if engine is not None:
            self._extract_dense_blocks_packed(engine)
        else:
            self._extract_dense_blocks()

        levels: List[LevelReport] = []
        all_converged = True

        if min_depth is not None:
            # The threshold comes *after* the first sample block: the norm
            # estimate reuses it instead of probing the operator on its own.
            omega, y = self._draw_samples(
                min(self.config.effective_initial_samples, n)
            )
            tester = self._convergence_tester(y)
            if engine is not None:
                all_converged = self._run_packed_levels(
                    engine, tester, omega, y, min_depth, levels
                )
            else:
                all_converged = self._run_loop_levels(
                    tester, omega, y, min_depth, levels
                )

        matrix = H2Matrix(
            tree=tree,
            partition=self.partition,
            basis=self.basis,
            coupling=self.couplings,
            dense=self.dense_blocks,
        )
        # Memory telemetry: the constructed operator and (on the packed path)
        # the sweep engine's workspace report into the process-wide ledger;
        # the entries auto-release when the objects are garbage-collected.
        from ..observe.memory import categorize_operator_bytes, memory_ledger

        ledger = memory_ledger()
        ledger.track(matrix, categorize_operator_bytes(matrix.memory_bytes()))
        if engine is not None:
            ledger.track(engine, {"workspace": engine.memory_bytes()})
        elapsed = time.perf_counter() - start
        # Per-construction launch numbers even on a shared (policy/tracer)
        # counter: report the growth since this construction started.
        launch_delta = self.counter.since(launches_at_start)
        return ConstructionResult(
            matrix=matrix,
            config=self.config,
            total_samples=self._total_samples,
            operator_applications=self.operator.applications,
            entries_evaluated=self.extractor.entries_evaluated,
            elapsed_seconds=elapsed,
            phase_seconds=self.timer.as_dict(),
            kernel_launches=launch_delta.counts,
            total_kernel_launches=launch_delta.total(),
            kernel_calls=launch_delta.calls,
            total_kernel_calls=launch_delta.total_calls(),
            norm_estimate=self._norm_estimate,
            converged=all_converged,
            levels=levels,
            construction_path="packed" if packed else "loop",
        )

    # --------------------------------------------------------------- internals
    def _check_memory_budget(self, n: int) -> None:
        """Packed-workspace budget guard at the engine allocation boundary.

        Raises :class:`~repro.resilience.errors.MemoryBudgetError` when the
        installed fault injector fires ``memory-budget-exceeded`` or the
        estimated level-buffer footprint (omega + sketch stacks at the leaf
        level) exceeds ``RecoveryPolicy.memory_budget_bytes``; the guarded
        driver then falls back to the streaming per-node loop.
        """
        if self.faults is not None:
            self.faults.memory_budget("construct.packed")
        policy = self.recovery
        if policy is None or policy.memory_budget_bytes is None:
            return
        cfg = self.config
        d0 = min(cfg.effective_initial_samples, n)
        headroom = cfg.sample_block_size if cfg.adaptive else 0
        estimate = 2 * n * (d0 + headroom) * 8  # omega + y level stacks, f64
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

    def _min_admissible_depth(self) -> Optional[int]:
        """Shallowest tree depth carrying admissible blocks (None if fully dense)."""
        for depth in range(self.tree.num_levels):
            if self.partition.num_admissible_blocks_at_level(depth) > 0:
                return depth
        return None

    def _convergence_tester(self, sketch: np.ndarray) -> ConvergenceTester:
        """The tester whose threshold is ``safety * tolerance * ||K||_2``.

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
        return ConvergenceTester(
            absolute_threshold=cfg.convergence_safety_factor * cfg.tolerance * norm
        )

    def _id_tolerances(self, count: int) -> Tuple[Optional[float], Optional[Sequence[float]]]:
        """Relative/absolute tolerances handed to the batched row ID."""
        cfg = self.config
        if cfg.id_tolerance_mode == "absolute":
            return None, [cfg.tolerance * self._norm_estimate] * count
        return cfg.tolerance, None

    def _draw_samples(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` fresh random vectors and sketch them through the operator."""
        n = self.tree.num_points
        with self.timer.phase("sampling"):
            if self.sample_source is not None:
                omega = np.ascontiguousarray(
                    self.sample_source(count), dtype=np.float64
                )
                if omega.shape != (n, count):
                    raise ValueError(
                        f"sample_source returned shape {omega.shape}, "
                        f"expected {(n, count)}"
                    )
                self.counter.record("batched_rand", 1)
            else:
                batch = self.backend.batched_random_normal([(n, count)], seed=self.rng)
                omega = batch[0]
        y = self._sketch(omega)
        self._sample_draws += 1
        self._total_samples += count
        return omega, y

    def _sketch(self, omega: np.ndarray) -> np.ndarray:
        """One counted, guarded black-box application ``K @ omega``.

        The only route from the constructor to the operator: sample draws and
        the norm estimate's ``K @ Q`` both pass the fault-injection site and
        the NaN/Inf screen, so no unscreened block reaches a threshold.
        """
        with self.timer.phase("sampling"):
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
        ``RecoveryPolicy.max_retries`` times — a relaunch whose fault does
        not re-fire is bitwise identical to the uninjected sketch.  Strict
        mode raises immediately; a block still corrupted after the relaunch
        budget raises in every mode (never a silent wrong answer).
        """
        if np.all(np.isfinite(y)):
            return y
        policy = self.recovery
        bad = int(y.size - np.count_nonzero(np.isfinite(y)))
        if policy.mode == "strict":
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
        for _ in range(policy.max_retries):
            _metrics().counter("resilience.retries").inc()
            with self.timer.phase("sampling"):
                y = self.operator.multiply(omega)
            if self.faults is not None:
                y = self.faults.corrupt_gemm_output(y)
            if np.all(np.isfinite(y)):
                _metrics().counter("resilience.recoveries").inc()
                return y
        bad = int(y.size - np.count_nonzero(np.isfinite(y)))
        raise SampleCorruptionError(
            f"sketched sample block still contains {bad} non-finite entries "
            f"after {policy.max_retries} relaunches",
            stage="construct.sample",
            context={"bad_entries": bad, "retries": policy.max_retries},
        )

    def _samples_exhausted(self) -> bool:
        cap = self.config.max_samples
        limit = self.tree.num_points if cap is None else min(cap, self.tree.num_points)
        return self._total_samples >= limit

    # ------------------------------------------------------------ entry blocks
    def _extract_dense_blocks(self) -> None:
        """Evaluate every inadmissible leaf block (``batchedGen`` at the leaf level)."""
        tree = self.tree
        requests = []
        keys = []
        for tau in tree.leaves():
            rows = tree.index_set(tau)
            for b in self.partition.near(tau):
                requests.append((rows, tree.index_set(b)))
                keys.append((tau, b))
        if not requests:
            return
        with self.timer.phase("entry_generation"):
            blocks = self.extractor.extract_blocks(requests, counter=self.counter)
        for key, block in zip(keys, blocks):
            self.dense_blocks[key] = block

    def _extract_couplings(self, depth: int) -> None:
        """Evaluate the coupling blocks ``B_{tau,b}`` of all nodes at ``depth``."""
        requests = []
        keys = []
        for tau in self.tree.nodes_at_level(depth):
            far = self.partition.far(tau)
            if not far or tau not in self.skeletons:
                continue
            rows = self.skeletons.skeleton_global(tau)
            for b in far:
                if b not in self.skeletons:
                    continue
                requests.append((rows, self.skeletons.skeleton_global(b)))
                keys.append((tau, b))
        if not requests:
            return
        with self.timer.phase("entry_generation"):
            blocks = self.extractor.extract_blocks(requests, counter=self.counter)
        for key, block in zip(keys, blocks):
            self.couplings[key] = block

    def _run_loop_levels(
        self,
        tester: ConvergenceTester,
        omega: np.ndarray,
        y: np.ndarray,
        min_depth: int,
        levels: List[LevelReport],
    ) -> bool:
        """Drive the per-node reference sweep of the first sample block
        ``(omega, y)`` from the leaves up to ``min_depth``."""
        leaf_depth = self.tree.depth
        all_converged = True
        y_next: Dict[int, np.ndarray] = {}
        omega_next: Dict[int, np.ndarray] = {}
        for depth in range(leaf_depth, min_depth - 1, -1):
            with self.tracer.span(
                f"level={depth}", category="construct.level", depth=depth
            ):
                if depth == leaf_depth:
                    report, y_next, omega_next = self._process_leaf_level(
                        omega, y, tester
                    )
                else:
                    report, y_next, omega_next = self._process_inner_level(
                        depth, y_next, omega_next, tester
                    )
                levels.append(report)
                all_converged = all_converged and report.converged
                self._extract_couplings(depth)
        return all_converged

    # ------------------------------------------------------------- leaf level
    def _process_leaf_level(
        self,
        omega: np.ndarray,
        y: np.ndarray,
        tester: ConvergenceTester,
    ) -> Tuple[LevelReport, Dict[int, np.ndarray], Dict[int, np.ndarray]]:
        tree = self.tree
        nodes = list(tree.leaves())
        node_pos = {node: i for i, node in enumerate(nodes)}

        # Marshal the per-node slices of the global sketch.
        with self.timer.phase("shrink_upsweep"):
            omega_loc = [
                np.ascontiguousarray(omega[tree.starts[t] : tree.ends[t]]) for t in nodes
            ]
            y_loc = [y[tree.starts[t] : tree.ends[t]].copy() for t in nodes]

        # Subtract the dense-neighbour contribution (batched BSR product).
        bsr = self._leaf_bsr(nodes, node_pos)
        with self.timer.phase("bsr_gemm"):
            bsr.multiply_accumulate(y_loc, omega_loc, self.backend, alpha=-1.0)

        rounds = 1
        converged = True
        if self.config.adaptive:
            converged, rounds = self._adapt_level(
                depth=tree.depth,
                nodes=nodes,
                node_pos=node_pos,
                y_loc=y_loc,
                omega_loc=omega_loc,
                coupling_bsr=bsr,
                tester=tester,
            )

        # Batched row ID -> leaf bases U_tau and skeleton indices.
        rel_tol, abs_tols = self._id_tolerances(len(nodes))
        with self.timer.phase("id"):
            decompositions = self.backend.batched_row_id(
                y_loc, rel_tol=rel_tol, abs_tols=abs_tols, max_rank=self.config.max_rank
            )

        y_next: Dict[int, np.ndarray] = {}
        omega_next: Dict[int, np.ndarray] = {}
        with self.timer.phase("shrink_upsweep"):
            interp = [dec.interpolation for dec in decompositions]
            upswept = self.backend.batched_gemm(interp, omega_loc, transpose_a=True)
            for i, (tau, dec) in enumerate(zip(nodes, decompositions)):
                self._record_node_skeleton(tau, dec, is_leaf=True)
                y_next[tau] = y_loc[i][dec.skeleton]
                omega_next[tau] = upswept[i]

        ranks = [self.skeletons.rank(tau) for tau in nodes]
        report = LevelReport(
            depth=tree.depth,
            num_nodes=len(nodes),
            samples_used=self._total_samples,
            sampling_rounds=rounds,
            max_rank=max(ranks) if ranks else 0,
            min_rank=min(ranks) if ranks else 0,
            converged=converged,
        )
        return report, y_next, omega_next

    def _leaf_bsr(
        self, nodes: List[int], node_pos: Dict[int, int]
    ) -> BlockSparseRowMatrix:
        bsr = BlockSparseRowMatrix(num_block_rows=len(nodes))
        for i, tau in enumerate(nodes):
            for b in self.partition.near(tau):
                bsr.add_block(i, node_pos[b], self.dense_blocks[(tau, b)])
        return bsr

    def _record_node_skeleton(self, tau: int, dec, is_leaf: bool) -> NodeSkeleton:
        """Skeleton/basis bookkeeping of one skeletonised node.

        The single source of truth for both execution paths: the per-node loop
        and the packed sweep record bit-identical :class:`NodeSkeleton`,
        leaf-basis and transfer state through this helper, which is what the
        loop↔packed skeleton-parity guarantee rests on.
        """
        if is_leaf:
            skeleton_global = self.tree.index_set(tau)[dec.skeleton]
            self.basis.set_leaf_basis(tau, dec.interpolation)
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
            self.basis.set_transfer(nu1, dec.interpolation[:rank1])
            self.basis.set_transfer(nu2, dec.interpolation[rank1:])
        record = NodeSkeleton(
            node=tau,
            skeleton_local=dec.skeleton,
            skeleton_global=skeleton_global,
            interpolation=dec.interpolation,
            is_leaf=is_leaf,
        )
        self.skeletons.add(record)
        return record

    # ------------------------------------------------------------ inner levels
    def _process_inner_level(
        self,
        depth: int,
        child_y_next: Dict[int, np.ndarray],
        child_omega_next: Dict[int, np.ndarray],
        tester: ConvergenceTester,
    ) -> Tuple[LevelReport, Dict[int, np.ndarray], Dict[int, np.ndarray]]:
        tree = self.tree
        nodes = list(tree.nodes_at_level(depth))
        child_nodes = list(tree.nodes_at_level(depth + 1))
        child_pos = {node: i for i, node in enumerate(child_nodes)}

        # Subtract the children's coupling contribution from their skeletonised
        # sketches (batched BSR product over the children level), then merge
        # sibling pairs into the parent's sample block.
        with self.timer.phase("shrink_upsweep"):
            child_loc = [child_y_next[nu].copy() for nu in child_nodes]
            child_inputs = [child_omega_next[nu] for nu in child_nodes]
        coupling_bsr = self._coupling_bsr(child_nodes, child_pos)
        with self.timer.phase("bsr_gemm"):
            coupling_bsr.multiply_accumulate(
                child_loc, child_inputs, self.backend, alpha=-1.0
            )

        with self.timer.phase("shrink_upsweep"):
            y_loc: List[np.ndarray] = []
            omega_loc: List[np.ndarray] = []
            for tau in nodes:
                nu1, nu2 = tree.children(tau)
                y_loc.append(
                    np.vstack([child_loc[child_pos[nu1]], child_loc[child_pos[nu2]]])
                )
                omega_loc.append(
                    np.vstack(
                        [child_omega_next[nu1], child_omega_next[nu2]]
                    )
                )

        rounds = 1
        converged = True
        if self.config.adaptive:
            converged, rounds = self._adapt_level(
                depth=depth,
                nodes=nodes,
                node_pos={node: i for i, node in enumerate(nodes)},
                y_loc=y_loc,
                omega_loc=omega_loc,
                coupling_bsr=None,
                tester=tester,
            )

        rel_tol, abs_tols = self._id_tolerances(len(nodes))
        with self.timer.phase("id"):
            decompositions = self.backend.batched_row_id(
                y_loc, rel_tol=rel_tol, abs_tols=abs_tols, max_rank=self.config.max_rank
            )

        y_next: Dict[int, np.ndarray] = {}
        omega_next: Dict[int, np.ndarray] = {}
        with self.timer.phase("shrink_upsweep"):
            interp = [dec.interpolation for dec in decompositions]
            upswept = self.backend.batched_gemm(interp, omega_loc, transpose_a=True)
            for i, (tau, dec) in enumerate(zip(nodes, decompositions)):
                self._record_node_skeleton(tau, dec, is_leaf=False)
                y_next[tau] = y_loc[i][dec.skeleton]
                omega_next[tau] = upswept[i]

        ranks = [self.skeletons.rank(tau) for tau in nodes]
        report = LevelReport(
            depth=depth,
            num_nodes=len(nodes),
            samples_used=self._total_samples,
            sampling_rounds=rounds,
            max_rank=max(ranks) if ranks else 0,
            min_rank=min(ranks) if ranks else 0,
            converged=converged,
        )
        return report, y_next, omega_next

    def _coupling_bsr(
        self, child_nodes: List[int], child_pos: Dict[int, int]
    ) -> BlockSparseRowMatrix:
        """Block-sparse matrix of the children's coupling blocks ``B_{nu,b}``."""
        bsr = BlockSparseRowMatrix(num_block_rows=len(child_nodes))
        for i, nu in enumerate(child_nodes):
            for b in self.partition.far(nu):
                block = self.couplings.get((nu, b))
                if block is not None and block.size:
                    bsr.add_block(i, child_pos[b], block)
        return bsr

    # -------------------------------------------------------- adaptive sampling
    def _adapt_level(
        self,
        depth: int,
        nodes: List[int],
        node_pos: Dict[int, int],
        y_loc: List[np.ndarray],
        omega_loc: List[np.ndarray],
        coupling_bsr: Optional[BlockSparseRowMatrix],
        tester: ConvergenceTester,
    ) -> Tuple[bool, int]:
        """Add sample blocks until every node of the level converges.

        ``coupling_bsr`` is the leaf level's dense-block BSR (reused to subtract
        the dense contribution from freshly drawn samples); inner levels pass
        ``None`` because the sweep handles the subtraction internally.

        Returns ``(converged, sampling_rounds)``.
        """
        rounds = 1
        while True:
            with self.timer.phase("convergence"):
                mask = tester.converged_mask(y_loc, self.backend)
            if bool(np.all(mask)):
                return True, rounds
            if self._samples_exhausted():
                return False, rounds

            block = min(
                self.config.sample_block_size,
                max(self.tree.num_points - self._total_samples, 0),
            )
            if block <= 0:
                return False, rounds
            new_omega, new_y = self._draw_samples(block)
            new_omega_map, new_y_map = self._sweep_new_samples(new_omega, new_y, depth)
            with self.timer.phase("shrink_upsweep"):
                for i, tau in enumerate(nodes):
                    y_loc[i] = np.hstack([y_loc[i], new_y_map[tau]])
                    omega_loc[i] = np.hstack([omega_loc[i], new_omega_map[tau]])
            rounds += 1

    def _sweep_new_samples(
        self, new_omega: np.ndarray, new_y: np.ndarray, to_depth: int
    ) -> Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]:
        """``updateSamples``: push freshly drawn samples up to ``to_depth``.

        Returns per-node pairs ``(omega, y_loc)`` for the nodes at ``to_depth``,
        where ``y_loc`` already has the dense/coupling contributions of the
        levels below subtracted (i.e. it is ready to be appended to the level's
        working sample blocks).
        """
        tree = self.tree
        leaf_depth = tree.depth

        # Leaf level of the sweep.
        leaves = list(tree.leaves())
        leaf_pos = {node: i for i, node in enumerate(leaves)}
        with self.timer.phase("shrink_upsweep"):
            omega_cur = [
                np.ascontiguousarray(new_omega[tree.starts[t] : tree.ends[t]])
                for t in leaves
            ]
            y_cur = [new_y[tree.starts[t] : tree.ends[t]].copy() for t in leaves]
        dense_bsr = self._leaf_bsr(leaves, leaf_pos)
        with self.timer.phase("bsr_gemm"):
            dense_bsr.multiply_accumulate(y_cur, omega_cur, self.backend, alpha=-1.0)
        if to_depth == leaf_depth:
            return (
                {tau: omega_cur[i] for i, tau in enumerate(leaves)},
                {tau: y_cur[i] for i, tau in enumerate(leaves)},
            )

        # Apply the leaf skeletons, then walk up level by level.
        with self.timer.phase("shrink_upsweep"):
            omega_next = {}
            y_next = {}
            for i, tau in enumerate(leaves):
                record = self.skeletons.get(tau)
                omega_next[tau] = record.upsweep_inputs(omega_cur[i])
                y_next[tau] = record.shrink_samples(y_cur[i])

        for depth in range(leaf_depth - 1, to_depth - 1, -1):
            child_nodes = list(tree.nodes_at_level(depth + 1))
            child_pos = {node: i for i, node in enumerate(child_nodes)}
            with self.timer.phase("shrink_upsweep"):
                child_loc = [y_next[nu].copy() for nu in child_nodes]
                child_inputs = [omega_next[nu] for nu in child_nodes]
            coupling_bsr = self._coupling_bsr(child_nodes, child_pos)
            with self.timer.phase("bsr_gemm"):
                coupling_bsr.multiply_accumulate(
                    child_loc, child_inputs, self.backend, alpha=-1.0
                )
            with self.timer.phase("shrink_upsweep"):
                omega_stacked = {}
                y_stacked = {}
                for tau in tree.nodes_at_level(depth):
                    nu1, nu2 = tree.children(tau)
                    omega_stacked[tau] = np.vstack([omega_next[nu1], omega_next[nu2]])
                    y_stacked[tau] = np.vstack(
                        [child_loc[child_pos[nu1]], child_loc[child_pos[nu2]]]
                    )
            if depth == to_depth:
                return omega_stacked, y_stacked
            with self.timer.phase("shrink_upsweep"):
                omega_next = {}
                y_next = {}
                for tau in tree.nodes_at_level(depth):
                    record = self.skeletons.get(tau)
                    omega_next[tau] = record.upsweep_inputs(omega_stacked[tau])
                    y_next[tau] = record.shrink_samples(y_stacked[tau])

        raise RuntimeError(
            f"sample sweep did not reach depth {to_depth}; this indicates an internal error"
        )

    # ------------------------------------------------------ packed (compiled)
    def _extract_dense_blocks_packed(self, engine: PackedSweepEngine) -> None:
        """Batched dense-block generation + stacking of the BSR GEMM operands.

        One padded ``batchedGen`` launch evaluates every inadmissible leaf
        block; the exact-shape blocks are sliced out for the H2 storage dict
        and the padded stack feeds the fan-grouped ``batched_gemm_scatter``
        operands directly.
        """
        plan = engine.plan
        tree = self.tree
        if not plan.dense_pairs:
            return
        requests = [
            (tree.index_set(tau), tree.index_set(b)) for tau, b in plan.dense_pairs
        ]
        with self.timer.phase("entry_generation"):
            padded = self.extractor.extract_blocks_padded(
                requests, plan.m_pad, plan.m_pad, counter=self.counter
            )
        for i, (tau, b) in enumerate(plan.dense_pairs):
            rows = tree.cluster_size(tau)
            cols = tree.cluster_size(b)
            # Views into the padded stack (padding is exact zeros); copying
            # thousands of leaf blocks would double the marshaling traffic.
            self.dense_blocks[(tau, b)] = padded[i, :rows, :cols]
        engine.build_dense_operands(padded)

    def _extract_couplings_packed(self, depth: int, engine: PackedSweepEngine, record) -> None:
        """Batched coupling-block generation at ``depth`` (+ replay operands).

        ``record`` is the level's replay record when the sweep continues above
        this level (its ``r_pad`` fixes the padded block shape and the padded
        stack becomes the coupling-subtract operands); at the topmost
        admissible level only the storage dict is filled.
        """
        plan = engine.plan
        pairs = plan.coupling_pairs.get(depth, [])
        if not pairs:
            return
        nodes = plan.level_nodes[depth]
        if record is not None:
            r_pad = record.r_pad
        else:
            r_pad = max((self.skeletons.rank(node) for node in nodes), default=0)
        requests = [
            (self.skeletons.skeleton_global(s), self.skeletons.skeleton_global(t))
            for s, t in pairs
        ]
        with self.timer.phase("entry_generation"):
            padded = self.extractor.extract_blocks_padded(
                requests, r_pad, r_pad, counter=self.counter
            )
        for i, (s, t) in enumerate(pairs):
            # Copy the exact-shape slice: ranks vary within a level, so views
            # into the (g, r_pad, r_pad) stack would pin the whole padded
            # extraction in memory for the lifetime of the H2 matrix.
            self.couplings[(s, t)] = padded[
                i, : self.skeletons.rank(s), : self.skeletons.rank(t)
            ].copy()
        if record is not None:
            engine.set_coupling_operands(depth, padded)

    def _run_packed_levels(
        self,
        engine: PackedSweepEngine,
        tester: ConvergenceTester,
        omega: np.ndarray,
        y: np.ndarray,
        min_depth: int,
        levels: List[LevelReport],
    ) -> bool:
        """Drive the compiled sweep of the first sample block ``(omega, y)``
        from the leaves up to ``min_depth``."""
        tree = self.tree
        cfg = self.config
        headroom = cfg.sample_block_size if cfg.adaptive else 0

        state = engine.init_leaf(
            omega, y, capacity_hint=omega.shape[1] + headroom
        )
        all_converged = True

        for depth in range(tree.depth, min_depth - 1, -1):
            if self.faults is not None:
                self.faults.fail_launch(f"construct.packed.level={depth}")
            with self.tracer.span(
                f"level={depth}", category="construct.level", depth=depth
            ):
                rounds = 1
                converged = True
                if cfg.adaptive:
                    converged, rounds = self._adapt_level_packed(engine, state, tester)

                rel_tol, abs_tols = self._id_tolerances(state.count)
                with self.timer.phase("id"):
                    decompositions = self.backend.batched_row_id(
                        [state.node_block(i) for i in range(state.count)],
                        rel_tol=rel_tol,
                        abs_tols=abs_tols,
                        max_rank=cfg.max_rank,
                    )

                self._record_level_skeletons(depth, state, decompositions)

                ranks = [dec.rank for dec in decompositions]
                levels.append(
                    LevelReport(
                        depth=depth,
                        num_nodes=state.count,
                        samples_used=self._total_samples,
                        sampling_rounds=rounds,
                        max_rank=max(ranks) if ranks else 0,
                        min_rank=min(ranks) if ranks else 0,
                        converged=converged,
                    )
                )
                all_converged = all_converged and converged

                if depth > min_depth:
                    y_next, omega_next, record = engine.finish_level(
                        state, decompositions
                    )
                    self._extract_couplings_packed(depth, engine, record)
                    state = engine.merge_to_parent(
                        record, y_next, omega_next,
                        capacity_hint=state.cols + headroom,
                    )
                else:
                    self._extract_couplings_packed(depth, engine, None)
        return all_converged

    def _record_level_skeletons(
        self, depth: int, state, decompositions: Sequence
    ) -> None:
        """Skeleton/basis bookkeeping of one packed level (shared with the loop)."""
        is_leaf = depth == self.tree.depth
        with self.timer.phase("shrink_upsweep"):
            for tau, dec in zip(state.nodes, decompositions):
                self._record_node_skeleton(tau, dec, is_leaf=is_leaf)

    def _adapt_level_packed(
        self, engine: PackedSweepEngine, state, tester: ConvergenceTester
    ) -> Tuple[bool, int]:
        """Adaptive sampling over the packed state (same schedule as the loop).

        Fresh sample blocks are swept up through the replay records in
        O(levels) launches and appended as new *columns* of the preallocated
        level buffers — no per-node re-copying.
        """
        rounds = 1
        while True:
            with self.timer.phase("convergence"):
                mask = tester.converged_mask(state.y_active, self.backend)
            if bool(np.all(mask)):
                return True, rounds
            if self._samples_exhausted():
                return False, rounds

            block = min(
                self.config.sample_block_size,
                max(self.tree.num_points - self._total_samples, 0),
            )
            if block <= 0:
                return False, rounds
            new_omega, new_y = self._draw_samples(block)
            omega_slab, y_slab = engine.sweep_slab(new_omega, new_y, state.depth)
            with self.timer.phase("shrink_upsweep"):
                state.append(omega_slab, y_slab)
            rounds += 1
