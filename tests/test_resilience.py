"""Tests for repro.resilience — guarded execution, recovery, fault injection.

Covers the tentpole of the resilience PR:

* :class:`repro.resilience.RecoveryPolicy` modes, the typed
  :class:`~repro.resilience.ResilienceError` hierarchy, and the
  ``REPRO_RESILIENCE`` / ``REPRO_FAULTS`` environment opt-ins;
* the deterministic seedable :class:`~repro.resilience.FaultInjector` and its
  spec grammar;
* the full fault matrix — every fault kind under ``strict`` (typed error),
  ``warn`` (structured warning + recovery) and ``recover`` (silent recovery)
  — with *bitwise* equality against an uninjected reference wherever a
  recovery claims to reproduce the clean run;
* the one guarded solve (CG → preconditioned CG → GMRES(m) → HSS direct)
  standalone, through :meth:`repro.Session.solve`, and through
  :class:`repro.GaussianProcess`;
* construction guards: NaN screening, rank-saturation escalation,
  compiled-sweep retries ending in a typed failure, the workspace budget;
* the acceptance criteria: the escalation solves an ill-conditioned system CG
  alone cannot (slow), and with resilience disabled ``construct()`` is the
  unguarded sweep.
"""

from __future__ import annotations

import contextlib
import logging

import numpy as np
import pytest

import repro
from repro import (
    ExecutionPolicy,
    ExponentialKernel,
    GaussianKernel,
    Session,
    uniform_cube_points,
)
from repro.observe import SpanTracer, find_spans
from repro.resilience import (
    FAULT_KINDS,
    ArtifactIntegrityError,
    ConstructionFaultError,
    EscalationExhaustedError,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    MemoryBudgetError,
    RankSaturationError,
    RecoveryPolicy,
    ResilienceError,
    SampleCorruptionError,
    SolveDidNotConvergeError,
)
from repro.solvers import factorize, guarded_solve

# 2048 points are needed for a real packed level sweep: at N=512/leaf=64 the
# strong-admissibility partition has no admissible blocks, so packed-path
# faults (fail-nth-launch, memory budget) would never fire.
N_PACKED = 2048


@pytest.fixture(scope="module")
def packed_points() -> np.ndarray:
    return uniform_cube_points(N_PACKED, dim=2, seed=3)


@pytest.fixture()
def resilience_log() -> list:
    """Capture messages emitted through the ``repro.resilience`` logger."""
    records: list = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append(record.getMessage())
    logger = logging.getLogger("repro.resilience")
    logger.addHandler(handler)
    yield records
    logger.removeHandler(handler)


def compress_policy(points, policy, **kwargs):
    kwargs.setdefault("tol", 1e-6)
    kwargs.setdefault("seed", 7)
    return repro.compress(
        points, ExponentialKernel(0.4), policy=policy,
        full_result=True, **kwargs
    )


# ------------------------------------------------------------------- policy
class TestRecoveryPolicy:
    def test_modes_and_constructors(self):
        from dataclasses import fields

        assert RecoveryPolicy().mode == "recover"
        for mode in ("strict", "warn", "recover"):
            assert RecoveryPolicy(mode=mode).mode == mode
            assert ExecutionPolicy(recovery=mode).recovery == RecoveryPolicy(mode=mode)
        assert [f.name for f in fields(RecoveryPolicy)] == [
            "mode", "rung_maxiter", "memory_budget_bytes",
        ]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(mode="optimistic")

    def test_policy_string_coerced(self):
        policy = ExecutionPolicy(recovery="strict")
        assert isinstance(policy.recovery, RecoveryPolicy)
        assert policy.recovery.mode == "strict"

    def test_faults_string_coerced_and_default_recovery(self):
        policy = ExecutionPolicy(faults="fail-nth-launch:nth=1")
        assert isinstance(policy.faults, FaultInjector)
        # Faults without an explicit recovery imply chaos mode: recover.
        assert policy.recovery is not None
        assert policy.recovery.mode == "recover"

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESILIENCE", "warn")
        policy = ExecutionPolicy()
        assert policy.recovery is not None and policy.recovery.mode == "warn"
        monkeypatch.setenv("REPRO_RESILIENCE", "off")
        assert ExecutionPolicy().recovery is None

    def test_env_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "stall-convergence:iters=2")
        policy = ExecutionPolicy()
        assert policy.faults is not None
        assert policy.faults.installed("stall-convergence")
        assert policy.recovery is not None  # chaos mode

    def test_resolve_backend_installs_nothing(self):
        tracer = repro.SpanTracer()
        policy = ExecutionPolicy(
            backend="serial", tracer=tracer, recovery="warn",
            faults="fail-nth-launch",
        )
        backend = policy.resolve_backend()
        assert not hasattr(backend, "tracer")
        assert not hasattr(backend, "recovery")
        assert not hasattr(backend, "faults")

    def test_policies_sharing_a_backend_do_not_leak(self, packed_points):
        """Recovery and faults ride on the policy, not on the backend: a
        plain policy constructs normally after a chaos policy resolved the
        same backend instance, and the chaos policy still fails typed."""
        backend = repro.VectorizedBackend()
        plain = ExecutionPolicy(backend=backend)
        chaos = ExecutionPolicy(
            backend=backend, recovery="strict", faults="fail-nth-launch:nth=1"
        )
        assert plain.resolve_backend() is chaos.resolve_backend()
        result = compress_policy(packed_points, plain)
        assert result.construction_path == "packed"
        assert chaos.faults.fired("fail-nth-launch") == 0
        with pytest.raises(ConstructionFaultError):
            compress_policy(packed_points, chaos)

    def test_error_hierarchy(self):
        for cls in (
            ConstructionFaultError, SampleCorruptionError,
            RankSaturationError, MemoryBudgetError,
            SolveDidNotConvergeError, ArtifactIntegrityError,
        ):
            assert issubclass(cls, ResilienceError)
        assert issubclass(EscalationExhaustedError, SolveDidNotConvergeError)
        err = RankSaturationError("x", stage="construct.adapt", context={"n": 1})
        assert err.stage == "construct.adapt"
        assert err.context["n"] == 1


# ------------------------------------------------------------------- faults
class TestFaultInjector:
    def test_spec_grammar(self):
        inj = FaultInjector.from_spec(
            "nan-in-gemm-output:nth=2,times=3,count=5;stall-convergence:iters=4"
        )
        assert inj.installed("nan-in-gemm-output")
        assert inj.installed("stall-convergence")
        assert not inj.installed("fail-nth-launch")
        spec = inj.specs["nan-in-gemm-output"]
        assert (spec.nth, spec.times, spec.count) == (2, 3, 5)
        assert inj.specs["stall-convergence"].iters == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultInjector.from_spec("cosmic-ray")

    def test_every_kind_parses(self):
        for kind in FAULT_KINDS:
            assert FaultInjector.from_spec(kind).installed(kind)

    def test_nth_and_times_counting(self):
        inj = FaultInjector.from_spec("fail-nth-launch:nth=2,times=1")
        inj.fail_launch("site")  # first event: below nth
        with pytest.raises(Exception):
            inj.fail_launch("site")  # second event: fires
        inj.fail_launch("site")  # budget exhausted: no longer fires
        assert inj.fired("fail-nth-launch") == 1

    def test_gemm_corruption_is_deterministic(self):
        y = np.ones((64, 8))
        a = FaultInjector.from_spec("nan-in-gemm-output", seed=5)
        b = FaultInjector.from_spec("nan-in-gemm-output", seed=5)
        ya, yb = a.corrupt_gemm_output(y), b.corrupt_gemm_output(y)
        assert np.isnan(ya).any()
        assert np.array_equal(np.isnan(ya), np.isnan(yb))
        # The input is never mutated in place.
        assert np.all(np.isfinite(y))

    def test_stall_caps_maxiter(self):
        inj = FaultInjector.from_spec("stall-convergence:iters=3,times=2")
        assert inj.stall_maxiter(500) == 3
        assert inj.stall_maxiter(None) == 3
        # Fault budget spent: the real maxiter passes through untouched.
        assert inj.stall_maxiter(500) == 500

    def test_firing_counts_every_event_under_threads(self):
        """Four threads share one injector (as a served policy's worker pool
        does): no event or firing is lost, so a ``times=1`` fault cannot fire
        twice."""
        import sys
        import threading

        inj = FaultInjector.from_spec("stall-convergence:nth=1,times=-1")
        calls, threads = 20_000, 4
        start = threading.Barrier(threads, timeout=60)

        def worker():
            start.wait()
            for _ in range(calls):
                inj.stall_maxiter(500)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert len(inj.log) == calls * threads
        assert inj.fired("stall-convergence") == calls * threads
        assert [entry["event"] for entry in inj.log] == list(range(1, calls * threads + 1))

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fired_counts_each_kind_at_its_site(self, kind, tmp_path):
        """The injector is the one record of its firings: ``fired(kind)``
        and the log count every firing of ``kind`` at its own site, up to
        ``times``, and no other kind's."""
        artifact = tmp_path / "artifact.bin"
        artifact.write_bytes(bytes(256))
        inj = FaultInjector.from_spec(f"{kind}:times=2")
        fire = {
            "nan-in-gemm-output": lambda: inj.corrupt_gemm_output(np.ones(4)),
            "fail-nth-launch": lambda: inj.fail_launch("construct.packed"),
            "corrupt-artifact-buffer": lambda: inj.corrupt_artifact(artifact),
            "memory-budget-exceeded": lambda: inj.memory_budget("construct.packed"),
            "stall-convergence": lambda: inj.stall_maxiter(100),
        }[kind]
        for _ in range(3):
            try:
                fire()
            except (InjectedFault, MemoryBudgetError):
                pass
        assert inj.fired(kind) == 2
        assert [entry["kind"] for entry in inj.log] == [kind, kind]
        assert all(inj.fired(other) == 0 for other in FAULT_KINDS if other != kind)

    def test_counter_increments(self):
        inj = FaultInjector.from_spec("memory-budget-exceeded")
        assert inj.fired("memory-budget-exceeded") == 0
        with pytest.raises(Exception):
            inj.memory_budget("construct.packed")
        assert inj.fired("memory-budget-exceeded") == 1


# ------------------------------------------------- construction fault matrix
class TestConstructionFaultMatrix:
    """Every construction fault × {strict, warn, recover}.

    The recovery guarantee is *bitwise*: a recovered construction restores
    the RNG and sample-bank state before retrying, so its matrix acts
    identically to the uninjected reference at the same seed.
    """

    @pytest.fixture(scope="class")
    def reference(self, packed_points):
        result = compress_policy(packed_points, ExecutionPolicy())
        x = np.random.default_rng(0).standard_normal(N_PACKED)
        return result, x, result.matrix.matvec(x)

    def _recovered_matches(self, packed_points, reference, faults, **extra):
        _, x, want = reference
        policy = ExecutionPolicy(recovery="recover", faults=faults, **extra)
        result = compress_policy(packed_points, policy)
        assert np.array_equal(result.matrix.matvec(x), want)
        return result

    # --- fail-nth-launch -------------------------------------------------
    def test_fail_launch_strict_raises(self, packed_points):
        policy = ExecutionPolicy(recovery="strict", faults="fail-nth-launch")
        with pytest.raises(ConstructionFaultError) as excinfo:
            compress_policy(packed_points, policy)
        assert excinfo.value.stage == "construct.packed"

    def test_fail_launch_recover_bitwise(self, packed_points, reference):
        tracer = SpanTracer()
        self._recovered_matches(
            packed_points, reference, "fail-nth-launch", tracer=tracer
        )
        assert len(find_spans(tracer, name="resilience/packed-retry")) == 1

    def test_fail_launch_warn_warns(
        self, packed_points, reference, resilience_log
    ):
        _, x, want = reference
        policy = ExecutionPolicy(recovery="warn", faults="fail-nth-launch")
        result = compress_policy(packed_points, policy)
        assert np.array_equal(result.matrix.matvec(x), want)
        # One fault fired, one retry, one warning record.
        assert [m for m in resilience_log if "packed-retry" in m] == resilience_log
        assert len(resilience_log) == policy.faults.fired("fail-nth-launch") == 1

    @pytest.mark.parametrize("mode", ["recover", "warn"])
    def test_persistent_fail_launch_raises_after_retries(self, packed_points, mode):
        # times=-1 fails every attempt: the retry budget runs out and the
        # failure surfaces typed, with the retries on record.
        from repro.core.builder import MAX_RETRIES as retries

        tracer = SpanTracer()
        policy = ExecutionPolicy(
            recovery=mode, faults="fail-nth-launch:times=-1", tracer=tracer
        )
        with pytest.raises(ConstructionFaultError) as excinfo:
            compress_policy(packed_points, policy)
        assert excinfo.value.stage == "construct.packed"
        assert excinfo.value.context["retries"] == retries
        assert len(find_spans(tracer, name="resilience/packed-retry")) == retries
        assert policy.faults.fired("fail-nth-launch") == retries + 1

    # --- nan-in-gemm-output ----------------------------------------------
    def test_nan_gemm_strict_raises(self, packed_points):
        policy = ExecutionPolicy(
            recovery="strict", faults="nan-in-gemm-output"
        )
        with pytest.raises(SampleCorruptionError):
            compress_policy(packed_points, policy)

    def test_nan_gemm_recover_bitwise(self, packed_points, reference):
        # Recovery relaunches the *same* multiply (same omega); once the
        # fault budget is spent the clean product comes back, so the run is
        # bitwise identical to the uninjected reference.
        tracer = SpanTracer()
        self._recovered_matches(
            packed_points, reference, "nan-in-gemm-output", tracer=tracer
        )
        assert len(find_spans(tracer, name="resilience/sample-relaunch")) == 1

    @pytest.mark.parametrize("nth", [1, 2])
    def test_nan_gemm_never_reaches_the_threshold(
        self, packed_points, reference, nth
    ):
        # nth=1 poisons the first sample block, nth=2 the K @ Q application
        # of the norm estimate taken from it.  Both are screened (and
        # relaunched) before the threshold is derived, so the estimate is
        # finite and the run bitwise equal to the uninjected one.
        clean, x, want = reference
        policy = ExecutionPolicy(
            recovery="recover", faults=f"nan-in-gemm-output:nth={nth}"
        )
        result = compress_policy(packed_points, policy)
        assert policy.faults.fired("nan-in-gemm-output") == 1
        assert np.isfinite(result.norm_estimate)
        assert result.norm_estimate == clean.norm_estimate
        assert np.array_equal(result.matrix.matvec(x), want)

    def test_nan_gemm_warn_warns(
        self, packed_points, reference, resilience_log
    ):
        _, x, want = reference
        policy = ExecutionPolicy(recovery="warn", faults="nan-in-gemm-output")
        result = compress_policy(packed_points, policy)
        assert np.array_equal(result.matrix.matvec(x), want)
        assert any("sample-relaunch" in m for m in resilience_log)

    def test_nan_gemm_exhausted_raises_in_every_mode(self, packed_points):
        # times=-1 corrupts every relaunch: recovery must give up with the
        # typed error rather than return a poisoned matrix.
        for mode in ("recover", "warn"):
            policy = ExecutionPolicy(
                recovery=mode, faults="nan-in-gemm-output:times=-1"
            )
            with pytest.raises(SampleCorruptionError):
                compress_policy(packed_points, policy)

    # --- memory-budget-exceeded ------------------------------------------
    def test_memory_budget_strict_raises(self, packed_points):
        policy = ExecutionPolicy(
            recovery="strict", faults="memory-budget-exceeded"
        )
        with pytest.raises(MemoryBudgetError) as excinfo:
            compress_policy(packed_points, policy)
        assert excinfo.value.stage == "construct.packed"

    @pytest.mark.parametrize("mode", ["warn", "recover"])
    def test_memory_budget_raises_without_fallback(self, packed_points, mode):
        # Re-running the same allocation cannot fit: every mode fails typed.
        policy = ExecutionPolicy(recovery=mode, faults="memory-budget-exceeded")
        with pytest.raises(MemoryBudgetError) as excinfo:
            compress_policy(packed_points, policy)
        assert excinfo.value.stage == "construct.packed"

    def test_real_memory_budget_without_faults(self, packed_points):
        # A tiny configured budget trips the estimator with no injector.
        for mode in ("strict", "warn", "recover"):
            policy = ExecutionPolicy(
                recovery=RecoveryPolicy(mode=mode, memory_budget_bytes=1024)
            )
            with pytest.raises(MemoryBudgetError):
                compress_policy(packed_points, policy)

    @pytest.mark.parametrize(
        "dim, leaf_size, admissibility",
        [
            (3, 32, repro.GeneralAdmissibility(eta=1.5)),
            (2, 256, repro.WeakAdmissibility()),
        ],
        ids=["strong3d", "weak2d"],
    )
    def test_memory_budget_guards_the_compiled_workspace(
        self, dim, leaf_size, admissibility
    ):
        """The estimate covers the allocation it guards (padded dense stack,
        its operand copy, sample stacks), and a budget just below it fails
        typed in every mode before the sweep allocates."""
        import tracemalloc

        tree = repro.ClusterTree.build(
            uniform_cube_points(1024, dim=dim, seed=13), leaf_size=leaf_size
        )
        partition = repro.build_block_partition(tree, admissibility)
        dense = ExponentialKernel(0.2).matrix(tree.points)

        def constructor(recovery=None):
            return repro.H2Constructor(
                partition, repro.DenseOperator(dense), repro.DenseEntryExtractor(dense),
                repro.ConstructionConfig(tolerance=1e-4), seed=3, recovery=recovery,
            )

        def traced_peak(built):
            """Construct under tracemalloc: (result or raised error, peak)."""
            tracemalloc.start()
            try:
                outcome = built.construct()
            except MemoryBudgetError as exc:
                outcome = exc
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            return outcome, peak

        result, peak = traced_peak(constructor())
        workspace = peak - result.matrix.memory_bytes()["total"]

        with pytest.raises(MemoryBudgetError) as excinfo:
            constructor(RecoveryPolicy(mode="strict", memory_budget_bytes=1)).construct()
        estimate = excinfo.value.context["estimate_bytes"]
        assert estimate >= 0.5 * workspace

        for mode in ("strict", "warn", "recover"):
            budget = RecoveryPolicy(mode=mode, memory_budget_bytes=estimate - 1)
            error, failed_peak = traced_peak(constructor(budget))
            assert isinstance(error, MemoryBudgetError)
            assert failed_peak < estimate

    # --- chaos mode -------------------------------------------------------
    def test_env_faults_alone_still_pass(
        self, packed_points, reference, monkeypatch
    ):
        # REPRO_FAULTS with no recovery spec = chaos mode: the implied
        # recover policy absorbs the fault and the answer is still bitwise
        # correct.
        _, x, want = reference
        monkeypatch.setenv("REPRO_FAULTS", "fail-nth-launch:nth=1")
        result = compress_policy(packed_points, ExecutionPolicy())
        assert np.array_equal(result.matrix.matvec(x), want)


# ------------------------------------------------------------ rank saturation
class TestRankSaturation:
    # This configuration reliably fails to reach tol=1e-10 within
    # max_samples=16 on the exponential kernel (slowly decaying far-field
    # spectrum), which is exactly the saturation the guard escalates out of.
    CONFIG = dict(
        tol=1e-10, max_samples=16, initial_samples=8, sample_block_size=8,
        seed=7,
    )

    def _compress(self, points, policy):
        return repro.compress(
            points, ExponentialKernel(0.5), policy=policy,
            full_result=True, **self.CONFIG
        )

    def test_baseline_saturates(self, packed_points):
        result = self._compress(packed_points, ExecutionPolicy())
        assert not result.converged

    def test_strict_raises(self, packed_points):
        with pytest.raises(RankSaturationError):
            self._compress(packed_points, ExecutionPolicy(recovery="strict"))

    def test_recover_escalates_to_convergence(self, packed_points):
        result = self._compress(packed_points, ExecutionPolicy(recovery="recover"))
        assert result.converged
        # The escalated budget exceeded the original 16-sample cap.
        assert result.total_samples > 16

    def test_warn_escalates_and_warns(self, packed_points, resilience_log):
        result = self._compress(packed_points, ExecutionPolicy(recovery="warn"))
        assert result.converged
        assert any("rank-saturation" in m for m in resilience_log)


# ------------------------------------------------------------------- ladder
def recover_policy(rung_maxiter: int = 100, **kwargs) -> ExecutionPolicy:
    return ExecutionPolicy(
        recovery=RecoveryPolicy(rung_maxiter=rung_maxiter), **kwargs
    )


@contextlib.contextmanager
def bound(op, policy: ExecutionPolicy):
    """``op`` bound to ``policy`` inside the block (its solves and rung spans
    record to the policy's tracer), to its own binding again after it."""
    backend, tracer = op.apply_backend, op.apply_tracer
    policy.bind(op)
    try:
        yield op
    finally:
        op.bind(backend, tracer)


class TestEscalationLadder:
    """cg stagnates at 20 iterations on the exponential kernel; pcg
    (HSS-preconditioned) converges in O(1) iterations."""

    @pytest.fixture(scope="class")
    def hss_system(self):
        points = uniform_cube_points(1024, dim=2, seed=9)
        op = repro.compress(
            points, ExponentialKernel(1.0), tol=1e-10, format="hss", seed=2
        )
        b = np.random.default_rng(4).standard_normal(1024)
        return op, b

    @pytest.fixture(scope="class")
    def small_hss_system(self):
        points = uniform_cube_points(512, dim=2, seed=9)
        op = repro.compress(
            points, ExponentialKernel(1.0), tol=1e-10, format="hss", seed=2
        )
        b = np.random.default_rng(4).standard_normal(512)
        return op, b

    def test_cg_fails_pcg_converges(self, hss_system):
        op, b = hss_system
        result = guarded_solve(
            op, b, tol=1e-8, shift=1e-6, maxiter=20,
            policy=recover_policy(rung_maxiter=20),
        )
        assert result.converged
        ladder = result.extra["escalation"]
        rungs = {r["rung"]: r for r in ladder["rungs"]}
        assert not rungs["cg"]["converged"]
        assert ladder["converged_rung"] in ("pcg", "gmres", "direct")
        assert ladder["escalations"] >= 1
        # The answer is a real solve: check the residual directly.
        r = op.matvec(result.x) + 1e-6 * result.x - b
        assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(b) * 10

    def test_escalation_counter_and_spans(self, hss_system):
        op, b = hss_system
        tracer = repro.SpanTracer()
        policy = recover_policy(rung_maxiter=20, tracer=tracer)
        with bound(op, policy):
            result = guarded_solve(
                op, b, tol=1e-8, shift=1e-6, maxiter=20, policy=policy,
            )
        escalations = result.extra["escalation"]["escalations"]
        assert escalations >= 1
        spans = find_spans(tracer, category="resilience")
        assert len(spans) == escalations
        assert all(s.name.startswith("resilience/ladder:") for s in spans)

    def test_exhaustion_raises_with_result(self, hss_system):
        op, b = hss_system
        with pytest.raises(EscalationExhaustedError) as excinfo:
            # No rung iterates, and the direct solve misses 1e-15.
            guarded_solve(
                op, b, tol=1e-15, shift=1e-6, maxiter=0,
                policy=recover_policy(rung_maxiter=0),
            )
        # The best partial result rides on the error for inspection.
        assert excinfo.value.result is not None
        assert not excinfo.value.result.converged
        rungs = [r["rung"] for r in excinfo.value.context["rungs"]]
        assert rungs == ["cg", "pcg", "gmres", "direct"]

    def test_stall_fault_drives_escalation(self, hss_system):
        op, b = hss_system
        result = guarded_solve(
            op, b, tol=1e-8, shift=1e-6,
            policy=recover_policy(faults="stall-convergence:iters=2"),
        )
        assert result.converged
        assert result.extra["escalation"]["escalations"] >= 1

    def test_converges_at_direct(self, small_hss_system):
        """With no iteration anywhere only the direct rung can converge: its
        answer is checked against the operator itself."""
        op, b = small_hss_system
        result = guarded_solve(
            op, b, tol=1e-10, shift=1e-6, maxiter=0,
            policy=recover_policy(rung_maxiter=0),
        )
        assert result.converged and result.method == "direct"
        ladder = result.extra["escalation"]
        assert [r["rung"] for r in ladder["rungs"]] == ["cg", "pcg", "gmres", "direct"]
        assert ladder["converged_rung"] == "direct"
        assert ladder["escalations"] == 3
        residual = op.matvec(result.x) + 1e-6 * result.x - b
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)

    def test_direct_rung_checks_its_residual(self, small_hss_system):
        """A factorization of the wrong system (shift 1 for shift 1e-6) misses
        the residual check, and its zero-iteration polish cannot rescue it:
        the last rung raises instead of returning the unchecked answer."""
        op, b = small_hss_system
        with pytest.raises(EscalationExhaustedError) as excinfo:
            guarded_solve(
                op, b, tol=1e-10, shift=1e-6, maxiter=0,
                factorization=factorize(op, shift=1.0),
                policy=recover_policy(rung_maxiter=0),
            )
        result = excinfo.value.result
        assert not result.converged
        assert result.method == "direct+pcg"

    @pytest.mark.parametrize("method, factored, rungs", [
        ("cg", False, ["cg", "pcg", "gmres", "direct"]),
        ("cg", True, ["pcg", "gmres", "direct"]),
        ("gmres", False, ["gmres", "pcg", "direct"]),
        ("gmres", True, ["gmres", "direct"]),
    ])
    def test_rung_order(self, small_hss_system, method, factored, rungs):
        """The first solve is the first rung; the escalation runs the rungs
        of CG → PCG → GMRES → direct it did not cover, in that order."""
        op, b = small_hss_system
        tracer = SpanTracer()
        policy = recover_policy(rung_maxiter=0, tracer=tracer)
        with bound(op, policy), pytest.raises(EscalationExhaustedError) as excinfo:
            guarded_solve(
                op, b, method=method, tol=1e-15, shift=1e-6, maxiter=0,
                factorization=factorize(op, shift=1e-6) if factored else None,
                policy=policy,
            )
        record = excinfo.value.context
        assert [r["rung"] for r in record["rungs"]] == rungs
        assert record["escalations"] == len(rungs) - 1
        assert [s.name for s in find_spans(tracer, category="resilience")] == [
            f"resilience/ladder:{rung}" for rung in rungs[1:]
        ]

    @pytest.mark.parametrize("mode", ["strict", "warn", "recover"])
    def test_dense_operator_rejected(self, mode):
        """Only an H2 matrix has the factorization the escalation needs: a
        dense array is refused at entry, before any solve."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64))
        a = a @ a.T + 64 * np.eye(64)
        with pytest.raises(TypeError, match="expected an H2Matrix"):
            guarded_solve(
                a, rng.standard_normal(64), tol=1e-12, maxiter=1,
                policy=ExecutionPolicy(recovery=mode),
            )


# ------------------------------------------------------- session integration
class TestSessionResilience:
    @pytest.fixture(scope="class")
    def session_setup(self):
        points = uniform_cube_points(1024, dim=2, seed=9)
        b = np.random.default_rng(4).standard_normal(1024)
        return points, b

    def _session(self, points, recovery, **policy_kwargs):
        sess = Session(
            points, policy=ExecutionPolicy(recovery=recovery, **policy_kwargs),
            seed=2,
        )
        sess.compress(ExponentialKernel(1.0), 1e-10)
        return sess

    def test_strict_raises_on_stagnation(self, session_setup):
        points, b = session_setup
        sess = self._session(points, "strict")
        with pytest.raises(SolveDidNotConvergeError) as excinfo:
            sess.solve(b, tol=1e-10, maxiter=2)
        assert excinfo.value.result is not None

    def test_warn_returns_flagged(self, session_setup, resilience_log):
        points, b = session_setup
        sess = self._session(points, "warn")
        result = sess.solve(b, tol=1e-10, maxiter=2)
        assert not result.converged
        assert any("solve-not-converged" in m for m in resilience_log)

    def test_recover_escalates(self, session_setup):
        points, b = session_setup
        sess = self._session(points, "recover")
        result = sess.solve(b, tol=1e-8, maxiter=2)
        assert result.converged
        assert result.extra["escalated_from"] == "cg"

    def test_no_recovery_returns_unconverged(self, session_setup):
        # Without a recovery policy the pre-PR behavior is unchanged: the
        # caller gets the flagged result back.
        points, b = session_setup
        sess = Session(points, seed=2)
        sess.compress(ExponentialKernel(1.0), 1e-10)
        result = sess.solve(b, tol=1e-10, maxiter=2)
        assert not result.converged

    def test_escalation_counts_the_first_attempt(self, session_setup):
        """A CG rescued by PCG is one escalation: the record starts with the
        failed CG, it counts one escalation and the time covers both."""
        points, b = session_setup
        sess = self._session(points, "recover")
        result = sess.solve(b, tol=1e-8, maxiter=2)
        assert result.converged
        assert result.extra["escalated_from"] == "cg"
        ladder = result.extra["escalation"]
        assert [r["rung"] for r in ladder["rungs"]] == ["cg", "pcg"]
        assert [r["converged"] for r in ladder["rungs"]] == [False, True]
        assert ladder["escalations"] == 1
        assert result.elapsed_seconds >= sum(r["time_s"] for r in ladder["rungs"])

    def test_stall_fault_through_session(self, session_setup):
        points, b = session_setup
        sess = self._session(
            points, "recover", faults="stall-convergence:iters=2"
        )
        result = sess.solve(b, tol=1e-8)
        assert result.converged


# ------------------------------------------------------------ gp integration
class TestGaussianProcessResilience:
    def test_stall_fault_recovers(self):
        from repro.gp import GaussianProcess

        points = uniform_cube_points(512, dim=2, seed=13)
        y = np.sin(points[:, 0] * 3.0) + points[:, 1]
        policy = ExecutionPolicy(
            recovery="recover", faults="stall-convergence:iters=1"
        )
        gp = GaussianProcess(
            points, GaussianKernel(length_scale=0.5), noise=1e-4,
            policy=policy,
        ).fit(y)
        assert np.all(np.isfinite(gp.predict(points[:16])))

    def test_stall_fault_does_not_reach_the_direct_fit(self):
        """The GP solves with the exact factorization of its covariance: a
        strict policy's stall fault finds no Krylov solve to stall, and the
        answers are the fault-free ones."""
        from repro.gp import GaussianProcess

        points = uniform_cube_points(256, dim=2, seed=13)
        y = np.sin(points[:, 0] * 3.0) + points[:, 1]

        def fitted(policy):
            return GaussianProcess(points, GaussianKernel(length_scale=0.5),
                                   noise=1e-4, policy=policy).fit(y)

        policy = ExecutionPolicy(recovery="strict",
                                 faults="stall-convergence:iters=0")
        gp, clean = fitted(policy), fitted(ExecutionPolicy())
        mean, std = gp.predict(points[:8], return_std=True)
        clean_mean, clean_std = clean.predict(points[:8], return_std=True)
        assert policy.faults.fired("stall-convergence") == 0
        assert np.array_equal(gp.alpha_, clean.alpha_)
        assert np.array_equal(mean, clean_mean) and np.array_equal(std, clean_std)


# ------------------------------------------------------------- guarded solve
def _session_solve(points, y, policy):
    sess = Session(points, policy=policy, seed=2)
    sess.compress(ExponentialKernel(1.0), 1e-10)
    sess.solve(y, tol=1e-8)


def _served_solve(points, y, policy):
    import asyncio

    from repro.serve import InferenceServer, SolveRequest

    operator = repro.compress(
        points, ExponentialKernel(0.3), format="hss", tol=1e-9, seed=5
    )
    server = InferenceServer(policy=policy)
    server.register("m", operator, noise=1e-2)
    try:
        asyncio.run(server.handle(
            SolveRequest(model="m", b=y, method="cg", tol=1e-10)
        ))
    finally:
        asyncio.run(server.aclose())


def loosen_factorization(gp):
    """Swap the fitted factorization for one of ``K + 10 noise I``: it is not
    of the shifted covariance, so the direct solve measures its residual, and
    every predict column misses the tolerance and is polished."""
    from dataclasses import replace

    state = gp._require_fit()
    loose = repro.factorize(state.matrix, shift=10.0 * gp.noise)
    gp._state = replace(state, factorization=loose)


def _gp_polish(points, y, policy):
    from repro.gp import GaussianProcess

    gp = GaussianProcess(
        points, GaussianKernel(length_scale=0.5), noise=1e-4, policy=policy,
    ).fit(y)  # a direct solve with the exact factorization: nothing to guard
    loosen_factorization(gp)
    gp.predict(points[:4], return_std=True)


class TestGuardedSolve:
    """Every product Krylov solve runs through ``guarded_solve``: a stalled
    solve raises under ``strict``, warns under ``warn`` and escalates under
    ``recover``, with one mapping at all three call sites (the GP's through
    the polish of ``direct_solve``).  The stall caps ``maxiter`` at 0: a CG
    preconditioned by the exact HSS factorization converges in one
    iteration, so ``iters=1`` cannot stall the served CG."""

    #: site -> (runner, fault spec, warning event, further warning text)
    SITES = {
        "session": (_session_solve, "stall-convergence:iters=0",
                    "solve-not-converged", ""),
        "server": (_served_solve, "stall-convergence:iters=0",
                   "solve-not-converged", "model=m"),
        "gp-polish": (_gp_polish, "stall-convergence:iters=0,nth=1",
                      "gp-solve-not-converged", ""),
    }

    @pytest.fixture(scope="class")
    def problem(self):
        points = uniform_cube_points(512, dim=2, seed=13)
        return points, np.sin(points[:, 0] * 3.0) + points[:, 1]

    @pytest.fixture()
    def solves(self, monkeypatch):
        """Every result ``guarded_solve`` returns, at every call site."""
        import repro.solvers.ladder

        real = repro.solvers.ladder.guarded_solve
        results = []

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(repro.solvers.ladder, "guarded_solve", spy)
        return results

    @pytest.mark.parametrize("mode", ["strict", "warn", "recover"])
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_recovery_mapping(self, site, mode, problem, request, resilience_log):
        points, y = problem
        runner, spec, event, detail = self.SITES[site]
        policy = ExecutionPolicy(recovery=mode, faults=spec)
        if mode == "strict":
            with pytest.raises(SolveDidNotConvergeError) as excinfo:
                runner(points, y, policy)
            assert not excinfo.value.result.converged
            return
        solves = request.getfixturevalue("solves")
        runner(points, y, policy)
        assert policy.faults.fired("stall-convergence") == 1
        stalled = [
            r for r in solves if not r.converged or "escalated_from" in r.extra
        ]
        assert len(stalled) == 1
        warnings = [m for m in resilience_log if f"event={event} " in m]
        if mode == "warn":
            assert not stalled[0].converged
            assert len(warnings) == 1 and detail in warnings[0]
        else:
            assert stalled[0].converged
            assert stalled[0].extra["escalated_from"] == "cg"
            assert not warnings


# ---------------------------------------------------------------- acceptance
@pytest.mark.slow
class TestAcceptance:
    def test_ladder_solves_ill_conditioned_system(self):
        """Acceptance: N=4096 exponential-kernel system where plain CG
        stagnates; the escalation must deliver a 1e-8 relative residual."""
        n = 4096
        points = uniform_cube_points(n, dim=2, seed=21)
        op = repro.compress(
            points, ExponentialKernel(1.0), tol=1e-10, format="hss", seed=2
        )
        b = np.random.default_rng(8).standard_normal(n)
        shift = 1e-7
        result = guarded_solve(
            op, b, tol=1e-8, shift=shift, maxiter=30,
            policy=recover_policy(rung_maxiter=30),
        )
        assert result.converged
        ladder = result.extra["escalation"]
        assert ladder["escalations"] >= 1  # cg alone was not enough
        r = op.matvec(result.x) + shift * result.x - b
        assert np.linalg.norm(r) / np.linalg.norm(b) <= 1e-7


class TestDisabledResilience:
    def test_construct_without_recovery_is_the_unguarded_sweep(self, monkeypatch):
        """With no recovery and no faults, ``construct()`` never enters
        ``_construct_guarded`` (a spy raises) and opens no ``resilience``
        span; its result is the unguarded sweep's bit for bit.  What the
        dispatch costs in wall-clock time is the benchmark's to measure."""
        from repro.api.facade import _resolve_evaluators, _resolve_geometry
        from repro.core.builder import H2Constructor
        from repro.core.config import ConstructionConfig

        points = uniform_cube_points(1024, dim=2, seed=5)
        tree, partition = _resolve_geometry(points, "h2", 64, 0.7, None, None, None)
        operator, extractor = _resolve_evaluators(
            ExponentialKernel(0.2), tree, None, None
        )

        def constructor(**kwargs):
            return H2Constructor(
                partition, operator, extractor,
                ConstructionConfig(tolerance=1e-5), seed=1, **kwargs,
            )

        reference = constructor()._construct()

        def guarded(self):
            raise AssertionError("construct() entered the guarded path")

        monkeypatch.setattr(H2Constructor, "_construct_guarded", guarded)
        tracer = SpanTracer()
        unguarded = constructor(tracer=tracer)
        assert unguarded.recovery is None and unguarded.faults is None
        result = unguarded.construct()
        assert find_spans(tracer, name="construct")
        assert find_spans(tracer, category="resilience") == []
        assert result.kernel_launches == reference.kernel_launches
        assert np.array_equal(
            result.matrix.to_dense(permuted=True),
            reference.matrix.to_dense(permuted=True),
        )
