"""The traced run: per-layer numbers from spans recorded *outside* the program.

Every span is opened in this file around a call into a layer's public
function, or by a benchmark-side proxy handed in through a documented
extension point (``operator=`` / ``extractor=`` / ``ConstructionConfig(backend=)``).
Nothing under ``src/`` is edited and no tracer of the program is on, except
for the one ``observe`` probe that measures what turning it on costs.

Flops and bytes are *computed* from operand shapes, never measured.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import (
    ArtifactCache,
    ClusterTree,
    EntryExtractor,
    ExecutionPolicy,
    ExponentialKernel,
    H2EntryExtractor,
    HODLRFactorization,
    Session,
    SketchingOperator,
    SpanTracer,
    VectorizedBackend,
    build_block_partition,
    compile_apply_plan,
    convert,
    estimate_spectral_norm,
    load_operator,
    row_id,
    save_operator,
)

from env import last_level_cache_bytes
from pipeline import Ops, ServeSession, percentile, relative_error, system_residual
from spans import Span, SpanRecorder
from workloads import (
    GP_LENGTH_SCALES,
    TOL,
    WORKLOADS,
    Inputs,
    Workload,
    expert_construct,
    gp_sweep,
)


# ------------------------------------------------------------------- proxies
class TimedOperator(SketchingOperator):
    """``SketchingOperator`` proxy: one ``sketching.multiply`` span per application."""

    def __init__(self, inner: SketchingOperator, rec: SpanRecorder):
        super().__init__()
        self.inner = inner
        self.rec = rec

    @property
    def n(self) -> int:
        return self.inner.n

    def _multiply(self, omega: np.ndarray) -> np.ndarray:
        with self.rec.span("sketching.multiply", columns=omega.shape[1]):
            return self.inner._multiply(omega)


class TimedExtractor(EntryExtractor):
    """``EntryExtractor`` proxy: one ``sketching.extract`` span per evaluation."""

    def __init__(self, inner: EntryExtractor, rec: SpanRecorder):
        super().__init__()
        self.inner = inner
        self.rec = rec

    @property
    def supports_stacked(self) -> bool:  # type: ignore[override]
        return self.inner.supports_stacked

    @property
    def n(self) -> int:
        return self.inner.n

    def _extract(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        with self.rec.span("sketching.extract", entries=rows.size * cols.size):
            return self.inner._extract(rows, cols)

    def _extract_stacked(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        with self.rec.span(
            "sketching.extract", entries=rows.shape[0] * rows.shape[1] * cols.shape[1]
        ):
            return self.inner._extract_stacked(rows, cols)


def _gemm_work(a, b, transpose_b: bool = False) -> tuple:
    """Computed flops and bytes of per-item products ``op(a_i) @ op(b_i)``."""
    flops = nbytes = 0
    for x, y in zip(a, b):
        n = y.shape[0] if transpose_b else y.shape[1]
        k = y.size // n
        flops += 2 * x.size * n
        nbytes += 8 * (x.size + y.size + (x.size // k) * n)
    return flops, nbytes


class TimedBackend(VectorizedBackend):
    """``VectorizedBackend`` whose public ``batched_*`` methods record spans.

    Launches are the growth of the backend's own counter across the call;
    GEMM flops/bytes are computed from the operand shapes.
    """

    name = "vectorized"

    def __init__(self, rec: SpanRecorder):
        super().__init__()
        self.rec = rec

    def _timed(self, span_name: str, method, *args, **counts):
        """Run the parent class's ``method(*args)`` inside a span."""
        before = self.counter.total()
        with self.rec.span(span_name, **counts) as span:
            out = method(*args)
            span.counts["launches"] = self.counter.total() - before
        return out

    def batched_gemm(self, a, b, transpose_a=False, transpose_b=False):
        flops, nbytes = _gemm_work(a, b, transpose_b)
        return self._timed("batched.gemm", super().batched_gemm,
                           a, b, transpose_a, transpose_b, flops=flops, bytes=nbytes)

    def batched_gemm_accumulate(self, c, a, b, alpha=1.0):
        flops, nbytes = _gemm_work(a, b)
        return self._timed("batched.gemm", super().batched_gemm_accumulate,
                           c, a, b, alpha, flops=flops, bytes=nbytes)

    def batched_gemm_scatter(self, dest, dest_pos, a, src, src_pos, alpha=1.0,
                             operation="batched_scatter_gemm"):
        rows = len(dest_pos)
        flops = nbytes = 0
        if rows and isinstance(a, np.ndarray) and a.ndim == 3:
            stack = self._as_uniform_stack(src)
            k = stack.shape[2] if stack is not None else 0
            g, p, cq = a.shape
            flops = 2 * g * p * cq * k
            nbytes = 8 * (a.size + g * cq * k + 2 * g * p * k)
        return self._timed("batched.gemm_scatter", super().batched_gemm_scatter,
                           dest, dest_pos, a, src, src_pos, alpha, operation,
                           flops=flops, bytes=nbytes)

    def batched_row_id(self, a, rel_tol=None, abs_tols=None, max_rank=None):
        return self._timed("batched.row_id", super().batched_row_id,
                           a, rel_tol, abs_tols, max_rank, items=len(a))

    def batched_min_r_diag(self, a):
        return self._timed("batched.qr", super().batched_min_r_diag, a)

    def batched_transpose(self, a):
        return self._timed("batched.transpose", super().batched_transpose, a)

    def batched_random_normal(self, shapes, seed=None):
        return self._timed("batched.rand", super().batched_random_normal, shapes, seed)

    def batched_rows(self, a, row_sets):
        return self._timed("batched.gather", super().batched_rows, a, row_sets)


# --------------------------------------------------------------- calibration
def calibrate(smoke: bool) -> Dict[str, float]:
    """Machine peaks measured in the same run, best of 5 each.

    GEMM: a 512-item stack of 64x64x64 ``np.matmul`` (the shape class the
    batched launches use) and one 2048^3 DGEMM; the larger rate is the peak.
    Copy: ``a *= q`` in place on an array of 4x the last-level cache.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 64, 64))
    b = rng.standard_normal((512, 64, 64))
    size = 512 if smoke else 2048
    big_a = rng.standard_normal((size, size))
    big_b = rng.standard_normal((size, size))

    def best(fn, repeats=5) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    stack_gflops = 2 * 512 * 64**3 / best(lambda: np.matmul(a, b)) / 1e9
    dgemm_gflops = 2 * size**3 / best(lambda: big_a @ big_b) / 1e9

    # STREAM "scale" in place: one array is read and written per pass, so a
    # single allocation of 4x the last-level cache is enough.
    llc = last_level_cache_bytes()
    array_bytes = 8 * 2**20 if smoke else 4 * llc
    data = np.ones(array_bytes // 8)
    scale_s = best(lambda: np.multiply(data, 1.0000001, out=data), repeats=3)
    del data
    gc.collect()
    return {
        "stack_gflops": stack_gflops, "dgemm_gflops": dgemm_gflops,
        "peak_gemm_gflops": max(stack_gflops, dgemm_gflops),
        # One read plus one write of the array per pass.
        "copy_gbs": 2 * array_bytes / scale_s / 1e9,
        "copy_array_mib": array_bytes / 2**20, "llc_mib": llc / 2**20,
    }


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span on the most expensive proxy path
    (``TimedBackend._timed``: two counter reads, the span, one extra call)."""
    backend = TimedBackend(SpanRecorder())

    def noop() -> None:
        return None

    t0 = time.perf_counter()
    for _ in range(samples):
        backend._timed("batched.noop", noop, flops=0, bytes=0)
    t1 = time.perf_counter()
    for _ in range(samples):
        noop()
    t2 = time.perf_counter()
    return ((t1 - t0) - (t2 - t1)) / samples


# --------------------------------------------------------------------- helpers
def _timeit(fn) -> tuple:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _median_time(fn, repeats: int) -> float:
    return statistics.median(_timeit(fn)[0] for _ in range(repeats))


def _fit_exponent(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _dense_fraction(tree: ClusterTree, partition) -> float:
    entries = sum(
        tree.cluster_size(s) * tree.cluster_size(t)
        for s, t in partition.inadmissible_leaf_pairs()
    )
    return entries / float(tree.num_points) ** 2


# ---------------------------------------------------------------- construct
def traced_construct(workload: Workload, inp: Inputs, rec: SpanRecorder):
    """``construct`` span around the expert path with proxies and timed backend."""
    backend = TimedBackend(rec)
    rec.next_trial()
    with rec.span("construct") as root:
        with rec.span("construct.prepare"):
            workload.evaluators(inp)  # geometry / kernel values the façade call builds
        with rec.span("core.construct"):
            result = expert_construct(
                workload, inp,
                wrap=lambda op, ex: (TimedOperator(op, rec), TimedExtractor(ex, rec)),
                backend=backend,
            )
    return root, result


def construct_decomposition(rec: SpanRecorder, root: Span) -> Dict[str, float]:
    """Per-layer times and counts below the ``core.construct`` span of ``root``."""
    core = next(s for s in rec.children(root) if s.name == "core.construct")
    gemm_kinds = ("batched.gemm", "batched.gemm_scatter")
    gemm_time = sum(rec.total(core, kind) for kind in gemm_kinds)
    gemm_flops = sum(rec.count(core, kind, "flops") for kind in gemm_kinds)
    return {
        "sketching.multiply_s": rec.total(core, "sketching.multiply"),
        "sketching.multiply_calls": rec.count(core, "sketching.multiply"),
        "sketching.multiply_columns": rec.count(core, "sketching.multiply", "columns"),
        "sketching.extract_s": rec.total(core, "sketching.extract"),
        "sketching.extract_calls": rec.count(core, "sketching.extract"),
        "sketching.extract_entries": rec.count(core, "sketching.extract", "entries"),
        "batched.launches": float(sum(
            s.counts.get("launches", 0) for s in rec.descendants(core)
            if s.name.startswith("batched."))),
        "batched.row_id_launches": rec.count(core, "batched.row_id", "launches"),
        "batched.gemm_scatter_launches": rec.count(core, "batched.gemm_scatter", "launches"),
        "batched.gemm_launches": rec.count(core, "batched.gemm", "launches"),
        "batched.gather_launches": rec.count(core, "batched.gather", "launches"),
        "batched.row_id_s": rec.total(core, "batched.row_id"),
        "batched.gemm_scatter_s": rec.total(core, "batched.gemm_scatter"),
        "batched.gemm_s": rec.total(core, "batched.gemm"),
        "batched.gemm_gflops": gemm_flops / gemm_time / 1e9 if gemm_time > 0 else 0.0,
        "core.construct_self_s": rec.self_time(core),
    }


# ------------------------------------------------------------------------ run
def run_traced(workload: Workload, seed: int, workdir: Path,
               spans_out: Optional[Path]) -> dict:
    smoke = workload.smoke
    rec = SpanRecorder()
    ops = Ops()
    m: Dict[str, tuple] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (float(value), unit)

    started = time.perf_counter()

    def progress(stage: str) -> None:
        print(f"[{time.perf_counter() - started:6.1f} s] {stage}", file=sys.stderr)

    cal = calibrate(smoke)
    progress("calibrated")
    put("batched.peak_gemm_gflops", cal["peak_gemm_gflops"], "GFLOP/s")
    put("batched.copy_gbs", cal["copy_gbs"], "GB/s")

    # ------------------------------------------------------------ tree, kernels
    with rec.span("setup"):
        inp = workload.setup(seed)
    n = workload.n
    with rec.span("tree.build") as s_tree:
        tree = ClusterTree.build(inp.points, leaf_size=workload.leaf_size)
    with rec.span("tree.partition") as s_part:
        partition = build_block_partition(tree, workload.admissibility())
    put("tree.build_s", s_tree.duration, "s")
    put("tree.partition_s", s_part.duration, "s")
    put("tree.levels", tree.num_levels, "count")
    put("tree.admissible_blocks", partition.num_admissible_blocks(), "count")
    put("tree.dense_blocks", partition.num_inadmissible_blocks(), "count")
    put("tree.dense_fraction", _dense_fraction(tree, partition), "ratio")

    rows = tree.points[: min(2048, n)]
    eval_s = min(
        _timeit(lambda: workload.kernel.evaluate(rows, tree.points))[0] for _ in range(3)
    )
    put("kernels.eval_mentries_per_s", rows.shape[0] * n / eval_s / 1e6, "Mentries/s")

    progress("geometry and kernel probes done")
    # --------------------------------------------------- construct, three ways
    # plain expert path / same with proxies + timed backend / same under the
    # program's own SpanTracer; alternated, the minimum of each kept.
    rounds = 1 if smoke else 3
    pristine = replace(inp, extra=dict(inp.extra))

    def fresh_inputs() -> Inputs:
        # As set-up returned them: geometry the façade call builds itself is
        # not cached yet, so every variant below pays it again.
        return replace(pristine, extra=dict(pristine.extra))

    plain_s: List[float] = []
    traced_s: List[float] = []
    tracer_on_s: List[float] = []
    root = result = None
    for _ in range(rounds):
        fresh = fresh_inputs()
        t, _ = _timeit(lambda: (workload.evaluators(fresh), expert_construct(workload, fresh)))
        plain_s.append(t)
        fresh = fresh_inputs()
        root, result = traced_construct(workload, fresh, rec)
        traced_s.append(root.duration)
        fresh = fresh_inputs()
        policy = ExecutionPolicy(tracer=SpanTracer())
        t, _ = _timeit(lambda: (
            workload.evaluators(fresh),
            expert_construct(workload, fresh, backend=policy.resolve_backend()),
        ))
        tracer_on_s.append(t)
        del fresh
    construct_span = root.duration
    for name, value in construct_decomposition(rec, root).items():
        unit = ("s" if name.endswith("_s") else "GFLOP/s" if name.endswith("gflops")
                else "count")
        put(name, value, unit)
    put("batched.gemm_frac_peak",
        m["batched.gemm_gflops"][0] / cal["peak_gemm_gflops"], "ratio")
    # The A/B ratio min(traced)/min(plain) cannot resolve 1 % on a host whose
    # speed moves by 10 % (both lists are in info); the overhead is computed
    # instead: spans recorded x the measured cost of one span.
    span_cost = span_cost_s(2000 if smoke else 20000)
    span_seconds = (len(rec.descendants(root)) + 1) * span_cost
    put("bench.span_overhead_frac", span_seconds / (root.duration - span_seconds), "ratio")
    put("observe.tracer_on_overhead_frac", min(tracer_on_s) / min(plain_s) - 1.0, "ratio")
    basis = result.matrix.basis
    ranks = [basis.rank(node) for node in range(tree.num_nodes) if basis.has_basis(node)]
    put("core.launches", result.total_kernel_launches, "count")
    put("core.samples", result.total_samples, "count")
    put("core.max_rank", max(ranks, default=0), "count")
    put("core.mean_rank", statistics.fmean(ranks) if ranks else 0.0, "count")

    progress("constructs done")
    # ------------------------------------------------------- scaling ladder
    ladder = []
    for size in (n // 4, n // 2):
        small = WORKLOADS[workload.name](smoke=smoke, n=size)
        small_inp = small.setup(seed)
        t, res = _timeit(lambda: (small.evaluators(small_inp),
                                  expert_construct(small, small_inp))[1])
        ladder.append((size, t, res.matrix.memory_bytes()["total"],
                       res.total_kernel_launches, res.matrix.tree.num_levels))
        del small_inp, res
    ladder.append((n, min(plain_s), result.matrix.memory_bytes()["total"],
                   result.total_kernel_launches, tree.num_levels))
    sizes = [p[0] for p in ladder]
    put("core.time_exponent", _fit_exponent(sizes, [p[1] for p in ladder]), "exponent")
    put("core.memory_exponent", _fit_exponent(sizes, [p[2] for p in ladder]), "exponent")
    put("core.launches_per_level", ladder[-1][3] / ladder[-1][4], "count")

    progress("ladder done")
    # ----------------------------------------------------------------- linalg
    _, operator, _, _, _ = workload.evaluators(inp)
    probe = TimedOperator(operator, rec)
    rec.next_trial()
    with rec.span("linalg.norm_est") as s_norm:
        estimate_spectral_norm(probe.matvec, n, num_iterations=6, seed=seed)
    put("linalg.norm_est_s", s_norm.duration, "s")
    put("linalg.norm_est_matvecs", rec.count(s_norm, "sketching.multiply"), "count")
    panel_rng = np.random.default_rng(1)
    panel = panel_rng.standard_normal((128, 20)) @ panel_rng.standard_normal((20, 64))
    put("linalg.row_id_us",
        min(_timeit(lambda: row_id(panel, rel_tol=1e-6))[0] for _ in range(20)) * 1e6, "us")

    progress("linalg done")
    # ------------------------------------------------- the model under test
    # From here on the façade model, as the end-to-end run builds it.
    rec.next_trial()
    with rec.span("chain") as s_chain:
        with rec.span("construct.facade"):
            model = workload.construct(inp)
        with rec.span("factor") as s_factor:
            workload.factor(inp, model)
        with rec.span("solve") as s_solve:
            solved = workload.solve(inp, model, inp.rhs)
    op = model.operator
    residual = system_residual(workload, model, solved.x, inp.rhs)
    ops.check(bool(solved.converged) and residual <= 1e-7, f"solve residual {residual:.2e}")
    rel_err = relative_error(op.matmat(inp.probes), inp.reference)
    ops.check(rel_err <= workload.rel_err_limit, f"rel_err {rel_err:.2e}")
    put("bench.rel_err", rel_err, "ratio")
    put("solvers.solve_s", s_solve.duration, "s")
    put("solvers.iterations", solved.iterations, "count")
    put("solvers.matvecs", solved.matvecs, "count")
    put("solvers.residual", residual, "ratio")

    progress("chain done")
    # -------------------------------------------------------- apply plan
    x1 = np.random.default_rng([seed, 4]).standard_normal((n, 1))
    x64 = np.random.default_rng([seed, 7]).standard_normal((n, 64))
    backend = VectorizedBackend()
    compile_s, plan = _timeit(lambda: compile_apply_plan(op))
    plan.execute(x1, backend=backend)
    exec1 = _median_time(lambda: plan.execute(x1, backend=backend), 5 if smoke else 15)
    exec64 = _median_time(lambda: plan.execute(x64, backend=backend), 3 if smoke else 7)
    apply_bytes = plan.memory_bytes()
    put("batched.apply_compile_s", compile_s, "s")
    put("batched.apply_exec1_s", exec1, "s")
    put("batched.apply_exec64_s", exec64, "s")
    put("batched.apply_launches", plan.num_stages, "count")
    put("batched.apply_gflops", plan.flops(64) / exec64 / 1e9, "GFLOP/s")
    put("batched.apply_bytes_mb", apply_bytes / 2**20, "MiB")
    put("batched.apply_frac_peak",
        plan.flops(64) / exec64 / 1e9 / cal["peak_gemm_gflops"], "ratio")
    put("batched.apply_exec1_gbs", apply_bytes / exec1 / 1e9, "GB/s")

    # ------------------------------------------------------------ hmatrix
    memory = op.memory_bytes()
    put("hmatrix.basis_mb", memory.get("basis", 0) / 2**20, "MiB")
    put("hmatrix.coupling_mb", memory.get("coupling", 0) / 2**20, "MiB")
    put("hmatrix.dense_mb", memory.get("dense", 0) / 2**20, "MiB")
    pairs = op.partition.inadmissible_leaf_pairs()[: 64 if smoke else 256]
    requests = [(op.tree.index_set(s), op.tree.index_set(t)) for s, t in pairs]
    entries = sum(r.size * c.size for r, c in requests)
    extract_s, _ = _timeit(lambda: H2EntryExtractor(op).extract_blocks(requests))
    put("hmatrix.extract_mentries_per_s", entries / extract_s / 1e6, "Mentries/s")

    # ------------------------------------------- solvers: the factor pieces
    weak = workload.weak_operator(inp, model)
    to_hodlr_s, hodlr = _timeit(lambda: convert(weak, "hodlr"))
    factor_only_s, factorization = _timeit(
        lambda: HODLRFactorization(hodlr, shift=workload.shift))
    put("hmatrix.to_hodlr_s", to_hodlr_s, "s")
    put("solvers.factor_only_s", factor_only_s, "s")
    put("solvers.factor_mb", factorization.memory_bytes() / 2**20, "MiB")
    put("solvers.direct_solve_s",
        _median_time(lambda: factorization.solve(inp.rhs), 3 if smoke else 7), "s")
    # slogdet: a loose preconditioner need not be positive definite.
    put("solvers.logdet_s", _timeit(factorization.slogdet)[0], "s")
    del weak, hodlr, factorization

    progress("apply, hmatrix, solvers done")
    # ------------------------------------------------------------ persist
    path = workdir / "model.reproart"
    x = x1[:, 0]
    expected = op @ x
    save_s, _ = _timeit(lambda: save_operator(op, path))
    artifact_mb = path.stat().st_size / 2**20
    load_s, loaded = _timeit(lambda: load_operator(path))
    first_apply_s, y = _timeit(lambda: loaded @ x)
    ops.check(np.array_equal(y, expected), "loaded operator matvec differs")
    del loaded
    path.unlink()
    put("persist.save_s", save_s, "s")
    put("persist.artifact_mb", artifact_mb, "MiB")
    put("persist.save_mb_per_s", artifact_mb / save_s, "MiB/s")
    put("persist.load_s", load_s, "s")
    put("persist.first_apply_s", first_apply_s, "s")

    progress("persist done")
    # ------------------------------------------------------------------ serve
    requests_per_client = 10 if smoke else 100
    session = ServeSession(workload, model, batching=True)
    served = session.burst(seed, requests_per_client, ops)
    mean_batch = session.close()
    session = ServeSession(workload, model, batching=False)
    unbatched = session.burst(seed, requests_per_client, None)
    session.close()
    latencies = [v for kind in served["latencies_ms"].values() for v in kind]
    direct_ms = {
        "matvec": _median_time(lambda: op @ x, 10) * 1e3,
        "solve": (_median_time(lambda: model.factorization.solve(x), 5) * 1e3
                  if "solve" in workload.serve_mix else 0.0),
    }
    direct_mix_ms = statistics.fmean(direct_ms[k] for k in workload.serve_mix)
    put("serve.unbatched_rps", unbatched["rps"], "1/s")
    put("serve.p50_ms", percentile(latencies, 50), "ms")
    put("serve.overhead_ms", percentile(latencies, 50) - direct_mix_ms, "ms")
    put("serve.mean_batch", mean_batch, "count")
    put("serve.failed", served["failed"] + unbatched["failed"], "count")

    progress("serve done")
    # ------------------------------------------------- gp, warm paths, cache
    gp_s, (session, gp, _) = _timeit(lambda: gp_sweep(workload, inp))
    ops.check(bool(np.isfinite(gp.log_marginal_likelihood_)), "GP likelihood not finite")
    put("gp.fit_s_per_point", gp_s / len(GP_LENGTH_SCALES), "s")
    test_points = np.random.default_rng([seed, 8]).random((256, workload.dim))
    put("gp.predict_s", _timeit(lambda: gp.predict(test_points, return_std=True))[0], "s")
    session.compress(ExponentialKernel(0.2), tol=TOL)
    put("core.warm_construct_s",
        _timeit(lambda: session.compress(ExponentialKernel(0.3), tol=TOL))[0], "s")
    cache = ArtifactCache(workdir / "cache")
    gp_points = inp.points[: workload.gp_points]
    Session(gp_points, seed=seed, cache=cache).compress(ExponentialKernel(0.2), tol=TOL)
    put("persist.cache_hit_compress_s", _timeit(
        lambda: Session(gp_points, seed=seed, cache=cache).compress(
            ExponentialKernel(0.2), tol=TOL))[0], "s")
    ops.check(cache.hits >= 1, "second cached compress was not a cache hit")

    progress("gp done")
    # ---------------------------------------------------------------- output
    tree_lines = rec.tree_lines(root) + rec.tree_lines(s_chain)
    shares = {
        "sketching.multiply_share": m["sketching.multiply_s"][0] / construct_span,
        "sketching.extract_share": m["sketching.extract_s"][0] / construct_span,
        "batched_share": (m["batched.row_id_s"][0] + m["batched.gemm_scatter_s"][0]
                          + m["batched.gemm_s"][0]) / construct_span,
        "core_self_share": m["core.construct_self_s"][0] / construct_span,
    }
    if spans_out is not None:
        rec.write(Path(f"{spans_out}.spans.json"), Path(f"{spans_out}.trace.json"))
    info = {
        "n": n, "construct_span_s": construct_span, "shares": shares,
        "factor_span_s": s_factor.duration,
        "plain_construct_s": plain_s, "traced_construct_s": traced_s,
        "tracer_on_construct_s": tracer_on_s,
        "ladder": [
            {"n": p[0], "construct_s": p[1], "memory_bytes": p[2],
             "launches": p[3], "levels": p[4]} for p in ladder
        ],
        "calibration": cal, "span_cost_us": span_cost * 1e6,
        "spans_in_construct": len(rec.descendants(root)) + 1,
        "serve_latencies_by_kind_p50_ms": {
            k: percentile(v, 50) for k, v in served["latencies_ms"].items() if v},
        "direct_call_ms": direct_ms,
        "flops_and_bytes": "computed from operand shapes",
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    return {"metrics": metrics, "info": info, "ops": ops, "tree": tree_lines}
