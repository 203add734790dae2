"""The untraced end-to-end run of one workload.

The run is a sequence of *rounds*.  A round takes one freshly built model
through every stage: a cold chain (set-up → construct → factor → solve, the
whole interval being ``time_to_solution_s``), repeated applies, the accuracy
check, solves with fresh right-hand sides, a save / load+first-apply round
trip, a closed-loop serving phase and the GP length-scale sweep.  Rounds repeat
until ``--seconds`` are used; every timing is the median over the rounds.

No tracer, span recorder or proxy is active anywhere in this module.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro import load_operator, save_operator
from repro.serve import InferenceServer, MatvecRequest, SolveRequest

from workloads import Model, Workload, gp_sweep

SERVE_CLIENTS = 2
SERVE_MODEL = "bench"
MIN_ROUNDS = 3
MAX_ROUNDS = 12


class Ops:
    """Correctness checks counted as operations (attempted / failed)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median with min, quartiles and sample count."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "min": min(values),
        "q1": q1, "q3": q3, "n": len(values),
    }


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


def system_residual(workload: Workload, model: Model, x: np.ndarray, b: np.ndarray) -> float:
    applied = model.operator @ x + workload.shift * x
    return float(np.linalg.norm(applied - b) / np.linalg.norm(b))


# --------------------------------------------------------------------- chains
def run_chain(workload: Workload, seed: int, ops: Ops):
    """One cold chain; returns its stage timings plus the inputs and model."""
    t0 = time.perf_counter()
    inp = workload.setup(seed)
    t1 = time.perf_counter()
    model = workload.construct(inp)
    t2 = time.perf_counter()
    workload.factor(inp, model)
    t3 = time.perf_counter()
    solved = workload.solve(inp, model, inp.rhs)
    t4 = time.perf_counter()
    residual = system_residual(workload, model, solved.x, inp.rhs)
    ops.check(bool(solved.converged) and residual <= 1e-7,
              f"chain solve residual {residual:.2e}")
    times = {
        "setup_s": t1 - t0, "construct_s": t2 - t1, "factor_s": t3 - t2,
        "first_solve_s": t4 - t3, "time_to_solution_s": t4 - t0,
    }
    return times, inp, model


# -------------------------------------------------------------------- persist
def persist_round_trip(model: Model, x: np.ndarray, expected: np.ndarray,
                       path: Path, ops: Ops):
    """Save to a fresh path, load (mmap) and apply once; returns both times."""
    t0 = time.perf_counter()
    save_operator(model.operator, path)
    t1 = time.perf_counter()
    loaded = load_operator(path)
    y = loaded @ x
    t2 = time.perf_counter()
    ops.check(np.array_equal(y, expected), "loaded operator matvec differs")
    del loaded
    path.unlink()
    return t1 - t0, t2 - t1


# ---------------------------------------------------------------------- serve
class ServeSession:
    """One in-process ``InferenceServer`` with the model registered, driven by
    ``SERVE_CLIENTS`` closed-loop clients: each sends its next request only
    after the previous reply.  ``burst`` can be called several times."""

    def __init__(self, workload: Workload, model: Model, batching: bool = True):
        self.workload = workload
        self.model = model
        self.server = InferenceServer(batching=batching)
        self.served = self.server.register(
            SERVE_MODEL, model.operator, noise=workload.shift)
        if "solve" in workload.serve_mix:
            # Factor before any clock starts, like a warmed-up deployment.
            self.served.factorization()

    def burst(self, seed: int, requests_per_client: int, ops: Ops | None) -> dict:
        """Throughput and per-request latencies of one burst; every reply is
        compared with the direct call after the clock stops."""
        n = self.model.operator.shape[0]
        mix = self.workload.serve_mix
        server = self.server
        payloads = np.random.default_rng([seed, 5]).standard_normal(
            (SERVE_CLIENTS, requests_per_client, n))
        latencies: Dict[str, List[float]] = {kind: [] for kind in mix}
        replies: Dict[str, List[tuple]] = {kind: [] for kind in mix}
        errors: List[str] = []

        async def client(c: int) -> None:
            for r in range(requests_per_client):
                kind = mix[(c + r) % len(mix)]
                vector = payloads[c, r]
                request = (
                    MatvecRequest(model=SERVE_MODEL, x=vector) if kind == "matvec"
                    else SolveRequest(model=SERVE_MODEL, b=vector)
                )
                start = time.perf_counter()
                try:
                    response = await server.handle(request)
                except Exception as exc:  # a failed request misses any latency limit
                    errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                    continue
                latencies[kind].append((time.perf_counter() - start) * 1e3)
                replies[kind].append(
                    (c, r, response.y if kind == "matvec" else response.x))

        async def main() -> float:
            start = time.perf_counter()
            await asyncio.gather(*(client(c) for c in range(SERVE_CLIENTS)))
            elapsed = time.perf_counter() - start
            await server.batcher.drain()
            return elapsed

        elapsed = asyncio.run(main())
        completed = sum(len(v) for v in latencies.values())

        if ops is not None:
            for message in errors:
                ops.check(False, f"serve request failed ({message})")
            direct = {
                "matvec": self.model.operator.matmat,
                "solve": lambda block: self.served.factorization().solve(block),
            }
            for kind, items in replies.items():
                if not items:
                    continue
                block = np.stack([payloads[c, r] for c, r, _ in items], axis=1)
                expected = direct[kind](block)
                for column, (_, _, got) in enumerate(items):
                    err = relative_error(got, expected[:, column])
                    ops.check(err <= 1e-10, f"serve {kind} reply off by {err:.2e}")

        return {
            "rps": completed / elapsed,
            "latencies_ms": latencies,
            "failed": len(errors),
            "sent": SERVE_CLIENTS * requests_per_client,
        }

    def close(self) -> float:
        """Shut the worker pool down; returns the mean coalesced batch size."""
        asyncio.run(self.server.aclose())
        return float(self.server.statistics()["batching"]["mean_batch_size"])


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ------------------------------------------------------------------------ run
#: A round visits the cheap stages three times, at different moments, so
#: their samples do not all sit in one short window.
CHEAP_VISITS = 3
MATVECS_PER_VISIT = 8
#: Two serving bursts per round; three rounds pool 204 latencies, ten of them
#: beyond the p95.
SERVE_REQUESTS_PER_BURST = 17


def round_seed(seed: int, index: int) -> int:
    """Round 0 runs the inputs of ``--seed`` itself; later rounds draw fresh
    point clouds from it, so one run already averages over several geometries
    (ranks, launch counts and Krylov iterations move by 10-20 % with the cloud)."""
    return seed + 7919 * index


def run_round(workload: Workload, seed: int, index: int, workdir: Path, ops: Ops,
              samples: Dict[str, List[float]], latencies: List[float]) -> Model:
    """One pass of one freshly built model through every stage.

    Order: chain, cheap stages, serving burst, cheap stages, GP sweep, cheap
    stages, serving burst — where "cheap stages" is a group of applies, one
    solve with a fresh right-hand side and (first and last visit) one
    save / load+apply round trip.
    """
    seed = round_seed(seed, index)
    times, inp, model = run_chain(workload, seed, ops)
    for key, value in times.items():
        samples[key].append(value)
    operator = model.operator
    n = operator.shape[0]
    rng = np.random.default_rng([seed, 4])
    x = rng.standard_normal(n)
    expected = operator @ x  # compiles the apply plan; not counted

    rel_err = relative_error(operator.matmat(inp.probes), inp.reference)
    ops.check(rel_err <= workload.rel_err_limit,
              f"rel_err {rel_err:.2e} > {workload.rel_err_limit:.0e}")
    samples["rel_err"].append(rel_err)

    def cheap_stages(visit: int) -> None:
        for _ in range(MATVECS_PER_VISIT):
            t0 = time.perf_counter()
            operator @ x
            samples["matvec_s"].append(time.perf_counter() - t0)
        b = rng.standard_normal(n)
        t0 = time.perf_counter()
        solved = workload.solve(inp, model, b)
        samples["solve_s"].append(time.perf_counter() - t0)
        residual = system_residual(workload, model, solved.x, b)
        ops.check(bool(solved.converged) and residual <= 1e-7,
                  f"solve residual {residual:.2e}")
        if visit != 1:
            save_s, load_apply_s = persist_round_trip(
                model, x, expected, workdir / f"model-{index}-{visit}.reproart", ops)
            samples["save_s"].append(save_s)
            samples["load_apply_s"].append(load_apply_s)

    session = ServeSession(workload, model)

    def serving_burst(burst: int) -> None:
        served = session.burst(
            seed + burst, 4 if workload.smoke else SERVE_REQUESTS_PER_BURST, ops)
        samples["serve_rps"].append(served["rps"])
        latencies.extend(v for kind in served["latencies_ms"].values() for v in kind)
        # A failed or refused request misses any latency limit.
        latencies.extend([float("inf")] * served["failed"])
        samples["serve_failed"].append(served["failed"])
        samples["serve_sent"].append(served["sent"])

    try:
        cheap_stages(0)
        serving_burst(0)
        cheap_stages(1)
        t0 = time.perf_counter()
        _, gp, _ = gp_sweep(workload, inp)
        samples["gp_sweep_s"].append(time.perf_counter() - t0)
        ops.check(bool(np.isfinite(gp.log_marginal_likelihood_)),
                  "GP likelihood not finite")
        cheap_stages(2)
        serving_burst(1)
    finally:
        session.close()
    return model


def run_e2e(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Rounds until ``seconds`` are used (at least ``MIN_ROUNDS``).

    Every round runs every stage once on a freshly built model, so each
    metric's samples are spread over the whole run instead of sitting in one
    short window — on a shared host a burst of contention then hits a few
    samples of every metric, not all samples of one.
    """
    ops = Ops()
    samples: Dict[str, List[float]] = defaultdict(list)
    latencies: List[float] = []
    min_rounds, max_rounds = (1, 1) if workload.smoke else (MIN_ROUNDS, MAX_ROUNDS)
    start = time.perf_counter()
    rounds = 0
    first = None
    while rounds < min_rounds or (
        rounds < max_rounds and time.perf_counter() - start < seconds
    ):
        gc.collect()  # the previous round's model is gone: peak RSS is one model's
        model = run_round(workload, seed, rounds, workdir, ops, samples, latencies)
        if first is None:
            # Round 0 always runs, on the inputs of --seed itself: its counts
            # and sizes are deterministic for a seed whatever the round count.
            first = {
                "operator_mb": model.operator.memory_bytes()["total"] / 2**20,
                "construct_launches": int(model.result.total_kernel_launches),
                "construct_samples": int(model.result.total_samples),
            }
        del model
        rounds += 1

    def timing(key: str, unit: str = "s") -> dict:
        stats = summarize(samples[key])
        return {"value": stats["median"], "unit": unit, "stats": stats}

    metrics = {
        "setup_s": timing("setup_s"),
        "construct_s": timing("construct_s"),
        "matvec_s": timing("matvec_s"),
        "operator_mb": {"value": first.pop("operator_mb"), "unit": "MiB"},
        "time_to_solution_s": timing("time_to_solution_s"),
        "factor_s": timing("factor_s"),
        "solve_s": timing("solve_s"),
        "save_s": timing("save_s"),
        "load_apply_s": timing("load_apply_s"),
        "serve_rps": timing("serve_rps", "1/s"),
        "serve_p95_ms": {
            "value": percentile(latencies, 95), "unit": "ms",
            "stats": {"n": len(latencies)}},
        "gp_sweep_s": timing("gp_sweep_s"),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB"},
    }
    info = {
        "n": workload.n, "rounds": rounds,
        # Deterministic for one seed; compare.py requires exact equality.
        "counts": first,
        "rel_err": max(samples["rel_err"]),
        "serve_sent": int(sum(samples["serve_sent"])),
        "serve_failed": int(sum(samples["serve_failed"])),
        "first_solve_s": summarize(samples["first_solve_s"]),
    }
    return {"metrics": metrics, "info": info, "ops": ops}
