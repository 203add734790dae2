"""Serving latency/throughput: micro-batched vs batching-disabled baseline.

The acceptance benchmark of the ``repro.serve`` subsystem: one model of
``N`` points served to ``C`` concurrent clients, each issuing sequential
posterior-solve requests.  The only difference between the two measured
configurations is the ``batching=`` switch — identical registry, identical
factorization (pre-built), identical worker pool size — so the reported
speedup isolates what coalescing concurrent single-vector solves into one
block-RHS launch buys.

Two traffic shapes are measured, each batched and unbatched:

* *wave*: every round is one gathered wave of ``C`` requests;
* *closed loop*: each client sends its next request only after its reply
  (the traffic of ``benchmarks/e2e``), so the width of a launch is whatever
  became ready while the previous one ran.

Acceptance contract, on deterministic quantities (the script exits non-zero
when either fails):

* the micro-batched wave takes fewer batcher launches than the
  batching-disabled one — what its throughput gain stands for;
* every batched answer matches the unbatched direct solve to a relative
  error below ``1e-8``.

The wave speedup (measured >= 3x at N=4096 / 64 clients) is printed and
emitted as information; it gates nothing, because wall-clock ratios on a
shared machine are noise.

Scale with environment variables::

    REPRO_SERVE_BENCH_N        problem size (default 4096)
    REPRO_SERVE_BENCH_CLIENTS  concurrent clients (default 64)
    REPRO_SERVE_BENCH_ROUNDS   sequential requests per client (default 6)

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_latency.py
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

import repro
from repro import ExponentialKernel, uniform_cube_points
from repro.serve import InferenceServer, SolveRequest

from common import emit_bench_json

MODEL = "bench"
NOISE = 1e-2
TOL = 1e-6
SEED = 7
MAX_REL_ERR = 1e-8


def bench_config() -> tuple[int, int, int]:
    n = int(os.environ.get("REPRO_SERVE_BENCH_N", "4096"))
    clients = int(os.environ.get("REPRO_SERVE_BENCH_CLIENTS", "64"))
    rounds = int(os.environ.get("REPRO_SERVE_BENCH_ROUNDS", "6"))
    return n, clients, rounds


def build_server(operator, *, batching: bool) -> InferenceServer:
    server = InferenceServer(batching=batching)
    server.register(MODEL, operator, noise=NOISE)
    # Pre-build the factorization so neither mode pays it inside the timing.
    server.registry.get(MODEL).factorization()
    return server


def run_mode(server: InferenceServer, payloads, rounds: int, *,
             closed_loop: bool) -> dict:
    """Serve ``rounds`` solves per payload and time them.

    Wave mode fires ``rounds`` gathered waves of one request per payload.
    Closed-loop mode runs one client per payload, each sending its next
    request only after its reply (the traffic of ``benchmarks/e2e``).
    ``responses`` is grouped by round in both modes.
    """
    latencies_ms: list[float] = []

    async def request(b):
        start = time.perf_counter()
        response = await server.handle(SolveRequest(model=MODEL, b=b))
        latencies_ms.append((time.perf_counter() - start) * 1000.0)
        return response

    async def waves():
        return [await asyncio.gather(*[request(b) for b in payloads])
                for _ in range(rounds)]

    async def closed_loop_clients():
        async def client(b):
            return [await request(b) for _ in range(rounds)]

        per_client = await asyncio.gather(*[client(b) for b in payloads])
        return [list(round_) for round_ in zip(*per_client)]

    start = time.perf_counter()
    responses = asyncio.run(closed_loop_clients() if closed_loop else waves())
    elapsed = time.perf_counter() - start
    asyncio.run(server.aclose())

    total = rounds * len(payloads)
    lat = np.asarray(latencies_ms)
    return {
        "requests": total,
        "elapsed_seconds": elapsed,
        "throughput_rps": total / elapsed,
        "latency_p50_ms": float(np.percentile(lat, 50)),
        "latency_p95_ms": float(np.percentile(lat, 95)),
        "latency_p99_ms": float(np.percentile(lat, 99)),
        "launches": server.batcher.statistics()["launches"],
        "mean_batch_size": server.batcher.statistics()["mean_batch_size"],
        "responses": responses,
    }


def main() -> int:
    n, clients, rounds = bench_config()
    print(f"serve latency benchmark: N={n}, {clients} clients, "
          f"{rounds} rounds ({clients * rounds} solves per mode)")

    points = uniform_cube_points(n, dim=3, seed=1)
    operator = repro.compress(
        points, ExponentialKernel(0.2), format="hss", tol=TOL, seed=SEED
    )
    rng = np.random.default_rng(SEED)
    payloads = [rng.standard_normal(n) for _ in range(clients)]

    modes = {}
    for traffic, closed_loop in (("wave", False), ("closed-loop", True)):
        for batching in (False, True):
            name = f"{traffic} {'batched' if batching else 'unbatched'}"
            server = build_server(operator, batching=batching)
            modes[name] = mode = run_mode(server, payloads, rounds,
                                          closed_loop=closed_loop)
            print(f"  {name:22s} {mode['throughput_rps']:8.1f} req/s   "
                  f"p50 {mode['latency_p50_ms']:7.2f} ms   "
                  f"p95 {mode['latency_p95_ms']:7.2f} ms   "
                  f"p99 {mode['latency_p99_ms']:7.2f} ms   "
                  f"mean batch {mode['mean_batch_size']:5.1f}   "
                  f"launches {mode['launches']}")

    # Correctness: every batched answer must match its unbatched twin within
    # solver tolerance (same traffic, same payload index, same round).
    max_rel_err = 0.0
    for traffic in ("wave", "closed-loop"):
        for round_batched, round_unbatched in zip(
            modes[f"{traffic} batched"].pop("responses"),
            modes[f"{traffic} unbatched"].pop("responses"),
        ):
            for rb, ru in zip(round_batched, round_unbatched):
                denom = max(float(np.linalg.norm(ru.x)), 1e-30)
                max_rel_err = max(
                    max_rel_err, float(np.linalg.norm(rb.x - ru.x)) / denom
                )

    speedup = (
        modes["wave batched"]["throughput_rps"]
        / modes["wave unbatched"]["throughput_rps"]
    )
    batched_launches = modes["wave batched"]["launches"]
    unbatched_launches = modes["wave unbatched"]["launches"]
    passed = batched_launches < unbatched_launches and max_rel_err < MAX_REL_ERR
    print(f"  wave launches: {batched_launches} batched vs "
          f"{unbatched_launches} unbatched (must be fewer), "
          f"max relative error vs unbatched: {max_rel_err:.2e} "
          f"(must be < {MAX_REL_ERR:g})")
    print(f"  wave batching speedup: {speedup:.2f}x (information only)")
    print(f"  acceptance: {'PASS' if passed else 'FAIL'}")

    emit_bench_json(
        "serve_latency",
        {
            "n": n,
            "clients": clients,
            "rounds": rounds,
            "unbatched": modes["wave unbatched"],
            "batched": modes["wave batched"],
            "closed_loop_unbatched": modes["closed-loop unbatched"],
            "closed_loop_batched": modes["closed-loop batched"],
            "speedup": speedup,
            "max_relative_error": max_rel_err,
            "pass": passed,
        },
    )
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
