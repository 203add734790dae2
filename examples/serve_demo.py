"""Serving walkthrough: the repro.serve async inference service end to end.

The compressed operator becomes a long-lived multi-tenant service:

1. register a model with the :class:`repro.serve.InferenceServer` (from an
   operator instance here; artifact paths, cache keys and points+kernel all
   work — see :meth:`repro.serve.ModelRegistry.register`);
2. fire a wave of concurrent posterior-solve and GP-predict clients — the
   :class:`~repro.serve.MicroBatcher` coalesces them into single block-RHS
   ``matmat``/block-solve launches, and every caller still gets exactly its
   own answer;
3. read the built-in telemetry: per-endpoint p50/p95/p99 latency histograms,
   batch-size distribution, health report;
4. serve the same API over HTTP (dependency-free asyncio adapter) and scrape
   the OpenMetrics ``/metrics`` endpoint like a Prometheus agent would.

Scale the wave with REPRO_SERVE_DEMO_CLIENTS (default 32).

Run with:  python examples/serve_demo.py [N]
"""

import asyncio
import json
import os
import sys
import time

import numpy as np

import repro
from repro.serve import InferenceServer, PredictRequest, SolveRequest, serve_http

NOISE = 1e-2
MODEL = "demo"


async def run_demo(n: int, clients: int) -> None:
    print(f"== repro.serve demo (N={n}, {clients} concurrent clients) ==")

    # --- build + register a model ---------------------------------------
    points = repro.uniform_cube_points(n, dim=3, seed=0)
    kernel = repro.ExponentialKernel(length_scale=0.2)
    operator = repro.compress(points, kernel, format="hss", tol=1e-6, seed=1)

    server = InferenceServer(max_batch=clients)
    server.register(MODEL, operator, noise=NOISE)
    server.registry.get(MODEL).factorization()  # warm the direct solver
    print(f"registered model {MODEL!r}: "
          f"{server.registry.get(MODEL).memory_bytes() / 2**20:.1f} MB resident")

    # --- concurrent solve wave: micro-batched into block launches --------
    rng = np.random.default_rng(7)
    payloads = [rng.standard_normal(n) for _ in range(clients)]
    latencies = []

    async def solve_client(b):
        start = time.perf_counter()
        response = await server.handle(SolveRequest(model=MODEL, b=b))
        latencies.append((time.perf_counter() - start) * 1000.0)
        return response

    start = time.perf_counter()
    responses = await asyncio.gather(*[solve_client(b) for b in payloads])
    elapsed = time.perf_counter() - start
    batch_sizes = sorted({r.batch_size for r in responses})
    residual = max(
        float(np.linalg.norm(
            operator.matvec(r.x) + NOISE * r.x - b
        ) / np.linalg.norm(b))
        for r, b in zip(responses, payloads)
    )
    lat = np.asarray(latencies)
    print(f"{clients} concurrent solves in {elapsed * 1e3:.1f} ms "
          f"({clients / elapsed:.0f} req/s), batch sizes {batch_sizes}")
    print(f"latency p50/p95/p99: {np.percentile(lat, 50):.1f} / "
          f"{np.percentile(lat, 95):.1f} / {np.percentile(lat, 99):.1f} ms, "
          f"max relative residual {residual:.2e}")

    # --- GP posterior mean through the same batcher ----------------------
    y = np.sin(points[:, 0] * 5.0)
    predict = await server.handle(PredictRequest(model=MODEL, y=y))
    print(f"posterior mean at training inputs: batched={predict.batched}, "
          f"|mean|_inf = {np.abs(predict.mean).max():.3f}")

    # --- built-in telemetry ----------------------------------------------
    health = await server.health()
    stats = server.statistics()
    print(f"health: {health.status}, uptime {health.uptime_seconds:.1f}s, "
          f"mean batch size {stats['batching']['mean_batch_size']:.1f}")

    # --- the same service over HTTP + an OpenMetrics scrape --------------
    http = await serve_http(server)  # 127.0.0.1, OS-assigned port
    reader, writer = await asyncio.open_connection("127.0.0.1", http.port)
    body = json.dumps({"model": MODEL, "b": payloads[0].tolist()}).encode()
    writer.write(
        f"POST /v1/solve HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n".encode() + body
    )
    writer.write(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    await http.aclose()

    solve_head, _, rest = raw.partition(b"\r\n\r\n")
    status = solve_head.split(None, 2)[1].decode()
    scrape = rest.split(b"\r\n\r\n", 1)[1].decode()
    metric_lines = [l for l in scrape.splitlines() if l and not l.startswith("#")]
    ok = (
        status == "200"
        and scrape.rstrip().endswith("# EOF")
        and any(l.startswith("repro_serve_solve_latency_ms") for l in metric_lines)
    )
    print(f"HTTP solve status {status}; /metrics scrape: "
          f"{len(metric_lines)} samples, terminator + serve latency series "
          f"{'present' if ok else 'MISSING'}")

    await server.aclose()
    print("serve demo:", "OK" if ok and residual < 1e-8 else "FAILED")


def main(n: int = 4096) -> None:
    clients = int(os.environ.get("REPRO_SERVE_DEMO_CLIENTS", "32"))
    asyncio.run(run_demo(n, clients))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4096)
