"""repro.serve — multi-tenant async inference service with matmat micro-batching.

The production workload the library has been building toward: a long-lived
``asyncio`` service answering GP posterior-mean, solve, matvec and
log-determinant queries over named models resolved from persistent operator
artifacts.  Concurrent single-vector queries against the same operator are
coalesced by the :class:`MicroBatcher` into one block-RHS ``matmat`` /
block-solve launch — the batching opportunity the compiled apply plans were
built for — and every request inherits the
:class:`~repro.api.policy.ExecutionPolicy` stack: ``serve.request`` /
``serve.batch`` tracer spans, p50/p95/p99 latency histograms in the server's
own metrics registry (exposed through the OpenMetrics ``metrics`` endpoint;
two servers in one process share no count), health probes on model load, and the
resilience recovery ladder on non-converged solves.

Quick use (in-process, no socket)::

    import asyncio, numpy as np, repro
    from repro.serve import InferenceServer, SolveRequest

    server = InferenceServer()
    server.register("demo", points=points, kernel=repro.ExponentialKernel(0.2),
                    tol=1e-6, noise=1e-2)

    async def main():
        response = await server.handle(SolveRequest(model="demo", b=b))
        return response.x

    x = asyncio.run(main())

or over HTTP (optional thin adapter, still dependency-free)::

    from repro.serve import serve_http
    http = await serve_http(server, port=8080)   # POST /v1/solve, GET /metrics
"""

from .api import (
    ENDPOINTS,
    HealthRequest,
    HealthResponse,
    LogdetRequest,
    LogdetResponse,
    MatvecRequest,
    MatvecResponse,
    MetricsRequest,
    MetricsResponse,
    ModelNotFoundError,
    PredictRequest,
    PredictResponse,
    RequestValidationError,
    ServeError,
    ServeRequest,
    ServeResponse,
    SolveRequest,
    SolveResponse,
    request_from_wire,
    response_to_wire,
)
from .batching import BATCH_KINDS, MicroBatcher
from .http import HttpAdapter, serve_http
from .registry import ModelRegistry, ServedModel
from .server import InferenceServer

__all__ = [
    "BATCH_KINDS",
    "ENDPOINTS",
    "HealthRequest",
    "HealthResponse",
    "HttpAdapter",
    "InferenceServer",
    "LogdetRequest",
    "LogdetResponse",
    "MatvecRequest",
    "MatvecResponse",
    "MetricsRequest",
    "MetricsResponse",
    "MicroBatcher",
    "ModelNotFoundError",
    "ModelRegistry",
    "PredictRequest",
    "PredictResponse",
    "RequestValidationError",
    "ServeError",
    "ServeRequest",
    "ServeResponse",
    "ServedModel",
    "SolveRequest",
    "SolveResponse",
    "request_from_wire",
    "response_to_wire",
    "serve_http",
]
