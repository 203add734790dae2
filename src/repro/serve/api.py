"""Typed request/response surface of the ``repro.serve`` inference service.

The service speaks five endpoints, each a pair of frozen dataclasses:

===========  ============================  ==============================
endpoint     request                       response
===========  ============================  ==============================
``matvec``   :class:`MatvecRequest`        :class:`MatvecResponse`
``solve``    :class:`SolveRequest`         :class:`SolveResponse`
``predict``  :class:`PredictRequest`       :class:`PredictResponse`
``logdet``   :class:`LogdetRequest`        :class:`LogdetResponse`
``health``   :class:`HealthRequest`        :class:`HealthResponse`
``metrics``  :class:`MetricsRequest`       :class:`MetricsResponse`
===========  ============================  ==============================

Requests carry NumPy payloads directly for the in-process API; the
:func:`request_from_wire` / :func:`response_to_wire` codecs translate to the
JSON wire format of the thin HTTP adapter (arrays as nested lists), so the
numerical core never depends on a transport.

``predict`` is GP smoothing at the model's training inputs: given observations
``y``, it returns the posterior mean ``K (K + noise I)^{-1} y`` under the
model's registered noise level — a block solve followed by a block matvec,
both of which micro-batch across concurrent callers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..solvers.ladder import DIRECT_TOL

__all__ = [
    "ENDPOINTS",
    "HealthRequest",
    "HealthResponse",
    "LogdetRequest",
    "LogdetResponse",
    "MatvecRequest",
    "MatvecResponse",
    "MetricsRequest",
    "MetricsResponse",
    "ModelNotFoundError",
    "PredictRequest",
    "PredictResponse",
    "RequestValidationError",
    "ServeError",
    "ServeRequest",
    "ServeResponse",
    "SolveRequest",
    "SolveResponse",
    "request_from_wire",
    "response_to_wire",
]

#: Endpoint names the server dispatches on.
ENDPOINTS: Tuple[str, ...] = (
    "matvec", "solve", "predict", "logdet", "health", "metrics"
)

_REQUEST_IDS = itertools.count(1)


def _next_request_id() -> str:
    return f"req-{next(_REQUEST_IDS)}"


# --------------------------------------------------------------------- errors
class ServeError(Exception):
    """Base class of every serving-layer error."""


class ModelNotFoundError(ServeError, KeyError):
    """The named model is not registered (or its TTL expired)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return Exception.__str__(self)


class RequestValidationError(ServeError, ValueError):
    """The request payload cannot be executed (shape, dtype, non-finite)."""


# ------------------------------------------------------------------- requests
@dataclass(frozen=True, eq=False)
class ServeRequest:
    """Base request: the target model plus a correlation id."""

    model: str = ""
    request_id: str = field(default_factory=_next_request_id)

    endpoint = "base"


@dataclass(frozen=True, eq=False)
class MatvecRequest(ServeRequest):
    """Forward apply ``y = K x`` (``x`` a vector ``(n,)`` or block ``(n, k)``)."""

    x: np.ndarray = None  # type: ignore[assignment]

    endpoint = "matvec"


@dataclass(frozen=True, eq=False)
class SolveRequest(ServeRequest):
    """Solve ``(K + noise I) x = b`` under the model's registered noise.

    ``method="direct"`` (default) solves with the model's factorization
    (:func:`~repro.solvers.direct_solve`) and micro-batches with concurrent
    callers.  A strong model's factorization is of a re-compression: its
    answer is polished to ``tol``, and ``final_residual`` is the measured
    one (``None`` for an HSS model, whose answer is exact up to round-off).
    ``method="cg"`` runs a factorization-preconditioned CG to ``tol`` —
    unbatched, but guarded by the policy's recovery ladder when the
    iteration does not converge.
    """

    b: np.ndarray = None  # type: ignore[assignment]
    method: str = "direct"
    tol: float = DIRECT_TOL
    maxiter: Optional[int] = None

    endpoint = "solve"


@dataclass(frozen=True, eq=False)
class PredictRequest(ServeRequest):
    """GP posterior mean at the training inputs given observations ``y``."""

    y: np.ndarray = None  # type: ignore[assignment]

    endpoint = "predict"


@dataclass(frozen=True, eq=False)
class LogdetRequest(ServeRequest):
    """``log|det(K + noise I)|`` of the model (cached after the first call)."""

    endpoint = "logdet"


@dataclass(frozen=True, eq=False)
class HealthRequest(ServeRequest):
    """Service liveness + per-model health (``model=""`` means all models)."""

    endpoint = "health"


@dataclass(frozen=True, eq=False)
class MetricsRequest(ServeRequest):
    """The OpenMetrics exposition of the server's own metrics registry."""

    endpoint = "metrics"


# ------------------------------------------------------------------ responses
@dataclass(eq=False)
class ServeResponse:
    """Base response: correlation id plus serving telemetry.

    ``batched`` is ``True`` when the answer came out of a coalesced
    micro-batch launch; ``batch_size`` is the number of requests that shared
    that launch (1 for a single-request fallback).
    """

    model: str = ""
    request_id: str = ""
    latency_ms: float = 0.0
    batched: bool = False
    batch_size: int = 1

    endpoint = "base"


@dataclass(eq=False)
class MatvecResponse(ServeResponse):
    y: np.ndarray = None  # type: ignore[assignment]

    endpoint = "matvec"


@dataclass(eq=False)
class SolveResponse(ServeResponse):
    x: np.ndarray = None  # type: ignore[assignment]
    method: str = "direct"
    converged: bool = True
    iterations: int = 0
    final_residual: Optional[float] = None  # measured; see SolveRequest

    endpoint = "solve"


@dataclass(eq=False)
class PredictResponse(ServeResponse):
    mean: np.ndarray = None  # type: ignore[assignment]

    endpoint = "predict"


@dataclass(eq=False)
class LogdetResponse(ServeResponse):
    logdet: float = 0.0
    sign: float = 1.0

    endpoint = "logdet"


@dataclass(eq=False)
class HealthResponse(ServeResponse):
    status: str = "ok"
    uptime_seconds: float = 0.0
    models: Dict[str, dict] = field(default_factory=dict)

    endpoint = "health"


@dataclass(eq=False)
class MetricsResponse(ServeResponse):
    text: str = ""
    content_type: str = "application/openmetrics-text; version=1.0.0; charset=utf-8"

    endpoint = "metrics"


# ----------------------------------------------------------------- wire codec
def _decode_array(value: object, name: str) -> np.ndarray:
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise RequestValidationError(
            f"field {name!r} is not a numeric array: {exc}"
        ) from exc
    if array.ndim not in (1, 2):
        raise RequestValidationError(
            f"field {name!r} must be a vector or a 2-D block, got shape "
            f"{array.shape}"
        )
    return array


_WIRE_REQUESTS = {
    "matvec": (MatvecRequest, "x"),
    "solve": (SolveRequest, "b"),
    "predict": (PredictRequest, "y"),
    "logdet": (LogdetRequest, None),
    "health": (HealthRequest, None),
    "metrics": (MetricsRequest, None),
}


def request_from_wire(endpoint: str, payload: dict) -> ServeRequest:
    """Build the typed request of ``endpoint`` from a decoded JSON body."""
    if endpoint not in _WIRE_REQUESTS:
        raise RequestValidationError(
            f"unknown endpoint {endpoint!r}; available: {list(ENDPOINTS)}"
        )
    if not isinstance(payload, dict):
        raise RequestValidationError("request body must be a JSON object")
    cls, array_field = _WIRE_REQUESTS[endpoint]
    kwargs: dict = {}
    model = payload.get("model", "")
    if not isinstance(model, str):
        raise RequestValidationError("field 'model' must be a string")
    kwargs["model"] = model
    if isinstance(payload.get("request_id"), str):
        kwargs["request_id"] = payload["request_id"]
    if array_field is not None:
        if array_field not in payload:
            raise RequestValidationError(
                f"endpoint {endpoint!r} requires field {array_field!r}"
            )
        kwargs[array_field] = _decode_array(payload[array_field], array_field)
    if endpoint == "solve":
        method = payload.get("method", "direct")
        if method not in ("direct", "cg"):
            raise RequestValidationError(
                f"solve method must be 'direct' or 'cg', not {method!r}"
            )
        kwargs["method"] = method
        if "tol" in payload:
            tol = payload["tol"]
            if (
                isinstance(tol, bool)
                or not isinstance(tol, (int, float))
                or not np.isfinite(tol)
                or tol <= 0
            ):
                raise RequestValidationError(
                    f"field 'tol' must be a finite number > 0, not {tol!r}"
                )
            kwargs["tol"] = float(tol)
        if payload.get("maxiter") is not None:
            maxiter = payload["maxiter"]
            if isinstance(maxiter, bool) or not isinstance(maxiter, int) or maxiter < 1:
                raise RequestValidationError(
                    f"field 'maxiter' must be an integer >= 1, not {maxiter!r}"
                )
            kwargs["maxiter"] = maxiter
    return cls(**kwargs)


def response_to_wire(response: ServeResponse) -> dict:
    """JSON-serializable dict of ``response`` (arrays become nested lists)."""
    wire: dict = {
        "endpoint": response.endpoint,
        "model": response.model,
        "request_id": response.request_id,
        "latency_ms": response.latency_ms,
        "batched": response.batched,
        "batch_size": response.batch_size,
    }
    for name in ("y", "x", "mean"):
        value = getattr(response, name, None)
        if isinstance(value, np.ndarray):
            wire[name] = value.tolist()
    for name in ("method", "converged", "iterations", "final_residual",
                 "logdet", "sign", "status", "uptime_seconds", "models",
                 "text", "content_type"):
        if hasattr(response, name):
            wire[name] = getattr(response, name)
    return wire


Request = Union[
    MatvecRequest, SolveRequest, PredictRequest, LogdetRequest,
    HealthRequest, MetricsRequest,
]
