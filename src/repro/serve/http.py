"""Thin dependency-free HTTP/1.1 adapter over the asyncio service core.

The numerical service is the in-process async API of
:class:`~repro.serve.server.InferenceServer`; this module is the optional
network skin — a minimal HTTP/1.1 server on raw ``asyncio`` streams (no
framework, no new dependency) translating JSON bodies to the typed
request/response dataclasses via the :mod:`repro.serve.api` wire codecs.

Routes::

    POST /v1/matvec    {"model": ..., "x": [...]}
    POST /v1/solve     {"model": ..., "b": [...], "method": "direct"|"cg"}
    POST /v1/predict   {"model": ..., "y": [...]}
    POST /v1/logdet    {"model": ...}
    GET  /v1/health
    GET  /metrics                      (OpenMetrics text exposition)

Errors map onto conventional status codes: 400 for validation failures, 404
for unknown models/routes, 500 otherwise — always with a JSON body
``{"error": ..., "type": ...}``.  A request that cannot be framed (malformed
request line, a ``Content-Length`` that is not a non-negative integer: 400; a
body over :data:`MAX_BODY_BYTES`: 413, never read) gets its error with
``Connection: close`` and the connection is closed.

Quick use::

    server = InferenceServer(registry)
    http = await serve_http(server, host="127.0.0.1", port=8080)
    ...
    await http.aclose()
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

import numpy as np

from .api import (
    HealthRequest,
    MetricsRequest,
    ModelNotFoundError,
    RequestValidationError,
    request_from_wire,
    response_to_wire,
)
from .server import InferenceServer

__all__ = ["HttpAdapter", "serve_http"]

#: Longest accepted request body (64 MiB — a 4096-point block RHS is ~3 MiB).
MAX_BODY_BYTES = 64 * 2**20

_POST_ROUTES = {
    "/v1/matvec": "matvec",
    "/v1/solve": "solve",
    "/v1/predict": "predict",
    "/v1/logdet": "logdet",
}
_GET_ROUTES = {
    "/v1/health": "health",
    "/health": "health",
    "/metrics": "metrics",
}

_STATUS_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _error_status(exc: Exception) -> int:
    if isinstance(exc, ModelNotFoundError):
        return 404
    if isinstance(exc, (RequestValidationError, ValueError)):
        return 400
    return 500


class HttpAdapter:
    """One bound listening socket translating HTTP to the async service API."""

    def __init__(self, server: InferenceServer):
        self.server = server
        self._listener: Optional[asyncio.AbstractServer] = None

    # --------------------------------------------------------------- lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and listen; returns the actual ``(host, port)`` pair."""
        self._listener = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        sockname = self._listener.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("adapter is not started")
        return self._listener.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None

    # -------------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except _HttpError as exc:
                    await self._write_response(
                        writer, exc.status, _error_body(exc), "application/json",
                        keep_alive=False,
                    )
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload, content_type = await self._dispatch(
                    method, path, body
                )
                await self._write_response(
                    writer, status, payload, content_type, keep_alive
                )
                if not keep_alive:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, path, _version = request_line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"malformed request line: {exc}") from exc
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _HttpError(400, f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path.split("?", 1)[0], headers, body

    # ---------------------------------------------------------------- dispatch
    async def _dispatch(self, method: str, path: str, body: bytes):
        try:
            if method == "GET" and path in _GET_ROUTES:
                endpoint = _GET_ROUTES[path]
                if endpoint == "metrics":
                    response = await self.server.metrics(MetricsRequest())
                    return 200, response.text.encode("utf-8"), response.content_type
                response = await self.server.health(HealthRequest())
                return 200, _json(response_to_wire(response)), "application/json"
            if method == "POST" and path in _POST_ROUTES:
                try:
                    payload = json.loads(body.decode("utf-8")) if body else {}
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise RequestValidationError(
                        f"request body is not valid JSON: {exc}"
                    ) from exc
                request = request_from_wire(_POST_ROUTES[path], payload)
                response = await self.server.handle(request)
                return 200, _json(response_to_wire(response)), "application/json"
            if path in set(_POST_ROUTES) | set(_GET_ROUTES):
                raise _HttpError(405, f"{method} not allowed on {path}")
            raise _HttpError(404, f"no route {path!r}")
        except _HttpError as exc:
            return exc.status, _error_body(exc), "application/json"
        except Exception as exc:
            return (
                _error_status(exc),
                _json({"error": str(exc), "type": type(exc).__name__}),
                "application/json",
            )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        keep_alive: bool,
    ) -> None:
        reason = _STATUS_REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii") + payload)
        await writer.drain()


def _error_body(exc: _HttpError) -> bytes:
    return _json({"error": str(exc), "type": "http"})


def _json(payload: dict) -> bytes:
    return json.dumps(payload, default=_default).encode("utf-8")


def _default(value: object):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


async def serve_http(
    server: InferenceServer, host: str = "127.0.0.1", port: int = 0
) -> HttpAdapter:
    """Start an :class:`HttpAdapter` for ``server``; returns it bound."""
    adapter = HttpAdapter(server)
    await adapter.start(host=host, port=port)
    return adapter
