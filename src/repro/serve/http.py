"""The HTTP JSON API of the pre-fork front end (:mod:`repro.serve.prefork`).

Each pre-fork worker hands an accepted HTTP connection to
:class:`HandlerContext`, which runs a stdlib ``BaseHTTPRequestHandler``
keep-alive loop speaking a small JSON protocol:

===========================  ======  =====================================
endpoint                     method  body / response
===========================  ======  =====================================
``/v1/degree``               POST    ``{"ps": [..]}`` → ``{"degrees": [..]}``
``/v1/squares/vertex``       POST    ``{"ps": [..]}`` → ``{"squares": [..]}``
``/v1/squares/edge``         POST    ``{"ps": [..], "qs": [..]}`` → ``{"squares": [..]}``
``/v1/wings``                POST    ``{"ps": [..], "qs": [..]}`` → ``{"wings": [..]}``
``/v1/clustering``           POST    ``{"ps": [..], "qs": [..]}`` → ``{"clustering": [..]}``
``/v1/global``               GET     ``{"squares": N}``
``/healthz``                 GET     liveness + artifact summary
``/metrics``                 GET     service tallies + obs snapshot (JSON)
``/metrics?format=prometheus``  GET  text exposition with quantiles
===========================  ======  =====================================

Queries are answered by :meth:`~repro.serve.service.OracleService.answer`
on the connection's thread, the same call the wire protocol makes.
Scalar sugar: ``{"p": 3}`` / ``{"q": 7}`` are accepted anywhere a
one-element list would be.  Status mapping:

* **400** -- malformed request: invalid JSON, missing/extra keys,
  non-integer entries, mismatched ``ps``/``qs`` arity, out-of-range
  vertex ids.
* **422** -- well-formed but out of domain: a queried pair is not a
  product edge (or clustering is undefined there).  Mirrors the
  oracle's ``on_invalid="mask"`` semantics -- the response names the
  offending slots instead of poisoning the whole batch.
* **503** -- load shed (:class:`~repro.serve.service.Overloaded`),
  with a ``Retry-After`` header.
* **500** -- an unexpected error, counted in
  ``serve.internal_errors_total{front="http",exc=...}``.

Every request is instrumented through :mod:`repro.obs` with labeled
series: a per-endpoint latency histogram
(``serve.http.latency_seconds{endpoint=...}``, covering the whole
request up to the last byte written) and a response counter by
endpoint and status (``serve.http.responses_total{endpoint=...,
status=...}``).  ``repro serve`` installs a live registry
unconditionally, so these record in production — not only under
``--profile``.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler
from typing import Any, Optional
from urllib.parse import parse_qs

import numpy as np

from repro.obs import get_events, get_metrics, render_prometheus
from repro.serve.service import INVALID_SQUARES, OracleService, Overloaded

__all__ = ["HandlerContext", "count_internal_error"]

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: POST query routes: path -> (service query kind, body keys, answer key).
_QUERY_ROUTES = {
    "/v1/degree": ("degree", ("ps",), "degrees"),
    "/v1/squares/vertex": ("vertex_squares", ("ps",), "squares"),
    "/v1/squares/edge": ("edge_squares", ("ps", "qs"), "squares"),
    "/v1/wings": ("wings", ("ps", "qs"), "wings"),
    "/v1/clustering": ("clustering", ("ps", "qs"), "clustering"),
}


class _Raw:
    """A non-JSON response body with an explicit content type."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: str, content_type: str):
        self.body = body.encode("utf-8")
        self.content_type = content_type


class _HTTPError(Exception):
    """Internal: carry a status code + JSON payload up to the handler."""

    def __init__(self, status: int, payload: dict[str, Any]):
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload


def _endpoint_label(path: str) -> str:
    return path.strip("/").replace("/", "_") or "root"


def count_internal_error(front: str, exc: Exception, worker: str) -> None:
    """Record an unexpected error answered as HTTP 500 / wire ``STATUS_INTERNAL``."""
    name = type(exc).__name__
    get_metrics().counter("serve.internal_errors_total", front=front, exc=name).inc()
    events = get_events()
    if events.enabled:
        events.emit("serve.internal_error", front=front, exc=name, error=str(exc), worker=worker)


class HandlerContext:
    """What :class:`_OracleHandler` reads as its ``server``, one per worker.

    Holds the worker's :class:`OracleService`, the artifact summary for
    ``/healthz``, the ``worker_label`` stamped on every prometheus
    sample (so multi-process scrapes never collide series), and the
    ``draining`` flag flipped during graceful shutdown.
    """

    __slots__ = ("service", "info", "started_at", "worker_label", "draining")

    def __init__(
        self,
        service: OracleService,
        info: Optional[dict[str, Any]] = None,
        worker_label: str = "0",
    ):
        self.service = service
        self.info = info or {}
        self.started_at = time.monotonic()
        self.worker_label = worker_label
        #: Flipped during graceful shutdown: responses carry
        #: ``Connection: close`` so keep-alive clients release promptly.
        self.draining = False

    def handle_connection(self, conn, addr) -> None:
        """Run the keep-alive HTTP request loop on an accepted socket."""
        _OracleHandler(conn, addr, self)


class _OracleHandler(BaseHTTPRequestHandler):
    server: HandlerContext
    protocol_version = "HTTP/1.1"
    # The default handler logs every request to stderr; the obs layer
    # already counts and times them, so stay quiet.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def _handle(self, method: str) -> None:
        t0 = time.perf_counter()
        path, _, raw_query = self.path.partition("?")
        try:
            # Always drain the body first: with HTTP/1.1 keep-alive an
            # unread body would desync the next request on the socket.
            self._body = self._read_body()
            status, payload = self._route(method, path, parse_qs(raw_query))
        except _HTTPError as exc:
            status, payload = exc.status, exc.payload
        except Overloaded as exc:
            status, payload = 503, {"error": str(exc)}
        except (ValueError, IndexError) as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # defensive: a bug, not the client's fault
            count_internal_error("http", exc, self.server.worker_label)
            status, payload = 500, {"error": f"internal error: {exc}"}
        if self.server.draining:
            # Graceful shutdown: finish this response, then release the
            # keep-alive connection so the worker can exit.
            self.close_connection = True
        metrics = get_metrics()
        label = _endpoint_label(path)
        # Counted before the send: a client that has its answer and then
        # scrapes /metrics (another connection, another thread) must see it.
        metrics.counter("serve.http.responses_total", endpoint=label, status=str(status)).inc()
        self._send(status, payload)
        metrics.histogram("serve.http.latency_seconds", endpoint=label).observe(
            time.perf_counter() - t0
        )

    def _route(
        self, method: str, path: str, query: dict[str, list[str]]
    ) -> tuple[int, dict[str, Any] | _Raw]:
        service = self.server.service
        if path == "/healthz":
            self._require_method(method, "GET")
            return 200, {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self.server.started_at, 3),
                "artifact": self.server.info,
                "queue_depth": service.queue_depth(),
                "worker": self.server.worker_label,
            }
        if path == "/metrics":
            self._require_method(method, "GET")
            fmt = (query.get("format") or ["json"])[-1]
            if fmt == "prometheus":
                stats = service.stats()
                text = render_prometheus(
                    get_metrics().snapshot(),
                    extra_gauges={f"serve.service.{k}": v for k, v in stats.items()},
                    const_labels={"worker": self.server.worker_label},
                )
                return 200, _Raw(text, PROM_CONTENT_TYPE)
            if fmt != "json":
                raise _HTTPError(
                    400, {"error": f"unknown format {fmt!r} (expected json or prometheus)"}
                )
            return 200, {"service": service.stats(), "metrics": get_metrics().snapshot()}
        if path == "/v1/global":
            self._require_method(method, "GET")
            return 200, {"squares": service.answer("global")}
        route = _QUERY_ROUTES.get(path)
        if route is not None:
            self._require_method(method, "POST")
            kind, keys, answer_key = route
            indices = self._read_indices(keys)
            values = service.answer(kind, *indices)
            if len(indices) == 2:
                mask = np.isnan(values) if kind == "clustering" else values == INVALID_SQUARES
                invalid = np.flatnonzero(mask)
                if invalid.size:
                    raise _HTTPError(422, self._invalid_payload(*indices, invalid))
            return 200, {answer_key: values.tolist()}
        raise _HTTPError(404, {"error": f"unknown endpoint {path}"})

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    def _require_method(self, method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(405, {"error": f"use {expected} for this endpoint"})

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise _HTTPError(400, {"error": "bad Content-Length header"}) from None
        return self.rfile.read(length) if length > 0 else b""

    def _read_indices(self, keys: tuple[str, ...]) -> list[list[int]]:
        """Parse the JSON body into one index list per key (400 on any
        malformed shape; scalar ``p``/``q`` sugar accepted)."""
        raw = self._body
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, {"error": f"request body is not valid JSON: {exc}"}) from exc
        if not isinstance(body, dict):
            raise _HTTPError(400, {"error": "request body must be a JSON object"})
        known = set()
        for key in keys:
            known.update((key, key.rstrip("s")))
        extra = set(body) - known
        if extra:
            raise _HTTPError(
                400, {"error": f"unexpected keys {sorted(extra)} (expected {sorted(keys)})"}
            )
        out: list[list[int]] = []
        for key in keys:
            scalar = key.rstrip("s")
            if key in body and scalar in body:
                raise _HTTPError(400, {"error": f"pass either {key!r} or {scalar!r}, not both"})
            if scalar in body:
                values: Any = [body[scalar]]
            elif key in body:
                values = body[key]
            else:
                raise _HTTPError(400, {"error": f"missing required key {key!r}"})
            if not isinstance(values, list):
                raise _HTTPError(400, {"error": f"{key!r} must be a JSON list of vertex ids"})
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
                raise _HTTPError(400, {"error": f"{key!r} must contain integers only"})
            out.append(values)
        if len(out) == 2 and len(out[0]) != len(out[1]):
            raise _HTTPError(
                400,
                {"error": f"ps and qs must match in length: {len(out[0])} vs {len(out[1])}"},
            )
        return out

    def _invalid_payload(self, ps: list, qs: list, invalid: np.ndarray) -> dict[str, Any]:
        slots = invalid.tolist()
        return {
            "error": "query out of domain: pairs are not product edges "
            "(or clustering is undefined there)",
            "invalid": slots,
            "pairs": [[ps[i], qs[i]] for i in slots[:16]],
        }

    def _send(self, status: int, payload: dict[str, Any] | _Raw) -> None:
        if isinstance(payload, _Raw):
            body = payload.body
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if status == 503:
                self.send_header("Retry-After", "1")
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

