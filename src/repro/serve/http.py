"""The HTTP JSON API of the pre-fork front end (:mod:`repro.serve.prefork`).

Each pre-fork worker hands an accepted HTTP connection to
:meth:`HandlerContext.handle_connection`, a small HTTP/1.1 keep-alive
loop that reads through the same :class:`~repro.serve.wire.ConnReader`
as the wire loop and speaks a small JSON protocol:

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

Framing is parsed here, with byte splits, so no serving process loads
the stdlib HTTP stack (``http.server`` pulls in ``http.client``,
``email``, ``ssl``, ``socketserver`` and ``mimetypes``).  A request
head -- request line and headers -- is read up to its blank line, at
most :data:`MAX_HEAD_BYTES`; exactly ``Content-Length`` body bytes
follow, after a ``100 Continue`` when the client sent ``Expect:
100-continue``.  Pipelined requests are answered in order.  Each
response is one ``sendall`` of head and body, with ``Date``,
``Content-Type`` and ``Content-Length`` headers, ``Retry-After`` on a
503 and ``Connection: close`` on the last response of a connection.
HTTP/1.1 connections stay open until the client sends ``Connection:
close``, idles past the keep-alive timeout or the worker drains;
HTTP/1.0 ones close after one response unless they ask for
``keep-alive``.  A request whose end cannot be found is answered and
its connection closed: a malformed request line or header line (400),
a head over the cap (431), a bad or negative ``Content-Length`` (400)
or any ``Transfer-Encoding`` (501).  Methods other than GET and POST
answer 501 and keep the connection.

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
import select
import socket
import time
from typing import Any, Optional
from urllib.parse import parse_qs

import numpy as np

from repro.obs import get_events, get_metrics, render_prometheus
from repro.serve.service import INVALID_SQUARES, OracleService, Overloaded
from repro.serve.wire import ConnReader

__all__ = ["HandlerContext", "count_internal_error"]

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Longest request head (request line and headers) read; past it, 431.
MAX_HEAD_BYTES = 1 << 16

#: Seconds an idle connection waits in ``select`` between ``draining`` checks.
_IDLE_TICK = 0.25

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

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
    """Internal: carry a status code + JSON payload up to the loop."""

    def __init__(self, status: int, payload: dict[str, Any]):
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload


#: ``endpoint`` metric label per routed path; all others count as ``unknown``.
_ENDPOINTS = ("/healthz", "/metrics", "/v1/global", *_QUERY_ROUTES)
_ENDPOINT_LABELS = {path: path.strip("/").replace("/", "_") for path in _ENDPOINTS}


def count_internal_error(front: str, exc: Exception, worker: str) -> None:
    """Record an unexpected error answered as HTTP 500 / wire ``STATUS_INTERNAL``."""
    name = type(exc).__name__
    get_metrics().counter("serve.internal_errors_total", front=front, exc=name).inc()
    events = get_events()
    if events.enabled:
        events.emit("serve.internal_error", front=front, exc=name, error=str(exc), worker=worker)


class HandlerContext:
    """One worker's HTTP front end: state, routing and the keep-alive loop.

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
        #: ``Connection: close`` and idle keep-alive connections close.
        self.draining = False

    def handle_connection(self, conn: socket.socket, idle_timeout: float) -> None:
        """Answer HTTP/1.1 requests on an accepted socket, in order,
        until the connection ends.

        Between requests the loop waits in ``select`` in short ticks: it
        closes a connection idle for ``idle_timeout`` seconds, and once
        the worker drains it answers only what is already buffered.  A
        read inside a request times out with the socket's own timeout.
        """
        reader = ConnReader(conn)
        try:
            while reader.pending or self._await_request(conn, idle_timeout):
                if not self._exchange(conn, reader):
                    return
        except TimeoutError:
            pass  # the client stalled mid-request

    def _await_request(self, conn: socket.socket, idle_timeout: float) -> bool:
        """Wait for the next request's first byte; False on drain or idle."""
        deadline = time.monotonic() + idle_timeout
        while True:
            # While draining, poll at timeout 0: a request the client
            # already sent still gets its answer; an idle connection closes.
            draining = self.draining
            readable, _, _ = select.select([conn], [], [], 0.0 if draining else _IDLE_TICK)
            if readable:
                return True
            if draining or time.monotonic() >= deadline:
                return False

    def _exchange(self, conn: socket.socket, reader: ConnReader) -> bool:
        """Read, answer and send one request; False once the connection ends."""
        t0 = time.perf_counter()
        head = reader.read_until(b"\r\n\r\n", MAX_HEAD_BYTES)
        if not head.endswith(b"\r\n\r\n"):
            if len(head) == MAX_HEAD_BYTES:
                error = f"request head exceeds {MAX_HEAD_BYTES} bytes"
                _send(conn, 431, {"error": error}, close=True)
            return False  # else EOF: the client is gone
        lines = head[:-4].split(b"\r\n")
        request_line = lines[0].split(b" ")
        if len(request_line) != 3 or not request_line[2].startswith(b"HTTP/1."):
            # Framing is lost before a route is known: answer once, uncounted.
            _send(conn, 400, {"error": f"malformed request line {lines[0][:100]!r}"}, close=True)
            return False
        method, target, version = request_line
        path, _, raw_query = target.decode("latin-1").partition("?")
        try:
            headers = _parse_headers(lines[1:])
            length = _content_length(headers)
        except _HTTPError as exc:  # the request's end is lost: answer, then close
            status, payload, close = exc.status, exc.payload, True
        else:
            option = headers.get(b"connection", b"").lower()
            close = option == b"close" or (version == b"HTTP/1.0" and option != b"keep-alive")
            if version != b"HTTP/1.0" and headers.get(b"expect", b"").lower() == b"100-continue":
                conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            # Always read the whole body: with keep-alive an unread body
            # would desync the next request on the connection.
            body = reader.read(length)
            if len(body) < length:
                return False  # EOF mid-body
            status, payload = self._answer(method, path, raw_query, body)
        # Graceful shutdown: finish this response, then release the
        # keep-alive connection so the worker can exit.
        close = close or self.draining
        metrics = get_metrics()
        label = _ENDPOINT_LABELS.get(path, "unknown")
        # Counted before the send: a client that has its answer and then
        # scrapes /metrics (another connection, another thread) must see it.
        metrics.counter("serve.http.responses_total", endpoint=label, status=str(status)).inc()
        _send(conn, status, payload, close)
        metrics.histogram("serve.http.latency_seconds", endpoint=label).observe(
            time.perf_counter() - t0
        )
        return not close

    def _answer(
        self, method: bytes, path: str, raw_query: str, body: bytes
    ) -> tuple[int, dict[str, Any] | _Raw]:
        """Route one framed request to its status and payload."""
        try:
            if method not in (b"GET", b"POST"):
                raise _HTTPError(501, {"error": f"unsupported method {method.decode('latin-1')!r}"})
            return self._route(method.decode("ascii"), path, parse_qs(raw_query), body)
        except _HTTPError as exc:
            return exc.status, exc.payload
        except Overloaded as exc:
            return 503, {"error": str(exc)}
        except (ValueError, IndexError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # defensive: a bug, not the client's fault
            count_internal_error("http", exc, self.worker_label)
            return 500, {"error": f"internal error: {exc}"}

    def _route(
        self, method: str, path: str, query: dict[str, list[str]], body: bytes
    ) -> tuple[int, dict[str, Any] | _Raw]:
        service = self.service
        if path == "/healthz":
            _require_method(method, "GET")
            return 200, {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "artifact": self.info,
                "queue_depth": service.queue_depth(),
                "worker": self.worker_label,
            }
        if path == "/metrics":
            _require_method(method, "GET")
            fmt = (query.get("format") or ["json"])[-1]
            if fmt == "prometheus":
                stats = service.stats()
                text = render_prometheus(
                    get_metrics().snapshot(),
                    extra_gauges={f"serve.service.{k}": v for k, v in stats.items()},
                    const_labels={"worker": self.worker_label},
                )
                return 200, _Raw(text, PROM_CONTENT_TYPE)
            if fmt != "json":
                raise _HTTPError(
                    400, {"error": f"unknown format {fmt!r} (expected json or prometheus)"}
                )
            return 200, {"service": service.stats(), "metrics": get_metrics().snapshot()}
        if path == "/v1/global":
            _require_method(method, "GET")
            return 200, {"squares": service.answer("global")}
        route = _QUERY_ROUTES.get(path)
        if route is not None:
            _require_method(method, "POST")
            kind, keys, answer_key = route
            indices = _read_indices(body, keys)
            values = service.answer(kind, *indices)
            if len(indices) == 2:
                mask = np.isnan(values) if kind == "clustering" else values == INVALID_SQUARES
                invalid = np.flatnonzero(mask)
                if invalid.size:
                    raise _HTTPError(422, _invalid_payload(*indices, invalid))
            return 200, {answer_key: values.tolist()}
        raise _HTTPError(404, {"error": f"unknown endpoint {path}"})


# ----------------------------------------------------------------------
# Request plumbing
# ----------------------------------------------------------------------


def _parse_headers(lines: list[bytes]) -> dict[bytes, bytes]:
    """Header lines to ``{lowercased name: stripped value}``; the first
    of a repeated header wins.  A line with no colon, or with space
    before it (a folded or smuggled header), is a 400 that closes."""
    headers: dict[bytes, bytes] = {}
    for line in lines:
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise _HTTPError(400, {"error": f"malformed header line {line[:100]!r}"})
        headers.setdefault(name.lower(), value.strip())
    return headers


def _content_length(headers: dict[bytes, bytes]) -> int:
    """The body length a request declares; its framing errors close."""
    if b"transfer-encoding" in headers:
        # The next request starts after a chunked body nobody parses.
        raise _HTTPError(501, {"error": "Transfer-Encoding is not supported; send Content-Length"})
    raw = headers.get(b"content-length", b"0")
    if not raw.isdigit():  # ASCII digits only: no sign, no space
        raise _HTTPError(400, {"error": "bad Content-Length header"})
    return int(raw)


def _require_method(method: str, expected: str) -> None:
    if method != expected:
        raise _HTTPError(405, {"error": f"use {expected} for this endpoint"})


def _read_indices(raw: bytes, keys: tuple[str, ...]) -> list[list[int]]:
    """Parse the JSON body into one index list per key (400 on any
    malformed shape; scalar ``p``/``q`` sugar accepted)."""
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


def _invalid_payload(ps: list, qs: list, invalid: np.ndarray) -> dict[str, Any]:
    slots = invalid.tolist()
    return {
        "error": "query out of domain: pairs are not product edges "
        "(or clustering is undefined there)",
        "invalid": slots,
        "pairs": [[ps[i], qs[i]] for i in slots[:16]],
    }


def _http_date(when: Optional[float] = None) -> str:
    """An IMF-fixdate (RFC 9110), e.g. ``Sun, 06 Nov 1994 08:49:37 GMT``."""
    t = time.gmtime(when)
    return (
        f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


def _send(conn: socket.socket, status: int, payload: dict[str, Any] | _Raw, close: bool) -> None:
    """Write one response, head and body, in a single ``sendall``."""
    if isinstance(payload, _Raw):
        body = payload.body
        content_type = payload.content_type
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    head = (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
        f"Date: {_http_date()}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if status == 503:
        head += "Retry-After: 1\r\n"
    if close:
        head += "Connection: close\r\n"
    conn.sendall(f"{head}\r\n".encode("latin-1") + body)
