"""Compact binary batch protocol for oracle queries (schema ``repro.wire/1``).

The JSON HTTP API is convenient but pays for itself on every request:
request-line parsing, header round-trips, JSON encode/decode, and --
with naive clients -- a fresh TCP connection per request.  The wire
protocol strips a query down to a fixed 16-byte header plus raw
little-endian ``int64`` index arrays, and answers with a 16-byte header
plus a raw ``int64``/``float64`` value array.  Frames are fully
length-prefixed (the header carries both array lengths), so framing
survives pipelining: a client may write any number of request frames
before reading the first response, and responses come back in request
order on the same connection.

Frame layout (all integers little-endian):

=========  =======================================================
request    ``magic(2) version(1) kind(1) flags(1) pad(3) n_ps(u32)
           n_qs(u32)`` then ``ps`` as ``int64[n_ps]`` then ``qs``
           as ``int64[n_qs]``
response   ``magic(2) version(1) status(1) dtype(1) pad(3)
           n_values(u32) msg_len(u32)`` then values then a UTF-8
           error message of ``msg_len`` bytes
=========  =======================================================

The magic starts with byte ``0x9F`` -- not printable ASCII, so the
first byte of a wire frame can never collide with an HTTP method
(``GET``/``POST``/...).  That is what lets the pre-fork front end
(:mod:`repro.serve.prefork`) serve both protocols on one port by
peeking a single byte.

Masking semantics are the oracle's, passed through raw: ``edge_squares``
and ``wings`` answers carry ``-1``
(:data:`~repro.serve.service.INVALID_SQUARES`) at non-edge slots and
``clustering`` carries ``NaN`` out of domain --
status stays ``OK`` because the *frame* was well-formed.  Malformed
frames (bad kind, bad index dtype, out-of-range vertices) answer
``STATUS_BAD_REQUEST`` with a message; queue saturation answers
``STATUS_OVERLOADED``; both leave the connection usable.

:class:`WireClient` is the reference client: a small pool of persistent
keep-alive connections, batched query methods mirroring
:class:`~repro.serve.service.OracleService`, and a :meth:`WireClient.pipeline`
helper that keeps a bounded window of frames in flight for throughput
work (``benchmarks/bench_serve.py`` drives it).
"""

from __future__ import annotations

import select
import socket
import struct
import threading
from typing import Any, BinaryIO, Optional, Union

import numpy as np

__all__ = [
    "WIRE_SCHEMA",
    "MAGIC",
    "WIRE_VERSION",
    "KINDS",
    "PAIR_KINDS",
    "STATUS_OK",
    "STATUS_BAD_REQUEST",
    "STATUS_OVERLOADED",
    "STATUS_INTERNAL",
    "WireError",
    "WireProtocolError",
    "WireServerError",
    "encode_request",
    "encode_response",
    "encode_error",
    "read_request",
    "read_response",
    "ConnReader",
    "WireClient",
]

#: Wire schema tag; bump :data:`WIRE_VERSION` on incompatible changes.
WIRE_SCHEMA = "repro.wire/1"
WIRE_VERSION = 1

#: First byte 0x9F is outside printable ASCII, disjoint from every HTTP
#: method initial -- the invariant the one-byte protocol sniff relies on.
MAGIC = b"\x9fW"

_HEADER = struct.Struct("<2sBBB3xII")
HEADER_SIZE = _HEADER.size  # 16 bytes, both directions

#: Query kind codes (request header byte 3).  Codes are positional and
#: append-only: ``wings`` landed at code 5 after ``global`` so every
#: earlier code keeps its meaning across versions.
KINDS = ("degree", "vertex_squares", "edge_squares", "clustering", "global", "wings")
_KIND_CODE = {name: code for code, name in enumerate(KINDS)}

#: Response status codes (response header byte 3).
STATUS_OK = 0
STATUS_BAD_REQUEST = 1
STATUS_OVERLOADED = 2
STATUS_INTERNAL = 3

_STATUS_NAMES = {
    STATUS_OK: "ok",
    STATUS_BAD_REQUEST: "bad-request",
    STATUS_OVERLOADED: "overloaded",
    STATUS_INTERNAL: "internal",
}

#: Answer dtype tags (response header byte 4).
_DTYPE_CODES: dict[int, np.dtype] = {
    0: np.dtype("<i8"),
    1: np.dtype("<f8"),
}
_CODE_FOR_KIND = {"clustering": 1}  # every other kind answers int64

#: Sanity bound on per-frame element counts: a frame is a micro-batch,
#: not a bulk transfer.  Protects the server from a hostile/corrupt
#: header demanding a multi-GiB allocation.
MAX_FRAME_ELEMENTS = 1 << 24

#: Kinds whose requests carry both ``ps`` and ``qs`` (an edge per slot).
PAIR_KINDS = frozenset({"edge_squares", "clustering", "wings"})

#: Frames :meth:`WireClient.pipeline` keeps in flight.  The client reads
#: answers while it sends, so the window bounds buffered bytes on both
#: ends; it never needs the socket buffers to hold a whole burst.
PIPELINE_WINDOW = 32


class WireError(Exception):
    """Base class for wire-protocol failures."""


class WireProtocolError(WireError):
    """The byte stream is not a valid ``repro.wire/1`` frame."""


class WireServerError(WireError):
    """The server answered an error status frame."""

    def __init__(self, status: int, message: str):
        super().__init__(f"{_STATUS_NAMES.get(status, status)}: {message}")
        self.status = status
        self.message = message


def _as_index_bytes(values: Any, name: str) -> tuple[bytes, int]:
    arr = np.ascontiguousarray(values, dtype="<i8")
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a flat index list, got shape {arr.shape}")
    return arr.tobytes(), arr.size


def encode_request(kind: str, ps: Any = None, qs: Any = None) -> bytes:
    """Serialize one query as a request frame."""
    try:
        code = _KIND_CODE[kind]
    except KeyError:
        raise ValueError(f"unknown query kind {kind!r} (expected one of {KINDS})") from None
    if kind == "global":
        if ps is not None or qs is not None:
            raise ValueError("global queries take no index arrays")
        return _HEADER.pack(MAGIC, WIRE_VERSION, code, 0, 0, 0)
    if ps is None:
        raise ValueError(f"{kind} queries need a ps index list")
    ps_bytes, n_ps = _as_index_bytes(ps, "ps")
    if kind in PAIR_KINDS:
        if qs is None:
            raise ValueError(f"{kind} queries need both ps and qs index lists")
        qs_bytes, n_qs = _as_index_bytes(qs, "qs")
    elif qs is not None:
        raise ValueError(f"{kind} queries take only ps, got a qs list too")
    else:
        qs_bytes, n_qs = b"", 0
    header = _HEADER.pack(MAGIC, WIRE_VERSION, code, 0, n_ps, n_qs)
    return header + ps_bytes + qs_bytes


def encode_response(values: Union[np.ndarray, int], kind: str) -> bytes:
    """Serialize a successful answer (dtype tagged by query kind)."""
    dtype_code = _CODE_FOR_KIND.get(kind, 0)
    arr = np.ascontiguousarray(values, dtype=_DTYPE_CODES[dtype_code])
    if arr.ndim == 0:
        arr = arr.reshape(1)
    header = _HEADER.pack(MAGIC, WIRE_VERSION, STATUS_OK, dtype_code, arr.size, 0)
    return header + arr.tobytes()


def encode_error(status: int, message: str) -> bytes:
    """Serialize an error answer; the connection stays usable."""
    body = message.encode("utf-8", errors="replace")
    header = _HEADER.pack(MAGIC, WIRE_VERSION, status, 0, 0, len(body))
    return header + body


def _read_exact(stream: BinaryIO, n: int, *, frame_edge: bool = False) -> Optional[bytes]:
    """Read exactly ``n`` bytes; :class:`WireProtocolError` on EOF
    mid-frame.  Only a header read (``frame_edge=True``) starts at a
    frame edge, where EOF before the first byte is a clean close
    (``None``)."""
    if n == 0:
        return b""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            if got == 0 and frame_edge:
                return None
            raise WireProtocolError(f"stream truncated mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def _parse_header(raw: Union[bytes, bytearray], offset: int = 0) -> tuple[int, int, int, int]:
    magic, version, code, aux, n_a, n_b = _HEADER.unpack_from(raw, offset)
    if magic != MAGIC:
        raise WireProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireProtocolError(f"unsupported wire version {version} (this build speaks {WIRE_VERSION})")
    if n_a > MAX_FRAME_ELEMENTS or n_b > MAX_FRAME_ELEMENTS:
        raise WireProtocolError(
            f"frame too large: {max(n_a, n_b)} elements (cap {MAX_FRAME_ELEMENTS})"
        )
    return code, aux, n_a, n_b


def read_request(stream: BinaryIO) -> Optional[tuple[str, Optional[np.ndarray], Optional[np.ndarray]]]:
    """Read one request frame: ``(kind, ps, qs)``; ``None`` on clean EOF."""
    raw = _read_exact(stream, HEADER_SIZE, frame_edge=True)
    if raw is None:
        return None
    code, _flags, n_ps, n_qs = _parse_header(raw)
    if code >= len(KINDS):
        # Drain the payload so the connection stays framed, then report.
        _read_exact(stream, 8 * (n_ps + n_qs))
        raise WireProtocolError(f"unknown kind code {code}")
    kind = KINDS[code]
    ps = qs = None
    if n_ps:
        ps = np.frombuffer(_read_exact(stream, 8 * n_ps), dtype="<i8")
    if n_qs:
        qs = np.frombuffer(_read_exact(stream, 8 * n_qs), dtype="<i8")
    return kind, ps, qs


def read_response(stream: BinaryIO) -> np.ndarray:
    """Read one response frame; raises :class:`WireServerError` on an
    error status and :class:`WireProtocolError` on a torn stream."""
    raw = _read_exact(stream, HEADER_SIZE, frame_edge=True)
    if raw is None:
        raise WireProtocolError("connection closed before the response frame")
    status, dtype_code, n_values, msg_len = _parse_header(raw)
    body = _read_exact(stream, 8 * n_values + msg_len)
    split = 8 * n_values
    return _decode_answer(status, dtype_code, body[:split], body[split:])


def _decode_answer(status: int, dtype_code: int, payload: bytes, message: bytes) -> np.ndarray:
    if status != STATUS_OK:
        raise WireServerError(status, message.decode("utf-8", errors="replace"))
    dtype = _DTYPE_CODES.get(dtype_code)
    if dtype is None:
        raise WireProtocolError(f"unknown answer dtype code {dtype_code}")
    return np.frombuffer(payload, dtype=dtype)


class ConnReader:
    """Buffered reader over a server-side socket's ``recv``, with an
    inspectable buffer; the wire loop and the HTTP loop both read
    through it.

    ``socket.makefile`` hides its read-ahead, which makes "is a
    pipelined request already buffered?" unanswerable -- and the drain
    loops need exactly that question.  This reader exposes
    :attr:`pending` so a loop only parks in ``select`` when the buffer
    is truly empty.

    Reads advance a cursor instead of re-slicing the buffer: a deep
    pipeline leaves many frames buffered at once, and slicing the
    remainder on every 16-byte header read would cost O(buffered^2)
    memcpy over the burst.  The consumed prefix is compacted away once
    it grows past 64 KiB.
    """

    __slots__ = ("_conn", "_buf", "_pos")

    def __init__(self, conn: socket.socket):
        self._conn = conn
        self._buf = bytearray()
        self._pos = 0

    @property
    def pending(self) -> bool:
        return self._pos < len(self._buf)

    def _fill(self) -> bool:
        chunk = self._conn.recv(1 << 16)
        self._buf += chunk
        return bool(chunk)

    def _take(self, end: int) -> bytes:
        out = bytes(self._buf[self._pos : end])
        self._pos = end
        if self._pos == len(self._buf):
            del self._buf[:]
            self._pos = 0
        elif self._pos > (1 << 16):
            del self._buf[: self._pos]
            self._pos = 0
        return out

    def read(self, n: int) -> bytes:
        """Up to ``n`` bytes: fewer only at EOF."""
        need = self._pos + n
        while len(self._buf) < need and self._fill():
            pass
        return self._take(min(need, len(self._buf)))

    def read_until(self, delim: bytes, limit: int) -> bytes:
        """The bytes through the first ``delim``, reading at most ``limit``.

        Returns without ``delim`` at its end when EOF or ``limit`` comes
        first: the caller tells the two apart by the length.
        """
        start = scan = self._pos
        cap = start + limit
        while True:
            found = self._buf.find(delim, scan, cap)
            if found >= 0:
                return self._take(found + len(delim))
            if len(self._buf) >= cap:
                return self._take(cap)
            scan = max(start, len(self._buf) - len(delim) + 1)
            if not self._fill():
                return self._take(len(self._buf))


class WireClient:
    """Pooled keep-alive client for the binary protocol.

    Connections are created lazily, checked out per call, and returned
    to the pool afterwards -- safe for concurrent use from ``pool_size``
    threads.  Each query method mirrors the
    :class:`~repro.serve.service.OracleService` API and returns the raw
    answer array (mask semantics included).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 1,
        timeout: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool_size = max(1, pool_size)
        self._pool: list[socket.socket] = []
        self._lock = threading.Lock()

    # -- connection pool -------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._pool:
                return self._pool.pop()
        return self._connect()

    def _checkin(self, sock: socket.socket, broken: bool) -> None:
        if broken:
            try:
                sock.close()
            except OSError:
                pass
            return
        with self._lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(sock)
                return
        sock.close()

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, []
        for sock in pool:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- single-frame round trip ----------------------------------------

    def request(self, kind: str, ps: Any = None, qs: Any = None) -> np.ndarray:
        frame = encode_request(kind, ps, qs)
        sock = self._checkout()
        broken = True
        try:
            sock.sendall(frame)
            with sock.makefile("rb") as rfile:
                answer = read_response(rfile)
            broken = False
            return answer
        finally:
            self._checkin(sock, broken)

    def pipeline(self, frames: list[bytes]) -> list[np.ndarray]:
        """Send pre-encoded frames and return their answers in order.

        One connection, up to :data:`PIPELINE_WINDOW` frames in flight --
        throughput is bounded by server work, not by per-frame
        round-trip latency.  Answers are read as they arrive while the
        next frames go out, so a burst whose answers outgrow the socket
        buffers cannot leave client and server both blocked in a send.
        Raises on the first error response (the remaining frames are
        dropped with the connection) and :class:`TimeoutError` when the
        socket makes no progress for ``timeout`` seconds.
        """
        answers: list[np.ndarray] = []
        out = bytearray()
        inbuf = bytearray()
        sent = 0
        sock = self._checkout()
        broken = True
        try:
            sock.setblocking(False)
            while len(answers) < len(frames):
                while sent < len(frames) and sent - len(answers) < PIPELINE_WINDOW:
                    out += frames[sent]
                    sent += 1
                readable, writable, _ = select.select(
                    [sock], [sock] if out else [], [], self.timeout
                )
                if not readable and not writable:
                    in_flight = sent - len(answers)
                    raise TimeoutError(
                        f"no progress for {self.timeout}s with {in_flight} frames in flight"
                    )
                if writable:
                    del out[: sock.send(out)]
                if not readable:
                    continue
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise WireProtocolError(
                        f"connection closed after {len(answers)}/{len(frames)} responses"
                    )
                inbuf += chunk
                pos = 0
                while len(inbuf) - pos >= HEADER_SIZE:
                    status, dtype_code, n_values, msg_len = _parse_header(inbuf, pos)
                    body = pos + HEADER_SIZE
                    split = body + 8 * n_values
                    end = split + msg_len
                    if end > len(inbuf):
                        break
                    payload, message = bytes(inbuf[body:split]), bytes(inbuf[split:end])
                    answers.append(_decode_answer(status, dtype_code, payload, message))
                    pos = end
                del inbuf[:pos]
            broken = False
            return answers
        finally:
            sock.settimeout(self.timeout)
            self._checkin(sock, broken)

    # -- query conveniences ----------------------------------------------

    def degrees(self, ps: Any) -> np.ndarray:
        return self.request("degree", ps)

    def squares_at_vertices(self, ps: Any) -> np.ndarray:
        return self.request("vertex_squares", ps)

    def squares_at_edges(self, ps: Any, qs: Any) -> np.ndarray:
        """Batched edge squares; ``-1`` marks non-edges (mask semantics)."""
        return self.request("edge_squares", ps, qs)

    def wings_at_edges(self, ps: Any, qs: Any) -> np.ndarray:
        """Batched Rem. 1 wing upper bounds; ``-1`` marks non-edges."""
        return self.request("wings", ps, qs)

    def clustering_at_edges(self, ps: Any, qs: Any) -> np.ndarray:
        """Batched clustering; ``NaN`` marks out-of-domain pairs."""
        return self.request("clustering", ps, qs)

    def global_squares(self) -> int:
        return int(self.request("global")[0])
