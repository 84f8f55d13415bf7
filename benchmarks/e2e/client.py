"""Protocol clients and server process control for the end-to-end benchmark.

Nothing here imports ``repro``.  Wire frames are packed from the
``repro.wire/1`` layout and HTTP requests are written by hand, so the
untraced workloads reach the server only through its two protocols and
the ``repro serve`` command line.

:func:`drive_wire` is the load generator for the binary protocol.  It
keeps at most ``window`` frames in flight on one non-blocking socket and
frames each response as its bytes arrive.  It never writes a burst
before reading: the server flushes its coalesced responses with a
blocking ``sendall`` once they pass 1 MiB, so a client that writes a
whole burst first (as ``WireClient.pipeline`` does) can deadlock against
it -- see README.md.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import struct
import subprocess
import time
from typing import Optional, Sequence

import numpy as np

WIRE_HEADER = struct.Struct("<2sBBB3xII")
WIRE_MAGIC = b"\x9fW"
WIRE_VERSION = 1
#: Kind codes of the wire request header (append-only in the protocol).
KIND_CODES = {
    "degree": 0,
    "vertex_squares": 1,
    "edge_squares": 2,
    "clustering": 3,
    "global": 4,
    "wings": 5,
}
PAIR_KINDS = frozenset({"edge_squares", "clustering", "wings"})
STATUS_OK = 0
#: Answer dtype per kind: clustering answers float64, the rest int64.
ANSWER_DTYPES = {kind: np.dtype("<i8") for kind in KIND_CODES}
ANSWER_DTYPES["clustering"] = np.dtype("<f8")

#: HTTP endpoint and response key per query kind.
HTTP_ROUTES = {
    "degree": ("/v1/degree", "degrees"),
    "vertex_squares": ("/v1/squares/vertex", "squares"),
    "edge_squares": ("/v1/squares/edge", "squares"),
    "wings": ("/v1/wings", "wings"),
    "clustering": ("/v1/clustering", "clustering"),
}


def wire_frame(kind: str, ps: np.ndarray, qs: Optional[np.ndarray] = None) -> bytes:
    """One ``repro.wire/1`` request frame."""
    ps_bytes = np.ascontiguousarray(ps, dtype="<i8").tobytes()
    qs_bytes = b"" if qs is None else np.ascontiguousarray(qs, dtype="<i8").tobytes()
    header = WIRE_HEADER.pack(
        WIRE_MAGIC, WIRE_VERSION, KIND_CODES[kind], 0, len(ps_bytes) // 8, len(qs_bytes) // 8
    )
    return header + ps_bytes + qs_bytes


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    """One keep-alive HTTP/1.1 request, ready to send."""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("ascii") + body


def http_query(kind: str, ps: np.ndarray, qs: Optional[np.ndarray] = None) -> bytes:
    """The JSON API request for one query batch."""
    payload = {"ps": np.asarray(ps).tolist()}
    if qs is not None:
        payload["qs"] = np.asarray(qs).tolist()
    return http_request("POST", HTTP_ROUTES[kind][0], json.dumps(payload).encode("ascii"))


def drive_wire(
    sock: socket.socket,
    frames: Sequence[bytes],
    window: int,
    timeout: float = 30.0,
) -> tuple[list[bytes], bytearray, np.ndarray]:
    """Send ``frames`` with at most ``window`` in flight; read every answer.

    Returns ``(payloads, statuses, rtts)`` in request order: the bytes
    after each response header (answer values, or the error message), the
    status byte of each response, and each frame's round trip in seconds,
    timed from the moment it entered the window.  ``frames`` may encode
    lazily in ``__getitem__``; encoding happens before the clock starts.
    Raises ``TimeoutError`` when the socket makes no progress for
    ``timeout`` seconds and ``ConnectionError`` when the server closes it.
    """
    n = len(frames)
    sent_at = np.empty(n)
    rtts = np.empty(n)
    statuses = bytearray(n)
    payloads: list[bytes] = []
    outbuf = bytearray()
    inbuf = bytearray()
    pos = 0
    sent = done = 0
    clock = time.perf_counter
    sock.setblocking(False)
    try:
        while done < n:
            while sent < n and sent - done < window:
                data = frames[sent]
                sent_at[sent] = clock()
                outbuf += data
                sent += 1
            if outbuf:
                try:
                    del outbuf[: sock.send(outbuf)]
                except BlockingIOError:
                    pass
            readable, writable, _ = select.select(
                [sock], [sock] if outbuf else [], [], timeout
            )
            if not readable and not writable:
                raise TimeoutError(f"no progress for {timeout}s with {sent - done} frames in flight")
            if not readable:
                continue
            chunk = sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError(f"server closed the connection after {done}/{n} answers")
            inbuf += chunk
            while len(inbuf) - pos >= WIRE_HEADER.size:
                _, _, status, _, n_values, msg_len = WIRE_HEADER.unpack_from(inbuf, pos)
                end = pos + WIRE_HEADER.size + 8 * n_values + msg_len
                if end > len(inbuf):
                    break
                rtts[done] = clock() - sent_at[done]
                statuses[done] = status
                payloads.append(bytes(inbuf[pos + WIRE_HEADER.size : end]))
                pos = end
                done += 1
            if pos == len(inbuf) or pos > (1 << 20):
                del inbuf[:pos]
                pos = 0
    finally:
        sock.setblocking(True)
    return payloads, statuses, rtts


def connect(host: str, port: int, timeout: float = 30.0) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class HttpConnection:
    """A minimal keep-alive HTTP/1.1 client: send a request, read one response.

    ``http.client`` is not used because the client would then dominate
    json-hot: its request building and header parsing took json-hot's
    round trip from 165 µs to 297 µs on a 2-vCPU host.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = connect(host, port, timeout)
        self._buf = b""

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the HTTP connection")
        self._buf += chunk

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one pre-encoded request; return ``(status, body)``."""
        self.sock.sendall(raw)
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self._buf = rest
        while len(self._buf) < length:
            self._fill()
        body, self._buf = self._buf[:length], self._buf[length:]
        return status, body

    def get_json(self, path: str) -> dict:
        status, body = self.request(http_request("GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path} answered HTTP {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


_PORT_LINE = re.compile(rb"serving ground-truth oracle on http://([0-9.]+):(\d+)")


class ServerProcess:
    """One ``repro serve`` process tree, started from the command line.

    The port is read from the startup line on stderr.  The server runs in
    its own session, so :meth:`stop` can reach its forked workers even if
    the parent dies.
    """

    def __init__(self, cmd: list[str], env: dict[str, str], timeout: float = 60.0):
        self.proc = subprocess.Popen(
            cmd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self._stderr = bytearray()
        try:
            self.host, self.port = self._await_port(timeout)
        except BaseException:
            self.stop()
            raise

    def _read_stderr(self, timeout: float) -> bool:
        readable, _, _ = select.select([self.proc.stderr], [], [], timeout)
        if not readable:
            return False
        chunk = os.read(self.proc.stderr.fileno(), 1 << 16)
        if not chunk:
            return False
        self._stderr += chunk
        return True

    def _await_port(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while True:
            match = _PORT_LINE.search(self._stderr)
            if match:
                return match.group(1).decode(), int(match.group(2))
            left = deadline - time.monotonic()
            if left <= 0 or not self._read_stderr(left):
                raise RuntimeError(
                    "repro serve did not report a port: "
                    + self._stderr.decode(errors="replace")[-2000:]
                )

    def pids(self) -> list[int]:
        """The server's own pid and the pids of its direct children."""
        pids = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            fields = stat[stat.rfind(b")") + 2 :].split()
            if int(fields[1]) == self.proc.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Largest VmHWM among the server and its workers, in MiB."""
        peak_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status", "rb") as fh:
                    for line in fh:
                        if line.startswith(b"VmHWM:"):
                            peak_kb = max(peak_kb, int(line.split()[1]))
            except OSError:
                continue
        return peak_kb / 1024.0

    def stop(self, timeout: float = 30.0) -> str:
        """SIGTERM the server, wait for it, and return what it wrote to stderr."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        while self._read_stderr(0.0):
            pass
        self.proc.stderr.close()
        return self._stderr.decode(errors="replace")
