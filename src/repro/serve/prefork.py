"""The pre-fork multi-process serving front end (gunicorn-sync shaped).

This is the one front end ``repro serve`` boots.  It runs the classic
pre-fork pattern:

1. the **parent** binds the listening socket, loads the oracle artifact
   **once** with ``load_oracle(..., mmap=True)`` -- every large array
   (CSR triplets, stats vectors, coefficient stacks) is a read-only
   page-cache view of ``oracle.npz``, never a per-process copy;
2. it forks ``workers`` children (``--workers-procs``, default 1) that
   each ``accept()`` on the shared socket and serve connections with
   their own :class:`~repro.serve.service.OracleService` over the
   shared arrays (small derived state rides fork copy-on-write; the big
   arrays are file-backed, so per-worker RSS stays flat as workers
   scale -- asserted in ``tests/serve/test_prefork.py``);
3. the parent supervises: a crashed worker is respawned, SIGTERM fans
   out for a graceful drain (in-flight requests complete, keep-alive
   connections release, workers exit 0), and each worker's metrics
   snapshot is merged into the parent registry via the same
   snapshot-merge machinery the ProcessPool paths use.

Both protocols share one port.  The first byte of a connection decides:
``0x9f`` (the :data:`repro.serve.wire.MAGIC` prefix, outside printable
ASCII) selects the binary batch protocol, anything else is HTTP/1.1
JSON (:mod:`repro.serve.http`).  Either way a query is answered by
:meth:`~repro.serve.service.OracleService.answer` on the connection's
thread.  Connections are keep-alive in both protocols; wire
connections may pipeline any number of frames.

``benchmarks/bench_serve.py`` records the HTTP-vs-wire-vs-in-process
throughput trajectory over this front end.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Optional

from repro import obs
from repro.obs import get_events, get_metrics
from repro.serve import wire
from repro.serve.artifact import artifact_info, load_oracle
from repro.serve.http import HandlerContext, count_internal_error
from repro.serve.service import OracleService, Overloaded

__all__ = ["PreforkServer", "PROTOCOLS"]

#: Which protocols a server may speak: JSON HTTP, the binary wire
#: protocol, or both sniffed on the same port.
PROTOCOLS = ("json", "wire", "both")

_WIRE_FIRST_BYTE = wire.MAGIC[:1]


class _ConnReader:
    """Minimal buffered reader over ``recv`` with an inspectable buffer.

    ``socket.makefile`` hides its read-ahead, which makes "is a
    pipelined frame already buffered?" unanswerable -- and the drain
    loop needs exactly that question.  This reader exposes
    :attr:`pending` so the wire loop only parks in ``select`` when the
    buffer is truly empty.

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

    def read(self, n: int) -> bytes:
        need = self._pos + n
        while len(self._buf) < need:
            chunk = self._conn.recv(1 << 16)
            if not chunk:
                break
            self._buf += chunk
        end = min(need, len(self._buf))
        out = bytes(self._buf[self._pos : end])
        self._pos = end
        if self._pos == len(self._buf):
            del self._buf[:]
            self._pos = 0
        elif self._pos > (1 << 16):
            del self._buf[: self._pos]
            self._pos = 0
        return out


class PreforkServer:
    """Parent handle: bind, fork, supervise, drain, merge.

    Parameters mirror ``repro serve``: ``workers`` forked serving
    processes, ``protocol`` limiting what the port speaks, ``max_queue``
    capping each worker's requests in progress (beyond it requests
    shed), ``cache_size`` sizing each worker's result cache, ``grace``
    seconds for the SIGTERM drain, and ``mmap`` selecting the zero-copy
    artifact load (on by default -- the point of this front end).
    ``start()`` returns in the parent once the socket is bound and
    every worker is forked; clients may connect immediately
    (connections queue in the accept backlog until a worker picks them
    up).
    """

    def __init__(
        self,
        artifact: str | os.PathLike,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        protocol: str = "both",
        max_queue: int = 1024,
        cache_size: int = 4096,
        grace: float = 5.0,
        keepalive_timeout: float = 5.0,
        mmap: bool = True,
        state_dir: Optional[str | os.PathLike] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
        self.artifact = Path(artifact)
        self.host = host
        self.port = port
        self.workers = workers
        self.protocol = protocol
        self.max_queue = max_queue
        self.cache_size = cache_size
        self.grace = grace
        self.keepalive_timeout = keepalive_timeout
        self.mmap = mmap
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.info: dict[str, Any] = {}
        self.oracle = None
        self.respawns = 0
        self._listener: Optional[socket.socket] = None
        self._pids: dict[int, int] = {}  # worker index -> pid
        self._plock = threading.Lock()
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------------
    # Parent lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "PreforkServer":
        """Bind the socket, load the oracle once, fork the workers."""
        if self._started:
            return self
        self.info = artifact_info(self.artifact)
        # One load, pre-fork: with mmap=True the arrays are page-cache
        # views of oracle.npz shared by every child; derived small state
        # (term matrices, service-free oracle caches) rides fork CoW.
        self.oracle = load_oracle(self.artifact, mmap=self.mmap)
        if self.state_dir is None:
            self.state_dir = Path(tempfile.mkdtemp(prefix="repro-prefork-"))
        else:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._started = True
        for idx in range(self.workers):
            self._spawn(idx)
        return self

    def _spawn(self, idx: int) -> None:
        obs_enabled = obs.is_enabled()
        pid = os.fork()
        if pid == 0:
            # Child: never returns.
            try:
                _WorkerProcess(self, idx, obs_enabled).run()
            except BaseException:  # pragma: no cover - crash path
                os._exit(1)
            os._exit(0)
        self._pids[idx] = pid

    def reap_and_respawn(self) -> None:
        """Collect dead workers; fork replacements unless stopping."""
        with self._plock:
            for idx, pid in list(self._pids.items()):
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    del self._pids[idx]
                    if not self._stopping:
                        self.respawns += 1
                        self._spawn(idx)

    def run_forever(self, poll: float = 0.2) -> None:
        """Supervise until :meth:`stop` (or an interrupting signal)."""
        while not self._stopping:
            self.reap_and_respawn()
            time.sleep(poll)

    def stop(self) -> dict[str, Any]:
        """SIGTERM fan-out, graceful drain, reap, merge worker metrics.

        Returns the aggregate service tallies
        (``requests``/``queries``/``hits``/``shed`` summed across
        workers, plus ``workers``/``respawns``); per-series metrics are
        merged into the parent's live registry so a ``--metrics-out``
        run record carries every worker's counters and histograms.
        """
        self._stopping = True
        with self._plock:
            pids = dict(self._pids)
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + self.grace + 2.0
        for idx, pid in pids.items():
            self._reap(pid, deadline)
            with self._plock:
                self._pids.pop(idx, None)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        return self._merge_worker_state()

    def _reap(self, pid: int, deadline: float) -> None:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return
            if done:
                return
            if time.monotonic() >= deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    return
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
                return
            time.sleep(0.02)

    def _merge_worker_state(self) -> dict[str, Any]:
        totals = {"requests": 0, "queries": 0, "hits": 0, "shed": 0}
        registry = get_metrics()
        merged = 0
        for path in sorted(self.state_dir.glob("worker-*.json")):
            try:
                state = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):  # pragma: no cover - torn write
                continue
            registry.merge_snapshot(state.get("metrics", {}))
            for key in totals:
                totals[key] += int(state.get("service", {}).get(key, 0))
            merged += 1
        totals["workers"] = self.workers
        totals["workers_reported"] = merged
        totals["respawns"] = self.respawns
        return totals

    def __enter__(self) -> "PreforkServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        if not self._stopping:
            self.stop()


class _WorkerProcess:
    """One forked serving process: accept loop, drain, snapshot, exit."""

    def __init__(self, server: PreforkServer, idx: int, obs_enabled: bool):
        self.srv = server
        self.idx = idx
        self.obs_enabled = obs_enabled
        self.draining = False
        self.ctx: Optional[HandlerContext] = None
        self._conn_threads: set[threading.Thread] = set()
        self._tlock = threading.Lock()

    # -- lifecycle ------------------------------------------------------

    def run(self) -> None:
        srv = self.srv
        # Fresh registry per worker: the snapshot written at exit then
        # holds exactly this worker's traffic (the parent's startup
        # series would otherwise be double-counted N times on merge).
        if self.obs_enabled:
            obs.enable()
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, self._on_sigterm)
        self.service = OracleService(
            srv.oracle, max_queue=srv.max_queue, cache_size=srv.cache_size
        )
        self.ctx = HandlerContext(self.service, info=srv.info, worker_label=str(self.idx))
        listener = srv._listener
        while not self.draining:
            try:
                conn, addr = listener.accept()
            except OSError:
                break  # listener closed by the SIGTERM handler
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, addr), daemon=True
            )
            with self._tlock:
                self._conn_threads.add(thread)
            thread.start()
        # Drain: finish in-flight requests, release keep-alive clients.
        self.ctx.draining = True
        deadline = time.monotonic() + srv.grace
        for thread in self._snapshot_threads():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._write_state()
        get_events().flush()  # os._exit skips the background flusher
        os._exit(0)

    def _on_sigterm(self, signum, frame) -> None:
        self.draining = True
        if self.ctx is not None:
            self.ctx.draining = True
        listener = self.srv._listener
        if listener is not None:
            # Closing the shared-socket FD breaks the blocked accept()
            # (PEP 475 would otherwise retry it forever).
            try:
                listener.close()
            except OSError:  # pragma: no cover
                pass

    def _snapshot_threads(self) -> list[threading.Thread]:
        with self._tlock:
            return [t for t in self._conn_threads if t.is_alive()]

    def _write_state(self) -> None:
        state = {
            "worker": self.idx,
            "pid": os.getpid(),
            "service": self.service.stats(),
            "metrics": get_metrics().snapshot(),
        }
        path = self.srv.state_dir / f"worker-{self.idx}.json"
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(state), encoding="utf-8")
        os.replace(tmp, path)

    # -- per-connection dispatch ---------------------------------------

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self.srv.keepalive_timeout)
            try:
                first = conn.recv(1, socket.MSG_PEEK)
            except (TimeoutError, OSError):
                return
            if not first:
                return
            if first == _WIRE_FIRST_BYTE:
                if self.srv.protocol == "json":
                    conn.sendall(
                        wire.encode_error(
                            wire.STATUS_BAD_REQUEST, "wire protocol disabled (--protocol json)"
                        )
                    )
                    return
                self._serve_wire(conn)
            else:
                if self.srv.protocol == "wire":
                    conn.sendall(
                        b"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
                    )
                    return
                self.ctx.handle_connection(conn, addr)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up
        except Exception as exc:
            # The connection dies either way; say so instead of swallowing it.
            name = type(exc).__name__
            get_metrics().counter("serve.connection_errors_total", exc=name).inc()
            events = get_events()
            if events.enabled:
                events.emit("serve.connection_error", exc=name, error=str(exc), worker=self.idx)
        finally:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
            with self._tlock:
                self._conn_threads.discard(threading.current_thread())

    def _serve_wire(self, conn: socket.socket) -> None:
        """Keep-alive wire loop: frames answered in order, pipelining ok.

        One frame is already a batch, so each goes straight to
        :meth:`~repro.serve.service.OracleService.answer`.
        """
        conn.settimeout(None)
        reader = _ConnReader(conn)
        metrics = get_metrics()
        latency = metrics.histogram("serve.wire.latency_seconds")
        counters: dict[tuple[str, int], Any] = {}
        answer = self.service.answer
        # Responses coalesce into one buffer, flushed when the request
        # buffer drains (client is now waiting) or it grows past 1 MiB:
        # a deep pipeline costs one sendall per burst, not per frame.
        # ``sent_t0`` holds the read time of every frame in ``out``; each
        # latency is observed once the flush carrying its answer returns.
        out = bytearray()
        sent_t0: list[float] = []
        while True:
            if not reader.pending:
                if out:
                    self._flush(conn, out, sent_t0, latency)
                # While draining, poll at timeout 0: frames already sent
                # by the client (sitting in the kernel buffer) still get
                # answered; only a truly idle connection closes.
                draining = self.ctx.draining
                readable, _, _ = select.select([conn], [], [], 0.0 if draining else 0.25)
                if not readable:
                    if draining:
                        return
                    continue
            t0 = time.perf_counter()
            try:
                request = wire.read_request(reader)
            except wire.WireProtocolError as exc:
                # Framing is lost; answer once, then drop the connection.
                try:
                    out += wire.encode_error(wire.STATUS_BAD_REQUEST, str(exc))
                    self._flush(conn, out, sent_t0, latency)
                except OSError:
                    pass
                return
            if request is None:
                if out:
                    self._flush(conn, out, sent_t0, latency)
                return  # clean EOF at a frame boundary
            kind, ps, qs = request
            status = wire.STATUS_OK
            try:
                result = answer(kind, ps, qs)
                out += wire.encode_response(result, kind)
            except Overloaded as exc:
                status = wire.STATUS_OVERLOADED
                out += wire.encode_error(status, str(exc))
            except (ValueError, IndexError) as exc:
                status = wire.STATUS_BAD_REQUEST
                out += wire.encode_error(status, str(exc))
            except Exception as exc:  # defensive: a bug, not the client's fault
                count_internal_error("wire", exc, self.ctx.worker_label)
                status = wire.STATUS_INTERNAL
                out += wire.encode_error(status, f"internal error: {exc}")
            sent_t0.append(t0)
            if len(out) > (1 << 20):
                self._flush(conn, out, sent_t0, latency)
            counter = counters.get((kind, status))
            if counter is None:
                counter = counters[(kind, status)] = metrics.counter(
                    "serve.wire.responses_total", kind=kind, status=str(status)
                )
            counter.inc()

    @staticmethod
    def _flush(conn: socket.socket, out: bytearray, sent_t0: list[float], latency: Any) -> None:
        """Send the coalesced responses, then observe each carried
        frame's latency: from its read to the end of this send."""
        conn.sendall(out)
        del out[:]
        done = time.perf_counter()
        for t0 in sent_t0:
            latency.observe(done - t0)
        sent_t0.clear()
