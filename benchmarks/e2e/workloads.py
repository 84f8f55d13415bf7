"""The four workloads of the end-to-end benchmark, and its traced pass.

A workload makes its inputs from the seed, measures in short passes of
fixed size until the run's seconds are spent, and checks every answer
after each pass, outside the timed region.  A timing is its fastest
pass: on a shared host, slow phases that last from seconds to minutes
slow every pass in them alike, and the fastest pass is the one they
touched least (README.md).  ``setup_s`` is a median over several
set-ups.  ``run.py`` starts each workload in a fresh process.

Serving loads are closed loops: the user is a validation script that
waits for each answer.  An open loop at a fixed rate did not repeat on a
small shared host, while one request in flight did (README.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

import numpy as np

import client
import layers

#: Host sizing: every count follows the CPUs this process may run on.
NPROC = len(os.sched_getaffinity(0))
SERVE_WORKERS = max(1, NPROC // 2)
GEN_WORKERS = NPROC

SMALL_MIX = (
    ("edge_squares", 0.4),
    ("wings", 0.2),
    ("vertex_squares", 0.2),
    ("degree", 0.1),
    ("clustering", 0.1),
)
SMALL_SIZE = 16
NON_EDGE_SHARE = 0.02
BULK_KINDS = ("edge_squares", "wings", "clustering", "vertex_squares")
BULK_SIZE = 4096
#: Bulk frames are windows of one pool; the window stride is a prime
#: that does not divide the number of window starts (2**20), so no two
#: frames of a run repeat and the server's result cache never hits.
BULK_POOL = (1 << 20) + BULK_SIZE
BULK_STRIDE = 4099
JSON_KINDS = ("edge_squares", "wings", "vertex_squares")
JSON_DISTINCT = 64
#: Entries of ``repro serve``'s result cache at its default ``--cache-size``.
#: The wire workloads send this many unique frames before timing, so every
#: timed pass sees a full cache that evicts, never one still filling
#: (filling ran ~10% slower for 4,096-query frames).
CACHE_ENTRIES = 4096


@dataclass
class Config:
    seed: int
    seconds: float
    quick: bool
    root: Path  #: checkout root; ``src/`` holds the program
    work: Path  #: work directory inside the checkout
    pins: dict

    def rng(self, *tags: Any) -> np.random.Generator:
        return np.random.default_rng([self.seed, *(zlib.crc32(str(t).encode()) for t in tags)])

    def env(self) -> dict[str, str]:
        env = dict(os.environ, TMPDIR=str(self.work))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        return env

    def repro(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro", *args]

    def sizes(self, full: int, quick: int) -> int:
        return quick if self.quick else full


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{why}: {failed} of {attempted}")


@dataclass
class Outcome:
    metrics: dict[str, float]
    digest: Optional[str] = None
    trace: Optional[dict] = None


def sha256(parts: Iterable[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return "sha256:" + h.hexdigest()


def run_passes(cfg: Config, min_rounds: int, *phases: Callable[[int], Any]) -> list[list]:
    """Run one pass of each phase in turn, ``phase(k)`` in round ``k``,
    until the run's seconds and ``min_rounds`` rounds are both spent (one
    round in quick mode).  Interleaving spreads every phase over the
    whole run, so a slow spell on a shared host hits all phases alike."""
    results: list[list] = [[] for _ in phases]
    deadline = time.perf_counter() + cfg.seconds
    rounds = 0
    while rounds == 0 or (
        not cfg.quick and (rounds < min_rounds or time.perf_counter() < deadline)
    ):
        for phase, out in zip(phases, results):
            out.append(phase(rounds))
        rounds += 1
    return results


def median(values: Iterable[float]) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Query streams
# ---------------------------------------------------------------------------


class Pool:
    """Sampled product entries ``(p, q)`` and vertices ``v``, with the
    reference answers over the whole pool computed once per kind."""

    def __init__(self, p: np.ndarray, q: np.ndarray, v: np.ndarray):
        self.p, self.q, self.v = p, q, v
        self._expected: dict[str, np.ndarray] = {}

    def inputs(self, kind: str) -> tuple[np.ndarray, Optional[np.ndarray]]:
        return (self.p, self.q) if kind in client.PAIR_KINDS else (self.v, None)

    def expected(self, oracle, kind: str) -> np.ndarray:
        if kind not in self._expected:
            self._expected[kind] = layers.expected(oracle, kind, *self.inputs(kind))
        return self._expected[kind]


class Stream:
    """Query frames, each a fixed-size window of one pool.

    Indexing yields the encoded wire frame, so a stream can be handed to
    :func:`client.drive_wire` and encode lazily.
    """

    def __init__(self, kinds: list[str], offsets: np.ndarray, size: int, pool: Pool):
        self.kinds = kinds
        self.offsets = offsets
        self.size = size
        self.pool = pool

    def __len__(self) -> int:
        return len(self.kinds)

    def request(self, i: int) -> tuple[str, np.ndarray, Optional[np.ndarray]]:
        kind = self.kinds[i]
        window = slice(int(self.offsets[i]), int(self.offsets[i]) + self.size)
        ps, qs = self.pool.inputs(kind)
        return kind, ps[window], None if qs is None else qs[window]

    def __getitem__(self, i: int) -> bytes:
        return client.wire_frame(*self.request(i))

    def http(self, i: int) -> bytes:
        return client.http_query(*self.request(i))

    def expected_rows(self, oracle, kind: str, idx: np.ndarray) -> np.ndarray:
        cols = self.offsets[idx][:, None] + np.arange(self.size)
        return self.pool.expected(oracle, kind)[cols]


def small_stream(sampler, rng: np.random.Generator, n_frames: int) -> Stream:
    """16-query frames in the wire-small kind mix; ~2% of pairs are non-edges."""
    names = [name for name, _ in SMALL_MIX]
    picks = rng.choice(len(names), size=n_frames, p=[share for _, share in SMALL_MIX])
    total = n_frames * SMALL_SIZE
    p, q = sampler.entries(rng, total)
    swap = rng.random(total) < NON_EDGE_SHARE
    q[swap] = sampler.vertices(rng, int(swap.sum()))
    pool = Pool(p, q, sampler.vertices(rng, total))
    return Stream([names[k] for k in picks], np.arange(n_frames) * SMALL_SIZE, SMALL_SIZE, pool)


def bulk_pool(sampler, rng: np.random.Generator) -> Pool:
    p, q = sampler.entries(rng, BULK_POOL)
    return Pool(p, q, sampler.vertices(rng, BULK_POOL))


def bulk_stream(pool: Pool, first: int, n_frames: int) -> Stream:
    """Frames ``first .. first + n_frames`` of the run's bulk sequence."""
    index = np.arange(first, first + n_frames, dtype=np.int64)
    offsets = (index * BULK_STRIDE) % (BULK_POOL - BULK_SIZE)
    kinds = [BULK_KINDS[g % len(BULK_KINDS)] for g in range(first, first + n_frames)]
    return Stream(kinds, offsets, BULK_SIZE, pool)


def json_stream(sampler, rng: np.random.Generator, n_frames: int = JSON_DISTINCT) -> Stream:
    """json-hot's 64 distinct requests, all on product edges; with
    ``n_frames`` above 64 the same requests repeat in order."""
    total = JSON_DISTINCT * SMALL_SIZE
    p, q = sampler.entries(rng, total)
    pool = Pool(p, q, sampler.vertices(rng, total))
    kinds = [JSON_KINDS[i % JSON_DISTINCT % len(JSON_KINDS)] for i in range(n_frames)]
    offsets = (np.arange(n_frames) % JSON_DISTINCT) * SMALL_SIZE
    return Stream(kinds, offsets, SMALL_SIZE, pool)


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


def _same(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    same = got == want
    if got.dtype.kind == "f":
        same |= np.isnan(got) & np.isnan(want)
    return same


def check_wire(stream: Stream, oracle, payloads: list[bytes], statuses: bytearray) -> int:
    """Frames whose wire answer is an error or differs from the reference
    (mask slots included: -1, or NaN for clustering)."""
    bad = 0
    by_kind: dict[str, list[int]] = {}
    for i, kind in enumerate(stream.kinds):
        if statuses[i] != client.STATUS_OK or len(payloads[i]) != 8 * stream.size:
            bad += 1
        else:
            by_kind.setdefault(kind, []).append(i)
    for kind, idx in by_kind.items():
        got = np.frombuffer(
            b"".join(payloads[i] for i in idx), dtype=client.ANSWER_DTYPES[kind]
        ).reshape(len(idx), stream.size)
        want = stream.expected_rows(oracle, kind, np.asarray(idx))
        bad += int((~_same(got, want).all(axis=1)).sum())
    return bad


def wire_digest(stream: Stream, payloads: list[bytes]) -> str:
    return sha256(kind.encode() + payload for kind, payload in zip(stream.kinds, payloads))


def json_values(stream: Stream, r: int, body: bytes) -> np.ndarray:
    kind = stream.kinds[r]
    key = client.HTTP_ROUTES[kind][1]
    return np.asarray(json.loads(body)[key], dtype=client.ANSWER_DTYPES[kind])


def check_json(stream: Stream, oracle, records: list[tuple[int, int, bytes]]) -> int:
    """Requests whose HTTP answer is wrong: a 200 must carry the reference
    values, a 422 is right only where the reference masks a slot."""
    verdicts: dict[tuple[int, int, bytes], bool] = {}
    bad = 0
    for record in records:
        if record not in verdicts:
            r, status, body = record
            want = stream.expected_rows(oracle, stream.kinds[r], np.asarray([r]))[0]
            if status == 200:
                got = json_values(stream, r, body)
                ok = got.shape == want.shape and bool(_same(got, want).all())
            elif status == 422:
                ok = bool(((want == -1) | np.isnan(want)).any())
            else:
                ok = False
            verdicts[record] = ok
        bad += not verdicts[record]
    return bad


# ---------------------------------------------------------------------------
# Serving set-up
# ---------------------------------------------------------------------------


@dataclass
class Reference:
    """The served product, its reference oracle, and a sampler over it."""

    bk: Any
    oracle: Any
    sampler: Any

    @classmethod
    def build(cls) -> "Reference":
        bk = layers.unicode_product()
        return cls(bk, layers.GroundTruthOracle(bk), layers.ProductSampler(bk))


def pack_unicode(cfg: Config) -> Path:
    art = cfg.work / "artifact"
    subprocess.run(
        cfg.repro("pack", "konect-unicode", "konect-unicode", "--assumption", "ii",
                  "--allow-disconnected", "-o", str(art)),
        env=cfg.env(), check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=300,
    )
    return art


def spawn_server(cfg: Config, art: Path, ref: Reference, tally: Tally):
    """Start ``repro serve`` and time it to its first correct wire answer."""
    probe_ps = np.arange(8, dtype=np.int64)
    probe = client.wire_frame("degree", probe_ps)
    want = ref.oracle.degrees(probe_ps).astype("<i8").tobytes()
    cmd = cfg.repro("serve", "--artifact", str(art), "--port", "0",
                    "--workers-procs", str(SERVE_WORKERS))
    t0 = time.perf_counter()
    server = client.ServerProcess(cmd, cfg.env())
    try:
        with client.connect(server.host, server.port) as sock:
            payloads, statuses, _ = client.drive_wire(sock, [probe], 1)
        elapsed = time.perf_counter() - t0
    except BaseException:
        server.stop()
        raise
    tally.record(1, int(statuses[0] != client.STATUS_OK or payloads[0] != want),
                 "readiness probe answer")
    return server, elapsed


def spawn_times(cfg: Config, art: Path, ref: Reference, tally: Tally, n: int) -> list[float]:
    """Spawn and stop ``n`` servers; return their times to a first answer."""
    times = []
    for _ in range(n):
        server, elapsed = spawn_server(cfg, art, ref, tally)
        server.stop()
        times.append(elapsed)
    return times


def check_global(cfg: Config, server, tally: Tally) -> None:
    conn = client.HttpConnection(server.host, server.port)
    try:
        squares = conn.get_json("/v1/global")["squares"]
    finally:
        conn.close()
    pinned = cfg.pins["global_squares"]
    tally.record(1, int(squares != pinned), f"GET /v1/global = {squares}, pinned {pinned}")


def http_closed_loop(conn: client.HttpConnection, raws: list[bytes], n: int):
    """``n`` requests on one keep-alive connection, one in flight;
    request ``i`` sends ``raws[i % len(raws)]``.

    Returns ``(wall_s, latencies_s, records)`` where each record is
    ``(i % len(raws), status, body)``.
    """
    latencies = np.empty(n)
    records = []
    clock = time.perf_counter
    start = clock()
    for i in range(n):
        r = i % len(raws)
        t0 = clock()
        status, body = conn.request(raws[r])
        latencies[i] = clock() - t0
        records.append((r, status, body))
    return clock() - start, latencies, records


SUMMARY = re.compile(r"shut down after ([\d,]+) requests \(([\d,]+) queries, ([\d,]+) cache hits")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class GenerationChild:
    """``layers.generation_child`` in a process of its own."""

    def __init__(self, cfg: Config):
        env = cfg.env()
        env["PYTHONPATH"] = os.pathsep.join((str(Path(__file__).resolve().parent), env["PYTHONPATH"]))
        code = f"import layers; layers.generation_child({cfg.seed}, {GEN_WORKERS})"
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def generate(self, out: Path) -> tuple[float, list[Path]]:
        """Write the shards into ``out``; return the generation's wall time and paths."""
        self.proc.stdin.write(f"{out}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"generation child exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["seconds"], [Path(p) for p in reply["paths"]]

    def close(self) -> float:
        """Stop the child and return the generation's peak RSS in MiB."""
        self.proc.stdin.close()
        try:
            self.proc.wait(60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def gen_chain(cfg: Config, tally: Tally) -> Outcome:
    """Write the chain with ground truth in 8 shards, then read each back
    with its manifest; check every shard against closed forms.

    The generation runs in a child process, so ``peak_rss_mb`` measures it
    alone; the read-back and the checks run here.  ``setup_s`` is timed
    between passes too, so its median spans the whole run."""
    setup = []

    def build():
        t0 = time.perf_counter()
        chain, _plan = layers.build_chain(cfg.seed)
        setup.append(time.perf_counter() - t0)
        return chain

    chain = build()
    pinned: list[str] = []
    child = GenerationChild(cfg)

    def one_pass(k: int):
        out = cfg.work / f"shards-{k}"
        gen_s, paths = child.generate(out)
        manifest = layers.load_manifest(out)
        reads, problems = [], []
        for path in paths:
            t0 = time.perf_counter()
            try:
                arrays = layers.load_shards([path], manifest=manifest)
            except layers.ShardIntegrityError as exc:
                problems.append(str(exc))
                continue
            reads.append(time.perf_counter() - t0)
            problems += layers.shard_problems(chain, manifest, path, arrays)
            del arrays
        checksums = [manifest.shards[i].checksum for i in sorted(manifest.shards)]
        if len(checksums) != layers.N_SHARDS:
            problems.append(f"manifest records {len(checksums)}/{layers.N_SHARDS} shards")
        if not pinned:
            pinned.extend(checksums)
        elif checksums != pinned:
            problems.append("shard checksums differ between passes")
        tally.record(2 * len(paths), len(problems), "; ".join(problems[:2]) or "shards")
        shutil.rmtree(out)
        for _ in range(cfg.sizes(5, 2)):
            build()
        return gen_s, np.asarray(reads)

    try:
        one_pass(-1)  # warm-up, discarded; its checksums are the pinned stream
        (runs,) = run_passes(cfg, 3, one_pass)
    finally:
        peak_rss_mb = child.close()
    return Outcome(
        metrics={
            "setup_s": median(setup),
            "values_per_s": max(chain.nnz / gen_s for gen_s, _ in runs),
            "p50_ms": min(np.percentile(reads, 50) for _, reads in runs) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        },
        digest=sha256(c.encode() for c in pinned),
    )


def _serve_workload(cfg: Config, tally: Tally, measure: Callable) -> Outcome:
    """Pack, spawn, check the global count, run ``measure``, read memory, stop.

    ``setup_s`` is the median of eight spawns: three before the measured
    one, the one that serves the workload, and four after it stops, so
    the spawns span the run."""
    art = pack_unicode(cfg)
    ref = Reference.build()
    spawns = spawn_times(cfg, art, ref, tally, cfg.sizes(3, 0))
    server, elapsed = spawn_server(cfg, art, ref, tally)
    spawns.append(elapsed)
    try:
        check_global(cfg, server, tally)
        metrics, digest = measure(server, ref)
        metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    spawns += spawn_times(cfg, art, ref, tally, cfg.sizes(4, 0))
    metrics["setup_s"] = median(spawns)
    return Outcome(metrics=metrics, digest=digest)


def _wire_passes(cfg: Config, tally: Tally, sock, ref: Reference, stream: Stream, window: int):
    # Small frames are encoded before the clock starts; 64 KiB bulk frames
    # encode as they enter the window, so a pass never holds them all.
    frames = [stream[i] for i in range(len(stream))] if stream.size <= SMALL_SIZE else stream
    t0 = time.perf_counter()
    payloads, statuses, rtts = client.drive_wire(sock, frames, window)
    wall = time.perf_counter() - t0
    tally.record(len(stream), check_wire(stream, ref.oracle, payloads, statuses), "wrong wire answers")
    return payloads, rtts, wall


def wire_small(cfg: Config, tally: Tally) -> Outcome:
    """Unique 16-query frames: phase A one in flight (latency), phase B
    eight in flight (throughput)."""

    def measure(server, ref: Reference):
        with client.connect(server.host, server.port) as sock:
            pinned = small_stream(ref.sampler, cfg.rng("wire-small", "pinned"), 500)
            payloads, _, _ = _wire_passes(cfg, tally, sock, ref, pinned, 1)
            if not cfg.quick:
                fill = small_stream(ref.sampler, cfg.rng("wire-small", "fill"), CACHE_ENTRIES)
                _wire_passes(cfg, tally, sock, ref, fill, 8)

            def phase_a(k: int):
                stream = small_stream(ref.sampler, cfg.rng("wire-small", "A", k), cfg.sizes(1000, 500))
                return _wire_passes(cfg, tally, sock, ref, stream, 1)[1]

            def phase_b(k: int):
                stream = small_stream(ref.sampler, cfg.rng("wire-small", "B", k), cfg.sizes(2000, 1000))
                _, _, wall = _wire_passes(cfg, tally, sock, ref, stream, 8)
                return len(stream) * SMALL_SIZE / wall

            rtts, rates = run_passes(cfg, 3, phase_a, phase_b)
        metrics = {
            "values_per_s": max(rates),
            "p50_ms": min(np.percentile(r, 50) for r in rtts) * 1e3,
        }
        return metrics, wire_digest(pinned, payloads)

    return _serve_workload(cfg, tally, measure)


def wire_bulk(cfg: Config, tally: Tally) -> Outcome:
    """Unique 4,096-query frames, four in flight on one connection."""

    def measure(server, ref: Reference):
        pool = bulk_pool(ref.sampler, cfg.rng("wire-bulk", "pool"))
        frames_per_pass = cfg.sizes(300, 50)
        with client.connect(server.host, server.port) as sock:
            pinned = bulk_stream(pool, 0, 32)
            payloads, _, _ = _wire_passes(cfg, tally, sock, ref, pinned, 4)
            first = len(pinned)
            if not cfg.quick:
                _wire_passes(cfg, tally, sock, ref, bulk_stream(pool, first, CACHE_ENTRIES), 4)
                first += CACHE_ENTRIES

            def one_pass(k: int):
                stream = bulk_stream(pool, first + k * frames_per_pass, frames_per_pass)
                _, rtts, wall = _wire_passes(cfg, tally, sock, ref, stream, 4)
                return rtts, len(stream) * BULK_SIZE / wall

            (runs,) = run_passes(cfg, 3, one_pass)
        metrics = {
            "values_per_s": max(rate for _, rate in runs),
            "p50_ms": min(np.percentile(r, 50) for r, _ in runs) * 1e3,
        }
        return metrics, wire_digest(pinned, payloads)

    return _serve_workload(cfg, tally, measure)


def json_hot(cfg: Config, tally: Tally) -> Outcome:
    """64 distinct JSON requests replayed on one keep-alive connection, so
    the service answers from its result cache."""

    def measure(server, ref: Reference):
        stream = json_stream(ref.sampler, cfg.rng("json-hot", "requests"))
        raws = [stream.http(i) for i in range(len(stream))]
        conn = client.HttpConnection(server.host, server.port)

        def one_pass(n: int):
            wall, lat, records = http_closed_loop(conn, raws, n)
            tally.record(n, check_json(stream, ref.oracle, records), "wrong JSON answers")
            return wall, lat, records

        try:
            _, _, records = one_pass(10 * JSON_DISTINCT)  # warm-up fills the cache
            first = {}
            for r, _status, body in records:
                first.setdefault(r, body)
            digest = sha256(json_values(stream, r, first[r]).tobytes() for r in range(JSON_DISTINCT))
            per_pass = cfg.sizes(1000, 256)
            (runs,) = run_passes(cfg, 3, lambda k: one_pass(per_pass)[:2])
        finally:
            conn.close()
        metrics = {
            "values_per_s": max(per_pass * SMALL_SIZE / wall for wall, _ in runs),
            "p50_ms": min(np.percentile(lat, 50) for _, lat in runs) * 1e3,
        }
        return metrics, digest

    return _serve_workload(cfg, tally, measure)


MEASURE = {
    "gen-chain": gen_chain,
    "wire-small": wire_small,
    "wire-bulk": wire_bulk,
    "json-hot": json_hot,
}


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------


def _trace_streams(cfg: Config, workload: str, ref: Reference):
    """The serving sample: (wire stream, HTTP stream, HTTP requests).
    Workloads that do not serve use wire-small's."""
    n = cfg.sizes(2000, 200)
    if workload == "wire-bulk":
        pool = bulk_pool(ref.sampler, cfg.rng("wire-bulk", "pool"))
        m = cfg.sizes(200, 20)
        http = bulk_stream(pool, m, m)
        return bulk_stream(pool, 0, m), http, [http.http(i) for i in range(m)]
    if workload == "json-hot":
        distinct = json_stream(ref.sampler, cfg.rng("json-hot", "requests"))
        wire = json_stream(ref.sampler, cfg.rng("json-hot", "requests"), n)
        raws = [distinct.http(i) for i in range(JSON_DISTINCT)]
        return wire, distinct, raws
    http = small_stream(ref.sampler, cfg.rng("trace", "http"), n)
    wire = small_stream(ref.sampler, cfg.rng("trace", "wire"), n)
    return wire, http, [http.http(i) for i in range(n)]


def _trace_serving(cfg: Config, workload: str, tally: Tally) -> dict[str, Any]:
    ref = Reference.build()
    wire, http, raws = _trace_streams(cfg, workload, ref)
    n_http = len(wire) if workload == "json-hot" else len(raws)
    art_dir = cfg.work / "trace-artifact"
    art = layers.trace_artifact(ref.bk, art_dir, reps=3)
    server, setup_s = spawn_server(cfg, art_dir, ref, tally)
    try:
        check_global(cfg, server, tally)
        conn = client.HttpConnection(server.host, server.port)
        try:
            before = conn.get_json("/metrics")["service"]
            _, http_lat, records = http_closed_loop(conn, raws, n_http)
            after = conn.get_json("/metrics")["service"]
        finally:
            conn.close()
        tally.record(n_http, check_json(http, ref.oracle, records), "wrong JSON answers")
        frames = [wire[i] for i in range(len(wire))]
        with client.connect(server.host, server.port) as sock:
            payloads, statuses, rtts = client.drive_wire(sock, frames, 1)
        tally.record(len(frames), check_wire(wire, ref.oracle, payloads, statuses), "wrong wire answers")
    finally:
        summary = server.stop()
    match = SUMMARY.search(summary)
    tally.record(1, int(match is None), "no shutdown summary from repro serve")
    requests, hits = (int(match.group(g).replace(",", "")) for g in (1, 3)) if match else (0, 0)

    oracle = art["oracle"]
    layers.replay_wire(oracle, frames[: max(1, len(frames) // 10)])  # warm caches
    # Untraced and traced replays alternate, and the overhead compares
    # their medians; the last traced replay gives the layer spans.
    plain, traced = [], []
    for _ in range(cfg.sizes(5, 1)):
        t0 = time.perf_counter()
        layers.replay_wire(oracle, frames)
        plain.append(time.perf_counter() - t0)
        tracer = layers.Tracer()
        t0 = time.perf_counter()
        served = layers.replay_wire(oracle, frames, tracer)
        traced.append(time.perf_counter() - t0)
    wire_stats = layers.span_stats(tracer)
    submit_tracer = layers.Tracer()
    layers.replay_submit(oracle, [http.request(i % len(raws)) for i in range(n_http)], submit_tracer)
    submit_stats = layers.span_stats(submit_tracer)

    probe_tracer = layers.Tracer()
    probed = layers.TracedOracle(oracle, probe_tracer)
    calls = cfg.sizes(200, 20) if wire.size == SMALL_SIZE else cfg.sizes(20, 4)
    queries = 0
    for kind, _ in SMALL_MIX:
        ps, qs = wire.pool.inputs(kind)
        for c in range(calls):
            lo = (c * wire.size) % (ps.size - wire.size + 1)
            layers.expected(probed, kind, ps[lo : lo + wire.size], None if qs is None else qs[lo : lo + wire.size])
            queries += wire.size
    probe_stats = layers.span_stats(probe_tracer)

    def total(stats: dict, prefix: str) -> float:
        return sum(row["total_s"] for name, row in stats.items() if name.startswith(prefix))

    def mean_us(stats: dict, name: str) -> float:
        return stats[name]["total_s"] / stats[name]["count"] * 1e6

    n_wire = len(frames)
    answer_us = total(wire_stats, "service.answer") / n_wire * 1e6
    decode_us = mean_us(wire_stats, "wire.decode")
    encode_us = mean_us(wire_stats, "wire.encode")
    submit_oracle_us = total(submit_stats, "oracle.") / n_http * 1e6
    submit_self_us = total(submit_stats, "service.submit") / n_http * 1e6 - submit_oracle_us
    batches = after["batches"] - before["batches"]
    metrics = {
        "artifact.pack_s": art["pack_s"],
        "artifact.load_s": art["load_s"],
        "artifact.bytes": art["bytes"],
        "prefork.boot_s": setup_s - art["load_s"],
        "prefork.residual_us": float(np.mean(rtts)) * 1e6 - decode_us - answer_us - encode_us,
        "wire.decode_us": decode_us,
        "wire.encode_us": encode_us,
        "wire.request_bytes": float(np.mean([len(f) for f in frames])),
        "wire.response_bytes": float(np.mean([client.WIRE_HEADER.size + len(p) for p in payloads])),
        "service.answer_self_us": answer_us - total(wire_stats, "oracle.") / n_wire * 1e6,
        "service.submit_self_us": submit_self_us,
        "service.cache_hit_ratio": hits / requests if requests else 0.0,
        "service.requests_per_batch": (after["misses"] - before["misses"]) / batches if batches else 0.0,
        "service.invalid_slots": served["invalid"],
        "oracle.queries_per_s": queries / total(probe_stats, "oracle."),
        "http.frontend_us": float(np.mean(http_lat)) * 1e6 - submit_self_us - submit_oracle_us,
    }
    for kind, _ in SMALL_MIX:
        metrics[f"oracle.{kind}_us"] = mean_us(probe_stats, f"oracle.{kind}")
    return {
        "metrics": metrics,
        "overhead": median(traced) / median(plain) - 1.0,
        "stats": {"wire": wire_stats, "submit": submit_stats, "oracle_probe": probe_stats},
        "spans": {
            "wire": tracer.to_dicts(),
            "submit": submit_tracer.to_dicts(),
            "oracle_probe": probe_tracer.to_dicts(),
        },
    }


def traced_pass(cfg: Config, workload: str, tally: Tally) -> Outcome:
    """Every layer metric, each layer fed the workload's own inputs where
    the workload exercises it, else the inputs of the workload that does
    (gen-chain's chain for generation, wire-small's frames for serving)."""
    chain, _ = layers.build_chain(cfg.seed)
    gen = layers.trace_generation(chain, cfg.work / "trace-gen", GEN_WORKERS, cfg.sizes(3, 1))
    tally.record(gen["checked"], len(gen["problems"]), "; ".join(gen["problems"][:2]) or "shards")
    serve = _trace_serving(cfg, workload, tally)
    generating = workload == "gen-chain"
    metrics = {**gen["metrics"], **serve["metrics"]}
    metrics["trace.overhead"] = gen["overhead"] if generating else serve["overhead"]
    return Outcome(
        metrics=metrics,
        trace={
            "generation": {
                "input": "own" if generating else "reference: gen-chain",
                "stats": gen["stats"],
                "spans": gen["spans"],
            },
            "serving": {
                "input": "reference: wire-small" if generating else "own",
                "stats": serve["stats"],
                "spans": serve["spans"],
            },
        },
    )
