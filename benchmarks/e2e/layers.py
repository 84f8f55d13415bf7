"""Every import of the ``repro`` package the end-to-end benchmark makes.

The untraced workloads reach the program only through its outside
interfaces: the ``repro pack`` / ``repro serve`` command line and the
``repro.wire/1`` and HTTP JSON protocols (both driven from ``client.py``
without importing ``repro``), and :func:`generate_chain_shards` /
:func:`load_shards`.  Everything else the benchmark takes from the
package is imported here: the inputs it builds, the reference oracle and
shard identities the answer checker compares with, and the layer
functions the traced pass wraps in :class:`repro.obs.Tracer` spans.  A
renamed internal therefore breaks this one file.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional
from unittest import mock

import numpy as np

import repro.parallel.generate as generate_module
import repro.parallel.manifest as manifest_module
from repro.generators import konect_unicode_like, preferential_attachment
from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.obs import NULL_TRACER, Tracer
from repro.parallel import (
    ShardIntegrityError,
    generate_chain_shards,
    load_manifest,
    load_shards,
    plan_partition,
    read_shard_arrays,
)
from repro.serve import OracleService, load_oracle, save_oracle
from repro.serve.wire import encode_response, read_request

__all__ = [
    "N_SHARDS",
    "Tracer",
    "ShardIntegrityError",
    "generate_chain_shards",
    "load_shards",
    "load_manifest",
    "build_chain",
    "generation_child",
    "unicode_product",
    "GroundTruthOracle",
    "ProductSampler",
    "expected",
    "shard_problems",
    "span_stats",
    "trace_generation",
    "TracedOracle",
    "replay_wire",
    "replay_submit",
    "trace_artifact",
]

#: Shards per gen-chain pass.
N_SHARDS = 8
#: gen-chain factors: four preferential-attachment graphs PA(16, 2), so
#: the chain holds 58**4 = 11,316,496 directed entries (~272 MB of
#: p, q and squares per pass).
CHAIN_FACTOR_N = 16
CHAIN_FACTORS = 4


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def build_chain(seed: int):
    """gen-chain's set-up: factors, the chain, and its degree partition."""
    factors = [
        preferential_attachment(CHAIN_FACTOR_N, 2, seed=11 + 4 * seed + t)
        for t in range(CHAIN_FACTORS)
    ]
    chain = KroneckerChain.from_graphs(factors)
    return chain, plan_partition(chain, N_SHARDS, "degree")


def generation_child(seed: int, n_workers: int) -> None:
    """gen-chain's generation passes, run in a process of their own.

    Each line on stdin names an output directory.  The chain's shards are
    written there with ``generate_chain_shards``, and one JSON line
    answers with its wall time and the shard paths.  The process exits at
    the end of its input, so its parent's ``RUSAGE_CHILDREN`` then holds
    the memory peak of the generation alone: this process, or any pool
    worker it started.
    """
    chain, _ = build_chain(seed)
    for line in sys.stdin:
        t0 = time.perf_counter()
        paths = generate_chain_shards(
            chain, Path(line.strip()), n_shards=N_SHARDS, n_workers=n_workers, ground_truth=True
        )
        seconds = time.perf_counter() - t0
        print(json.dumps({"seconds": seconds, "paths": [str(p) for p in paths]}), flush=True)


def unicode_product():
    """The served product: the unicode stand-in crossed with itself, 1(ii)."""
    factor = konect_unicode_like()
    return make_bipartite_product(
        factor, factor, Assumption.SELF_LOOPS_FACTOR, require_connected=False
    )


class ProductSampler:
    """Uniform stored entries and vertices of a 2-factor product."""

    def __init__(self, bk):
        m = bk.M.adj.tocoo()
        b = bk.B.graph.adj.tocoo()
        self.n = int(bk.n)
        self.n_b = int(bk.B.graph.n)
        self._m = (m.row.astype(np.int64), m.col.astype(np.int64))
        self._b = (b.row.astype(np.int64), b.col.astype(np.int64))

    def entries(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
        mi = rng.integers(0, self._m[0].size, size=k)
        bi = rng.integers(0, self._b[0].size, size=k)
        p = self._m[0][mi] * self.n_b + self._b[0][bi]
        q = self._m[1][mi] * self.n_b + self._b[1][bi]
        return p, q

    def vertices(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.integers(0, self.n, size=k, dtype=np.int64)


def expected(oracle, kind: str, ps: np.ndarray, qs: Optional[np.ndarray]) -> np.ndarray:
    """The reference answer with the server's mask semantics."""
    if kind == "degree":
        return oracle.degrees(ps)
    if kind == "vertex_squares":
        return oracle.squares_at_vertices(ps)
    if kind == "edge_squares":
        return oracle.squares_at_edges(ps, qs, on_invalid="mask")
    if kind == "wings":
        return oracle.wings_at_edges(ps, qs, on_invalid="mask")
    if kind == "clustering":
        return oracle.clustering_at_edges(ps, qs)
    raise ValueError(f"unknown query kind {kind!r}")


# ---------------------------------------------------------------------------
# Shard checks
# ---------------------------------------------------------------------------


def shard_problems(chain, manifest, path: Path, arrays: dict[str, np.ndarray]) -> list[str]:
    """What is wrong with one shard read back with its manifest.

    The entries must be exactly the chain's rows ``[lo, hi)`` in number,
    and their squares must sum to twice the closed-form vertex-square sum
    of those rows (each 4-cycle at a vertex uses two of its edges).
    """
    entry = {e.path: e for e in manifest.shards.values()}.get(Path(path).name)
    if entry is None:
        return [f"{Path(path).name}: not recorded in the manifest"]
    problems = []
    entries = int(arrays["p"].size)
    want = chain.row_range_work(entry.start, entry.stop)
    if entries != want or entries != entry.entries:
        problems.append(f"{entry.path}: {entries} entries, rows hold {want}")
    squares = int(arrays["squares"].sum(dtype=np.int64))
    want_sq = 2 * chain.vertex_squares_range_sum(entry.start, entry.stop)
    if squares != want_sq:
        problems.append(f"{entry.path}: squares sum {squares} != 2 * vertex sum {want_sq}")
    return problems


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------


def span_stats(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds, and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for root in tracer.roots():
        for span in root.walk():
            row = out.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.elapsed
            row["self_s"] += span.elapsed - sum(c.elapsed for c in span.children)
    return out


def _traced(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


class _TracedOs:
    """The ``os`` module as the generator sees it, with ``replace`` traced."""

    def __init__(self, tracer: Tracer):
        self.replace = _traced(tracer, "generate.rename", os.replace)

    def __getattr__(self, name: str) -> Any:
        return getattr(os, name)


def trace_generation(chain, out_dir: Path, n_workers: int, repeats: int) -> dict[str, Any]:
    """Serial, traced ``generate_chain_shards`` passes plus their references.

    A serial pass (``n_workers=1`` runs in this process) has its layer
    calls wrapped in spans by patching the names the generator looks up:
    ``shard_of_rows`` (multifactor stream), ``write_edges_file`` (edgeio),
    ``checksum_arrays`` (manifest, nested in the write), ``write_manifest``
    and ``os.replace``.  ``repeats`` untraced and traced serial passes
    alternate; the tracing overhead compares their medians, and the last
    traced pass gives the layer spans.  As many parallel passes give the
    parallel efficiency.  Every shard of the last traced pass is read back
    with ``read_shard_arrays``.
    """
    plan_s = []
    for _ in range(21):
        t0 = time.perf_counter()
        plan = plan_partition(chain, N_SHARDS, "degree")
        plan_s.append(time.perf_counter() - t0)

    def generate(target: Path, workers: int) -> tuple[float, list[Path]]:
        t0 = time.perf_counter()
        paths = generate_chain_shards(
            chain, target, n_shards=N_SHARDS, n_workers=workers, ground_truth=True
        )
        return time.perf_counter() - t0, paths

    def traced_serial(tracer: Tracer, target: Path) -> tuple[float, list[Path]]:
        patches = [
            mock.patch.object(generate_module, "shard_of_rows",
                              _traced(tracer, "multifactor.stream", generate_module.shard_of_rows)),
            mock.patch.object(generate_module, "write_edges_file",
                              _traced(tracer, "edgeio.write", generate_module.write_edges_file)),
            mock.patch.object(manifest_module, "checksum_arrays",
                              _traced(tracer, "manifest.checksum", manifest_module.checksum_arrays)),
            mock.patch.object(generate_module, "write_manifest",
                              _traced(tracer, "manifest.write", generate_module.write_manifest)),
            mock.patch.object(generate_module, "os", _TracedOs(tracer)),
        ]
        for patch in patches:
            patch.start()
        try:
            with tracer.span("generate.serial"):
                return generate(target, 1)
        finally:
            for patch in reversed(patches):
                patch.stop()

    # Each round's parallel pass goes first and warms the file system, so
    # the serial passes compared for the tracing overhead run under like
    # conditions.
    target = out_dir / "serial"
    parallel_s, plain_s, traced_s = [], [], []
    for rep in range(repeats):
        seconds, _ = generate(out_dir / "parallel", n_workers)
        shutil.rmtree(out_dir / "parallel")
        parallel_s.append(seconds)
        seconds, _ = generate(target, 1)
        shutil.rmtree(target)
        plain_s.append(seconds)
        tracer = Tracer()
        seconds, paths = traced_serial(tracer, target)
        traced_s.append(seconds)
        if rep < repeats - 1:
            shutil.rmtree(target)
    serial_plain = statistics.median(plain_s)
    serial_traced = traced_s[-1]
    manifest = load_manifest(target)
    nbytes = 0
    problems: list[str] = []
    for path in paths:
        nbytes += path.stat().st_size
        with tracer.span("edgeio.read"):
            arrays = read_shard_arrays(path, verify=False)
        problems += shard_problems(chain, manifest, path, arrays)
        del arrays
    shutil.rmtree(target)

    stats = span_stats(tracer)

    def total(name: str) -> float:
        return stats.get(name, {}).get("total_s", 0.0)

    stream_s = total("multifactor.stream")
    write_s = total("edgeio.write")
    checksum_s = total("manifest.checksum")
    layered = stream_s + write_s + total("generate.rename") + total("manifest.write")
    metrics = {
        "multifactor.stream_s": stream_s,
        "multifactor.entries_per_s": chain.nnz / stream_s,
        "partition.plan_s": statistics.median(plan_s),
        "partition.imbalance": plan.imbalance(),
        "edgeio.write_s": write_s,
        "edgeio.read_s": total("edgeio.read"),
        "edgeio.bytes_per_entry": nbytes / chain.nnz,
        "manifest.checksum_s": checksum_s,
        "manifest.checksum_share": checksum_s / write_s,
        "manifest.write_s": total("manifest.write"),
        "manifest.writes": stats.get("manifest.write", {}).get("count", 0),
        "generate.rename_s": total("generate.rename"),
        "generate.residual_s": serial_traced - layered,
        "generate.parallel_efficiency": serial_plain / (n_workers * statistics.median(parallel_s)),
    }
    return {
        "metrics": metrics,
        "overhead": statistics.median(traced_s) / serial_plain - 1.0,
        "spans": tracer.to_dicts(),
        "stats": stats,
        "checked": len(paths),
        "problems": problems,
    }


class TracedOracle:
    """A :class:`GroundTruthOracle` whose batched queries open spans.

    Handed to :class:`OracleService` in place of the oracle, it makes
    the service's kernel calls children of the caller's span, so the
    service's self time is its span minus these.
    """

    def __init__(self, oracle, tracer):
        self._oracle = oracle
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._oracle, name)

    def degrees(self, ps):
        with self._tracer.span("oracle.degree"):
            return self._oracle.degrees(ps)

    def squares_at_vertices(self, ps):
        with self._tracer.span("oracle.vertex_squares"):
            return self._oracle.squares_at_vertices(ps)

    def squares_at_edges(self, ps, qs, on_invalid="raise"):
        with self._tracer.span("oracle.edge_squares"):
            return self._oracle.squares_at_edges(ps, qs, on_invalid=on_invalid)

    def wings_at_edges(self, ps, qs, on_invalid="raise"):
        with self._tracer.span("oracle.wings"):
            return self._oracle.wings_at_edges(ps, qs, on_invalid=on_invalid)

    def clustering_at_edges(self, ps, qs):
        with self._tracer.span("oracle.clustering"):
            return self._oracle.clustering_at_edges(ps, qs)


def replay_wire(oracle, frames: list[bytes], tracer=None) -> dict[str, int]:
    """Answer wire frames in process as a pre-fork worker does.

    Each frame is decoded with ``read_request``, answered with
    ``OracleService.answer`` (the wire path) and encoded with
    ``encode_response``; with a ``tracer`` each step is a span and the
    oracle's kernel calls nest under ``service.answer``.  Returns the
    service's tallies.
    """
    tracer = tracer or NULL_TRACER
    service = OracleService(TracedOracle(oracle, tracer) if tracer.enabled else oracle)
    for frame in frames:
        with tracer.span("wire.decode"):
            kind, ps, qs = read_request(io.BytesIO(frame))
        with tracer.span("service.answer"):
            result = service.answer(kind, ps, qs)
        with tracer.span("wire.encode"):
            encode_response(result, kind)
    return service.stats()


def replay_submit(oracle, requests: list[tuple], tracer: Tracer) -> dict[str, int]:
    """Answer requests through the service's queue, as the HTTP path does.

    ``submit().wait()`` is a span on this thread; the oracle spans open
    on the batcher thread, so the service's self time is the submit total
    minus the oracle total.
    """
    service = OracleService(TracedOracle(oracle, tracer)).start()
    try:
        for kind, ps, qs in requests:
            with tracer.span("service.submit"):
                service.submit(kind, ps, qs).wait(30.0)
    finally:
        service.stop()
    return service.stats()


def trace_artifact(bk, out_dir: Path, reps: int) -> dict[str, Any]:
    """Median ``save_oracle`` and ``load_oracle(mmap=True)`` times."""
    oracle = GroundTruthOracle(bk)
    pack_s, load_s = [], []
    loaded = None
    for _ in range(reps):
        t0 = time.perf_counter()
        save_oracle(oracle, out_dir)
        pack_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        loaded = load_oracle(out_dir, mmap=True)
        load_s.append(time.perf_counter() - t0)
    return {
        "pack_s": statistics.median(pack_s),
        "load_s": statistics.median(load_s),
        "bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
        "oracle": loaded,
    }
