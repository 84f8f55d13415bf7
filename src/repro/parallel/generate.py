"""Parallel shard generation of Kronecker products, fault-tolerantly.

Each worker process independently materializes one shard of product
edges and writes it atomically -- the single-node analogue of ranks
writing distributed graph partitions.  Ground truth can be attached
during generation, so a cluster-scale run would never need a counting
pass at all (§V).

Two generation sources share one execution engine:

* :func:`generate_shards` -- a 2-factor
  :class:`~repro.kronecker.assumptions.BipartiteKronecker` product.
  ``partition="entries"`` (the legacy default) slices the left
  factor's entry list; ``"rows"``/``"degree"`` slice the product row
  space via a deep-chain view of the same product.
* :func:`generate_chain_shards` -- a deep multi-factor
  :class:`~repro.kronecker.multifactor.KroneckerChain`
  (``A ⊗ B ⊗ C ⊗ …``), streamed shard by shard without ever
  materializing an intermediate product.

Shards are encoded per ``shard_format``: ``"npz"`` (NumPy zip, the
legacy container) or ``"edges"`` (the versioned binary
``repro.edges/1`` block format of :mod:`repro.parallel.edgeio`, with
optional compression via ``codec=``).  Both carry the same
*content* checksum, so manifests, resume, and verification are
container-independent.

Fault tolerance (docs/fault_tolerance.md):

* shards are written to a ``.part`` temp name and ``os.replace``d into
  place, so a killed worker can never leave a torn file under a final
  shard name;
* every completed shard is recorded -- slice bounds, entry count, byte
  size, content checksum -- in an atomically updated
  :mod:`manifest <repro.parallel.manifest>`;
* failed or killed workers are retried with bounded exponential
  backoff (:mod:`repro.parallel.faults`), and ``resume=True``
  reconciles against the manifest so completed shards are skipped;
* :func:`load_shards` identifies each shard's container by its magic
  bytes (never the file extension) and re-verifies content checksums
  before trusting shard data.

Workers receive the whole product handle (``BipartiteKronecker`` or
``KroneckerChain``): factors are tiny (that's the premise of the
paper), so pickling them to every worker costs microseconds; the
*product* never crosses process boundaries except as the shard being
produced.
"""

from __future__ import annotations

import os
import time
import zipfile
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from repro.kronecker.assumptions import BipartiteKronecker
from repro.kronecker.multifactor import KroneckerChain
from repro.obs import MetricsRegistry, get_events, get_metrics, get_tracer
from repro.parallel.edgeio import read_shard_arrays, write_edges_file
from repro.parallel.faults import FaultInjector, RetryPolicy, map_with_retry
from repro.parallel.manifest import (
    MANIFEST_NAME,
    ShardEntry,
    ShardIntegrityError,
    ShardManifest,
    chain_signature,
    checksum_arrays,
    load_manifest,
    product_signature,
    shard_file_checksum,
    write_manifest,
)
from repro.parallel.partition import (
    PartitionPlan,
    plan_partition,
    shard_of_product,
    shard_of_rows,
)

__all__ = [
    "SHARD_FORMATS",
    "generate_shards",
    "generate_chain_shards",
    "parallel_edge_count",
    "load_shards",
]

PathLike = Union[str, os.PathLike]

#: shard container formats and their file suffixes
SHARD_FORMATS = {"npz": ".npz", "edges": ".edges"}


def _write_payload(tmp: str, arrays: dict[str, np.ndarray], shard_format: str, codec: str) -> str:
    """Encode one shard's arrays at ``tmp``; return the content checksum.

    ``codec`` applies to the ``edges`` format only (``npz`` is always
    zip-deflate per NumPy).  Either container yields the same content
    checksum for the same arrays.
    """
    if shard_format == "edges":
        return write_edges_file(tmp, arrays, codec=codec)
    checksum = checksum_arrays(arrays)
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    return checksum


def _write_shard(
    bk: BipartiteKronecker,
    index: int,
    start: int,
    stop: int,
    path: str,
    ground_truth: bool,
    shard_format: str = "npz",
    codec: str = "raw",
    attempt: int = 0,
    injector: Optional[FaultInjector] = None,
):
    """Worker: expand one left-entry slice, write its shard atomically.

    Returns ``(entries, bytes, checksum, metrics_snapshot)``; the parent
    merges the snapshot (workers cannot share the parent's registry
    across the process boundary) and records the rest in the manifest.
    The shard lands under its final name only via ``os.replace`` of the
    fully written ``.part`` file, so a crash at any point here leaves no
    partial shard behind.
    """
    reg = MetricsRegistry()
    tmp = path + ".part"
    if injector is not None:
        reg.counter("parallel.generate.fault_checks_total").inc()
        injector.maybe_fail(index, attempt, partial_path=tmp)
    t0 = time.perf_counter()
    if ground_truth:
        p, q, dia = shard_of_product(bk, start, stop, attach_ground_truth=True)
        arrays = {"p": p, "q": q, "squares": dia}
    else:
        p, q = shard_of_product(bk, start, stop)
        arrays = {"p": p, "q": q}
    checksum = _write_payload(tmp, arrays, shard_format, codec)
    nbytes = os.path.getsize(tmp)
    os.replace(tmp, path)
    reg.histogram("parallel.generate.worker_seconds").observe(time.perf_counter() - t0)
    reg.histogram("parallel.generate.shard_size_bytes").observe(nbytes)
    reg.counter("parallel.generate.entries_total").inc(int(p.size))
    reg.counter("parallel.generate.shards_total").inc()
    return int(p.size), int(nbytes), checksum, reg.snapshot()


def _write_row_shard(
    chain: KroneckerChain,
    index: int,
    start: int,
    stop: int,
    path: str,
    ground_truth: bool,
    shard_format: str = "edges",
    codec: str = "raw",
    attempt: int = 0,
    injector: Optional[FaultInjector] = None,
):
    """Worker: stream product rows ``[start, stop)`` into one shard.

    The row-space twin of :func:`_write_shard`, serving both the deep
    multi-factor chains of :func:`generate_chain_shards` and the
    ``rows``/``degree`` partitions of :func:`generate_shards`.  Same
    contract: atomic ``.part`` + ``os.replace``, same return shape.
    """
    reg = MetricsRegistry()
    tmp = path + ".part"
    if injector is not None:
        reg.counter("parallel.generate.fault_checks_total").inc()
        injector.maybe_fail(index, attempt, partial_path=tmp)
    t0 = time.perf_counter()
    if ground_truth:
        p, q, squares = shard_of_rows(chain, start, stop, attach_ground_truth=True)
        arrays = {"p": p, "q": q, "squares": squares}
    else:
        p, q = shard_of_rows(chain, start, stop)
        arrays = {"p": p, "q": q}
    checksum = _write_payload(tmp, arrays, shard_format, codec)
    nbytes = os.path.getsize(tmp)
    os.replace(tmp, path)
    reg.histogram("parallel.generate.worker_seconds").observe(time.perf_counter() - t0)
    reg.histogram("parallel.generate.shard_size_bytes").observe(nbytes)
    reg.counter("parallel.generate.entries_total").inc(int(p.size))
    reg.counter("parallel.generate.shards_total").inc()
    return int(p.size), int(nbytes), checksum, reg.snapshot()


def _count_shard(
    bk: BipartiteKronecker,
    index: int,
    start: int,
    stop: int,
    attempt: int = 0,
    injector: Optional[FaultInjector] = None,
) -> int:
    """Worker: count one left-entry slice's product entries (no I/O)."""
    if injector is not None:
        injector.maybe_fail(index, attempt)
    p, _ = shard_of_product(bk, start, stop)
    return int(p.size)


def _count_row_shard(
    chain: KroneckerChain,
    index: int,
    start: int,
    stop: int,
    attempt: int = 0,
    injector: Optional[FaultInjector] = None,
) -> int:
    """Worker: count one product-row range's entries by generating them."""
    if injector is not None:
        injector.maybe_fail(index, attempt)
    p, _ = shard_of_rows(chain, start, stop)
    return int(p.size)


def _reusable_shards(
    manifest: ShardManifest, paths: list[Path]
) -> set[int]:
    """Which manifest-recorded shards are intact on disk (full checksum)."""
    reusable: set[int] = set()
    for index, entry in manifest.shards.items():
        if index >= len(paths):
            continue
        path = paths[index]
        if not path.exists() or path.name != entry.path:
            continue
        try:
            ok = shard_file_checksum(path) == entry.checksum
        except (OSError, ValueError, zipfile.BadZipFile):
            ok = False
        if ok:
            reusable.add(index)
    return reusable


def _run_generation(
    worker: Callable,
    make_args: Callable[[int, int, int, str], tuple],
    plan: PartitionPlan,
    out_dir: Path,
    signature: dict[str, Any],
    *,
    n_workers: int | None,
    ground_truth: bool,
    shard_format: str,
    resume: bool,
    retry: Optional[RetryPolicy],
    fault_injector: Optional[FaultInjector],
    span_attrs: dict[str, Any],
) -> list[Path]:
    """Execute one partition plan: resume reconciliation, worker pool,
    incremental manifest.  Shared by both generation entry points."""
    suffix = SHARD_FORMATS[shard_format]
    bounds = list(plan.bounds)
    paths = [out_dir / f"shard_{k:04d}{suffix}" for k in range(len(bounds))]
    if n_workers is None:
        n_workers = min(len(bounds), os.cpu_count() or 1)
    manifest_path = out_dir / MANIFEST_NAME
    manifest = ShardManifest(signature=signature)
    done: set[int] = set()
    if resume and manifest_path.exists():
        manifest = load_manifest(manifest_path)
        manifest.require_signature(signature)
        done = _reusable_shards(manifest, paths)
        # Drop entries that failed reconciliation so the manifest never
        # vouches for bytes we are about to rewrite.
        for index in sorted(set(manifest.shards) - done):
            del manifest.shards[index]
    metrics = get_metrics()
    events = get_events()
    with get_tracer().span(
        "parallel.generate_shards",
        n_shards=len(bounds),
        n_workers=n_workers,
        ground_truth=ground_truth,
        resume=resume,
        **span_attrs,
    ) as sp:
        metrics.counter("parallel.generate.shards_skipped_total").inc(len(done))
        write_manifest(manifest, manifest_path)
        if events.enabled:
            events.emit(
                "shards.planned",
                n_shards=len(bounds),
                n_workers=n_workers,
                skipped=len(done),
                total_entries=int(plan.total_work),
                ground_truth=ground_truth,
                resume=resume,
                **span_attrs,
            )
            for index in sorted(done):
                entry = manifest.shards[index]
                events.emit("shard.skipped", index=index, entries=entry.entries)
        tasks = [
            (k, make_args(k, start, stop, str(paths[k])))
            for k, (start, stop) in enumerate(bounds)
            if k not in done
        ]

        def on_success(key: int, result) -> None:
            entries, nbytes, checksum, snap = result
            metrics.merge_snapshot(snap)
            if events.enabled:
                events.emit(
                    "shard.completed", index=key, entries=entries, bytes=nbytes
                )
            start, stop = bounds[key]
            manifest.add(
                ShardEntry(
                    index=key,
                    path=paths[key].name,
                    start=start,
                    stop=stop,
                    entries=entries,
                    bytes=nbytes,
                    checksum=checksum,
                )
            )
            write_manifest(manifest, manifest_path)

        map_with_retry(
            worker,
            tasks,
            n_workers=n_workers,
            policy=retry,
            injector=fault_injector,
            metric_prefix="parallel.generate",
            on_success=on_success,
        )
        sp.set(shards_written=len(tasks), shards_skipped=len(done))
        if events.enabled:
            events.emit(
                "shards.finished", written=len(tasks), skipped=len(done)
            )
            events.flush()
    return paths


def generate_shards(
    bk: BipartiteKronecker,
    out_dir: PathLike,
    n_shards: int = 4,
    n_workers: int | None = None,
    ground_truth: bool = False,
    *,
    partition: str = "entries",
    shard_format: str = "npz",
    codec: str = "raw",
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> list[Path]:
    """Write the product as ``n_shards`` shard files, in parallel.

    Returns the shard paths in partition order.  Shard ``k`` holds
    arrays ``p``, ``q`` (directed entries) and, with
    ``ground_truth=True``, ``squares`` (exact per-entry 4-cycle counts).
    Each shard's content depends only on its slice -- deterministic
    regardless of worker scheduling, retries, or resume boundaries.

    ``partition`` chooses the slicing strategy
    (:func:`~repro.parallel.partition.plan_partition`): ``"entries"``
    (left-factor entry slices, the default; shard union is the COO
    entry list in left-factor order), or ``"rows"`` / ``"degree"``
    (contiguous product-row ranges; shard union is the entry list in
    product-row order, with ``degree`` balancing shards by exact
    per-row work from factor degree statistics).  ``shard_format``
    picks the container: ``"npz"`` (default) or ``"edges"`` (binary
    ``repro.edges/1``, optionally compressed via ``codec=``).  Both
    knobs enter the manifest signature, so ``resume=True`` refuses to
    mix configurations.

    A ``manifest.json`` is maintained in ``out_dir`` (atomically, after
    every shard completion) recording each completed shard's slice
    bounds, entry count, byte size, and content checksum.  With
    ``resume=True`` an existing manifest with a matching product
    signature is reconciled first: shards whose on-disk content still
    matches their recorded checksum are skipped.  Failed or killed
    workers are retried per ``retry`` (default :class:`RetryPolicy`);
    when a shard exhausts its budget, :class:`RetryBudgetExceeded`
    propagates *after* all completed shards were recorded, so a
    follow-up ``resume=True`` run picks up exactly where this one died.
    ``fault_injector`` deterministically simulates worker crashes (for
    tests and the CI crash/resume smoke).
    """
    if shard_format not in SHARD_FORMATS:
        raise ValueError(
            f"unknown shard format {shard_format!r} (choose from {sorted(SHARD_FORMATS)})"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = plan_partition(bk, n_shards, partition)
    signature = product_signature(
        bk, plan.n_shards, ground_truth, partition=partition, shard_format=shard_format
    )
    if partition == "entries":
        worker: Callable = _write_shard

        def make_args(k: int, start: int, stop: int, path: str) -> tuple:
            return (bk, k, start, stop, path, ground_truth, shard_format, codec)

    else:
        chain = KroneckerChain.from_bipartite(bk)
        worker = _write_row_shard

        def make_args(k: int, start: int, stop: int, path: str) -> tuple:
            return (chain, k, start, stop, path, ground_truth, shard_format, codec)

    return _run_generation(
        worker,
        make_args,
        plan,
        out_dir,
        signature,
        n_workers=n_workers,
        ground_truth=ground_truth,
        shard_format=shard_format,
        resume=resume,
        retry=retry,
        fault_injector=fault_injector,
        span_attrs={"partition": partition, "shard_format": shard_format},
    )


def generate_chain_shards(
    chain: Union[KroneckerChain, Sequence],
    out_dir: PathLike,
    n_shards: int = 4,
    n_workers: int | None = None,
    ground_truth: bool = False,
    *,
    partition: str = "degree",
    shard_format: str = "edges",
    codec: str = "raw",
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> list[Path]:
    """Shard a deep multi-factor product ``A ⊗ B ⊗ C ⊗ …`` to disk.

    ``chain`` is a :class:`~repro.kronecker.multifactor.KroneckerChain`
    or a sequence of :class:`~repro.graphs.base.Graph` factors.  Each
    worker streams exactly its contiguous product-row range -- no
    intermediate ``A ⊗ B`` is ever materialized, so memory stays
    ``O(Σ factor nnz + block)`` while the product can be arbitrarily
    deep.  With ``ground_truth=True`` every shard carries the
    closed-form per-entry 4-cycle counts (multiplicative across
    factors; chain docstring for the identities).

    Defaults are the extreme-scale tier's: ``degree``-balanced
    partitions in the binary ``edges`` format.  Fault tolerance,
    manifests, and resume semantics match :func:`generate_shards`
    exactly (same engine).
    """
    if not isinstance(chain, KroneckerChain):
        chain = KroneckerChain.from_graphs(chain)
    if shard_format not in SHARD_FORMATS:
        raise ValueError(
            f"unknown shard format {shard_format!r} (choose from {sorted(SHARD_FORMATS)})"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = plan_partition(chain, n_shards, partition)
    signature = chain_signature(chain, plan.n_shards, ground_truth, partition, shard_format)

    def make_args(k: int, start: int, stop: int, path: str) -> tuple:
        return (chain, k, start, stop, path, ground_truth, shard_format, codec)

    return _run_generation(
        _write_row_shard,
        make_args,
        plan,
        out_dir,
        signature,
        n_workers=n_workers,
        ground_truth=ground_truth,
        shard_format=shard_format,
        resume=resume,
        retry=retry,
        fault_injector=fault_injector,
        span_attrs={
            "partition": partition,
            "shard_format": shard_format,
            "factors": len(chain.factors),
        },
    )


def load_shards(paths, manifest: Optional[Union[ShardManifest, PathLike]] = None) -> dict[str, np.ndarray]:
    """Concatenate shard files back into flat COO arrays.

    Each file's container is identified by its leading magic bytes
    (zip → ``.npz`` reader, ``repro.edges/1`` → binary block reader) --
    never by extension, so a renamed shard loads correctly and a file
    that is neither raises a typed
    :class:`~repro.parallel.edgeio.EdgeFormatError` instead of a
    misparse.

    With ``manifest`` (a :class:`ShardManifest` or a path to one / its
    directory), every shard's content checksum is verified before its
    data is trusted; a mismatch raises :class:`ShardIntegrityError`
    naming the offending shard.  Without a manifest, binary shards are
    still verified against their embedded footer checksum.
    """
    entries_by_name: dict[str, ShardEntry] = {}
    if manifest is not None:
        if not isinstance(manifest, ShardManifest):
            manifest = load_manifest(manifest)
        entries_by_name = {e.path: e for e in manifest.shards.values()}
    arrays: dict[str, list[np.ndarray]] = {}
    for path in paths:
        shard = read_shard_arrays(path, verify=manifest is None)
        if manifest is not None:
            name = Path(path).name
            entry = entries_by_name.get(name)
            if entry is None:
                raise ShardIntegrityError(f"shard {name} is not recorded in the manifest")
            actual = checksum_arrays(shard)
            if actual != entry.checksum:
                raise ShardIntegrityError(
                    f"shard {name}: checksum {actual} != recorded {entry.checksum}"
                )
        for key, value in shard.items():
            arrays.setdefault(key, []).append(value)
    return {key: np.concatenate(parts) for key, parts in arrays.items()}


def parallel_edge_count(
    bk: BipartiteKronecker,
    n_shards: int = 4,
    n_workers: int | None = None,
    *,
    partition: str = "entries",
    retry: Optional[RetryPolicy] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> int:
    """Count the product's directed entries by parallel reduction.

    A smoke-test-sized demonstration of the map-reduce shape: workers
    count their shards, the parent sums.  Must equal ``nnz(M)·nnz(B)``
    (asserted in tests against the closed form) under every
    ``partition`` strategy.  Worker failures are retried under the
    same policy machinery as :func:`generate_shards`.
    """
    plan = plan_partition(bk, n_shards, partition)
    if partition == "entries":
        source: Any = bk
        worker: Callable = _count_shard
    else:
        source = KroneckerChain.from_bipartite(bk)
        worker = _count_row_shard
    if n_workers is None:
        n_workers = min(plan.n_shards, os.cpu_count() or 1)
    with get_tracer().span(
        "parallel.edge_count",
        n_shards=plan.n_shards,
        n_workers=n_workers,
        partition=partition,
    ) as sp:
        tasks = [(k, (source, k, start, stop)) for k, (start, stop) in enumerate(plan.bounds)]
        results = map_with_retry(
            worker,
            tasks,
            n_workers=n_workers,
            policy=retry,
            injector=fault_injector,
            metric_prefix="parallel.edge_count",
        )
        total = sum(results.values())
        sp.set(entries=total)
    return total
