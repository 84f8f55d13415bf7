"""Parallel shard generation of Kronecker chains, fault-tolerantly.

Each worker process independently streams one contiguous range of
product rows and writes it atomically -- the single-node analogue of
ranks writing distributed graph partitions.  Ground truth can be
attached during generation, so a cluster-scale run would never need a
counting pass at all (§V).

:func:`generate_chain_shards` is the one shard writer.  It takes a
deep multi-factor :class:`~repro.kronecker.multifactor.KroneckerChain`
(``A ⊗ B ⊗ C ⊗ …``; a 2-factor Assumption-1 product enters as
:meth:`KroneckerChain.from_bipartite
<repro.kronecker.multifactor.KroneckerChain.from_bipartite>`), cuts
its row space into ``degree``-balanced ranges
(:func:`~repro.parallel.partition.plan_partition`) and streams each
range without ever materializing an intermediate product.  Every shard
is a ``repro.edges/1`` file (:mod:`repro.parallel.edgeio`), optionally
compressed via ``codec=``.

Fault tolerance (docs/fault_tolerance.md):

* shards are written to a ``.part`` temp name and ``os.replace``d into
  place, so a killed worker can never leave a torn file under a final
  shard name;
* every completed shard is recorded -- row range, entry count, byte
  size, content checksum -- in an atomically updated
  :mod:`manifest <repro.parallel.manifest>`;
* failed or killed workers are retried with bounded exponential
  backoff (:mod:`repro.parallel.faults`), and ``resume=True``
  reconciles against the manifest so completed shards are skipped;
* :func:`load_shards` re-verifies content checksums before trusting
  shard data.

Workers receive the whole chain: factors are tiny (that's the premise
of the paper), so pickling them to every worker costs microseconds;
the *product* never crosses process boundaries except as the shard
being produced.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

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
    shard_file_checksum,
    write_manifest,
)
from repro.parallel.partition import plan_partition, shard_of_rows

__all__ = [
    "generate_chain_shards",
    "parallel_edge_count",
    "load_shards",
]

PathLike = Union[str, os.PathLike]


def _write_row_shard(
    chain: KroneckerChain,
    index: int,
    start: int,
    stop: int,
    path: str,
    ground_truth: bool,
    codec: str = "raw",
    attempt: int = 0,
    injector: Optional[FaultInjector] = None,
):
    """Worker: stream product rows ``[start, stop)`` into one shard.

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
        p, q, squares = shard_of_rows(chain, start, stop, attach_ground_truth=True)
        arrays = {"p": p, "q": q, "squares": squares}
    else:
        p, q = shard_of_rows(chain, start, stop)
        arrays = {"p": p, "q": q}
    checksum = write_edges_file(tmp, arrays, codec=codec)
    nbytes = os.path.getsize(tmp)
    os.replace(tmp, path)
    reg.histogram("parallel.generate.worker_seconds").observe(time.perf_counter() - t0)
    reg.histogram("parallel.generate.shard_size_bytes").observe(nbytes)
    reg.counter("parallel.generate.entries_total").inc(int(p.size))
    reg.counter("parallel.generate.shards_total").inc()
    return int(p.size), int(nbytes), checksum, reg.snapshot()


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
        except (OSError, ValueError):
            ok = False
        if ok:
            reusable.add(index)
    return reusable


def generate_chain_shards(
    chain: Union[KroneckerChain, Sequence],
    out_dir: PathLike,
    n_shards: int = 4,
    n_workers: int | None = None,
    ground_truth: bool = False,
    *,
    codec: str = "raw",
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> list[Path]:
    """Write the product ``A ⊗ B ⊗ C ⊗ …`` as ``repro.edges/1`` shards.

    ``chain`` is a :class:`~repro.kronecker.multifactor.KroneckerChain`
    or a sequence of :class:`~repro.graphs.base.Graph` factors.  The row
    space is cut into ``n_shards`` ``degree``-balanced contiguous ranges
    and each worker streams exactly its range -- no intermediate
    ``A ⊗ B`` is ever materialized, so memory stays
    ``O(Σ factor nnz + block)`` while the product can be arbitrarily
    deep.  Returns the shard paths in row order.  Shard ``k`` holds
    arrays ``p``, ``q`` (directed entries) and, with
    ``ground_truth=True``, ``squares`` (exact per-entry 4-cycle counts,
    multiplicative across factors; chain docstring for the identities).
    Each shard's content depends only on its row range -- deterministic
    regardless of worker scheduling, retries, resume boundaries or
    ``codec``.

    A ``manifest.json`` is maintained in ``out_dir`` (atomically, after
    every shard completion) recording each completed shard's row range,
    entry count, byte size, and content checksum.  With ``resume=True``
    an existing manifest with a matching signature (factor hashes,
    shard count, ground-truth flag) is reconciled first: shards whose
    on-disk content still matches their recorded checksum are skipped;
    any other manifest raises :class:`ManifestError`.  Failed or killed
    workers are retried per ``retry`` (default :class:`RetryPolicy`);
    when a shard exhausts its budget, :class:`RetryBudgetExceeded`
    propagates *after* all completed shards were recorded, so a
    follow-up ``resume=True`` run picks up exactly where this one died.
    ``fault_injector`` deterministically simulates worker crashes (for
    tests and the crash/resume smoke drill).
    """
    if not isinstance(chain, KroneckerChain):
        chain = KroneckerChain.from_graphs(chain)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = plan_partition(chain, n_shards, "degree")
    signature = chain_signature(chain, plan.n_shards, ground_truth)
    bounds = list(plan.bounds)
    paths = [out_dir / f"shard_{k:04d}.edges" for k in range(len(bounds))]
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
    # Shard files of an earlier run with more shards are not this run's:
    # delete them, so the directory holds exactly what the manifest lists.
    planned = {path.name for path in paths}
    for stale in out_dir.glob("shard_*.edges"):
        if stale.name not in planned:
            stale.unlink()
    metrics = get_metrics()
    events = get_events()
    span_attrs = {"partition": plan.strategy, "factors": len(chain.factors)}
    with get_tracer().span(
        "parallel.generate_chain_shards",
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
            (k, (chain, k, start, stop, str(paths[k]), ground_truth, codec))
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
            _write_row_shard,
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


def load_shards(paths, manifest: Optional[Union[ShardManifest, PathLike]] = None) -> dict[str, np.ndarray]:
    """Concatenate ``repro.edges/1`` shard files back into flat COO arrays.

    A file that is not a ``repro.edges/1`` shard (an old ``.npz`` one
    included) raises a typed
    :class:`~repro.parallel.edgeio.EdgeFormatError` instead of a
    misparse.

    With ``manifest`` (a :class:`ShardManifest` or a path to one / its
    directory), every shard's content checksum is verified before its
    data is trusted; a mismatch raises :class:`ShardIntegrityError`
    naming the offending shard.  Without a manifest, each shard is
    still verified against its embedded footer checksum.
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
    chain: KroneckerChain,
    n_shards: int = 4,
    n_workers: int | None = None,
    *,
    retry: Optional[RetryPolicy] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> int:
    """Count the chain's directed entries by parallel reduction.

    A smoke-test-sized demonstration of the map-reduce shape: workers
    generate and count their ``degree``-cut row ranges, the parent
    sums.  Must equal ``chain.nnz`` (asserted in tests).  Worker
    failures are retried under the same policy machinery as
    :func:`generate_chain_shards`.
    """
    plan = plan_partition(chain, n_shards, "degree")
    if n_workers is None:
        n_workers = min(plan.n_shards, os.cpu_count() or 1)
    with get_tracer().span(
        "parallel.edge_count",
        n_shards=plan.n_shards,
        n_workers=n_workers,
        partition=plan.strategy,
    ) as sp:
        tasks = [(k, (chain, k, start, stop)) for k, (start, stop) in enumerate(plan.bounds)]
        results = map_with_retry(
            _count_row_shard,
            tasks,
            n_workers=n_workers,
            policy=retry,
            injector=fault_injector,
            metric_prefix="parallel.edge_count",
        )
        total = sum(results.values())
        sp.set(entries=total)
    return total
