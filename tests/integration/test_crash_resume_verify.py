"""Crash-resume × verify integration (ISSUE 4 satellite).

A fault-injected shard run is interrupted mid-generation, resumed, and
the recovered data is then put through ``repro verify``-style
brute-force spot checks: the per-entry ground truth in the resumed
shards must match direct 4-cycle enumeration on the materialized
product, and must be byte-identical to an uninterrupted clean run.
This closes the loop between the fault-tolerance layer (PR 2) and the
derivation-independent referee (this PR): a crash/resume cycle cannot
silently corrupt ground truth.

Shards are ``repro.edges/1`` files on degree cuts: fault-injected
runs resume to checksum- and byte-identical shards, and a shard torn
*mid-binary-block* (plus the injector's junk ``.part`` artifact) is
rejected by structure, regenerated, and converges to the clean run's
checksums.
"""

import numpy as np
import pytest

from repro.generators import complete_bipartite, cycle_graph
from repro.obs import events_to, read_events
from repro.kronecker import Assumption, make_bipartite_product
from repro.parallel import (
    FaultInjector,
    RetryBudgetExceeded,
    RetryPolicy,
    ShardIntegrityError,
    generate_chain_shards,
    load_manifest,
    load_shards,
    verify_shards,
)
from repro.refcheck import brute

N_SHARDS = 6
# Chosen so the crashing first pass completes some but not all shards
# (asserted below) — the interesting interruption, not the trivial ones.
CRASH = dict(rate=0.5, seed=7)


@pytest.fixture
def bk():
    return make_bipartite_product(
        cycle_graph(5), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
    )


@pytest.fixture
def chain(bk):
    return bk.chain


def test_resumed_run_passes_brute_force_spot_checks(bk, chain, tmp_path):
    clean_paths = generate_chain_shards(
        chain, tmp_path / "clean", n_shards=N_SHARDS, n_workers=2, ground_truth=True
    )
    clean = load_shards(clean_paths, manifest=tmp_path / "clean")

    crash_dir = tmp_path / "crash"
    with pytest.raises(RetryBudgetExceeded):
        generate_chain_shards(
            chain, crash_dir, n_shards=N_SHARDS, n_workers=2, ground_truth=True,
            retry=RetryPolicy(max_retries=0, base_delay=0.0),
            fault_injector=FaultInjector(**CRASH),
        )
    partial = load_manifest(crash_dir)
    assert 0 < len(partial.shards) < N_SHARDS  # genuinely interrupted

    resumed_paths = generate_chain_shards(
        chain, crash_dir, n_shards=N_SHARDS, n_workers=2, ground_truth=True, resume=True
    )
    assert verify_shards(crash_dir).is_complete()
    resumed = load_shards(resumed_paths, manifest=crash_dir)

    # Byte-identical to the clean run (same partitioning, same order).
    for key in ("p", "q", "squares"):
        np.testing.assert_array_equal(resumed[key], clean[key])

    # Brute-force spot checks, repro-verify style: every recovered
    # per-entry count equals direct cycle enumeration on the product.
    C = bk.materialize()
    nbrs = brute.neighbor_sets(C)
    dia_ref = brute.squares_at_edges(C, nbrs)
    assert resumed["p"].size == C.nnz  # full directed coverage
    seen = set()
    for p, q, val in zip(
        resumed["p"].tolist(), resumed["q"].tolist(), resumed["squares"].tolist()
    ):
        assert val == dia_ref[(min(p, q), max(p, q))]
        seen.add((min(p, q), max(p, q)))
    assert seen == set(dia_ref)  # every undirected edge spot-checked


def test_crash_resume_leaves_clean_event_log(chain, tmp_path):
    """The crash drill's telemetry contract: an interrupted run flushes a
    strictly-parseable JSONL event log (no torn tail line), and the
    resumed run appends its own lifecycle — including ``shard.skipped``
    for the shards recovered from the manifest."""
    crash_dir = tmp_path / "crash"
    log = tmp_path / "events.jsonl"
    with events_to(str(log)):
        with pytest.raises(RetryBudgetExceeded):
            generate_chain_shards(
                chain, crash_dir, n_shards=N_SHARDS, n_workers=2, ground_truth=True,
                retry=RetryPolicy(max_retries=0, base_delay=0.0),
                fault_injector=FaultInjector(**CRASH),
            )
    raw = log.read_bytes()
    assert raw and raw.endswith(b"\n"), "crashed run left a torn tail line"
    crash_events = read_events(log, strict=True)  # every line parses
    crash_kinds = {e["kind"] for e in crash_events}
    assert {"shards.planned", "task.failed", "task.budget_exhausted"} <= crash_kinds
    n_completed = sum(1 for e in crash_events if e["kind"] == "shard.completed")
    assert n_completed == len(load_manifest(crash_dir).shards)

    with events_to(str(log)):
        generate_chain_shards(
            chain, crash_dir, n_shards=N_SHARDS, n_workers=2, ground_truth=True, resume=True
        )
    events = read_events(log, strict=True)
    resumed = events[len(crash_events):]
    resumed_kinds = {e["kind"] for e in resumed}
    assert {"shards.planned", "shard.skipped", "shard.completed", "shards.finished"} <= resumed_kinds
    skipped = {e["index"] for e in resumed if e["kind"] == "shard.skipped"}
    completed = {e["index"] for e in resumed if e["kind"] == "shard.completed"}
    assert len(skipped) == n_completed  # exactly the recovered shards
    assert skipped | completed == set(range(N_SHARDS))
    assert not (skipped & completed)
    # Every event carries the versioned envelope.
    assert all(e["schema"] == "repro.events/1" for e in events)


def test_crash_resume_binary_format_checksum_identical(chain, tmp_path):
    """The full drill with deflate blocks.  The resumed run must be
    checksum- *and byte-* identical to an uninterrupted clean run (the
    binary container embeds no timestamps)."""
    kwargs = dict(n_shards=N_SHARDS, n_workers=2, ground_truth=True, codec="deflate")
    clean_paths = generate_chain_shards(chain, tmp_path / "clean", **kwargs)
    clean_manifest = load_manifest(tmp_path / "clean")

    crash_dir = tmp_path / "crash"
    with pytest.raises(RetryBudgetExceeded):
        generate_chain_shards(
            chain, crash_dir,
            retry=RetryPolicy(max_retries=0, base_delay=0.0),
            fault_injector=FaultInjector(**CRASH),
            **kwargs,
        )
    partial = load_manifest(crash_dir)
    assert 0 < len(partial.shards) < len(clean_paths)  # genuinely interrupted

    resumed_paths = generate_chain_shards(chain, crash_dir, resume=True, **kwargs)
    resumed_manifest = verify_shards(crash_dir)
    assert resumed_manifest.is_complete()
    for index, entry in clean_manifest.shards.items():
        assert resumed_manifest.shards[index].checksum == entry.checksum
    for clean_path, resumed_path in zip(clean_paths, resumed_paths):
        assert clean_path.read_bytes() == resumed_path.read_bytes()


def test_torn_binary_shard_heals_on_resume(bk, chain, tmp_path):
    """A shard truncated mid-binary-block under its *final* name (torn
    copy, bad disk) plus a junk ``.part`` must both be rejected by
    structural validation; resume regenerates and converges to the
    original checksums."""
    out = tmp_path / "out"
    kwargs = dict(n_shards=4, n_workers=1, ground_truth=True)
    paths = generate_chain_shards(chain, out, **kwargs)
    want = {k: e.checksum for k, e in load_manifest(out).shards.items()}

    # Tear shard 1 mid-block (inside the first block's payload) and
    # drop the injector-style junk partial next to shard 2.
    data = paths[1].read_bytes()
    paths[1].write_bytes(data[: len(data) // 2])
    (out / "shard_0002.edges.part").write_bytes(
        b"torn shard: fault injected mid-write"
    )
    with pytest.raises(ShardIntegrityError, match="shard 1"):
        verify_shards(out)

    resumed = generate_chain_shards(chain, out, resume=True, **kwargs)
    healed = verify_shards(out)
    assert {k: e.checksum for k, e in healed.shards.items()} == want
    recovered = load_shards(resumed, manifest=out)
    C = bk.materialize()
    dia_ref = brute.squares_at_edges(C)
    assert recovered["p"].size == C.nnz
    for p, q, val in zip(
        recovered["p"].tolist(), recovered["q"].tolist(), recovered["squares"].tolist()
    ):
        assert val == dia_ref[(min(p, q), max(p, q))]


def test_resume_with_ground_truth_under_self_loops(tmp_path):
    """Same drill under Assumption 1(ii), where the loop-block edge
    formula is the one being recovered."""
    bk = make_bipartite_product(
        complete_bipartite(2, 2).graph, cycle_graph(4), Assumption.SELF_LOOPS_FACTOR
    )
    chain = bk.chain
    crash_dir = tmp_path / "crash"
    with pytest.raises(RetryBudgetExceeded):
        generate_chain_shards(
            chain, crash_dir, n_shards=4, n_workers=1, ground_truth=True,
            retry=RetryPolicy(max_retries=0, base_delay=0.0),
            fault_injector=FaultInjector(rate=0.5, seed=3),
        )
    resumed_paths = generate_chain_shards(
        chain, crash_dir, n_shards=4, n_workers=1, ground_truth=True, resume=True
    )
    data = load_shards(resumed_paths, manifest=crash_dir)
    C = bk.materialize()
    dia_ref = brute.squares_at_edges(C)
    for p, q, val in zip(data["p"].tolist(), data["q"].tolist(), data["squares"].tolist()):
        assert val == dia_ref[(min(p, q), max(p, q))]
