"""OracleService: answers, cache, backpressure, failure paths."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kronecker.kernels import _BATCH_CHUNK
from repro.serve import INVALID_SQUARES, OracleService, Overloaded
from repro.serve.service import ENTRY_OVERHEAD
from repro.serve.wire import KINDS, PAIR_KINDS
from tests.serve.conftest import product_edges


def charge(queries: int = 1, pairs: bool = False) -> int:
    """What one cached answer of ``queries`` 8-byte values is charged:
    the answer, the key's index bytes (``ps``, and ``qs`` for a pair
    kind) and the fixed overhead."""
    return 8 * queries + 8 * queries * (2 if pairs else 1) + ENTRY_OVERHEAD


def budget(entries: int, queries: int = 1, pairs: bool = False) -> int:
    """A cache budget that holds exactly ``entries`` such answers."""
    return entries * charge(queries, pairs)


def query_args(kind: str, ps, qs) -> tuple:
    """The index lists a ``kind`` request takes."""
    if kind == "global":
        return ()
    return (ps, qs) if kind in PAIR_KINDS else (ps,)


@pytest.fixture
def service(oracle_i):
    return OracleService(oracle_i, max_queue=64, cache_bytes=budget(32, 16))


def test_batched_answers_match_oracle(service, oracle_i, edges_i):
    ps = np.arange(oracle_i.n, dtype=np.int64)
    assert np.array_equal(service.answer("degree", ps), oracle_i.degrees(ps))
    assert np.array_equal(
        service.answer("vertex_squares", ps), oracle_i.squares_at_vertices(ps)
    )
    ep, eq = edges_i
    assert np.array_equal(
        service.answer("edge_squares", ep, eq), oracle_i.squares_at_edges(ep, eq)
    )
    assert service.answer("global") == oracle_i.global_squares()


def test_clustering_matches_scalar_oracle(service, oracle_i, edges_i):
    ep, eq = edges_i
    served = service.answer("clustering", ep, eq)
    for idx, (p, q) in enumerate(zip(ep.tolist(), eq.tolist())):
        if oracle_i.degree(p) >= 2 and oracle_i.degree(q) >= 2:
            assert served[idx] == oracle_i.clustering_at_edge(p, q)
        else:
            assert np.isnan(served[idx])


def test_mask_semantics_for_non_edges(service, oracle_i):
    """Non-edges answer -1 (squares) / NaN (clustering), never raise."""
    values = service.answer("edge_squares", [0, 0], [0, 0])
    assert values.tolist() == [INVALID_SQUARES, INVALID_SQUARES]
    assert np.isnan(service.answer("clustering", [0], [0])).all()
    assert service.stats()["invalid"] >= 3


def test_cache_hits_and_eviction(oracle_i):
    svc = OracleService(oracle_i, max_queue=64, cache_bytes=budget(2, queries=2))
    first = svc.answer("degree", [0, 1])
    again = svc.answer("degree", [0, 1])
    assert np.array_equal(first, again)
    stats = svc.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["batches"] == 1
    # Two fresh keys overrun the budget and evict the oldest; a third
    # look-up misses again.
    svc.answer("degree", [2])
    svc.answer("degree", [3])
    svc.answer("degree", [0, 1])
    stats = svc.stats()
    assert stats["hits"] == 1
    assert stats["cache_entries"] == 2 and stats["evictions"] == 2
    assert stats["cache_bytes"] <= stats["cache_budget_bytes"] == budget(2, queries=2)


def test_cache_disabled(oracle_i):
    svc = OracleService(oracle_i, max_queue=64, cache_bytes=0)
    svc.answer("degree", [0])
    svc.answer("degree", [0])
    stats = svc.stats()
    assert stats["hits"] == 0 and stats["misses"] == stats["batches"] == 2


def test_equal_values_share_one_cache_entry_across_layouts(oracle_i):
    """The key is the validated int64 buffer's bytes, not the caller's object."""
    values = [3, 1, 4, 1, 5, 9, 2, 6]
    strided = np.zeros(2 * len(values), dtype=np.int64)
    strided[::2] = values
    readonly = np.frombuffer(np.asarray(values, dtype=np.int64).tobytes(), dtype=np.int64)
    assert not readonly.flags.writeable
    layouts = [
        values,
        np.asarray(values, dtype=np.int64),
        np.asarray(values, dtype=">i8"),
        strided[::2],
        readonly,
    ]
    svc = OracleService(oracle_i, cache_bytes=budget(8, queries=len(values)))
    arr = np.asarray(values)
    expected_deg = oracle_i.degrees(arr)
    expected_sq = oracle_i.squares_at_edges(arr, arr[::-1], on_invalid="mask")
    for ps in layouts:
        assert np.array_equal(svc.answer("degree", ps), expected_deg)
        assert np.array_equal(svc.answer("edge_squares", ps, ps[::-1]), expected_sq)
    stats = svc.stats()
    assert stats["cache_entries"] == 2
    assert stats["misses"] == 2 and stats["hits"] == 2 * len(layouts) - 2


def test_kinds_with_identical_indices_never_share_an_entry(oracle_i, edges_i):
    ep, eq = edges_i
    svc = OracleService(oracle_i, cache_bytes=budget(16, queries=ep.size))
    assert np.array_equal(svc.answer("degree", ep), oracle_i.degrees(ep))
    assert np.array_equal(svc.answer("vertex_squares", ep), oracle_i.squares_at_vertices(ep))
    assert np.array_equal(svc.answer("edge_squares", ep, eq), oracle_i.squares_at_edges(ep, eq))
    assert np.array_equal(svc.answer("wings", ep, eq), oracle_i.wings_at_edges(ep, eq))
    assert np.array_equal(
        svc.answer("clustering", ep, eq), oracle_i.clustering_at_edges(ep, eq), equal_nan=True
    )
    stats = svc.stats()
    assert stats["cache_entries"] == 5 and stats["hits"] == 0


def test_cache_bytes_tracks_answers_not_requests(oracle_i):
    """A cached 4,096-pair answer is charged its 32 KiB, its 64 KiB of
    key bytes and the fixed overhead."""
    n_entries, pairs = 4, 4096
    rng = np.random.default_rng(7)
    svc = OracleService(oracle_i, cache_bytes=budget(n_entries, queries=pairs, pairs=True))
    for _ in range(n_entries):
        ps, qs = rng.integers(0, oracle_i.n, size=(2, pairs))
        svc.answer("edge_squares", ps, qs)
    full = svc.stats()
    assert full["cache_entries"] == n_entries
    assert n_entries * 24 * pairs < full["cache_bytes"]
    assert full["cache_bytes"] <= budget(n_entries, queries=pairs, pairs=True)
    # A small answer evicts a large one (answer and key bytes): the tally
    # drops without a rescan.
    svc.answer("degree", [0, 1])
    after = svc.stats()
    assert after["cache_entries"] == n_entries
    assert after["cache_bytes"] < full["cache_bytes"] - 24 * pairs + 256
    assert after["cache_bytes"] == sum(
        v.nbytes + len(k[2]) + ENTRY_OVERHEAD for k, v in svc._cache.items()
    )


def test_coalesced_answers_are_cached_as_owned_copies(oracle_i):
    """Every kind's cached answer owns its buffer, also when the kernel
    coalesces it from ``_BATCH_CHUNK``-sized passes: a cached view would
    pin a larger array, and ``cache_bytes`` would undercount what is
    held."""
    rng = np.random.default_rng(5)
    sizes = (1, _BATCH_CHUNK + 1)
    svc = OracleService(oracle_i, cache_bytes=budget(10, queries=sizes[-1]))
    for size in sizes:
        ps, qs = rng.integers(0, oracle_i.n, size=(2, size))
        for kind in KINDS:
            if kind == "global":
                continue
            args = query_args(kind, ps, qs)
            got = svc.answer(kind, *args)
            assert got.base is None, (kind, size)
            assert svc.answer(kind, *args) is got
    stats = svc.stats()
    assert stats["cache_entries"] == stats["batches"] == stats["hits"] == 10
    assert stats["cache_bytes"] == sum(
        v.nbytes + len(k[2]) + ENTRY_OVERHEAD for k, v in svc._cache.items()
    )


def test_cache_off_builds_no_key(oracle_i, edges_i, monkeypatch):
    from repro.serve import service as service_module

    def refuse(*_args):
        raise AssertionError("a cache key was built with the cache off")

    monkeypatch.setattr(service_module, "_cache_key", refuse)
    ep, eq = edges_i
    svc = OracleService(oracle_i, cache_bytes=0)
    assert np.array_equal(svc.answer("edge_squares", ep, eq), oracle_i.squares_at_edges(ep, eq))
    assert svc.answer("global") == oracle_i.global_squares()
    stats = svc.stats()
    assert (stats["cache_bytes"], stats["cache_entries"], stats["oversize"]) == (0, 0, 0)


#: Index layouts a caller may send for the same values.
_LAYOUTS = ("list", "big-endian", "strided")


def _in_layout(values: list, layout: str):
    if layout == "list":
        return list(values)
    if layout == "big-endian":
        return np.asarray(values, dtype=">i8")
    strided = np.zeros(2 * len(values), dtype=np.int64)
    strided[::2] = values
    return strided[::2]


@st.composite
def _requests(draw, n: int):
    """A few distinct ``(kind, ps, qs)`` requests, then a sequence that
    replays them, each time in a drawn layout."""
    index = st.integers(0, n - 1)
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from([k for k in KINDS if k != "global"]))
        length = draw(st.integers(1, 8))
        ps = draw(st.lists(index, min_size=length, max_size=length))
        qs = draw(st.lists(index, min_size=length, max_size=length)) if kind in PAIR_KINDS else None
        pool.append((kind, ps, qs))
    replay = st.tuples(
        st.integers(0, len(pool) - 1), st.sampled_from(_LAYOUTS), st.sampled_from(_LAYOUTS)
    )
    return [
        (*pool[k], ps_layout, qs_layout)
        for k, ps_layout, qs_layout in draw(st.lists(replay, min_size=1, max_size=12))
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cached_answers_equal_uncached_answers(oracle_i, data):
    """Every answer, from the cache or not, equals a cache-off service's;
    equal values in any layout share one entry, and nothing else does."""
    requests = data.draw(_requests(oracle_i.n))
    svc = OracleService(oracle_i, cache_bytes=budget(len(requests), queries=8, pairs=True))
    uncached = OracleService(oracle_i, cache_bytes=0)
    for kind, ps, qs, ps_layout, qs_layout in requests:
        args = [_in_layout(ps, ps_layout)]
        if qs is not None:
            args.append(_in_layout(qs, qs_layout))
        np.testing.assert_array_equal(svc.answer(kind, *args), uncached.answer(kind, ps, qs))
    distinct = {(kind, tuple(ps), tuple(qs or ())) for kind, ps, qs, _, _ in requests}
    stats = svc.stats()
    assert stats["cache_entries"] == len(distinct) and stats["evictions"] == 0
    assert stats["hits"] == len(requests) - len(distinct)


@pytest.fixture(scope="module")
def wide_oracle():
    """A product with thousands of vertices, so single-vertex requests
    can be distinct well past any test budget."""
    from repro.generators import complete_bipartite, cycle_graph
    from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product

    bk = make_bipartite_product(
        cycle_graph(455), complete_bipartite(2, 3), Assumption.NON_BIPARTITE_FACTOR
    )
    return GroundTruthOracle(bk)


@pytest.mark.parametrize(
    "queries, kind, kib",
    [
        pytest.param(1, "degree", 256, id="1"),
        pytest.param(1, "degree", 64, id="1-64KiB"),
        pytest.param(1, "degree", 128, id="1-128KiB"),
        pytest.param(16, "degree", 256, id="16"),
        pytest.param(4096, "degree", 256, id="4096"),
        pytest.param(4096, "edge_squares", 256, id="4096-pairs"),
    ],
)
def test_traced_cache_memory_stays_within_budget(wide_oracle, queries, kind, kib):
    """Filled three times over with distinct answers, the cache holds no
    more traced memory than its budget allows (+10% for hash-table
    slack), and its charged bytes never exceed the budget.  A 4,096-pair
    entry holds ~98.7 KB: its answer and both index lists' bytes.  The
    64, 128 and 256 KiB budgets of 1-query answers each filled the
    ``OrderedDict`` just past a table resize at the 360 B charge, where
    the traced overhead per entry peaks."""
    import gc
    import tracemalloc

    limit = kib * 1024
    rng = np.random.default_rng(queries)
    n = wide_oracle.n
    pairs = kind in PAIR_KINDS
    distinct = 3 * limit // charge(queries, pairs)
    if queries == 1:
        requests = [[p] for p in rng.permutation(n)[:distinct]]
        assert len(requests) == distinct
    else:
        requests = [rng.integers(0, n, size=queries) for _ in range(distinct)]
    svc = OracleService(wide_oracle, cache_bytes=limit)
    ps = np.asarray(requests[0])
    # First-call allocations, outside the trace.
    OracleService(wide_oracle, cache_bytes=0).answer(kind, *query_args(kind, ps, ps))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for ps in requests:
            # A fresh array per request, as a server decodes one.
            svc.answer(kind, *query_args(kind, np.array(ps), np.array(ps[::-1])))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    stats = svc.stats()
    assert stats["evictions"] > 0 and stats["oversize"] == 0
    assert stats["cache_bytes"] <= stats["cache_budget_bytes"] == limit
    assert held <= 1.1 * limit, (held, stats)


def test_oversize_answer_is_correct_and_not_cached(wide_oracle):
    """An answer charged more than the whole budget is returned but never
    cached, and it evicts nothing on the way."""
    svc = OracleService(wide_oracle, cache_bytes=budget(4, queries=16))
    small = svc.answer("degree", np.arange(16))
    ps = np.random.default_rng(3).integers(0, wide_oracle.n, size=4096)
    for _ in range(2):
        assert np.array_equal(svc.answer("degree", ps), wide_oracle.degrees(ps))
    stats = svc.stats()
    assert (stats["oversize"], stats["hits"], stats["evictions"]) == (2, 0, 0)
    assert stats["cache_entries"] == 1
    assert stats["cache_bytes"] == budget(1, queries=16)
    assert svc.answer("degree", np.arange(16)) is small


def test_negative_cache_budget_is_rejected(oracle_i):
    with pytest.raises(ValueError, match="cache_bytes must be >= 0, got -1"):
        OracleService(oracle_i, cache_bytes=-1)


def test_cache_counters_and_eviction_event(oracle_i, tmp_path):
    """Evictions and oversize answers are counted in ``stats()`` and as
    ``serve.cache_*_total`` counters; each eviction event carries the
    cache's charged bytes and its budget."""
    from repro.obs import events_to, instrument, read_events

    log = tmp_path / "events.jsonl"
    limit = budget(2)
    with instrument() as (_, metrics), events_to(str(log)):
        svc = OracleService(oracle_i, cache_bytes=limit)
        for p in range(4):
            svc.answer("degree", [p])
        svc.answer("degree", np.zeros(64, dtype=np.int64))  # charged past the budget
        counters = metrics.snapshot()["counters"]
    stats = svc.stats()
    assert (stats["evictions"], stats["oversize"], stats["cache_entries"]) == (2, 1, 2)
    assert stats["cache_budget_bytes"] == limit
    assert counters["serve.cache_evictions_total"] == 2
    assert counters["serve.cache_oversize_total"] == 1
    evicted = [e for e in read_events(log) if e["kind"] == "serve.cache_evicted"]
    assert [(e["entries"], e["cache_bytes"], e["budget"]) for e in evicted] == [
        (1, limit, limit), (1, limit, limit)
    ]


def test_max_queue_zero_sheds_everything(oracle_i):
    svc = OracleService(oracle_i, max_queue=0, cache_bytes=0)
    with pytest.raises(Overloaded, match="max_queue=0"):
        svc.answer("degree", [0])
    with pytest.raises(Overloaded):
        svc.answer("global")
    stats = svc.stats()
    assert (stats["shed"], stats["batches"], stats["queue_depth"]) == (2, 0, 0)


def test_answer_sheds_past_max_queue_calls_in_progress(oracle_i):
    """``answer()`` caps calls in progress: with one kernel call blocked
    and ``max_queue=1``, a second miss sheds, a cache hit still answers,
    and the cap frees once the call returns.  ``batches`` counts the
    two engine calls made, not the shed one."""
    entered, release = threading.Event(), threading.Event()

    class Blocking:
        n = oracle_i.n

        def degrees(self, ps):
            entered.set()
            release.wait(5.0)
            return oracle_i.degrees(ps)

        def squares_at_vertices(self, ps):
            return oracle_i.squares_at_vertices(ps)

    svc = OracleService(Blocking(), max_queue=1, cache_bytes=budget(8))
    hot = svc.answer("vertex_squares", [0])
    blocked = threading.Thread(target=svc.answer, args=("degree", [1]))
    blocked.start()
    try:
        assert entered.wait(5.0)
        assert svc.stats()["queue_depth"] == 1
        with pytest.raises(Overloaded, match="queue depth 1 at max_queue=1"):
            svc.answer("vertex_squares", [2])
        assert np.array_equal(svc.answer("vertex_squares", [0]), hot)
    finally:
        release.set()
        blocked.join(5.0)
    stats = svc.stats()
    assert (stats["shed"], stats["queue_depth"], stats["batches"]) == (1, 0, 2)
    assert svc.answer("vertex_squares", [2]).tolist() == [oracle_i.squares_at_vertex(2)]


def test_inflight_cap_survives_thread_contention(oracle_i):
    """Many threads racing through ``answer()`` past a small cap: every
    call is answered or shed, and the in-flight tally returns to zero (a
    lost update would leave it stuck and shed everything after)."""
    import sys

    svc = OracleService(oracle_i, max_queue=2, cache_bytes=0)
    n_threads, calls = 8, 50
    outcomes: list[str] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(calls):
            ps = rng.integers(0, oracle_i.n, size=4)
            try:
                got = svc.answer("vertex_squares", ps)
            except Overloaded:
                outcomes.append("shed")
            else:
                ok = np.array_equal(got, oracle_i.squares_at_vertices(ps))
                outcomes.append("ok" if ok else "wrong")

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(n_threads)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(outcomes) == n_threads * calls and "wrong" not in outcomes
    assert svc.queue_depth() == 0
    assert svc.answer("degree", [0]).tolist() == [oracle_i.degree(0)]


@pytest.mark.parametrize(
    "kind,ps,qs,err",
    [
        ("degree", None, None, "need a ps"),
        ("nonsense", [0], None, "unknown query kind"),
        ("degree", [[0, 1]], None, "flat index list"),
        ("degree", [0.5], None, "must contain integers"),
        ("degree", ["x"], None, "must contain integers"),
        ("degree", [True], None, "must contain integers"),
        ("edge_squares", [0], None, "both ps and qs"),
        ("edge_squares", [0, 1], [0], "match in length"),
        ("degree", [0], [0], "only ps"),
        ("clustering", [0], None, "both ps and qs"),
    ],
)
def test_malformed_submissions_raise_synchronously(service, kind, ps, qs, err):
    with pytest.raises(ValueError, match=err):
        service.answer(kind, ps, qs)


def test_out_of_range_raises_index_error(service, oracle_i):
    with pytest.raises(IndexError, match="out of range"):
        service.answer("degree", [oracle_i.n])
    with pytest.raises(IndexError, match="out of range"):
        service.answer("vertex_squares", [-1])


def test_parallel_load_bit_identity(oracle_i, edges_i):
    """Many threads hammering the service get exactly the oracle's answers."""
    ep, eq = edges_i
    expected_sq = oracle_i.squares_at_edges(ep, eq)
    expected_deg = oracle_i.degrees(np.arange(oracle_i.n))
    errors: list[str] = []

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(20):
            idx = rng.integers(0, ep.size, size=5)
            got = svc.answer("edge_squares", ep[idx], eq[idx])
            if not np.array_equal(got, expected_sq[idx]):
                errors.append(f"squares mismatch for idx {idx}")
            vs = rng.integers(0, oracle_i.n, size=4)
            if not np.array_equal(svc.answer("degree", vs), expected_deg[vs]):
                errors.append(f"degree mismatch for {vs}")

    svc = OracleService(oracle_i, max_queue=512, cache_bytes=budget(64, queries=5))
    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[:3]


@pytest.mark.parametrize("kind", KINDS)
def test_submit_start_stop_keep_the_harness_contract(oracle_i, edges_i, kind):
    """``benchmarks/e2e/layers.replay_submit`` calls ``start()``,
    ``submit(...).wait(30.0)`` and ``stop()``, and the traced pass reads
    ``batches`` and ``misses`` from ``stats()``."""
    ep, eq = edges_i
    args = query_args(kind, ep, eq)
    svc = OracleService(oracle_i)
    assert svc.start() is svc
    got = svc.submit(kind, *args).wait(30.0)
    assert np.array_equal(got, svc.answer(kind, *args), equal_nan=True)
    with pytest.raises(ValueError, match="unknown query kind"):
        svc.submit(kind.upper(), *args)
    assert svc.stop() is None
    stats = svc.stats()
    assert (stats["batches"], stats["misses"], stats["hits"]) == (1, 1, 1)
