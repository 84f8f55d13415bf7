"""OracleService: coalescing, cache, backpressure, failure paths."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import INVALID_SQUARES, OracleService, Overloaded
from tests.serve.conftest import product_edges


@pytest.fixture
def service(oracle_i):
    with OracleService(oracle_i, max_queue=64, cache_size=32) as svc:
        yield svc


def test_batched_answers_match_oracle(service, oracle_i, edges_i):
    ps = np.arange(oracle_i.bk.n, dtype=np.int64)
    assert np.array_equal(service.degrees(ps), oracle_i.degrees(ps))
    assert np.array_equal(
        service.squares_at_vertices(ps), oracle_i.squares_at_vertices(ps)
    )
    ep, eq = edges_i
    assert np.array_equal(
        service.squares_at_edges(ep, eq), oracle_i.squares_at_edges(ep, eq)
    )
    assert service.global_squares() == oracle_i.global_squares()


def test_clustering_matches_scalar_oracle(service, oracle_i, edges_i):
    ep, eq = edges_i
    served = service.clustering_at_edges(ep, eq)
    for idx, (p, q) in enumerate(zip(ep.tolist(), eq.tolist())):
        if oracle_i.degree(p) >= 2 and oracle_i.degree(q) >= 2:
            assert served[idx] == oracle_i.clustering_at_edge(p, q)
        else:
            assert np.isnan(served[idx])


def test_mask_semantics_for_non_edges(service, oracle_i):
    """Non-edges answer -1 (squares) / NaN (clustering), never raise."""
    values = service.squares_at_edges([0, 0], [0, 0])
    assert values.tolist() == [INVALID_SQUARES, INVALID_SQUARES]
    assert np.isnan(service.clustering_at_edges([0], [0])).all()
    assert service.stats()["invalid"] >= 3


def test_concurrent_requests_coalesce(oracle_i, edges_i):
    """Requests queued before workers start are answered in one batch."""
    svc = OracleService(oracle_i, max_queue=64, cache_size=0)
    ep, eq = edges_i
    handles = [svc.submit("vertex_squares", [int(p)]) for p in range(6)]
    handles += [svc.submit("edge_squares", ep[:3], eq[:3])]
    assert svc.queue_depth() == 7
    svc.start()
    try:
        for p, handle in enumerate(handles[:6]):
            assert handle.wait(5.0).tolist() == [oracle_i.squares_at_vertex(p)]
        assert np.array_equal(
            handles[6].wait(5.0), oracle_i.squares_at_edges(ep[:3], eq[:3])
        )
        stats = svc.stats()
        assert stats["batches"] == 1, "queued requests must ride one kernel pass"
        assert stats["requests"] == 7
    finally:
        svc.stop()


def test_cache_hits_and_eviction(oracle_i):
    with OracleService(oracle_i, max_queue=64, cache_size=2) as svc:
        first = svc.degrees([0, 1])
        again = svc.degrees([0, 1])
        assert np.array_equal(first, again)
        stats = svc.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # Two fresh keys evict the oldest; a third look-up misses again.
        svc.degrees([2])
        svc.degrees([3])
        svc.degrees([0, 1])
        assert svc.stats()["hits"] == 1
        assert svc.stats()["cache_entries"] == 2


def test_cache_disabled(oracle_i):
    with OracleService(oracle_i, max_queue=64, cache_size=0) as svc:
        svc.degrees([0])
        svc.degrees([0])
        stats = svc.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2


def test_equal_values_share_one_cache_entry_across_layouts(oracle_i):
    """The key hashes the validated int64 buffer, not the caller's object."""
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
    svc = OracleService(oracle_i, cache_size=8)
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
    svc = OracleService(oracle_i, cache_size=16)
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
    """A cached 4,096-pair answer costs its 32 KiB plus a digest."""
    n_entries, pairs = 4, 4096
    rng = np.random.default_rng(7)
    svc = OracleService(oracle_i, cache_size=n_entries)
    for _ in range(n_entries):
        ps, qs = rng.integers(0, oracle_i.bk.n, size=(2, pairs))
        svc.answer("edge_squares", ps, qs)
    full = svc.stats()
    assert full["cache_entries"] == n_entries
    assert n_entries * 8 * pairs < full["cache_bytes"] <= n_entries * (32 * 1024 + 256)
    # A small answer evicts a large one: the tally drops without a rescan.
    svc.answer("degree", [0, 1])
    after = svc.stats()
    assert after["cache_entries"] == n_entries
    assert after["cache_bytes"] < full["cache_bytes"] - 8 * pairs + 256
    assert after["cache_bytes"] == sum(v.nbytes + len(k[2]) for k, v in svc._cache.items())


def test_coalesced_answers_are_cached_as_owned_copies(oracle_i):
    """A split batch must not leave each cached slice pinning the whole
    batch array, or ``cache_bytes`` would undercount what is held."""
    svc = OracleService(oracle_i, max_queue=8, cache_size=8)
    handles = [svc.submit("vertex_squares", [p, p + 1]) for p in range(3)]
    with svc:
        results = [handle.wait(5.0) for handle in handles]
    for p, result in enumerate(results):
        assert result.base is None
        assert np.array_equal(result, oracle_i.squares_at_vertices(np.array([p, p + 1])))
    assert svc.stats()["batches"] == 1
    assert svc.stats()["cache_bytes"] == 3 * (2 * 8 + 32)


def test_cache_off_hashes_nothing(oracle_i, edges_i, monkeypatch):
    from repro.serve import service as service_module

    def refuse(*_args):
        raise AssertionError("a cache key was hashed with the cache off")

    monkeypatch.setattr(service_module, "sha256", refuse)
    ep, eq = edges_i
    svc = OracleService(oracle_i, cache_size=0)
    assert np.array_equal(svc.answer("edge_squares", ep, eq), oracle_i.squares_at_edges(ep, eq))
    assert svc.answer("global") == oracle_i.global_squares()
    with svc:
        assert np.array_equal(svc.degrees(ep), oracle_i.degrees(ep))
    assert svc.stats()["cache_bytes"] == 0


def test_saturated_queue_sheds_with_counter(oracle_i):
    """Past max_queue depth, submissions shed with Overloaded + counter."""
    svc = OracleService(oracle_i, max_queue=2, cache_size=0)  # never started
    svc.submit("degree", [0])
    svc.submit("degree", [1])
    with pytest.raises(Overloaded, match="max_queue=2"):
        svc.submit("degree", [2])
    assert svc.stats()["shed"] == 1
    with pytest.raises(Overloaded):
        svc.submit("global")
    assert svc.stats()["shed"] == 2
    assert svc.queue_depth() == 2


def test_max_queue_zero_sheds_everything(oracle_i):
    svc = OracleService(oracle_i, max_queue=0, cache_size=0)
    with pytest.raises(Overloaded):
        svc.submit("degree", [0])
    assert svc.stats()["shed"] == 1


def test_stop_fails_pending_requests(oracle_i):
    svc = OracleService(oracle_i, max_queue=8, cache_size=0)
    handle = svc.submit("degree", [0])
    svc.start()
    svc.stop()
    # Either the worker answered it before stopping or it was drained
    # with Overloaded -- never a hang.
    try:
        handle.wait(5.0)
    except Overloaded:
        pass
    with pytest.raises(Overloaded, match="stopped"):
        svc.submit("degree", [0])


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
        service.submit(kind, ps, qs)


def test_out_of_range_raises_index_error(service, oracle_i):
    with pytest.raises(IndexError, match="out of range"):
        service.submit("degree", [oracle_i.bk.n])
    with pytest.raises(IndexError, match="out of range"):
        service.submit("vertex_squares", [-1])


def test_parallel_load_bit_identity(oracle_i, edges_i):
    """Many threads hammering the service get exactly the oracle's answers."""
    ep, eq = edges_i
    expected_sq = oracle_i.squares_at_edges(ep, eq)
    expected_deg = oracle_i.degrees(np.arange(oracle_i.bk.n))
    errors: list[str] = []

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(20):
            idx = rng.integers(0, ep.size, size=5)
            got = svc.squares_at_edges(ep[idx], eq[idx])
            if not np.array_equal(got, expected_sq[idx]):
                errors.append(f"squares mismatch for idx {idx}")
            vs = rng.integers(0, oracle_i.bk.n, size=4)
            if not np.array_equal(svc.degrees(vs), expected_deg[vs]):
                errors.append(f"degree mismatch for {vs}")

    with OracleService(oracle_i, max_queue=512, cache_size=64, workers=2) as svc:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors, errors[:3]
