"""Streamed shard writes: one block in memory, checksums unchanged.

A generation worker hands its row range to the ``repro.edges/1`` writer
block by block (``shard_of_rows`` streams, ``write_edges_file`` writes
each block as it arrives) and the content checksum is computed after the
last block by re-reading the file.  These tests pin the three promises
that makes: memory stays a few blocks however large the shard, the
checksum is the same one ``checksum_arrays`` gives the whole columns,
and a stream that dies mid-write leaves only its ``.part`` file.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.parallel.generate as generate_module
from repro.generators import complete_bipartite, cycle_graph, path_graph
from repro.kronecker.multifactor import KroneckerChain
from repro.parallel import (
    RetryBudgetExceeded,
    RetryPolicy,
    generate_chain_shards,
    load_manifest,
    verify_shards,
)
from repro.parallel.edgeio import (
    DEFAULT_BLOCK_ENTRIES,
    EdgeFormatError,
    file_content_checksum,
    read_edges_file,
    write_edges_file,
)
from repro.parallel.generate import _write_row_shard
from repro.parallel.manifest import checksum_arrays, shard_file_checksum

B = DEFAULT_BLOCK_ENTRIES
CODECS = ["raw", "deflate"]
#: Bytes of one ground-truth block: p, q and squares, int64 each.
BLOCK_BYTES = 3 * 8 * B


def small_chain() -> KroneckerChain:
    return KroneckerChain.from_graphs(
        [cycle_graph(5), complete_bipartite(2, 3).graph, path_graph(4)]
    )


def columns(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(n)
    return {
        "p": rng.integers(0, 1 << 40, n),
        "q": rng.integers(0, 1 << 40, n),
        "squares": rng.integers(0, 1 << 30, n),
    }


def blocks_of(arrays: dict[str, np.ndarray], step: int):
    """``arrays`` as a stream of column blocks of ``step`` entries."""
    n = arrays["p"].size
    yield {name: a[:0] for name, a in arrays.items()}
    for s0 in range(0, n, step):
        yield {name: a[s0 : s0 + step] for name, a in arrays.items()}


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shard_write_memory_is_a_few_blocks(tmp_path):
    """A serial ground-truth shard of 16 blocks is written, verified and
    re-checksummed holding a few blocks, never the shard."""
    chain = KroneckerChain.from_graphs([complete_bipartite(4, 4).graph] * 4)
    shard_bytes = 3 * 8 * chain.nnz
    out = tmp_path / "shards"
    write_peak = traced_peak(
        lambda: generate_chain_shards(chain, out, n_shards=1, n_workers=1, ground_truth=True)
    )
    assert write_peak < shard_bytes / 2, f"writer peak {write_peak:,} B, shard {shard_bytes:,} B"
    assert write_peak < 6 * BLOCK_BYTES, f"writer peak {write_peak:,} B"
    verify_peak = traced_peak(lambda: verify_shards(out))
    assert verify_peak < 2 * BLOCK_BYTES, f"verify peak {verify_peak:,} B"
    # Reading back holds the shard once, plus at most one block.
    path = out / "shard_0000.edges"
    read_peak = traced_peak(lambda: read_edges_file(path))
    assert read_peak < shard_bytes + BLOCK_BYTES, f"read peak {read_peak:,} B"
    assert chain.nnz >= 16 * B


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1])
def test_streamed_checksum_is_the_array_checksum(tmp_path, codec, n):
    arrays = columns(n)
    path = tmp_path / "x.edges"
    checksum = write_edges_file(path, blocks_of(arrays, B // 3 + 7), codec=codec)
    assert checksum == checksum_arrays(arrays)
    assert file_content_checksum(path) == checksum == shard_file_checksum(path)
    back = read_edges_file(path)
    for name, a in arrays.items():
        np.testing.assert_array_equal(back[name], a)
    # The mapping form writes the same content.
    assert write_edges_file(tmp_path / "m.edges", arrays, codec=codec) == checksum


def test_empty_row_range_writes_a_valid_file(tmp_path):
    path = tmp_path / "empty.edges"
    entries, nbytes, checksum, _ = _write_row_shard(small_chain(), 0, 7, 7, str(path), True)
    assert entries == 0 and nbytes == path.stat().st_size
    back = read_edges_file(path)
    assert sorted(back) == ["p", "q", "squares"] and all(a.size == 0 for a in back.values())
    assert checksum == checksum_arrays(back) == shard_file_checksum(path)


def test_pinned_chain_shard_checksum(tmp_path):
    """A 3-factor ground-truth shard hashes as it did when each worker
    still concatenated its whole range before writing."""
    generate_chain_shards(small_chain(), tmp_path, n_shards=2, n_workers=1, ground_truth=True)
    entry = load_manifest(tmp_path).shards[0]
    assert (entry.start, entry.stop, entry.entries) == (0, 48, 360)
    assert entry.checksum == (
        "sha256:617fc44ffb22b921872c9a87eccad2989b92da42153b318b4a1bc901706d8adf"
    )


def test_block_stream_failure_mid_write(tmp_path, monkeypatch):
    """A stream that raises after its first block leaves only the
    ``.part`` file: no final shard, no manifest entry.  A resume then
    writes the shard with the clean run's checksum."""
    chain = small_chain()
    clean = tmp_path / "clean"
    generate_chain_shards(chain, clean, n_shards=2, n_workers=1, ground_truth=True)
    real = generate_module.shard_of_rows

    def dies_mid_write(chain, start, stop, attach_ground_truth=False):
        stream = real(chain, start, stop, attach_ground_truth, block_entries=64)
        yield next(stream)
        if start == 0:
            raise RuntimeError("stream died mid-write")
        yield from stream

    out = tmp_path / "torn"
    monkeypatch.setattr(generate_module, "shard_of_rows", dies_mid_write)
    with pytest.raises(RetryBudgetExceeded):
        generate_chain_shards(
            chain, out, n_shards=2, n_workers=1, ground_truth=True,
            retry=RetryPolicy(max_retries=0),
        )
    part = out / "shard_0000.edges.part"
    assert part.exists() and not (out / "shard_0000.edges").exists()
    with pytest.raises(EdgeFormatError):
        read_edges_file(part)
    assert sorted(load_manifest(out).shards) == [1]
    monkeypatch.setattr(generate_module, "shard_of_rows", real)
    generate_chain_shards(chain, out, n_shards=2, n_workers=1, ground_truth=True, resume=True)
    resumed, reference = load_manifest(out), load_manifest(clean)
    assert [e.checksum for _, e in sorted(resumed.shards.items())] == [
        e.checksum for _, e in sorted(reference.shards.items())
    ]
