"""Tests for the process-parallel shard generation layer.

Everything parallel must be bit-identical to its serial counterpart;
shard layouts must be deterministic; worker exceptions must propagate.
"""

import numpy as np
import pytest

from repro.analytics import edge_squares_matrix
from repro.generators import complete_bipartite, cycle_graph, path_graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.parallel import (
    generate_chain_shards,
    load_manifest,
    plan_partition,
    shard_of_rows,
)
from repro.parallel.generate import load_shards


def flat_columns(blocks, width):
    """A streamed row range's blocks concatenated into flat columns."""
    blocks = list(blocks)
    return tuple(
        np.concatenate([b[k] for b in blocks] or [np.zeros(0, dtype=np.int64)])
        for k in range(width)
    )


@pytest.fixture
def bk():
    return make_bipartite_product(
        cycle_graph(5), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
    )


@pytest.fixture
def bk_ii():
    return make_bipartite_product(
        complete_bipartite(2, 2).graph, path_graph(5), Assumption.SELF_LOOPS_FACTOR
    )


class TestPartition:
    def test_shards_reassemble_to_product(self, bk):
        C = bk.materialize()
        coo = C.adj.tocoo()
        expected = set(zip(coo.row.tolist(), coo.col.tolist()))
        chain = bk.chain
        seen = []
        for start, stop in plan_partition(chain, 3).bounds:
            p, q = flat_columns(shard_of_rows(chain, start, stop), 2)
            seen.extend(zip(p.tolist(), q.tolist()))
        assert len(seen) == len(expected)  # no duplicates
        assert set(seen) == expected

    @pytest.mark.parametrize("fixture", ["bk", "bk_ii"])
    def test_shard_ground_truth(self, fixture, request):
        bk = request.getfixturevalue(fixture)
        dia_ref = edge_squares_matrix(bk.materialize())
        chain = bk.chain
        for start, stop in plan_partition(chain, 2).bounds:
            p, q, dia = flat_columns(
                shard_of_rows(chain, start, stop, attach_ground_truth=True), 3
            )
            for pp, qq, dd in zip(p.tolist(), q.tolist(), dia.tolist()):
                assert dia_ref[pp, qq] == dd


class TestGenerateShards:
    def test_roundtrip_parallel(self, bk, tmp_path):
        paths = generate_chain_shards(
            bk.chain, tmp_path, n_shards=3, n_workers=2
        )
        data = load_shards(paths)
        C = bk.materialize()
        coo = C.adj.tocoo()
        got = set(zip(data["p"].tolist(), data["q"].tolist()))
        assert got == set(zip(coo.row.tolist(), coo.col.tolist()))

    def test_serial_parallel_identical(self, bk, tmp_path):
        chain = bk.chain
        serial = generate_chain_shards(chain, tmp_path / "s", n_shards=3, n_workers=1)
        parallel = generate_chain_shards(chain, tmp_path / "p", n_shards=3, n_workers=3)
        for a, b in zip(serial, parallel):
            assert a.read_bytes() == b.read_bytes()

    def test_ground_truth_shards(self, bk_ii, tmp_path):
        paths = generate_chain_shards(
            bk_ii.chain,
            tmp_path,
            n_shards=2,
            n_workers=2,
            ground_truth=True,
        )
        data = load_shards(paths)
        dia_ref = edge_squares_matrix(bk_ii.materialize())
        for p, q, d in zip(data["p"].tolist(), data["q"].tolist(), data["squares"].tolist()):
            assert dia_ref[p, q] == d

    def test_roundtrip_with_manifest_verification(self, bk, tmp_path):
        """load_shards can verify content checksums against the manifest
        written during generation (the fault-tolerance layer's default)."""
        paths = generate_chain_shards(
            bk.chain, tmp_path, n_shards=3, n_workers=2
        )
        data = load_shards(paths, manifest=tmp_path)
        C = bk.materialize()
        coo = C.adj.tocoo()
        got = set(zip(data["p"].tolist(), data["q"].tolist()))
        assert got == set(zip(coo.row.tolist(), coo.col.tolist()))

    @staticmethod
    def _entries_written(bk, tmp_path, n_workers):
        generate_chain_shards(
            bk.chain, tmp_path, n_shards=4, n_workers=n_workers
        )
        return sum(e.entries for e in load_manifest(tmp_path).shards.values())

    def test_edge_count_matches_closed_form(self, bk, tmp_path):
        assert self._entries_written(bk, tmp_path, 2) == bk.M.nnz * bk.B.graph.nnz

    def test_edge_count_serial_path(self, bk, tmp_path):
        assert self._entries_written(bk, tmp_path, 1) == bk.M.nnz * bk.B.graph.nnz
