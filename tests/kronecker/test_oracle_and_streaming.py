"""Tests for the ground-truth oracle and the streaming generator."""

import numpy as np
import pytest

from repro.analytics import edge_squares_matrix, vertex_squares_matrix
from repro.generators import complete_bipartite, cycle_graph, path_graph, star_graph
from repro.graphs import Graph
from repro.kronecker import (
    Assumption,
    GroundTruthOracle,
    make_bipartite_product,
    stream_edges,
    streamed_connectivity_audit,
)


@pytest.fixture(params=["i", "ii"])
def bk(request):
    if request.param == "i":
        return make_bipartite_product(
            cycle_graph(5), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
        )
    return make_bipartite_product(
        complete_bipartite(2, 2).graph, path_graph(5), Assumption.SELF_LOOPS_FACTOR
    )


class TestOracle:
    def test_degree_queries(self, bk):
        oracle = GroundTruthOracle(bk)
        C = bk.materialize()
        d = C.degrees()
        for p in range(C.n):
            assert oracle.degree(p) == d[p]

    def test_vertex_square_queries(self, bk):
        oracle = GroundTruthOracle(bk)
        s = vertex_squares_matrix(bk.materialize())
        for p in range(bk.n):
            assert oracle.squares_at_vertex(p) == s[p]

    def test_edge_square_queries(self, bk):
        oracle = GroundTruthOracle(bk)
        C = bk.materialize()
        dia = edge_squares_matrix(C)
        u, v = C.edge_arrays()
        for p, q in zip(u.tolist(), v.tolist()):
            assert oracle.squares_at_edge(p, q) == dia[p, q]
            assert oracle.squares_at_edge(q, p) == dia[p, q]  # symmetric

    def test_has_edge(self, bk):
        oracle = GroundTruthOracle(bk)
        C = bk.materialize()
        rng = np.random.default_rng(1)
        for _ in range(300):
            p, q = rng.integers(0, C.n, 2)
            assert oracle.has_edge(int(p), int(q)) == C.has_edge(int(p), int(q))

    def test_non_edge_rejected(self, bk):
        oracle = GroundTruthOracle(bk)
        C = bk.materialize()
        rng = np.random.default_rng(2)
        rejected = 0
        while rejected < 20:
            p, q = (int(x) for x in rng.integers(0, C.n, 2))
            if not C.has_edge(p, q):
                with pytest.raises(ValueError, match="not an edge"):
                    oracle.squares_at_edge(p, q)
                rejected += 1

    def test_global_squares(self, bk):
        from repro.analytics import global_squares

        oracle = GroundTruthOracle(bk)
        assert oracle.global_squares() == global_squares(bk.materialize())

    def test_clustering_queries(self, bk):
        oracle = GroundTruthOracle(bk)
        C = bk.materialize()
        dia = edge_squares_matrix(C)
        d = C.degrees()
        u, v = C.edge_arrays()
        for p, q in zip(u.tolist(), v.tolist()):
            if d[p] >= 2 and d[q] >= 2:
                expected = dia[p, q] / ((d[p] - 1) * (d[q] - 1))
                assert oracle.clustering_at_edge(p, q) == pytest.approx(expected)

    def test_clustering_rejects_degree_one(self):
        # Triangle with a pendant (degree-1) vertex x a single edge:
        # the pendant-leaf product vertex has degree 1 * 1 = 1.
        A = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        bk = make_bipartite_product(A, path_graph(2), Assumption.NON_BIPARTITE_FACTOR)
        oracle = GroundTruthOracle(bk)
        C = bk.materialize()
        u, v = C.edge_arrays()
        # find an edge with a degree-1 endpoint
        d = C.degrees()
        for p, q in zip(u.tolist(), v.tolist()):
            if d[p] < 2 or d[q] < 2:
                with pytest.raises(ValueError, match="degree"):
                    oracle.clustering_at_edge(p, q)
                break
        else:
            pytest.fail("no degree-1 product edge found")

    def test_vertex_out_of_range(self, bk):
        oracle = GroundTruthOracle(bk)
        with pytest.raises(IndexError):
            oracle.squares_at_vertex(bk.n)

    def test_edge_count_on_a_chain_of_looped_factors(self):
        """``m`` counts each product edge once, as ``Graph.m`` does, on a
        3-factor chain with loops in two factors; a product self loop
        needs loops in all three, and that chain is refused."""
        from repro.kronecker.multifactor import KroneckerChain

        looped = [path_graph(3).with_all_self_loops(), cycle_graph(3).with_all_self_loops()]
        chain = KroneckerChain.from_graphs([looped[0], star_graph(2), looped[1]])
        oracle = GroundTruthOracle(chain)
        C = Graph(chain.materialize())
        assert not C.has_self_loops
        assert oracle.m == C.m == chain.nnz // 2
        with pytest.raises(ValueError, match="self loops"):
            KroneckerChain.from_graphs([looped[0], star_graph(2).with_all_self_loops(), looped[1]])

    def test_memory_footprint_sublinear(self, unicode_product):
        oracle = GroundTruthOracle(unicode_product)
        # factor-sized storage must be far below |E_C|.
        assert oracle.memory_footprint_entries() < unicode_product.m / 100


class TestStreaming:
    def test_stream_covers_all_directed_entries(self, bk):
        C = bk.materialize()
        expected = set(zip(*C.adj.tocoo().coords)) if hasattr(C.adj.tocoo(), "coords") else None
        coo = C.adj.tocoo()
        expected = set(zip(coo.row.tolist(), coo.col.tolist()))
        seen = set()
        for p, q in stream_edges(bk.chain):
            seen.update(zip(p.tolist(), q.tolist()))
        assert seen == expected

    def test_stream_entry_count(self, bk):
        total = sum(p.size for p, q in stream_edges(bk.chain))
        assert total == bk.materialize().nnz

    def test_stream_with_ground_truth(self, bk):
        dia_ref = edge_squares_matrix(bk.materialize())
        for p, q, dia in stream_edges(bk.chain, attach_ground_truth=True):
            for pp, qq, dd in zip(p.tolist(), q.tolist(), np.asarray(dia).tolist()):
                assert dd == dia_ref[pp, qq]

    def test_connectivity_audit_connected(self, bk):
        n_components, edges = streamed_connectivity_audit(bk.chain)
        assert n_components == 1  # Thms 1-2 certified by streaming
        assert edges == bk.m

    def test_connectivity_audit_disconnected(self):
        # Weichsel case via raw handle construction (bypass validation).
        from repro.graphs import BipartiteGraph
        from repro.kronecker.assumptions import BipartiteKronecker

        A = path_graph(3)
        B = BipartiteGraph(path_graph(4))
        bk = BipartiteKronecker(A, B, Assumption.NON_BIPARTITE_FACTOR)
        n_components, _ = streamed_connectivity_audit(bk.chain)
        assert n_components == 2
