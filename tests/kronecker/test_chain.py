"""KroneckerChain: streamed deep-product generation with closed-form
ground truth, checked against brute force on the materialized chain.

The chain's contract is the extreme-scale tier's foundation: every
statistic it reports (degrees, work prefixes, per-entry and global
4-cycle counts) is computed from factor statistics alone, yet must
agree exactly with counting on the fully materialized product.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.generators.classic import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.kronecker.assumptions import Assumption, make_bipartite_product
from repro.kronecker.multifactor import ChainFactor, KroneckerChain
from repro.refcheck import brute
from repro.refcheck.printed import multi_kronecker_global_squares
from tests.strategies import factor_chains

SETTINGS = settings(max_examples=20, deadline=None)

CHAINS = [
    [path_graph(3), star_graph(2), path_graph(2)],
    [complete_graph(3), path_graph(3), star_graph(2)],
    [cycle_graph(4), complete_bipartite(1, 2).graph, path_graph(2)],
    [star_graph(2), path_graph(2), path_graph(2), path_graph(2)],
]


def materialize(factors) -> Graph:
    product = factors[0].adj
    for f in factors[1:]:
        product = sp.kron(product, f.adj, format="csr")
    return Graph(sp.csr_array(product))


def streamed_triples(chain, **kwargs):
    ps, qs, sqs = [], [], []
    for block in chain.stream_rows(0, chain.n, attach_ground_truth=True, **kwargs):
        ps.append(block[0])
        qs.append(block[1])
        sqs.append(block[2])
    p = np.concatenate(ps) if ps else np.zeros(0, dtype=np.int64)
    q = np.concatenate(qs) if qs else np.zeros(0, dtype=np.int64)
    s = np.concatenate(sqs) if sqs else np.zeros(0, dtype=np.int64)
    return p, q, s


@pytest.mark.parametrize("factors", CHAINS, ids=lambda fs: "x".join(str(f.n) for f in fs))
class TestAgainstBrute:
    def test_edge_squares_match_brute(self, factors):
        chain = KroneckerChain.from_graphs(factors)
        graph = materialize(factors)
        nbrs = brute.neighbor_sets(graph)
        expected = brute.squares_at_edges(graph, nbrs)
        p, q, s = streamed_triples(chain)
        assert p.size == graph.nnz == chain.nnz
        for pi, qi, si in zip(p.tolist(), q.tolist(), s.tolist()):
            assert si == expected[(min(pi, qi), max(pi, qi))]

    def test_vertex_range_sums_match_brute(self, factors):
        chain = KroneckerChain.from_graphs(factors)
        graph = materialize(factors)
        per_vertex = brute.squares_at_vertices(graph)
        for lo, hi in [(0, chain.n), (0, 1), (1, chain.n // 2), (chain.n // 2, chain.n)]:
            assert chain.vertex_squares_range_sum(lo, hi) == int(per_vertex[lo:hi].sum())

    def test_global_squares(self, factors):
        chain = KroneckerChain.from_graphs(factors)
        graph = materialize(factors)
        assert chain.global_squares() == brute.global_squares(graph)
        assert chain.global_squares() == multi_kronecker_global_squares(factors)

    def test_work_prefix_matches_degree_cumsum(self, factors):
        chain = KroneckerChain.from_graphs(factors)
        graph = materialize(factors)
        row_degrees = np.diff(graph.adj.indptr)
        cumsum = np.concatenate(([0], np.cumsum(row_degrees)))
        for p in range(chain.n + 1):
            assert chain.work_prefix(p) == int(cumsum[p])


@given(factors=factor_chains())
@SETTINGS
def test_streamed_chain_matches_brute_random(factors):
    """Property: drawn chains stream the exact brute-force ground truth."""
    chain = KroneckerChain.from_graphs(factors)
    graph = materialize(factors)
    expected = brute.squares_at_edges(graph)
    p, q, s = streamed_triples(chain, block_entries=17)
    assert p.size == graph.nnz
    for pi, qi, si in zip(p.tolist(), q.tolist(), s.tolist()):
        assert si == expected[(min(pi, qi), max(pi, qi))]


@given(factors=factor_chains())
@SETTINGS
def test_stream_identical_across_block_sizes(factors):
    """Block size is a throughput knob, never a semantics knob."""
    chain = KroneckerChain.from_graphs(factors)
    reference = streamed_triples(chain)
    for block_entries in (1, 7, chain.nnz + 1):
        p, q, s = streamed_triples(chain, block_entries=block_entries)
        for a, b in zip((p, q, s), reference):
            np.testing.assert_array_equal(a, b)


def test_from_bipartite_matches_entries_order_free():
    """A BipartiteKronecker's chain generates the entry set (and the
    per-entry counts) of the materialized product."""
    bk = make_bipartite_product(
        cycle_graph(5), complete_bipartite(2, 3), Assumption.NON_BIPARTITE_FACTOR
    )
    chain = bk.chain
    assert chain.n == bk.n and chain.nnz == 2 * bk.m
    graph = bk.materialize()
    expected = brute.squares_at_edges(graph)
    p, q, s = streamed_triples(chain)
    coo = graph.adj.tocoo()
    assert sorted(zip(p.tolist(), q.tolist())) == sorted(
        zip(coo.row.tolist(), coo.col.tolist())
    )
    for pi, qi, si in zip(p.tolist(), q.tolist(), s.tolist()):
        assert si == expected[(min(pi, qi), max(pi, qi))]


def test_assumption_ii_chain_with_loops_factor():
    """A factor *with* self loops is valid as long as one factor is
    loop-free -- the Assumption 1(ii) construction (A+I) ⊗ B."""
    A = path_graph(4)
    a_loops = Graph(sp.csr_array(A.adj + sp.identity(A.n, dtype=A.adj.dtype, format="csr")))
    B = complete_bipartite(2, 2).graph
    chain = KroneckerChain.from_graphs([a_loops, B])
    graph = materialize([a_loops, B])
    expected = brute.squares_at_edges(graph)
    p, q, s = streamed_triples(chain)
    assert p.size == graph.nnz
    for pi, qi, si in zip(p.tolist(), q.tolist(), s.tolist()):
        assert si == expected[(min(pi, qi), max(pi, qi))]


def test_all_loops_chain_rejected():
    A = path_graph(3)
    with_loops = Graph(
        sp.csr_array(A.adj + sp.identity(A.n, dtype=A.adj.dtype, format="csr"))
    )
    with pytest.raises(ValueError, match="self loops"):
        KroneckerChain.from_graphs([with_loops, with_loops])


def test_empty_chain_rejected():
    with pytest.raises(ValueError):
        KroneckerChain([])


def test_digits_roundtrip():
    chain = KroneckerChain.from_graphs([path_graph(3), star_graph(3), path_graph(2)])
    for p in range(chain.n):
        digits = chain.digits(p)
        back = 0
        for f, d in zip(chain.factors, digits):
            back = back * f.n + d
        assert back == p


def test_digits_out_of_range_raises_index_error():
    """``digits`` rejects a row outside ``[0, n)`` as the batched
    queries do: with IndexError."""
    chain = KroneckerChain.from_graphs([path_graph(3), star_graph(3), path_graph(2)])
    for p in (-1, chain.n, chain.n + 5):
        with pytest.raises(IndexError, match="out of range"):
            chain.digits(p)
        with pytest.raises(IndexError, match="out of range"):
            chain.degrees([p])


def test_materialize_refuses_large():
    chain = KroneckerChain.from_graphs([path_graph(3), path_graph(3)])
    with pytest.raises(ValueError, match="materialize"):
        chain.materialize(max_entries=1)


def test_chain_factor_stats():
    g = cycle_graph(4)
    f = ChainFactor.from_graph(g)
    assert f.n == 4 and f.nnz == 8
    np.testing.assert_array_equal(f.d, [2, 2, 2, 2])
    assert not f.has_loops


def test_signature_is_stable_and_json_safe():
    import json

    chain = KroneckerChain.from_graphs([path_graph(3), star_graph(2)])
    sig = chain.signature()
    assert sig["kind"] == "chain"
    assert json.loads(json.dumps(sig)) == sig
