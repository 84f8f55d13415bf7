"""Property suites for the oracle and the streaming generator.

Hypothesis drives random factor pairs through both assumption regimes;
every oracle answer and every streamed ground-truth value is checked
against direct counting on the materialized product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import edge_squares_matrix, vertex_squares_matrix
from repro.kronecker import (
    Assumption,
    GroundTruthOracle,
    make_bipartite_product,
    stream_edges,
)

from tests.strategies import connected_bipartite_graphs, connected_nonbipartite_graphs, products

SETTINGS = settings(max_examples=20, deadline=None)

BOTH_ASSUMPTIONS = [Assumption.NON_BIPARTITE_FACTOR, Assumption.SELF_LOOPS_FACTOR]


@pytest.mark.parametrize("assumption", BOTH_ASSUMPTIONS)
@given(data=st.data())
@SETTINGS
def test_oracle_matches_direct_counting(assumption, data):
    bk = data.draw(products(assumption, max_a=4))
    oracle = GroundTruthOracle(bk)
    C = bk.materialize()
    s = vertex_squares_matrix(C)
    dia = edge_squares_matrix(C)
    for p in range(C.n):
        assert oracle.degree(p) == C.degrees()[p]
        assert oracle.squares_at_vertex(p) == s[p]
    u, v = C.edge_arrays()
    for p, q in zip(u.tolist(), v.tolist()):
        assert oracle.squares_at_edge(p, q) == dia[p, q]


@given(A=connected_bipartite_graphs(max_side=3), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_streaming_covers_product_with_ground_truth(A, B):
    bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
    C = bk.materialize()
    coo = C.adj.tocoo()
    expected = set(zip(coo.row.tolist(), coo.col.tolist()))
    dia = edge_squares_matrix(C)
    seen = set()
    for p, q, counts in stream_edges(bk.chain, attach_ground_truth=True):
        for pp, qq, dd in zip(p.tolist(), q.tolist(), np.asarray(counts).tolist()):
            assert dia[pp, qq] == dd
            seen.add((pp, qq))
    assert seen == expected


@given(A=connected_nonbipartite_graphs(max_n=4), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_oracle_global_matches_sum(A, B):
    bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
    oracle = GroundTruthOracle(bk)
    total_from_vertices = sum(oracle.squares_at_vertex(p) for p in range(bk.n))
    assert total_from_vertices == 4 * oracle.global_squares()
