"""Property suite for Rem. 1: peeled wing numbers never exceed the
Thm. 5 / Def. 9 support bounds, on random factors, adversarial shapes,
and deep chains — plus monotonicity of the scalar bound under factor
edge deletion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import peel_wing_numbers
from repro.generators.classic import complete_bipartite, path_graph, star_graph
from repro.graphs.graph import Graph
from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.kronecker.wings import (
    certified_zero_wing_edges,
    max_wing_upper_bound,
    wing_upper_bounds,
)

from tests.strategies import connected_bipartite_graphs, factor_chains, products

SETTINGS = settings(max_examples=15, deadline=None)


def _key(u, v):
    return (min(int(u), int(v)), max(int(u), int(v)))


def _assert_peel_respects_bounds(adj, pairs, bounds):
    """Peel the materialized adjacency and check Rem. 1 against the
    supplied per-edge bounds: wing <= bound everywhere, equality on
    zero bounds."""
    result = peel_wing_numbers(adj)
    by_edge = {}
    for (p, q), b in zip(pairs, bounds):
        by_edge[_key(p, q)] = int(b)
    assert set(result.wing) == set(by_edge)
    for e, w in result.wing.items():
        assert w <= by_edge[e], f"peel exceeds Rem. 1 bound at {e}"
        if by_edge[e] == 0:
            assert w == 0, f"zero-bound edge {e} peeled nonzero"
    assert result.max_wing <= max(by_edge.values(), default=0)


@given(bk=products(Assumption.NON_BIPARTITE_FACTOR, max_a=4, max_side=2))
@SETTINGS
def test_peel_below_bounds_random_products_1i(bk):
    oracle = GroundTruthOracle(bk)
    C = bk.materialize()
    u, v = C.edge_arrays()
    bounds = oracle.wings_at_edges(u, v)
    _assert_peel_respects_bounds(C.adj, list(zip(u, v)), bounds)
    assert max_wing_upper_bound(bk.chain) == oracle.max_wing_bound()


@given(bk=products(Assumption.SELF_LOOPS_FACTOR, max_side=2))
@SETTINGS
def test_peel_below_bounds_random_products_1ii(bk):
    C = bk.materialize()
    u, v = C.edge_arrays()
    by_entry = {
        (p, q): s
        for rows, cols, sup in wing_upper_bounds(bk.chain)
        for p, q, s in zip(rows.tolist(), cols.tolist(), sup.tolist())
    }
    bounds = [by_entry[(int(p), int(q))] for p, q in zip(u, v)]
    _assert_peel_respects_bounds(C.adj, list(zip(u, v)), bounds)


@pytest.mark.parametrize(
    "a,b",
    [
        (star_graph(3), star_graph(4)),
        (star_graph(4), complete_bipartite(2, 2)),
        (path_graph(4), complete_bipartite(2, 3)),
        (complete_bipartite(2, 2).graph, complete_bipartite(2, 3)),
    ],
    ids=["star-star", "star-biclique", "path-biclique", "biclique-biclique"],
)
def test_peel_below_bounds_adversarial(a, b):
    bk = make_bipartite_product(a, b, Assumption.SELF_LOOPS_FACTOR)
    oracle = GroundTruthOracle(bk)
    C = bk.materialize()
    u, v = C.edge_arrays()
    bounds = oracle.wings_at_edges(u, v)
    _assert_peel_respects_bounds(C.adj, list(zip(u, v)), bounds)
    wing = peel_wing_numbers(C.adj).wing
    for p, q in certified_zero_wing_edges(bk.chain).tolist():
        assert wing[_key(p, q)] == 0


@given(factors=factor_chains(min_factors=3, max_factors=3, max_n=3))
@SETTINGS
def test_peel_below_bounds_three_factor_chains(factors):
    chain = KroneckerChain.from_graphs(factors)
    pairs, bounds = [], []
    for p, q, b in wing_upper_bounds(chain):
        keep = p < q  # one direction per undirected edge
        pairs.extend(zip(p[keep].tolist(), q[keep].tolist()))
        bounds.extend(b[keep].tolist())
    _assert_peel_respects_bounds(chain.materialize(), pairs, bounds)
    streamed_max = max(bounds, default=0)
    assert max_wing_upper_bound(chain) == streamed_max


def _delete_edge(g: Graph, index: int) -> Graph:
    u, v = g.edge_arrays()
    edges = [
        (int(a), int(b))
        for k, (a, b) in enumerate(zip(u.tolist(), v.tolist()))
        if k != index
    ]
    return Graph.from_edges(g.n, edges)


@given(
    A=connected_bipartite_graphs(max_side=3),
    B=connected_bipartite_graphs(max_side=3),
    data=st.data(),
)
@SETTINGS
def test_max_bound_monotone_under_edge_deletion(A, B, data):
    """Deleting a factor edge yields a sub-product, and exact 4-cycle
    counts are monotone under subgraphs — so the scalar Rem. 1 bound
    can only shrink."""
    full = make_bipartite_product(
        A, B, Assumption.SELF_LOOPS_FACTOR, require_connected=False
    )
    Bg = B.graph if hasattr(B, "graph") else B
    u, _ = Bg.edge_arrays()
    idx = data.draw(st.integers(0, u.size - 1), label="deleted edge")
    sub = make_bipartite_product(
        A, _delete_edge(Bg, idx), Assumption.SELF_LOOPS_FACTOR, require_connected=False
    )
    assert max_wing_upper_bound(sub.chain) <= max_wing_upper_bound(full.chain)


@given(factors=factor_chains(min_factors=2, max_factors=3, max_n=3), data=st.data())
@SETTINGS
def test_chain_max_bound_monotone_under_edge_deletion(factors, data):
    full = KroneckerChain.from_graphs(factors)
    t = data.draw(st.integers(0, len(factors) - 1), label="factor")
    u, _ = factors[t].edge_arrays()
    if u.size == 0:
        return
    idx = data.draw(st.integers(0, u.size - 1), label="deleted edge")
    reduced = list(factors)
    reduced[t] = _delete_edge(factors[t], idx)
    sub = KroneckerChain.from_graphs(reduced)
    assert max_wing_upper_bound(sub) <= max_wing_upper_bound(full)
