"""Tests for the wing (bitruss) peeling engine in
``repro.analytics.peel``.

Independent referees pin the peel: closed-form biclique wing numbers,
the algorithm-independent batch peel in ``repro.refcheck.brute``, and
the Rem. 1 invariants against literal support counts.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analytics import peel_chain, peel_product, peel_wing_numbers
from repro.generators.classic import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.refcheck import brute

GRAPHS = {
    "path5": path_graph(5),
    "cycle4": cycle_graph(4),
    "cycle6": cycle_graph(6),
    "k4": complete_graph(4),
    "k5": complete_graph(5),
    "grid33": grid_graph(3, 3),
    "star4": star_graph(4),
    "matching": Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),
    "cb23": complete_bipartite(2, 3).graph,
    "cb33": complete_bipartite(3, 3).graph,
}


def _key(u, v):
    return (min(int(u), int(v)), max(int(u), int(v)))


class TestAgainstBrutePeel:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_batch_peel(self, name):
        g = GRAPHS[name]
        assert peel_wing_numbers(g.adj).wing == brute.wing_peel(g)

    def test_matches_batch_peel_on_product(self):
        bk = make_bipartite_product(
            complete_graph(3),
            complete_bipartite(2, 2),
            Assumption.NON_BIPARTITE_FACTOR,
        )
        C = bk.materialize()
        assert peel_product(bk).wing == brute.wing_peel(Graph(C.adj))


class TestAgainstBitruss:
    """On bipartite graphs 4-cycles are butterflies, so the general
    peel must reproduce the Sariyuce-Pinar (bitruss) wing numbers."""

    @pytest.mark.parametrize(
        "b", [complete_bipartite(2, 3), complete_bipartite(3, 3)]
    )
    def test_biclique_wing_closed_form(self, b):
        # Every edge of K_{m,n} lies on (m-1)(n-1) butterflies and the
        # biclique is its own maximal wing.
        m, n = b.U.size, b.W.size
        got = peel_wing_numbers(b.graph.adj).wing
        assert len(got) == m * n
        assert set(got.values()) == {(m - 1) * (n - 1)}

    def test_matches_on_materialized_product(self):
        bk = make_bipartite_product(
            complete_graph(3),
            complete_bipartite(1, 2),
            Assumption.NON_BIPARTITE_FACTOR,
        )
        C = bk.materialize_bipartite()
        wings = peel_wing_numbers(C.graph.adj).wing
        part = bk.product_part()
        # Every product edge joins the two sides of the bipartition.
        assert all(part[u] != part[w] for u, w in wings)
        assert wings == peel_product(bk).wing == brute.wing_peel(C.graph)


class TestInvariants:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_initial_supports_are_exact(self, name):
        g = GRAPHS[name]
        res = peel_wing_numbers(g.adj)
        ref = brute.squares_at_edges(g)
        assert res.support == {_key(p, q): int(s) for (p, q), s in ref.items()}
        assert res.bounds_respected()

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_wing_bounded_by_support(self, name):
        res = peel_wing_numbers(GRAPHS[name].adj)
        for e, w in res.wing.items():
            assert 0 <= w <= res.support[e]
            if res.support[e] == 0:
                assert w == 0
        assert res.max_wing <= res.max_support

    def test_known_values_biclique(self):
        # Every edge of K_{3,3} lies on 4 butterflies and the graph is
        # edge-transitive, so the peel is flat: wing == support == 4.
        res = peel_wing_numbers(complete_bipartite(3, 3).graph.adj)
        assert set(res.wing.values()) == {4}
        assert set(res.support.values()) == {4}

    def test_known_values_square_free(self):
        # C6 has no 4-cycles at all: everything peels at 0.
        res = peel_wing_numbers(cycle_graph(6).adj)
        assert set(res.wing.values()) == {0}
        assert res.max_wing == 0 and res.max_support == 0


class TestContract:
    def test_empty_graph(self):
        res = peel_wing_numbers(Graph.empty(4).adj)
        assert res.wing == {} and res.support == {}
        assert res.max_wing == 0 and res.max_support == 0
        assert res.bounds_respected()

    def test_rejects_self_loops(self):
        adj = sp.csr_array(np.array([[1, 1], [1, 0]]))
        with pytest.raises(ValueError, match="loop-free"):
            peel_wing_numbers(adj)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            peel_wing_numbers(sp.csr_array(np.ones((2, 3))))

    def test_peel_chain_matches_direct(self):
        chain = KroneckerChain.from_graphs(
            [path_graph(3), complete_bipartite(1, 2).graph, path_graph(2)]
        )
        direct = peel_wing_numbers(chain.materialize())
        via = peel_chain(chain)
        assert via.wing == direct.wing and via.support == direct.support

    def test_peel_chain_respects_entry_cap(self):
        chain = KroneckerChain.from_graphs(
            [complete_graph(4), complete_bipartite(2, 2).graph]
        )
        with pytest.raises(ValueError):
            peel_chain(chain, max_entries=1)
