"""``ChainFactor``'s numpy walk tables against the scipy product form
they replaced, :func:`repro.refcheck.spgemm.walk_tables`, the referee.

Every pattern -- self loops, isolated vertices, ``n = 0`` and ``n = 1``,
stars and bicliques -- must give the referee's ``w2``, ``cw4`` and
``w3`` with int64 dtypes, at the default block size and at block sizes
small enough to split the rows into many blocks, through the dense
products and through the wedge pass, with ``w3`` and without.  The
direct counter built on the tables,
:func:`repro.analytics.fourcycles.edge_squares_matrix`, must give
the referee's ``FactorStats.diamond``: the adjacency pattern, explicit
zeros included, int64 counts and the same index dtypes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.fourcycles import edge_squares_matrix
from repro.generators import complete_bipartite, konect_unicode_like, star_graph
from repro.graphs.graph import Graph
from repro.kronecker import multifactor
from repro.kronecker.multifactor import ChainFactor, _walk_tables
from repro.refcheck.spgemm import FactorStats, walk_tables

SETTINGS = settings(max_examples=200, deadline=None)

#: Block sizes: one wedge (a row per block), a few, and the default.
BLOCKS = [1, 3, 17, multifactor.STREAM_BLOCK_ENTRIES]


def _assert_matches_referee(graph: Graph, block: int) -> None:
    """All three tables, and ``(w2, cw4)`` alone, from the dense
    products where the factor qualifies and from the wedge pass."""
    factor = ChainFactor.from_graph(graph)
    want = walk_tables(factor.n, factor.indptr, factor.indices)
    for dense_max_n in (multifactor.DENSE_MAX_N, -1):
        with mock.patch.object(multifactor, "STREAM_BLOCK_ENTRIES", block), mock.patch.object(
            multifactor, "DENSE_MAX_N", dense_max_n
        ):
            got = _walk_tables(factor)
            vertex = _walk_tables(factor, edges=False)
        assert vertex[2] is None
        for name, g, w in [*zip(("w2", "cw4", "w3"), got, want), *zip(("w2", "cw4"), vertex, want)]:
            assert g.dtype == np.int64, name
            assert g.shape == w.shape and np.array_equal(g, w), name


def _assert_counter_matches_referee(graph: Graph) -> None:
    got, want = edge_squares_matrix(graph), FactorStats.from_graph(graph).diamond
    assert got.shape == want.shape
    assert got.data.dtype == np.int64
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert np.array_equal(got.indices, graph.indices)  # explicit zeros kept


@st.composite
def patterns(draw) -> Graph:
    """A symmetric pattern on 0..9 vertices: random edges, random self
    loops, and whatever vertices they leave isolated."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return Graph.empty(0)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    u = np.asarray([a for a, _ in pairs], dtype=np.int64)
    v = np.asarray([b for _, b in pairs], dtype=np.int64)
    return Graph.from_edge_arrays(n, u, v)


@given(graph=patterns(), block=st.sampled_from(BLOCKS))
@SETTINGS
def test_walk_tables_match_the_scipy_referee(graph, block):
    _assert_matches_referee(graph, block)
    _assert_counter_matches_referee(graph.without_self_loops())


def _named_graphs() -> dict[str, Graph]:
    loop = Graph.from_edges(1, [(0, 0)])
    return {
        "n0": Graph.empty(0),
        "n1": Graph.empty(1),
        "n1-loop": loop,
        "isolated": Graph.empty(5),
        "all-loops": Graph.from_edges(4, [(0, 1), (1, 2)]).with_all_self_loops(),
        "star": star_graph(40),
        "star-loops": star_graph(12).with_all_self_loops(),
        "biclique": complete_bipartite(6, 9).graph,
        "biclique-isolated": Graph.from_edge_arrays(
            12, np.repeat(np.arange(3), 4), np.tile(np.arange(3, 7), 3)
        ),
        "unicode": konect_unicode_like().graph,
    }


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", list(_named_graphs()))
def test_walk_tables_match_the_scipy_referee_on_named_patterns(name, block):
    _assert_matches_referee(_named_graphs()[name], block)


def test_a_row_with_more_wedges_than_a_block_is_a_block_alone():
    """Every row of a 30-leaf star starts 30 wedges, more than a block
    of 4 holds; the tables still match."""
    _assert_matches_referee(star_graph(30), 4)
