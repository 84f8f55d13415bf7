"""Property suites for the chain ground-truth engine.

The chain engine (:class:`~repro.kronecker.multifactor.KroneckerChain`,
Def. 8/9 over per-factor tables) claims *bit-identical* values to the
paper's printed Thm. 3/4/5 forms evaluated term by term with
``sp.kron`` (:mod:`repro.refcheck.printed`).  Hypothesis drives random
factor pairs through both assumption regimes and 3-factor chains; the
deterministic corpora cover empty and degenerate patterns.  The batched
oracle APIs are checked against the scalar query loop, including error
masking.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.bipartite import is_bipartite
from repro.graphs.graph import Graph
from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product
from repro.kronecker.ground_truth import edge_squares_product, vertex_squares_product
from repro.kronecker.multifactor import ChainFactor, KroneckerChain
from repro.refcheck.printed import (
    combine_stats,
    edge_squares_product_reference,
    multi_kronecker_stats,
    vertex_squares_from_stats,
    vertex_squares_product_reference,
)
from repro.refcheck.spgemm import FactorStats

from tests.strategies import (
    connected_bipartite_graphs,
    connected_nonbipartite_graphs,
    products,
    small_graph_corpus,
)

SETTINGS = settings(max_examples=20, deadline=None)

BOTH_ASSUMPTIONS = [Assumption.NON_BIPARTITE_FACTOR, Assumption.SELF_LOOPS_FACTOR]


def _assert_csr_bit_identical(fused, legacy):
    assert fused.shape == legacy.shape
    assert fused.dtype == legacy.dtype
    np.testing.assert_array_equal(fused.indptr, legacy.indptr)
    np.testing.assert_array_equal(fused.indices, legacy.indices)
    np.testing.assert_array_equal(fused.data, legacy.data)


# ---------------------------------------------------------------------------
# Chain engine == the paper's printed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("assumption", BOTH_ASSUMPTIONS)
@given(data=st.data())
@SETTINGS
def test_fused_formulas_match_kron(assumption, data):
    bk = data.draw(products(assumption))
    np.testing.assert_array_equal(
        vertex_squares_product(bk), vertex_squares_product_reference(bk)
    )
    _assert_csr_bit_identical(edge_squares_product(bk), edge_squares_product_reference(bk))


def _left_factor(graph: Graph, assumption: Assumption) -> ChainFactor:
    """The effective left factor ``M``: ``A``, or ``A + I_A`` under 1(ii)."""
    if assumption is Assumption.NON_BIPARTITE_FACTOR:
        return ChainFactor.from_graph(graph)
    return ChainFactor.from_graph(graph.with_all_self_loops())


@pytest.mark.parametrize("assumption", BOTH_ASSUMPTIONS)
def test_fused_vertex_grid_on_degenerate_corpus(assumption):
    """Empty / disconnected / trivial patterns, both assumption formulas.

    The chain ``[M, B]`` against the printed vertex form on arbitrary
    loop-free factor pairs, so validation rules about parity and
    connectivity don't apply here -- except that the printed 1(ii) form
    is derived for a bipartite ``A``.
    """
    corpus = small_graph_corpus()
    for a in corpus:
        if assumption is Assumption.SELF_LOOPS_FACTOR and not is_bipartite(a):
            continue
        stats_a = FactorStats.from_graph(a)
        for b in corpus:
            chain = KroneckerChain([_left_factor(a, assumption), ChainFactor.from_graph(b)])
            np.testing.assert_array_equal(
                chain.vertex_squares(np.arange(chain.n, dtype=np.int64)),
                vertex_squares_from_stats(stats_a, FactorStats.from_graph(b), assumption),
            )


def test_fused_edge_product_empty_pattern():
    empty = Graph.empty(3)
    bk = make_bipartite_product(
        empty, empty, Assumption.SELF_LOOPS_FACTOR, require_connected=False
    )
    out = edge_squares_product(bk)
    assert out.shape == (9, 9)
    assert out.nnz == 0
    assert out.dtype == np.int64


@given(
    A=connected_nonbipartite_graphs(max_n=4),
    B=connected_nonbipartite_graphs(max_n=3),
    C=connected_bipartite_graphs(max_side=2),
)
@SETTINGS
def test_three_factor_chain_matches_printed_fold(A, B, C):
    """A 3-factor chain answers vertex and edge queries exactly as the
    printed ``combine_stats`` fold of the same factors."""
    import scipy.sparse as sp

    chain = KroneckerChain.from_graphs([A, B, C.graph])
    fold = multi_kronecker_stats([A, B, C.graph])
    every = np.arange(chain.n, dtype=np.int64)
    np.testing.assert_array_equal(chain.degrees(every), fold.d)
    np.testing.assert_array_equal(chain.vertex_squares(every), fold.s)
    coo = sp.csr_array(fold.diamond).tocoo()
    values, valid = chain.edge_squares(coo.row.astype(np.int64), coo.col.astype(np.int64))
    assert valid.all()
    np.testing.assert_array_equal(values, coo.data)
    assert chain.global_squares() == fold.global_squares()


@given(A=connected_nonbipartite_graphs(max_n=4), B=connected_nonbipartite_graphs(max_n=4))
@SETTINGS
def test_combine_stats_matches_materialized_product(A, B):
    """The printed multi-factor fold equals stats counted directly on
    the materialized product."""
    import scipy.sparse as sp

    combined = combine_stats(FactorStats.from_graph(A), FactorStats.from_graph(B))
    product = Graph(sp.csr_array(sp.kron(A.adj, B.adj, format="csr")))
    direct = FactorStats.from_graph(product)
    np.testing.assert_array_equal(combined.d, direct.d)
    np.testing.assert_array_equal(combined.w2, direct.w2)
    np.testing.assert_array_equal(combined.s, direct.s)
    np.testing.assert_array_equal(combined.cw4, direct.cw4)
    _assert_csr_bit_identical(combined.diamond, sp.csr_array(direct.diamond))


# ---------------------------------------------------------------------------
# Batched oracle queries == scalar query loop
# ---------------------------------------------------------------------------


def _oracle_pairs(bk, rng, n_pairs=60):
    """A mix of true product edges and random (mostly invalid) pairs."""
    C = bk.materialize()
    u, v = C.edge_arrays()
    take = rng.integers(0, u.size, min(n_pairs, u.size))
    ps = np.concatenate([u[take], rng.integers(0, bk.n, n_pairs)])
    qs = np.concatenate([v[take], rng.integers(0, bk.n, n_pairs)])
    return ps.astype(np.int64), qs.astype(np.int64)


@pytest.mark.parametrize("assumption", BOTH_ASSUMPTIONS)
@given(data=st.data())
@SETTINGS
def test_batched_oracle_matches_scalar(assumption, data):
    _check_batched_oracle(data.draw(products(assumption, max_a=4)))


def _check_batched_oracle(bk):
    oracle = GroundTruthOracle(bk)
    rng = np.random.default_rng(bk.n)
    ps = rng.integers(0, bk.n, 50).astype(np.int64)

    np.testing.assert_array_equal(
        oracle.degrees(ps), np.array([oracle.degree(int(p)) for p in ps])
    )
    np.testing.assert_array_equal(
        oracle.squares_at_vertices(ps),
        np.array([oracle.squares_at_vertex(int(p)) for p in ps]),
    )

    eps, eqs = _oracle_pairs(bk, rng)
    has = oracle.has_edges(eps, eqs)
    np.testing.assert_array_equal(
        has, np.array([oracle.has_edge(int(p), int(q)) for p, q in zip(eps, eqs)])
    )
    masked = oracle.squares_at_edges(eps, eqs, on_invalid="mask")
    for p, q, got, is_edge in zip(eps.tolist(), eqs.tolist(), masked.tolist(), has.tolist()):
        if is_edge:
            assert got == oracle.squares_at_edge(p, q)
        else:
            assert got == -1
            with pytest.raises(ValueError):
                oracle.squares_at_edge(p, q)
    # Raise mode mirrors the scalar contract for whole batches.
    if has.all():
        np.testing.assert_array_equal(oracle.squares_at_edges(eps, eqs), masked)
    else:
        with pytest.raises(ValueError, match="not an edge"):
            oracle.squares_at_edges(eps, eqs)


def test_batched_oracle_index_errors():
    f = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # C4, bipartite
    bk = make_bipartite_product(f, f, Assumption.SELF_LOOPS_FACTOR)
    oracle = GroundTruthOracle(bk)
    with pytest.raises(IndexError):
        oracle.degrees(np.array([0, bk.n]))
    with pytest.raises(IndexError):
        oracle.squares_at_vertices(np.array([-1]))
    with pytest.raises(ValueError, match="on_invalid"):
        oracle.squares_at_edges(np.array([0]), np.array([1]), on_invalid="zero")
    with pytest.raises(ValueError, match="shape"):
        oracle.has_edges(np.array([0, 1]), np.array([1]))


def test_memory_footprint_bytes_counts_caches():
    f = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    bk = make_bipartite_product(f, f, Assumption.SELF_LOOPS_FACTOR)
    oracle = GroundTruthOracle(bk)
    base = oracle.memory_footprint_bytes()
    assert base > 0
    # The per-factor edge hash tables an edge query builds grow the
    # honest count.
    oracle.has_edges([0], [1])
    assert oracle.memory_footprint_bytes() > base
    assert oracle.memory_footprint_entries() > 0
