"""End-to-end property suite: every theorem of the paper on random factors.

This is the capstone suite -- one test per paper claim, each driven by
hypothesis over randomly grown factors, each comparing the closed-form
prediction against brute-force/direct measurement on the materialized
product.  If the library disagrees with the paper (beyond the documented
errata) it fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    edge_squares_matrix,
    global_squares,
    vertex_squares_matrix,
)
from repro.graphs import is_bipartite, is_connected
from repro.graphs.connectivity import num_components
from repro.kronecker import (
    Assumption,
    edge_squares_product,
    global_squares_product,
    make_bipartite_product,
    vertex_squares_product,
)
from repro.kronecker.community import (
    BipartiteCommunity,
    community_counts,
    community_densities,
    cor1_internal_density_bound,
    cor2_external_density_bound,
    product_community,
    thm7_product_counts,
)

from tests.shard_referee import kron_graph
from tests.strategies import connected_bipartite_graphs, connected_nonbipartite_graphs

SETTINGS = settings(max_examples=25, deadline=None)


@given(A=connected_nonbipartite_graphs(max_n=5), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_thm1_connected_bipartite(A, B):
    C = kron_graph([A, B.graph])
    assert is_connected(C) and is_bipartite(C)


@given(A=connected_bipartite_graphs(max_side=3), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_thm2_connected_bipartite(A, B):
    C = kron_graph([A.graph.with_all_self_loops(), B.graph])
    assert is_connected(C) and is_bipartite(C)


@given(A=connected_bipartite_graphs(max_side=3), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_weichsel_two_components(A, B):
    assert num_components(kron_graph([A.graph, B.graph])) == 2


@given(A=connected_nonbipartite_graphs(max_n=5), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_thm3_vertex_squares(A, B):
    bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
    assert np.array_equal(vertex_squares_product(bk), vertex_squares_matrix(bk.materialize()))


@given(A=connected_bipartite_graphs(max_side=3), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_thm4_vertex_squares(A, B):
    bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
    assert np.array_equal(vertex_squares_product(bk), vertex_squares_matrix(bk.materialize()))


@given(A=connected_nonbipartite_graphs(max_n=4), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_thm5_edge_squares(A, B):
    bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
    got = edge_squares_product(bk).toarray()
    ref = edge_squares_matrix(bk.materialize()).toarray()
    assert np.array_equal(got, ref)


@given(A=connected_bipartite_graphs(max_side=3), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_derived_edge_formula_assumption_ii(A, B):
    bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
    got = edge_squares_product(bk).toarray()
    ref = edge_squares_matrix(bk.materialize()).toarray()
    assert np.array_equal(got, ref)


@given(A=connected_nonbipartite_graphs(max_n=5), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_global_count_sublinear_path(A, B):
    bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
    assert global_squares_product(bk) == global_squares(bk.materialize())


@given(A=connected_nonbipartite_graphs(max_n=5), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_thm6_clustering_scaling_law(A, B):
    from repro.kronecker.clustering import thm6_lower_bound

    bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
    res = thm6_lower_bound(bk)
    assert np.all(res["gamma_c"] + 1e-12 >= res["bound"])


@given(
    A=connected_bipartite_graphs(max_side=3),
    B=connected_bipartite_graphs(max_side=3),
    rnd=st.randoms(use_true_random=False),
)
@SETTINGS
def test_thm7_and_corollaries(A, B, rnd):
    bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
    members_a = [v for v in range(A.n) if rnd.random() < 0.6] or [0]
    members_b = [v for v in range(B.n) if rnd.random() < 0.6] or [0]
    ca = BipartiteCommunity(A, members_a)
    cb = BipartiteCommunity(B, members_b)
    sc = product_community(bk, ca, cb)
    # Thm 7 exact:
    assert thm7_product_counts(ca, cb) == community_counts(sc)
    # Cors 1-2 (with the corrected Cor-1 constant):
    rho_in, rho_out = community_densities(sc)
    assert rho_in >= cor1_internal_density_bound(ca, cb) - 1e-12
    assert rho_in >= cor1_internal_density_bound(ca, cb, tight=True) - 1e-12
    assert rho_out <= cor2_external_density_bound(ca, cb) + 1e-12


@given(A=connected_bipartite_graphs(max_side=3), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_remark1_squares_unavoidable(A, B):
    """Any pair of connected bipartite factors with a degree-2 vertex
    each yields a product with 4-cycles (Rem. 1), already without loops."""
    da, db = A.graph.degrees(), B.graph.degrees()
    if da.max() < 2 or db.max() < 2:
        return  # the only exempt shape: disjoint-edge factors
    C = kron_graph([A.graph, B.graph])
    assert global_squares(C) > 0


@given(A=connected_bipartite_graphs(max_side=3), B=connected_bipartite_graphs(max_side=3))
@SETTINGS
def test_degree_formula(A, B):
    """d_C = d_M ⊗ d_B under both assumptions (prior-work carryover)."""
    bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
    C = bk.materialize()
    assert np.array_equal(bk.chain.degrees(np.arange(bk.n)), C.degrees())
