"""``Graph``'s numpy canonicalization against the scipy sequence it
replaced, kept here as the referee.

Every input -- COO with duplicates, explicit zeros, ±1 duplicates that
cancel and self loops, in several sparse formats or dense, and
asymmetric, empty and non-square ones -- must give the referee's
``indptr``/``indices``/``data`` arrays with the referee's dtypes, or the
same ``ValueError``.  ``BipartiteGraph.from_biadjacency`` is held to the
scipy block matrix it was built with the same way.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph

SETTINGS = settings(max_examples=200, deadline=None)


def _scipy_canonical(matrix) -> sp.csr_array:
    """The scipy sequence ``Graph`` canonicalized with before numpy."""
    if sp.issparse(matrix):
        csr = sp.csr_array(matrix)
    else:
        arr = np.asarray(matrix)
        if arr.ndim != 2:
            raise ValueError(f"adjacency must be 2-D, got shape {arr.shape}")
        csr = sp.csr_array(arr)
    if csr.shape[0] != csr.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {csr.shape}")
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr = csr.astype(bool).astype(np.int64)
    diff = (csr - csr.T).tocoo()
    if diff.nnz and np.any(diff.data != 0):
        raise ValueError("adjacency must be symmetric (undirected graph)")
    csr.sort_indices()
    return csr


def _outcome(build, matrix):
    """The CSR arrays ``build`` makes of ``matrix``, or its ValueError."""
    try:
        csr = build(matrix)
    except ValueError as exc:
        return "error", str(exc)
    return csr.shape, [(a.dtype, a.tolist()) for a in (csr.indptr, csr.indices, csr.data)]


def _assert_same(matrix_factory):
    """Graph and the referee agree on fresh copies of one input (the
    referee sums duplicates in place)."""
    want = _outcome(_scipy_canonical, matrix_factory())
    got = _outcome(lambda m: Graph(m).adj, matrix_factory())
    assert got == want


@st.composite
def coordinate_inputs(draw):
    """``(shape, rows, cols, values)`` of a random coordinate input."""
    n = draw(st.integers(0, 7))
    square = draw(st.booleans()) or n == 0
    shape = (n, n) if square else (n, n + draw(st.integers(1, 2)))
    if n == 0:
        return shape, [], [], []
    entry = st.tuples(
        st.integers(0, n - 1), st.integers(0, shape[1] - 1), st.sampled_from([-1, 0, 1, 2])
    )
    entries = draw(st.lists(entry, max_size=24))
    if square and draw(st.booleans()):
        # Mirror every entry, so the input is symmetric after summing.
        entries += [(c, r, v) for r, c, v in entries]
    if square and draw(st.booleans()):
        # ±1 duplicates that cancel to an explicit zero sum.
        entries += [(r, c, s) for r, c, _ in entries[:4] for s in (1, -1)]
    rows = [r for r, _, _ in entries]
    cols = [c for _, c, _ in entries]
    values = [v for _, _, v in entries]
    return shape, rows, cols, values


_FORMATS = ["coo32", "coo64", "csr-raw", "csr", "csc", "lil", "dense", "dense-bool"]


def _build(fmt, shape, rows, cols, values):
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if fmt == "coo32":
        return sp.coo_array((values, (rows.astype(np.int32), cols.astype(np.int32))), shape=shape)
    if fmt == "coo64":
        return sp.coo_array((values, (rows, cols)), shape=shape)
    if fmt == "csr-raw":
        # Unsorted, duplicated column indices straight into CSR storage.
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return sp.csr_array((values[order], cols[order].astype(np.int32), indptr), shape=shape)
    coo = sp.coo_array((values, (rows, cols)), shape=shape)
    if fmt == "csr":
        return sp.csr_array(coo)
    if fmt == "csc":
        return sp.csc_array(coo)
    if fmt == "lil":
        return sp.lil_array(coo)
    dense = coo.toarray()
    return dense.astype(bool) if fmt == "dense-bool" else dense


@pytest.mark.parametrize("fmt", _FORMATS)
@given(spec=coordinate_inputs())
@SETTINGS
def test_canonical_csr_matches_the_scipy_referee(fmt, spec):
    _assert_same(lambda: _build(fmt, *spec))


def _scipy_block(X) -> sp.csr_array:
    """The scipy block matrix ``[[0, X], [Xᵀ, 0]]`` that
    ``from_biadjacency`` built before numpy, canonicalized."""
    X = sp.csr_array(X if sp.issparse(X) else np.asarray(X))
    nu, nw = X.shape
    upper = sp.hstack([sp.csr_array((nu, nu), dtype=np.int64), X])
    lower = sp.hstack([sp.csr_array(X.T), sp.csr_array((nw, nw), dtype=np.int64)])
    return _scipy_canonical(sp.vstack([upper, lower]))


@pytest.mark.parametrize("fmt", _FORMATS)
@given(spec=coordinate_inputs())
@SETTINGS
def test_from_biadjacency_matches_the_scipy_referee(fmt, spec):
    want = _outcome(_scipy_block, _build(fmt, *spec))
    got = _outcome(lambda m: BipartiteGraph.from_biadjacency(m).graph.adj, _build(fmt, *spec))
    assert got == want


@pytest.mark.parametrize(
    "matrix",
    [np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 0)), np.zeros((2, 3)), [[0, 1], [0, 0]]],
    ids=["1-D", "3-D", "empty", "non-square", "asymmetric"],
)
def test_degenerate_inputs_match_the_scipy_referee(matrix):
    _assert_same(lambda: np.array(matrix))


def test_graph_never_shares_the_input_arrays():
    """A canonical int64 CSR passes the sorted-input path untouched, yet
    the graph owns copies: the caller may still write to its matrix."""
    m = sp.csr_array(np.array([[0, 1], [1, 0]]))
    m.indices, m.indptr = m.indices.astype(np.int64), m.indptr.astype(np.int64)
    adj = Graph(m).adj
    assert adj.indices.dtype == np.int64
    assert not np.shares_memory(adj.indices, m.indices)
    assert not np.shares_memory(adj.indptr, m.indptr)


@st.composite
def edge_arrays(draw):
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    u = np.asarray([a for a, _ in pairs], dtype=np.int64)
    v = np.asarray([b for _, b in pairs], dtype=np.int64)
    return n, u, v


@given(spec=edge_arrays())
@SETTINGS
def test_constructors_and_helpers_match_the_scipy_referee(spec):
    """The constructors and the helpers that build a new graph keep the
    arrays and dtypes of the scipy paths they used before."""
    n, u, v = spec
    g = Graph.from_edge_arrays(n, u, v)
    ones = np.ones(2 * u.size, dtype=np.int64)
    coo = sp.coo_array((ones, (np.concatenate((u, v)), np.concatenate((v, u)))), shape=(n, n))
    want_edges = (
        _scipy_canonical(coo) if u.size else _scipy_canonical(sp.csr_array((n, n), dtype=np.int64))
    )
    inverse = np.roll(np.arange(n), 1)
    perm = np.empty_like(inverse)
    perm[inverse] = np.arange(n)
    lil = g.adj.copy().tolil()
    lil.setdiag(0)
    pairs = [
        (g.adj, want_edges),
        (Graph.from_edges(n, list(zip(u.tolist(), v.tolist()))).adj, want_edges),
        (
            g.with_all_self_loops().adj,
            _scipy_canonical(g.adj + sp.identity(n, dtype=np.int64, format="csr")),
        ),
        (g.without_self_loops().adj, _scipy_canonical(sp.csr_array(lil))),
        (g.relabel(perm).adj, _scipy_canonical(g.adj[inverse, :][:, inverse])),
        (Graph.empty(n).adj, _scipy_canonical(sp.csr_array((n, n), dtype=np.int64))),
    ]
    for got, want in pairs:
        assert _outcome(lambda m: m, got) == _outcome(lambda m: m, want)
