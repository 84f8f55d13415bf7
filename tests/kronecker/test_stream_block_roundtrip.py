"""``stream_edges`` is the chain's row stream, block for block.

There is one entry stream: :func:`~repro.kronecker.stream_edges` is the
instrumented pass over ``bk.chain.stream_rows``
at the one block size, ``STREAM_BLOCK_ENTRIES``.  Its concatenation is
the chain stream's, with and without ground truth, and is the
materialized product's entry set; blocks kept as they come stay valid
(no buffer is reused behind the caller).  A large left factor against a
tiny right factor streams in a handful of blocks, not one per
left-factor entry.  Block-size invariance of ``stream_rows`` itself is
pinned in ``tests/kronecker/test_chain.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import complete_bipartite, complete_graph, path_graph, star_graph
from repro.kronecker import Assumption, make_bipartite_product, stream_edges
from repro.kronecker.multifactor import STREAM_BLOCK_ENTRIES
from tests.strategies import products

SETTINGS = settings(max_examples=20, deadline=None)


def _flatten(blocks):
    return [np.concatenate(cols) for cols in zip(*blocks)]


def _copied(blocks):
    return [tuple(a.copy() for a in block) for block in blocks]


@pytest.mark.parametrize("attach", [False, True])
@given(data=st.data())
@SETTINGS
def test_stream_edges_is_the_chain_stream(attach, data):
    assumption = data.draw(st.sampled_from(list(Assumption)))
    bk = data.draw(products(assumption))
    chain = bk.chain
    want = _flatten(_copied(chain.stream_rows(0, chain.n, attach_ground_truth=attach)))
    got = _flatten(_copied(stream_edges(chain, attach_ground_truth=attach)))
    # Blocks kept without a copy must equal the copied stream: nothing
    # the stream yields is overwritten by a later block (7-entry blocks
    # make these small products span many).
    kept = _flatten(list(stream_edges(chain, attach_ground_truth=attach)))
    small = _flatten(
        list(chain.stream_rows(0, chain.n, attach_ground_truth=attach, block_entries=7))
    )
    assert len(got) == len(kept) == len(small) == len(want) == (3 if attach else 2)
    for g, k, s, w in zip(got, kept, small, want):
        assert g.dtype == w.dtype == np.int64
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(k, w)
        np.testing.assert_array_equal(s, w)
    # The entries are the materialized product's, each exactly once.
    coo = bk.materialize().adj.tocoo()
    order = np.lexsort((want[1], want[0]))
    np.testing.assert_array_equal(want[0][order], coo.row)
    np.testing.assert_array_equal(want[1][order], coo.col)


def test_oversized_block_yields_once():
    """A product smaller than one block comes out as a single block."""
    for bk in (
        make_bipartite_product(
            complete_graph(4), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
        ),
        make_bipartite_product(
            complete_bipartite(2, 2).graph, star_graph(3), Assumption.SELF_LOOPS_FACTOR
        ),
        make_bipartite_product(path_graph(4), path_graph(5), Assumption.SELF_LOOPS_FACTOR),
    ):
        directed_edges = bk.M.adj.nnz * bk.B.graph.adj.nnz
        assert directed_edges < STREAM_BLOCK_ENTRIES
        blocks = list(stream_edges(bk.chain, attach_ground_truth=True))
        assert len(blocks) == 1
        p, q, dia = blocks[0]
        assert p.size == q.size == dia.size == directed_edges


def test_unchunked_stream_yields_fresh_arrays():
    """Consecutive blocks share no memory, so kept blocks stay valid."""
    bk = make_bipartite_product(
        complete_graph(4), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
    )
    chain = bk.chain
    blocks = list(chain.stream_rows(0, chain.n, attach_ground_truth=True, block_entries=7))
    assert len(blocks) > 1
    kept = list(stream_edges(chain, attach_ground_truth=True))
    for got, want in zip(_flatten(kept), _flatten(blocks)):
        np.testing.assert_array_equal(got, want)
    for first, second in zip(blocks, blocks[1:]):
        assert not any(np.shares_memory(a, b) for a, b in zip(first, second))


@pytest.mark.parametrize("attach", [False, True])
def test_tiny_right_factor_streams_few_blocks(unicode_like, attach):
    """Thousands of left-factor entries against a 2-entry right factor
    fill whole blocks instead of emitting one block per left entry."""
    bk = make_bipartite_product(
        unicode_like, path_graph(2), Assumption.SELF_LOOPS_FACTOR, require_connected=False
    )
    nnz = bk.M.adj.nnz * bk.B.graph.adj.nnz
    assert bk.M.adj.nnz > 1000
    sizes = [block[0].size for block in stream_edges(bk.chain, attach_ground_truth=attach)]
    assert sum(sizes) == nnz
    assert len(sizes) <= math.ceil(nnz / STREAM_BLOCK_ENTRIES) + 2
