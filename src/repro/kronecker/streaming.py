"""Streaming edge generation of Kronecker products.

The generation use case (§I, §V "implement this style of generator ...
including using the ground truth formulas derived here to compute
ground truth values during generation"): emit the edges of a
Kronecker chain ``C = X₁ ⊗ … ⊗ X_k`` (for an Assumption-1 product the
chain ``[M, B]``) in bounded blocks without ever holding ``C``.

The blocks are those of the chain's
:meth:`~repro.kronecker.multifactor.KroneckerChain.stream_rows` over all
product rows: about
:data:`~repro.kronecker.multifactor.STREAM_BLOCK_ENTRIES` entries each,
in ``X₁``'s CSR entry order expanded by each later factor's.  Each *directed*
stored entry of ``C`` appears exactly once across the stream; callers
wanting undirected edges once can filter ``p <= q`` per block (the
helper does this for its edge-count audit).

``attach_ground_truth=True`` additionally emits the per-edge 4-cycle
count of every streamed edge, computed from the chain's factor tables
on the fly (Def. 9) -- ground truth *during generation*, the paper's
future-work item.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.kronecker.multifactor import KroneckerChain
from repro.obs import get_events, get_metrics, get_tracer

__all__ = ["stream_edges", "streamed_connectivity_audit"]


def stream_edges(
    chain: KroneckerChain, attach_ground_truth: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the chain product's directed edges in blocks.

    Yields ``(p, q)`` index-array pairs -- or ``(p, q, diamonds)``
    triples when ``attach_ground_truth`` -- exactly the blocks of
    ``chain.stream_rows(0, chain.n, ...)``.
    Every yielded array is its own, so blocks may be kept as they come.
    """
    # Per-block accounting, gated on one boolean so the disabled path
    # pays a single branch per block.
    metrics = get_metrics()
    tracking = metrics.enabled
    if tracking:
        edges_streamed = metrics.counter("edges_streamed_total")
        blocks_streamed = metrics.counter("stream.blocks_total")
        block_bytes = metrics.histogram("stream.block_size_bytes")
    # Event emission is gated the same way: one boolean per block.
    events = get_events()
    emitting = events.enabled
    for block in chain.stream_rows(0, chain.n, attach_ground_truth=attach_ground_truth):
        if tracking:
            edges_streamed.inc(int(block[0].size))
            blocks_streamed.inc()
            block_bytes.observe(sum(a.nbytes for a in block))
        if emitting:
            events.emit("stream.block", edges=int(block[0].size))
        yield block


def streamed_connectivity_audit(chain: KroneckerChain) -> tuple[int, int]:
    """Stream the whole product through a connectivity reduction.

    Returns ``(n_components, edges_seen)`` where ``edges_seen`` counts
    undirected edges once.  This is how a generator can *certify*
    Thms. 1-2 on a product too large to materialize as an adjacency.

    Implementation: the streamed blocks are buffered into flat endpoint
    arrays and resolved with vectorised min-label propagation
    (:func:`~repro.graphs.connectivity.components_from_edge_arrays`) --
    ~10x faster than a per-edge Python union-find at multi-million-edge
    scale, at the cost of O(|E_C|) transient index memory.  For an
    O(n_C)-memory variant, feed :class:`~repro.graphs.connectivity.UnionFind`
    block by block instead.
    """
    from repro.graphs.connectivity import components_from_edge_arrays

    with get_tracer().span("stream.connectivity_audit", n=chain.n) as sp:
        us, vs = [], []
        edges = 0
        for p, q in stream_edges(chain):
            keep = p <= q
            us.append(p[keep])
            vs.append(q[keep])
            edges += int(p[keep].size)
        u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
        v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
        labels = components_from_edge_arrays(chain.n, u, v)
        n_components = int(np.unique(labels).size)
        sp.set(edges=edges, components=n_components)
    return n_components, edges
