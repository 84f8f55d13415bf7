"""Triangle-free regions: the paper's truss-ground-truth construction.

§III-B (discussion after Thm. 3): "it is fairly easy to create
Kronecker product graphs with no 3-cycles (in certain regions or
globally).  Moreover, it is possible to create Kronecker product graphs
that have a ground truth truss decomposition."

The mechanism is the per-vertex triangle formula ``t_C = 2 t_A ⊗ t_B``
(:mod:`repro.kronecker.triangles`): a product vertex ``γ(i, k)`` is
triangle-free iff *either* factor coordinate is, so triangle-free
regions of ``C`` are unions of coordinate slabs, known at generation
time.  This module exposes that reasoning:

* :func:`triangle_free_vertex_mask` -- which product vertices touch no
  triangle;
* :func:`triangle_free_edge_count` -- how many product edges are
  certified truss-number-0 (via ``Δ_C = Δ_A ⊗ Δ_B``);
* :func:`ground_truth_truss_region` -- the induced triangle-free
  subgraph whose truss decomposition is identically zero *by
  construction* (the "ground truth truss decomposition" the paper
  advertises, in its simplest form).
"""

from __future__ import annotations

import numpy as np

from repro.analytics.triangles import edge_triangles, vertex_triangles
from repro.graphs.graph import Graph
from repro.kronecker.multifactor import KroneckerChain

__all__ = [
    "triangle_free_vertex_mask",
    "triangle_free_edge_count",
    "ground_truth_truss_region",
]


def _check_loop_free(A: Graph, B: Graph) -> None:
    if A.has_self_loops or B.has_self_loops:
        raise ValueError("triangle region analysis assumes loop-free factors")


def triangle_free_vertex_mask(A: Graph, B: Graph) -> np.ndarray:
    """Boolean mask over ``C = A ⊗ B`` vertices touching no triangle.

    ``t_C(γ(i,k)) = 2 t_A(i) t_B(k)``, so the mask is the complement of
    the outer product of the factors' triangle supports -- factor-sized
    work, product-sized output.
    """
    _check_loop_free(A, B)
    in_tri_a = vertex_triangles(A) > 0
    in_tri_b = vertex_triangles(B) > 0
    return ~np.kron(in_tri_a, in_tri_b)


def triangle_free_edge_count(A: Graph, B: Graph) -> tuple[int, int]:
    """``(triangle_free_edges, total_edges)`` of the product.

    Edges with ``Δ_C = (Δ_A ⊗ Δ_B) = 0`` have truss number 0 --
    certified without materializing or peeling anything.  Counted from
    the factor edge-triangle supports: a product edge is triangle-free
    unless *both* factor edges carry triangles.
    """
    _check_loop_free(A, B)
    ta = edge_triangles(A)
    tb = edge_triangles(B)
    # Directed stored entries with nonzero triangle support, per factor.
    nnz_tri_a = int(np.count_nonzero(ta.data))
    nnz_tri_b = int(np.count_nonzero(tb.data))
    total_entries = A.nnz * B.nnz
    tri_entries = nnz_tri_a * nnz_tri_b
    return (total_entries - tri_entries) // 2, total_entries // 2


def ground_truth_truss_region(A: Graph, B: Graph) -> Graph:
    """The induced subgraph of ``C`` on triangle-free vertices.

    Every edge of this region has truss number 0 in the region itself
    (it is triangle-free by construction), giving a product-scale graph
    with a fully known -- trivial -- truss decomposition, exactly the
    construction §III-B alludes to.  Materializes only the region.
    """
    mask = triangle_free_vertex_mask(A, B)
    C = Graph(KroneckerChain.from_graphs([A, B]).materialize())
    return C.subgraph(np.flatnonzero(mask))
