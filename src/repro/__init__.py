"""repro: non-stochastic Kronecker generation of bipartite graphs with
ground-truth 4-cycle counts and dense structure.

A faithful, laptop-scale reproduction of

    Steil, McMillan, Sanders, Pearce, Priest.
    "Kronecker Graph Generation with Ground Truth for 4-Cycles and
    Dense Structure in Bipartite Graphs."  IEEE IPDPSW (GrAPL) 2020.

Quickstart::

    from repro import (
        Assumption, make_bipartite_product, GroundTruthOracle,
        path_graph, cycle_graph,
    )

    bk = make_bipartite_product(cycle_graph(3), path_graph(4),
                                Assumption.NON_BIPARTITE_FACTOR)
    oracle = GroundTruthOracle(bk)
    print(oracle.global_squares())        # exact, without forming C

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured experiment index.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Graph": ".graphs",
    "BipartiteGraph": ".graphs",
    "bipartition": ".graphs",
    "is_bipartite": ".graphs",
    "is_connected": ".graphs",
    "path_graph": ".generators",
    "cycle_graph": ".generators",
    "star_graph": ".generators",
    "complete_graph": ".generators",
    "complete_bipartite": ".generators",
    "preferential_attachment": ".generators",
    "scale_free_bipartite_factor": ".generators",
    "scale_free_nonbipartite_factor": ".generators",
    "bipartite_chung_lu": ".generators",
    "powerlaw_weights": ".generators",
    "rmat": ".generators",
    "bipartite_rmat": ".generators",
    "bipartite_bter": ".generators",
    "konect_unicode_like": ".generators",
    "Assumption": ".kronecker",
    "BipartiteKronecker": ".kronecker",
    "make_bipartite_product": ".kronecker",
    "vertex_squares_product": ".kronecker",
    "edge_squares_product": ".kronecker",
    "global_squares_product": ".kronecker",
    "predict_product_connectivity": ".kronecker",
    "GroundTruthOracle": ".kronecker",
    "BipartiteCommunity": ".kronecker",
    "product_community": ".kronecker",
    "thm7_product_counts": ".kronecker",
    "stream_edges": ".kronecker",
    "validate_counter": ".validation",
    "standard_battery": ".validation",
    "ValidationReport": ".validation",
})
__all__.insert(0, "__version__")
