"""Experiment harness shared by ``benchmarks/`` and ``examples/``.

Each public function reproduces one paper artifact (table / figure /
claim) and returns a structured result with a ``format()`` method that
prints the same rows/series the paper reports.  The pytest-benchmark
files under ``benchmarks/`` time these functions; the scripts under
``examples/`` narrate them.

Artifact index (see DESIGN.md §2.5 for the full mapping):

=========  ==========================================================
``fig1``   :func:`~repro.experiments.figures.fig1_connectivity_table`
``fig2``   :func:`~repro.experiments.figures.fig2_closed_walk_identity`
``fig3``   :func:`~repro.experiments.figures.fig3_example_squares`
``fig4``   :func:`~repro.experiments.figures.fig4_edge_walk_identity`
``fig5``   :func:`~repro.experiments.figures.fig5_degree_vs_squares`
``tab1``   :func:`~repro.experiments.tables.table1_unicode`
``thm6``   :func:`~repro.experiments.scaling.thm6_tightness`
``cor12``  :func:`~repro.experiments.scaling.community_bounds_sweep`
``cost``   :func:`~repro.experiments.scaling.groundtruth_vs_direct`
``gen``    :func:`~repro.experiments.scaling.generation_throughput`
=========  ==========================================================
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "fig1_connectivity_table": ".figures",
    "fig2_closed_walk_identity": ".figures",
    "fig3_example_squares": ".figures",
    "fig4_edge_walk_identity": ".figures",
    "fig5_degree_vs_squares": ".figures",
    "table1_unicode": ".tables",
    "thm6_tightness": ".scaling",
    "community_bounds_sweep": ".scaling",
    "groundtruth_vs_direct": ".scaling",
    "generation_throughput": ".scaling",
    "unicode_seed_sweep": ".robustness",
})
