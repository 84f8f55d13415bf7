"""Full-pipeline integration: disk -> factor -> product -> oracle -> disk.

Mirrors how a downstream user would actually consume the library: load
a factor from a standard file format, build the validated product,
answer queries through the oracle, check experiment data, and round
the product itself back through the I/O layer.
"""

import numpy as np
import pytest

from repro import Assumption, GroundTruthOracle, make_bipartite_product
from repro.analytics import global_squares
from repro.experiments import fig5_degree_vs_squares
from repro.graphs import (
    BipartiteGraph,
    read_matrix_market,
    write_edge_list,
    read_edge_list,
    write_matrix_market,
)
from repro.generators import complete_bipartite, konect_unicode_like
from repro.refcheck.printed import product_stats


class TestDiskToOracle:
    def test_matrix_market_factor_to_product(self, tmp_path):
        # 1. a user ships a bipartite factor as Matrix Market
        original = konect_unicode_like(seed=42)
        mm = tmp_path / "factor.mtx"
        write_matrix_market(original, mm)

        # 2. load and build the §IV product
        factor = read_matrix_market(mm)
        assert isinstance(factor, BipartiteGraph)
        bk = make_bipartite_product(
            factor, factor, Assumption.SELF_LOOPS_FACTOR, require_connected=False
        )

        # 3. the oracle answers from factor-sized state
        oracle = GroundTruthOracle(bk)
        assert oracle.global_squares() > 10**7
        # and its factor row agrees with direct counting on the factor
        assert global_squares(factor.graph) == sum(
            product_stats(bk)[0].s.tolist()
        ) // 4

    def test_fig5_product_degrees_multiply_factor_degrees(self):
        factor = complete_bipartite(3, 4)
        bk = make_bipartite_product(factor, factor, Assumption.SELF_LOOPS_FACTOR)
        fig = fig5_degree_vs_squares(bk)
        # degrees of C = (A + I) ⊗ A multiply factor degrees: (a + 1) * b
        degrees = set(fig.product.degree.tolist())
        d_factor = set(factor.graph.degrees().tolist())
        assert degrees <= {(a + 1) * b for a in d_factor for b in d_factor}

    def test_product_roundtrip_through_edge_list(self, tmp_path):
        factor = complete_bipartite(2, 3)
        bk = make_bipartite_product(factor, factor, Assumption.SELF_LOOPS_FACTOR)
        C = bk.materialize()
        path = tmp_path / "product.txt"
        write_edge_list(C, path)
        loaded = read_edge_list(path, n=C.n)
        assert loaded == C
        # Ground truth still describes the reloaded graph.
        from repro.analytics import global_squares
        from repro.kronecker import global_squares_product

        assert global_squares(loaded) == global_squares_product(bk)
