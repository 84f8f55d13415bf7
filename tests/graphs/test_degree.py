"""Tests for degree statistics and heavy-tail diagnostics."""

import numpy as np
import pytest

from repro.generators import (
    complete_graph,
    cycle_graph,
    konect_unicode_like,
    path_graph,
    star_graph,
)
from repro.graphs import Graph, degree_distribution, degree_statistics, powerlaw_slope
from repro.graphs.degree import prime_degree_fraction, _is_prime


class TestDegreeDistribution:
    def test_regular_graph_single_bin(self):
        values, counts = degree_distribution(cycle_graph(5))
        assert values.tolist() == [2]
        assert counts.tolist() == [5]

    def test_star(self):
        values, counts = degree_distribution(star_graph(4))
        assert values.tolist() == [1, 4]
        assert counts.tolist() == [4, 1]

    def test_counts_sum_to_n(self):
        g = path_graph(7)
        _, counts = degree_distribution(g)
        assert counts.sum() == g.n


class TestDegreeStatistics:
    def test_cycle(self):
        st = degree_statistics(cycle_graph(6))
        assert (st.d_min, st.d_max) == (2, 2)
        assert st.d_mean == 2.0
        assert st.gini == 0.0

    def test_star_skew(self):
        st = degree_statistics(star_graph(10))
        assert st.d_max == 10
        assert st.gini > 0.3

    def test_empty(self):
        st = degree_statistics(Graph.empty(0))
        assert st.n == 0

    def test_edgeless(self):
        st = degree_statistics(Graph.empty(5))
        assert st.gini == 0.0
        assert st.d_max == 0

    def test_row_formats(self):
        assert "d_max" in degree_statistics(path_graph(3)).row()


class TestPowerlawSlope:
    def test_regular_graph_nan(self):
        assert np.isnan(powerlaw_slope(cycle_graph(8)))

    def test_heavy_tail_negative_slope(self):
        g = konect_unicode_like().graph
        slope = powerlaw_slope(g)
        assert slope < -0.5

    def test_d_min_filter(self):
        g = star_graph(6)
        # only degrees {1, 6}; with d_min=2 a single point remains -> nan
        assert np.isnan(powerlaw_slope(g, d_min=2))


class TestPrimeDegrees:
    def test_is_prime_vector(self):
        vals = np.array([0, 1, 2, 3, 4, 5, 12, 13, 25, 29])
        expected = [False, False, True, True, False, True, False, True, False, True]
        assert _is_prime(vals).tolist() == expected

    def test_complete_graph_prime_degrees(self):
        # K_14: every degree is 13 (prime > 10)
        assert prime_degree_fraction(complete_graph(14), threshold=10) == 1.0

    def test_no_big_degrees(self):
        assert prime_degree_fraction(path_graph(5), threshold=10) == 0.0

    def test_kronecker_product_lacks_prime_degrees(self):
        """The paper's §I observation: products have composite degrees."""
        from tests.shard_referee import kron_graph

        A = star_graph(12)  # hub degree 12
        B = star_graph(13)  # hub degree 13
        C = kron_graph([A, B])
        # Degrees are products d_i * d_k; hubs give 156, leaves small.
        assert prime_degree_fraction(C, threshold=13) == 0.0
