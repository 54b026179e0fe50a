"""Unit and property tests for additive (component-wise) measure computation.

The measure entry points (``*_support_of``) split by connected component and
sum; the kernels solve the whole graph they are given.  These tests pin the
split against the whole-graph kernels.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.paper_figures import load_figure
from repro.datasets.synthetic import planted_pattern_graph, random_labeled_graph
from repro.errors import BudgetExceededError
from repro.graph.builders import path_pattern, triangle_pattern
from repro.hypergraph.hypergraph import Hypergraph, component_statistics
from repro.hypergraph.construction import HypergraphBundle
from repro.hypergraph.overlap import instance_overlap_graph
from repro.measures.mcp import mcp_support_of, minimum_clique_partition
from repro.measures.mies import maximum_independent_edge_set, mies_support_of
from repro.measures.mis import maximum_independent_set, mis_support_of
from repro.measures.mvc import minimum_vertex_cover, mvc_support_of
from repro.measures.relaxations import lp_mvc_support_of


class TestComponents:
    def test_disjoint_edges_are_singleton_components(self):
        h = Hypergraph.from_edge_sets([[1, 2], [3, 4], [5, 6]])
        components = h.components()
        assert len(components) == 3
        assert all(c.num_edges == 1 for c in components)

    def test_chain_is_one_component(self):
        h = Hypergraph.from_edge_sets([[1, 2], [2, 3], [3, 4]])
        assert len(h.components()) == 1

    def test_empty_hypergraph(self):
        assert Hypergraph().components() == []

    def test_components_partition_edges(self):
        h = Hypergraph.from_edge_sets([[1, 2], [2, 3], [7, 8], [9, 10], [10, 11]])
        components = h.components()
        labels = sorted(
            edge.label for component in components for edge in component.edges()
        )
        assert labels == sorted(e.label for e in h.edges())

    def test_fig3_has_three_components(self):
        fig = load_figure("fig3")
        bundle = HypergraphBundle.build(fig.pattern, fig.data_graph)
        # {e1}, {e2, e3, e4}, {e5, e6}.
        components = bundle.occurrence_hg.components()
        sizes = sorted(c.num_edges for c in components)
        assert sizes == [1, 2, 3]


def assert_entry_points_match_kernels(bundle):
    h = bundle.occurrence_hg
    assert mvc_support_of(h) == len(minimum_vertex_cover(h))
    assert mies_support_of(h) == len(maximum_independent_edge_set(h))
    overlap = instance_overlap_graph(bundle.instances)
    assert mis_support_of(overlap) == len(maximum_independent_set(overlap))
    assert mcp_support_of(overlap) == len(minimum_clique_partition(overlap))


class TestAdditivity:
    @pytest.mark.parametrize("figure_id", [f"fig{i}" for i in range(1, 11)])
    def test_decomposed_equals_monolithic_on_figures(self, figure_id):
        fig = load_figure(figure_id)
        bundle = HypergraphBundle.build(fig.pattern, fig.data_graph)
        assert_entry_points_match_kernels(bundle)
        # The LP stays whole, but it is additive too.
        h = bundle.occurrence_hg
        assert sum(lp_mvc_support_of(c) for c in h.components()) == pytest.approx(
            lp_mvc_support_of(h), abs=1e-6
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=3_000))
    def test_decomposed_equals_monolithic_on_random(self, seed):
        graph = random_labeled_graph(10, 0.25, alphabet=("A", "B"), seed=seed)
        pattern = path_pattern(["A", "B"])
        assert_entry_points_match_kernels(HypergraphBundle.build(pattern, graph))

    def test_decomposition_shrinks_planted_workload(self):
        pattern = triangle_pattern("A", "B", "C")
        graph = planted_pattern_graph(
            pattern, num_copies=12, overlap_fraction=0.3, seed=5
        )
        bundle = HypergraphBundle.build(pattern, graph)
        stats = component_statistics(bundle.occurrence_hg)
        assert stats["components"] > 1
        assert stats["reduction"] < 1.0

    def test_statistics_empty(self):
        stats = component_statistics(Hypergraph())
        assert stats["components"] == 0


class TestPerComponentBudget:
    """``budget`` bounds each component's search, not the whole graph's."""

    BUDGET = 16

    @staticmethod
    def cycles(copies=4, length=5):
        # Copies of one 3-uniform cycle: consecutive edges share one vertex.
        return Hypergraph.from_edge_sets(
            [
                [(c, 2 * i), (c, 2 * i + 1), (c, (2 * i + 2) % (2 * length))]
                for c in range(copies)
                for i in range(length)
            ]
        )

    def test_mvc_entry_point_fits_where_the_kernel_does_not(self):
        h = self.cycles()
        assert mvc_support_of(h, budget=self.BUDGET) == 4 * 3
        with pytest.raises(BudgetExceededError):
            minimum_vertex_cover(h, budget=self.BUDGET)

    def test_mies_entry_point_fits_where_the_kernel_does_not(self):
        h = self.cycles()
        assert mies_support_of(h, budget=self.BUDGET) == 4 * 2
        with pytest.raises(BudgetExceededError):
            maximum_independent_edge_set(h, budget=self.BUDGET)
