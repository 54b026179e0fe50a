"""Edge-case tests for smaller code paths across the library."""

import pytest

from repro.errors import MeasureError
from repro.graph.builders import complete_graph, path_graph, triangle_pattern
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.pattern import Pattern
from repro.hypergraph.construction import HypergraphBundle
from repro.isomorphism.matcher import find_occurrences
from repro.measures.base import available_measures, compute_support, measure_info


class TestMeasureRegistry:
    def test_unknown_measure(self):
        g = path_graph(["a", "a"])
        with pytest.raises(MeasureError):
            compute_support("nonexistent", Pattern.single_edge("a", "a"), g)

    def test_all_registered_measures_compute_on_small_graph(self):
        g = path_graph(["a", "b", "a"])
        p = Pattern.single_edge("a", "b")
        bundle = HypergraphBundle.build(p, g)
        for name in available_measures():
            value = compute_support(name, p, g, bundle=bundle)
            assert value >= 0.0, name

    def test_expected_measures_present(self):
        names = available_measures()
        for expected in (
            "occurrences", "instances", "mni", "mi", "mvc", "mvc_greedy",
            "mis", "mis_occurrence", "mis_harmful", "mis_structural",
            "mies", "mies_occurrence", "mcp", "lp_mvc", "lp_mies", "pmvc",
        ):
            assert expected in names, expected

    def test_measure_info_metadata(self):
        info = measure_info("mni")
        assert info.anti_monotonic
        assert "O(m)" in info.complexity
        assert info.display_name

    def test_anti_monotone_flags(self):
        # The paper's taxonomy: raw counts are not anti-monotonic;
        # all chain measures are.
        assert not measure_info("occurrences").anti_monotonic
        assert not measure_info("instances").anti_monotonic
        for name in ("mni", "mi", "mvc", "mis", "mies", "lp_mvc", "lp_mies", "mcp"):
            assert measure_info(name).anti_monotonic, name


class TestBundleSharing:
    def test_bundle_reuse_matches_fresh(self, fig6):
        bundle = HypergraphBundle.build(fig6.pattern, fig6.data_graph)
        for name in ("mni", "mi", "mvc", "mis"):
            with_bundle = compute_support(
                name, fig6.pattern, fig6.data_graph, bundle=bundle
            )
            fresh = compute_support(name, fig6.pattern, fig6.data_graph)
            assert with_bundle == fresh, name


class TestOccurrenceLimits:
    def test_find_occurrences_limit(self):
        g = complete_graph(["a"] * 5)
        p = triangle_pattern("a")
        limited = find_occurrences(p, g, limit=10)
        assert len(limited) == 10
        assert [o.index for o in limited] == list(range(10))

    def test_bundle_limit(self):
        g = complete_graph(["a"] * 5)
        p = triangle_pattern("a")
        bundle = HypergraphBundle.build(p, g, limit=6)
        assert bundle.num_occurrences == 6


class TestLazyMiningFloatThreshold:
    def test_float_min_support_ceils(self):
        from repro.datasets.zoo import zoo_graph
        from repro.mining import MiningSpec, mine_frequent_patterns

        graph = zoo_graph("disjoint_triangles")
        result = mine_frequent_patterns(
            graph,
            spec=MiningSpec(
                measure="mni", min_support=2.5, max_pattern_nodes=3, lazy=True
            ),
        )
        # Threshold 2.5 requires support >= 2.5, i.e. 3 confirmed images.
        assert all(fp.support >= 2.5 for fp in result.frequent)


class TestPatternNaming:
    def test_node_names_survive_extension_conflicts(self):
        # Extending a pattern whose nodes are not contiguous v1..vk.
        p = Pattern.from_edges([("v1", "a"), ("v3", "a")], [("v1", "v3")])
        extended = p.extend_with_node("v1", "v2", "a")
        assert extended.num_nodes == 3

    def test_pattern_repr(self):
        p = triangle_pattern("a")
        assert "nodes=3" in repr(p)


class TestGraphReprAndName:
    def test_named_graph_repr(self):
        g = LabeledGraph(name="demo")
        assert "demo" in repr(g)

    def test_subgraph_inherits_name_marker(self):
        g = path_graph(["a", "b"], name="base")
        sub = g.subgraph([1])
        assert "base" in sub.name
