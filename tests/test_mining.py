"""Unit and integration tests for the frequent-subgraph miner."""

import pytest

from repro.datasets.zoo import zoo_graph
from repro.errors import MiningError
from repro.graph.builders import path_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.pattern import Pattern
from repro.mining.extension import (
    adjacent_label_pairs,
    backward_extensions,
    forward_extensions,
    single_edge_patterns,
)
from repro.mining.miner import FrequentSubgraphMiner, mine_frequent_patterns
from repro.mining.spec import MiningSpec


class TestExtensionGeneration:
    def test_adjacent_label_pairs(self):
        g = path_graph(["a", "b", "c"])
        pairs = adjacent_label_pairs(g)
        assert ("a", "b") in pairs and ("b", "a") in pairs
        assert ("b", "c") in pairs
        assert ("a", "c") not in pairs

    def test_single_edge_seeds_deduplicated(self):
        g = LabeledGraph(
            vertices=[(1, "a"), (2, "b"), (3, "a"), (4, "b")],
            edges=[(1, 2), (3, 4), (2, 3)],
        )
        seeds = single_edge_patterns(g)
        # Distinct label pairs: (a,b) and (b,a) collapse; so a-b and a... wait
        # edges are a-b, a-b, b-a: only one distinct unordered pair.
        assert len(seeds) == 1

    def test_seed_uniform_and_mixed(self):
        g = LabeledGraph(
            vertices=[(1, "a"), (2, "a"), (3, "b")],
            edges=[(1, 2), (2, 3)],
        )
        seeds = single_edge_patterns(g)
        assert len(seeds) == 2

    def test_forward_extensions_respect_label_pairs(self):
        pattern = Pattern.single_edge("a", "b")
        pairs = {("a", "b"), ("b", "a")}
        extensions = list(forward_extensions(pattern, pairs))
        # v1 (label a) can host a new b-node; v2 (label b) a new a-node.
        assert len(extensions) == 2
        assert all(ext.num_nodes == 3 for ext in extensions)

    def test_backward_extensions_close_cycles(self):
        from repro.graph.builders import path_pattern

        pattern = path_pattern(["a", "a", "a"])
        pairs = {("a", "a")}
        extensions = list(backward_extensions(pattern, pairs))
        assert len(extensions) == 1
        assert extensions[0].num_edges == 3

    def test_backward_extension_blocked_by_labels(self):
        from repro.graph.builders import path_pattern

        pattern = path_pattern(["a", "b", "c"])
        pairs = {("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")}
        assert list(backward_extensions(pattern, pairs)) == []


class TestMinerBasics:
    def test_rejects_non_anti_monotonic_measure(self):
        g = path_graph(["a", "a", "a"])
        with pytest.raises(MiningError):
            FrequentSubgraphMiner(g, spec=MiningSpec(measure="occurrences"))

    def test_non_anti_monotonic_opt_in(self):
        g = path_graph(["a", "a", "a"])
        miner = FrequentSubgraphMiner(
            g,
            spec=MiningSpec(
                measure="occurrences", allow_non_anti_monotonic=True, min_support=1
            ),
        )
        assert miner.mine().num_frequent >= 1

    def test_rejects_non_positive_support(self):
        g = path_graph(["a", "a"])
        with pytest.raises(MiningError):
            FrequentSubgraphMiner(g, spec=MiningSpec(min_support=0))

    def test_empty_graph_mines_nothing(self):
        result = mine_frequent_patterns(LabeledGraph(), spec=MiningSpec(min_support=1))
        assert result.num_frequent == 0


class TestMiningResults:
    def test_disjoint_triangles_with_mis(self, disjoint_tri_graph):
        result = mine_frequent_patterns(
            disjoint_tri_graph,
            spec=MiningSpec(
                measure="mis", min_support=3, max_pattern_nodes=3, max_pattern_edges=3
            ),
        )
        shapes = sorted((fp.num_nodes, fp.num_edges) for fp in result.frequent)
        # Edge, path-of-3, and triangle each appear 3 independent times.
        assert shapes == [(2, 1), (3, 2), (3, 3)]
        assert all(fp.support == 3 for fp in result.frequent)

    def test_threshold_monotonicity(self, disjoint_tri_graph):
        low = mine_frequent_patterns(
            disjoint_tri_graph, spec=MiningSpec(measure="mni", min_support=2)
        )
        high = mine_frequent_patterns(
            disjoint_tri_graph, spec=MiningSpec(measure="mni", min_support=4)
        )
        assert set(high.certificates()) <= set(low.certificates())

    def test_measure_ordering_nests_results(self, fan_graph):
        # sigma_MIS <= sigma_MNI pointwise => MIS-frequent set is a subset.
        mis_result = mine_frequent_patterns(
            fan_graph,
            spec=MiningSpec(measure="mis", min_support=2, max_pattern_nodes=3),
        )
        mni_result = mine_frequent_patterns(
            fan_graph,
            spec=MiningSpec(measure="mni", min_support=2, max_pattern_nodes=3),
        )
        assert set(mis_result.certificates()) <= set(mni_result.certificates())

    def test_results_sorted_by_size(self, disjoint_tri_graph):
        result = mine_frequent_patterns(
            disjoint_tri_graph, spec=MiningSpec(measure="mni", min_support=2)
        )
        sizes = [fp.num_edges for fp in result.frequent]
        assert sizes == sorted(sizes)

    def test_stats_are_consistent(self, disjoint_tri_graph):
        result = mine_frequent_patterns(
            disjoint_tri_graph, spec=MiningSpec(measure="mni", min_support=2)
        )
        stats = result.stats
        assert stats.patterns_frequent == result.num_frequent
        assert stats.patterns_evaluated == (
            stats.patterns_frequent + stats.patterns_pruned
        )
        assert stats.patterns_generated >= stats.patterns_evaluated

    def test_by_size_grouping(self, disjoint_tri_graph):
        result = mine_frequent_patterns(
            disjoint_tri_graph, spec=MiningSpec(measure="mni", min_support=2)
        )
        grouped = result.by_size()
        assert sum(len(v) for v in grouped.values()) == result.num_frequent

    def test_max_pattern_edges_cap(self, disjoint_tri_graph):
        result = mine_frequent_patterns(
            disjoint_tri_graph,
            spec=MiningSpec(measure="mni", min_support=1, max_pattern_edges=2),
        )
        assert result.max_pattern_edges() <= 2

    def test_no_duplicate_patterns(self, fan_graph):
        result = mine_frequent_patterns(
            fan_graph,
            spec=MiningSpec(measure="mni", min_support=2, max_pattern_nodes=4),
        )
        certificates = result.certificates()
        assert len(certificates) == len(set(certificates))

    def test_mined_patterns_actually_occur(self, fan_graph):
        from repro.isomorphism.vf2 import has_subgraph_isomorphism

        result = mine_frequent_patterns(
            fan_graph, spec=MiningSpec(measure="mni", min_support=2)
        )
        for fp in result.frequent:
            assert has_subgraph_isomorphism(fp.pattern, fan_graph)

    def test_mi_and_mvc_measures_work_end_to_end(self, disjoint_tri_graph):
        for measure in ("mi", "mvc", "lp_mvc"):
            result = mine_frequent_patterns(
                disjoint_tri_graph,
                spec=MiningSpec(measure=measure, min_support=2, max_pattern_nodes=3),
            )
            assert result.num_frequent >= 1, measure


class TestCompletenessAgainstBruteForce:
    def test_all_frequent_edges_found(self):
        # Brute-force: every distinct one-edge pattern with MNI >= 2 is mined.
        g = zoo_graph("bipartite")
        result = mine_frequent_patterns(
            g, spec=MiningSpec(measure="mni", min_support=2, max_pattern_edges=1)
        )
        seeds = single_edge_patterns(g)
        from repro.measures.base import compute_support

        expected = sum(1 for s in seeds if compute_support("mni", s, g) >= 2)
        assert result.num_frequent == expected
