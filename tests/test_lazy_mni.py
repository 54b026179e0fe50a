"""Tests for anchored isomorphism search and lazy (GraMi-style) MNI."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import random_labeled_graph
from repro.datasets.zoo import zoo_graph
from repro.errors import MeasureError, MiningError
from repro.graph.builders import (
    path_graph,
    path_pattern,
    star_graph,
    star_pattern,
    triangle_pattern,
)
from repro.graph.pattern import Pattern
from repro.isomorphism.anchored import (
    AnchoredSearch,
    find_anchored_isomorphisms,
    has_occurrence_with,
    valid_images,
)
from repro.isomorphism.matcher import find_occurrences
from repro.measures.lazy_mni import lazy_mni_support, mni_at_least
from repro.measures.mni import mni_support_from_occurrences
from repro.mining.miner import FrequentSubgraphMiner, mine_frequent_patterns
from repro.mining.spec import MiningSpec


class TestAnchoredSearch:
    def test_anchored_matches_filtered_enumeration(self, fig2):
        all_occurrences = find_occurrences(fig2.pattern, fig2.data_graph)
        anchored = list(
            find_anchored_isomorphisms(fig2.pattern, fig2.data_graph, {"v1": 2})
        )
        expected = [o.mapping for o in all_occurrences if o.mapping["v1"] == 2]
        assert sorted(map(repr, anchored)) == sorted(map(repr, expected))

    def test_label_mismatch_rejected(self):
        g = path_graph(["a", "b"])
        p = Pattern.single_edge("a", "b")
        assert list(find_anchored_isomorphisms(p, g, {"v1": 2})) == []

    def test_non_injective_anchor_rejected(self):
        g = path_graph(["a", "a", "a"])
        p = path_pattern(["a", "a"])
        assert list(find_anchored_isomorphisms(p, g, {"v1": 1, "v2": 1})) == []

    def test_anchored_edge_consistency(self):
        g = path_graph(["a", "a", "a"])
        p = path_pattern(["a", "a"])
        # v1=1 and v2=3 are not adjacent in the path.
        assert list(find_anchored_isomorphisms(p, g, {"v1": 1, "v2": 3})) == []

    def test_unknown_vertex_rejected(self):
        g = path_graph(["a", "a"])
        p = path_pattern(["a", "a"])
        assert list(find_anchored_isomorphisms(p, g, {"v1": 99})) == []

    def test_has_occurrence_with(self, fig2):
        assert has_occurrence_with(fig2.pattern, fig2.data_graph, "v1", 1)
        # Vertex 4 hangs off the triangle: never an image of a triangle node.
        assert not has_occurrence_with(fig2.pattern, fig2.data_graph, "v1", 4)

    def test_valid_images_matches_eager(self, fig2):
        occurrences = find_occurrences(fig2.pattern, fig2.data_graph)
        eager = {o.mapping["v1"] for o in occurrences}
        assert set(valid_images(fig2.pattern, fig2.data_graph, "v1")) == eager

    @pytest.mark.parametrize(
        "pattern",
        [
            path_pattern(["A", "B", "C", "D"]),
            path_pattern(["D", "A", "A", "B", "C"]),
            star_pattern("B", ["A", "C", "D"]),
            triangle_pattern("A", "B", "C"),
        ],
        ids=["path4", "path5", "star", "triangle"],
    )
    def test_anchored_plans_extend_from_mapped_neighbours(self, pattern):
        """Past the anchors, every plan depth of a connected pattern has a
        mapped pattern neighbour, so no probe scans a whole inverted list."""
        data = random_labeled_graph(60, 0.08, seed=3)
        search = AnchoredSearch(pattern, data)
        anchor_sets = [(node,) for node in pattern.graph.vertices()]
        anchor_sets += [tuple(edge) for edge in pattern.edges()]
        for anchors in anchor_sets:
            plan = search._plan_for(anchors)
            assert not plan.empty
            assert plan.order[: plan.k] == list(anchors)
            for depth in range(plan.k, len(plan.order)):
                assert plan.prior[depth], (anchors, plan.order, depth)

    def test_valid_images_stop_after(self):
        g = star_graph("c", ["l"] * 6)
        p = Pattern.single_edge("c", "l")
        images = valid_images(p, g, "v2", stop_after=3)
        assert len(images) == 3


class TestLazyMNI:
    def test_agrees_with_eager_on_figures(self, all_figures):
        for fig in all_figures:
            eager = mni_support_from_occurrences(
                fig.pattern, find_occurrences(fig.pattern, fig.data_graph)
            )
            assert lazy_mni_support(fig.pattern, fig.data_graph) == eager, fig.figure_id

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=3_000))
    def test_agrees_with_eager_on_random(self, seed):
        graph = random_labeled_graph(9, 0.3, alphabet=("A", "B"), seed=seed)
        pattern = path_pattern(["A", "B", "A"])
        eager = mni_support_from_occurrences(
            pattern, find_occurrences(pattern, graph)
        )
        assert lazy_mni_support(pattern, graph) == eager

    def test_decision_procedure(self, fig2):
        assert mni_at_least(fig2.pattern, fig2.data_graph, 1)
        assert mni_at_least(fig2.pattern, fig2.data_graph, 3)
        assert not mni_at_least(fig2.pattern, fig2.data_graph, 4)

    def test_decision_rejects_bad_threshold(self, fig2):
        with pytest.raises(MeasureError):
            mni_at_least(fig2.pattern, fig2.data_graph, 0)

    def test_cap_truncates(self, fig2):
        assert lazy_mni_support(fig2.pattern, fig2.data_graph, cap=2) == 2

    def test_zero_when_absent(self):
        g = path_graph(["a", "a"])
        assert lazy_mni_support(triangle_pattern("a"), g) == 0
        assert not mni_at_least(triangle_pattern("a"), g, 1)

    def test_label_histogram_shortcut(self):
        # Threshold above the label population fails without any search.
        g = path_graph(["a", "b"])
        p = Pattern.single_edge("a", "b")
        assert not mni_at_least(p, g, 2)


class TestLazyMining:
    def test_lazy_matches_eager_results(self):
        graph = zoo_graph("triangle_fan")
        eager = mine_frequent_patterns(
            graph, spec=MiningSpec(measure="mni", min_support=3, max_pattern_nodes=3)
        )
        lazy = mine_frequent_patterns(
            graph,
            spec=MiningSpec(
                measure="mni", min_support=3, max_pattern_nodes=3, lazy=True
            ),
        )
        assert eager.certificates() == lazy.certificates()

    def test_lazy_never_enumerates_occurrences(self):
        graph = zoo_graph("disjoint_triangles")
        result = mine_frequent_patterns(
            graph,
            spec=MiningSpec(
                measure="mni", min_support=2, max_pattern_nodes=3, lazy=True
            ),
        )
        assert result.stats.occurrence_enumerations == 0
        assert all(fp.num_occurrences == -1 for fp in result.frequent)

    def test_lazy_requires_mni(self):
        with pytest.raises(MiningError):
            FrequentSubgraphMiner(
                zoo_graph("star"), spec=MiningSpec(measure="mi", lazy=True)
            )

    def test_lazy_supports_capped_at_threshold(self):
        graph = zoo_graph("disjoint_triangles")
        result = mine_frequent_patterns(
            graph,
            spec=MiningSpec(
                measure="mni", min_support=2, max_pattern_nodes=3, lazy=True
            ),
        )
        assert all(fp.support <= 2 for fp in result.frequent)
