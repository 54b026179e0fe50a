"""Cross-cutting framework properties on randomized inputs.

These tie subsystems together: dual-hypergraph identities, LP duality as a
*property* (not just on examples), solver cross-validation (blossom vs
branch-and-bound vs LP bounds), and miner completeness against a
brute-force oracle at depth 2.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import planted_pattern_graph, random_labeled_graph
from repro.graph.builders import path_pattern
from repro.graph.pattern import Pattern
from repro.hypergraph.hypergraph import Hypergraph, dual_hypergraph
from repro.measures.mies import mies_support_of
from repro.measures.mvc import mvc_support_of
from repro.measures.relaxations import lp_mies_support_of, lp_mvc_support_of


def random_hypergraph(
    seed: int, max_vertices: int = 9, max_edges: int = 8
) -> Hypergraph:
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    num_vertices = rng.randint(k, max_vertices)
    num_edges = rng.randint(1, max_edges)
    edge_sets = []
    for _ in range(num_edges):
        edge_sets.append(rng.sample(range(num_vertices), k))
    return Hypergraph.from_edge_sets(edge_sets)


class TestDualIdentities:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_dual_preserves_incidence_count(self, seed):
        h = random_hypergraph(seed)
        dual = dual_hypergraph(h)
        primal_incidences = sum(len(edge) for edge in h.edges())
        dual_incidences = sum(len(edge) for edge in dual.hypergraph.edges())
        assert primal_incidences == dual_incidences

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_dual_edge_sizes_are_vertex_degrees(self, seed):
        h = random_hypergraph(seed)
        dual = dual_hypergraph(h)
        for vertex in h.vertices():
            assert len(dual.dual_edge(vertex)) == h.vertex_degree(vertex)


class TestLPDualityProperty:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cover_packing_duality(self, seed):
        h = random_hypergraph(seed)
        assert lp_mvc_support_of(h) == pytest.approx(lp_mies_support_of(h), abs=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_weak_duality_sandwich(self, seed):
        h = random_hypergraph(seed)
        nu = lp_mvc_support_of(h)
        assert mies_support_of(h) <= nu + 1e-6
        assert nu <= mvc_support_of(h) + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_k_uniform_lp_bound(self, seed):
        h = random_hypergraph(seed)
        k = max(len(edge) for edge in h.edges())
        assert lp_mvc_support_of(h) >= mvc_support_of(h) / k - 1e-6


class TestSpectrumDispatch:
    def test_blossom_path_taken_for_large_edge_patterns(self):
        # > 60 instances of a one-edge pattern: the spectrum must still
        # satisfy MIS == MIES and finish quickly.
        from repro.analysis.spectrum import measure_spectrum

        pattern = Pattern.single_edge("A", "B")
        graph = planted_pattern_graph(
            pattern, num_copies=80, overlap_fraction=0.2, seed=3
        )
        spectrum = measure_spectrum(
            pattern, graph, include=["mis", "mies", "mvc", "mni"]
        )
        assert spectrum.value("mis") == spectrum.value("mies")
        assert spectrum.value("mis") <= spectrum.value("mvc")


class TestMinerDepth2Oracle:
    def test_two_edge_frequent_patterns_complete(self):
        # Oracle: enumerate all connected 2-edge patterns over the label
        # pairs and check the miner finds exactly the frequent ones.
        from repro.measures.base import compute_support
        from repro.mining.extension import adjacent_label_pairs
        from repro.mining.miner import mine_frequent_patterns
        from repro.mining.spec import MiningSpec
        from repro.graph.canonical import canonical_certificate

        graph = random_labeled_graph(12, 0.25, alphabet=("A", "B"), seed=11)
        threshold = 2
        result = mine_frequent_patterns(
            graph,
            spec=MiningSpec(measure="mni", min_support=threshold, max_pattern_edges=2),
        )
        mined = {fp.certificate for fp in result.frequent if fp.num_edges == 2}

        pairs = adjacent_label_pairs(graph)
        labels = sorted({l for pair in pairs for l in pair})
        oracle = set()
        # Shape 1: path v1 - v2 - v3.
        for a in labels:
            for b in labels:
                for c in labels:
                    if (a, b) in pairs and (b, c) in pairs:
                        pattern = Pattern.from_edges(
                            [("v1", a), ("v2", b), ("v3", c)],
                            [("v1", "v2"), ("v2", "v3")],
                        )
                        if compute_support("mni", pattern, graph) >= threshold:
                            oracle.add(canonical_certificate(pattern.graph))
        assert mined == oracle


class TestMeasureMonotoneInData:
    """Adding data edges never *decreases* any anti-monotone measure value
    computed on the same pattern (more occurrences, supersets of images)."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_mni_monotone_under_data_growth(self, seed):
        from repro.isomorphism.matcher import find_occurrences
        from repro.measures.mni import mni_support_from_occurrences

        rng = random.Random(seed)
        graph = random_labeled_graph(8, 0.2, alphabet=("A",), seed=seed)
        pattern = path_pattern(["A", "A"])
        before = mni_support_from_occurrences(pattern, find_occurrences(pattern, graph))
        # Add one random non-edge.
        vertices = graph.vertices()
        for _ in range(20):
            u, v = rng.sample(vertices, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                break
        after = mni_support_from_occurrences(pattern, find_occurrences(pattern, graph))
        assert after >= before
