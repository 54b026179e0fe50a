"""Randomized equivalence: indexed hot paths == brute-force reference.

The GraphIndex layer (repro.index) reroutes subgraph matching, anchored
search, lazy MNI, mining, and overlap-graph construction.  Every rerouted
path must produce results *identical* to the brute-force reference
(``index=False`` / ``use_index=False``) — not merely isomorphic ones:
occurrence lists (content and order), support values, frequent-pattern
certificates, overlap adjacency.  This suite pins that on ~50 seeded
random graphs spanning sparse/dense and label-poor/label-rich regimes.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.datasets.synthetic import (
    planted_pattern_graph,
    preferential_attachment_graph,
    random_labeled_graph,
)
from repro.graph.builders import path_pattern, star_pattern, triangle_pattern
from repro.hypergraph.overlap import (
    OVERLAP_KINDS,
    occurrence_overlap_graph,
    overlap_statistics,
    overlaps,
)
from repro.index import GraphIndex, IndexMaintainer, get_index
from repro.isomorphism.anchored import (
    AnchoredSearch,
    find_anchored_isomorphisms,
    valid_images,
)
from repro.isomorphism.matcher import find_occurrences
from repro.isomorphism.vf2 import find_subgraph_isomorphisms
from repro.measures.lazy_mni import lazy_mni_support, mni_at_least
from repro.measures.mni import mni_support_from_occurrences
from repro.mining.extension import adjacent_label_pairs, single_edge_patterns
from repro.mining.miner import mine_frequent_patterns
from repro.mining.spec import MiningSpec


PATTERNS = [
    path_pattern(["A", "B"]),
    path_pattern(["A", "B", "A"]),
    path_pattern(["B", "A", "C"]),
    star_pattern("A", ["B", "B"]),
    triangle_pattern("A"),
]

#: ~50 seeded random graphs: (generator-kind, seed, size, density-ish knob).
GRAPH_SPECS = (
    [("er", seed, 14, 0.25) for seed in range(12)]
    + [("er", seed, 22, 0.15) for seed in range(12, 24)]
    + [("er", seed, 18, 0.35) for seed in range(24, 32)]
    + [("ba", seed, 24, 2) for seed in range(32, 42)]
    + [("planted", seed, 10, 0.5) for seed in range(42, 50)]
)


def build_graph(spec):
    kind, seed, size, knob = spec
    if kind == "er":
        alphabet = ("A", "B", "C") if seed % 2 else ("A", "B", "C", "D")
        return random_labeled_graph(size, knob, alphabet=alphabet, seed=seed)
    if kind == "ba":
        return preferential_attachment_graph(
            size, knob, alphabet=("A", "B", "C", "D"), seed=seed, label_skew=0.3
        )
    return planted_pattern_graph(
        star_pattern("A", ["B", "C"]),
        num_copies=size,
        overlap_fraction=knob,
        background_vertices=4,
        background_edge_probability=0.3,
        seed=seed,
    )


def ordered_items(mappings):
    """Each mapping as its item list: ``==`` on dicts ignores key order."""
    return [list(mapping.items()) for mapping in mappings]


@pytest.fixture(params=GRAPH_SPECS, ids=lambda spec: f"{spec[0]}-s{spec[1]}")
def graph(request):
    return build_graph(request.param)


class TestMatcherEquivalence:
    def test_occurrence_lists_identical(self, graph):
        for pattern in PATTERNS:
            brute = find_occurrences(pattern, graph, index=False)
            indexed = find_occurrences(pattern, graph)
            assert brute == indexed  # content AND order

    def test_generator_engine_agrees_with_collector(self, graph):
        pattern = PATTERNS[1]
        generated = [
            tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0])))
            for mapping in find_subgraph_isomorphisms(pattern, graph, index=False)
        ]
        collected = [occ.mapping_items for occ in find_occurrences(pattern, graph)]
        assert generated == collected

    def test_limit_respected_identically(self, graph):
        pattern = PATTERNS[0]
        for limit in (0, 1, 5):
            brute = find_occurrences(pattern, graph, limit=limit, index=False)
            indexed = find_occurrences(pattern, graph, limit=limit)
            generator = list(
                find_subgraph_isomorphisms(pattern, graph, limit=limit, index=False)
            )
            assert brute == indexed
            assert len(brute) == len(generator)
            assert len(brute) <= limit


class TestAnchoredEquivalence:
    def test_valid_images_identical(self, graph):
        pattern = PATTERNS[1]
        for node in pattern.nodes():
            assert valid_images(pattern, graph, node, index=False) == valid_images(
                pattern, graph, node
            )

    def test_multi_anchor_search_identical(self, graph):
        # Every 1- and 2-node anchor subset of every occurrence: the
        # anchors-first int-id plan must extend the anchors exactly like
        # the brute-force reference, for every limit, down to the key
        # order of each yielded dict.  One reused search context also
        # sees each 2-node anchor set in both insertion orders, so its
        # per-anchor-set plan cache is exercised.
        pattern = PATTERNS[1]
        nodes = sorted(pattern.nodes(), key=repr)
        subsets = [subset for r in (1, 2) for subset in combinations(nodes, r)]
        search = AnchoredSearch(pattern, graph)
        for occurrence in find_occurrences(pattern, graph, index=False):
            mapping = occurrence.mapping
            for subset in subsets:
                anchors = {node: mapping[node] for node in subset}
                flipped = {node: mapping[node] for node in subset[::-1]}
                for limit in (None, 1, 2):
                    brute = find_anchored_isomorphisms(
                        pattern, graph, anchors, limit=limit, index=False
                    )
                    indexed = find_anchored_isomorphisms(
                        pattern, graph, anchors, limit=limit
                    )
                    brute_items = ordered_items(brute)
                    assert brute_items  # the occurrence extends its own anchors
                    assert ordered_items(indexed) == brute_items
                    flipped_brute = find_anchored_isomorphisms(
                        pattern, graph, flipped, limit=limit, index=False
                    )
                    reused = search.iter_from(flipped, limit)
                    assert ordered_items(reused) == ordered_items(flipped_brute)

    def test_lazy_mni_identical_and_matches_eager(self, graph):
        for pattern in PATTERNS[:3]:
            brute = lazy_mni_support(pattern, graph, index=False)
            indexed = lazy_mni_support(pattern, graph)
            eager = mni_support_from_occurrences(
                pattern, find_occurrences(pattern, graph)
            )
            assert brute == indexed == eager
            for threshold in (1, 2, 4):
                assert mni_at_least(pattern, graph, threshold) == (eager >= threshold)
                assert mni_at_least(pattern, graph, threshold, index=False) == (
                    eager >= threshold
                )


class TestMinerEquivalence:
    def test_mining_results_identical(self, graph):
        spec = MiningSpec(
            measure="mni", min_support=2, max_pattern_nodes=4, max_pattern_edges=4
        )
        indexed = mine_frequent_patterns(graph, spec=spec)
        brute = mine_frequent_patterns(graph, spec=spec.replace(use_index=False))
        assert indexed.certificates() == brute.certificates()
        assert [fp.support for fp in indexed.frequent] == [
            fp.support for fp in brute.frequent
        ]
        assert [fp.num_occurrences for fp in indexed.frequent] == [
            fp.num_occurrences for fp in brute.frequent
        ]
        assert indexed.stats.as_dict() == brute.stats.as_dict()

    def test_seed_generation_identical(self, graph):
        index = get_index(graph)
        brute_seeds = single_edge_patterns(graph)
        indexed_seeds = single_edge_patterns(graph, index=index)
        assert [p.graph.signature() for p in brute_seeds] == [
            p.graph.signature() for p in indexed_seeds
        ]
        assert adjacent_label_pairs(graph) == adjacent_label_pairs(graph, index=index)


class TestOverlapEquivalence:
    def test_overlap_graphs_match_pairwise_reference(self, graph):
        pattern = PATTERNS[1]
        occurrences = find_occurrences(pattern, graph, limit=40)
        for kind in OVERLAP_KINDS:
            built = occurrence_overlap_graph(pattern, occurrences, kind=kind)
            for i, first in enumerate(occurrences):
                for second in occurrences[i + 1:]:
                    expected = overlaps(kind, pattern, first, second)
                    assert built.has_edge(first.index, second.index) == expected

    def test_overlap_statistics_methods_agree(self, graph):
        pattern = PATTERNS[3]
        occurrences = find_occurrences(pattern, graph, limit=30)
        assert overlap_statistics(pattern, occurrences) == overlap_statistics(
            pattern, occurrences, method="brute"
        )

    def test_overlap_statistics_tolerates_duplicate_indices(self, graph):
        # Caller-built occurrence lists may carry the default index=0 on
        # every entry; both methods must still agree (position-keyed).
        from repro.isomorphism.matcher import Occurrence

        pattern = PATTERNS[0]
        occurrences = [
            Occurrence.from_mapping(occ.mapping)  # all index=0
            for occ in find_occurrences(pattern, graph, limit=12)
        ]
        assert overlap_statistics(pattern, occurrences) == overlap_statistics(
            pattern, occurrences, method="brute"
        )


class TestIndexLifecycle:
    def test_index_caches_and_invalidates(self, graph):
        first = get_index(graph)
        assert get_index(graph) is first  # cached while unmutated
        vertex = graph.vertices()[0]
        label = graph.label_of(vertex)
        graph.add_vertex("fresh-vertex", label)
        assert not first.is_current()
        rebuilt = get_index(graph)
        assert rebuilt is not first
        assert "fresh-vertex" in rebuilt.vertices_with_label(label)

    def test_results_correct_after_mutation(self, graph):
        pattern = PATTERNS[0]
        find_occurrences(pattern, graph)  # warm the cache
        u, v = None, None
        for edge in graph.edges():
            u, v = edge
            break
        if u is None:
            pytest.skip("graph has no edges")
        graph.remove_edge(u, v)
        assert find_occurrences(pattern, graph) == find_occurrences(
            pattern, graph, index=False
        )

    def test_inverted_lists_cover_graph(self, graph):
        index = GraphIndex.build(graph)
        seen = []
        for label in graph.label_alphabet():
            members = index.vertices_with_label(label)
            assert list(members) == sorted(graph.vertices_with_label(label), key=repr)
            seen.extend(members)
        assert sorted(seen, key=repr) == graph.vertices()
        for vertex in graph.vertices():
            assert index.degree_of(vertex) == graph.degree(vertex)
            for label in graph.label_alphabet():
                assert set(index.neighbors_with_label(vertex, label)) == (
                    graph.neighbors_with_label(vertex, label)
                )


class TestExplicitIndexEquivalence:
    """index == brute, byte-identical, on every seeded graph.

    The int-id kernel (collector, generator, anchored probes) must
    reproduce the brute-force reference exactly — content AND order —
    when handed an explicit :class:`GraphIndex` instance.
    """

    def test_occurrence_lists_identical(self, graph):
        index = GraphIndex.build(graph)
        for pattern in PATTERNS:
            brute = find_occurrences(pattern, graph, index=False)
            assert find_occurrences(pattern, graph, index=index) == brute

    def test_generator_streams_identical(self, graph):
        index = GraphIndex.build(graph)
        for pattern in PATTERNS:
            for induced in (False, True):
                brute = list(
                    find_subgraph_isomorphisms(
                        pattern, graph, induced=induced, index=False
                    )
                )
                indexed = find_subgraph_isomorphisms(
                    pattern, graph, induced=induced, index=index
                )
                assert list(indexed) == brute

    def test_valid_images_identical(self, graph):
        index = GraphIndex.build(graph)
        for pattern in PATTERNS[:3]:
            for node in pattern.nodes():
                for stop_after in (None, 0, 1, 2):
                    brute = valid_images(
                        pattern, graph, node, stop_after=stop_after, index=False
                    )
                    assert (
                        valid_images(
                            pattern, graph, node, stop_after=stop_after, index=index
                        )
                        == brute
                    )
                    if stop_after == 0:
                        assert brute == []


    def test_mining_through_patched_index_identical(self, graph):
        # Mining must read a delta-patched index exactly like a fresh one:
        # remove an edge and a vertex, grow a vertex, then mine through
        # the maintained index and compare with brute force, stats included.
        maintainer = IndexMaintainer(graph)
        vertices = graph.vertices()
        edges = graph.edges()
        if edges:
            graph.remove_edge(*edges[len(edges) // 2])
        graph.remove_vertex(vertices[-1])
        graph.add_vertex("grown", graph.label_of(vertices[0]))
        for vertex in vertices[: min(3, len(vertices) - 1)]:
            graph.add_edge("grown", vertex)
        patched = maintainer.index()
        assert maintainer.rebuilds == 0 and maintainer.patches_applied >= 1
        assert get_index(graph) is patched
        spec = MiningSpec(
            measure="mni", min_support=2, max_pattern_nodes=3, max_pattern_edges=3
        )
        indexed = mine_frequent_patterns(graph, spec=spec)
        brute = mine_frequent_patterns(graph, spec=spec.replace(use_index=False))
        assert indexed.certificates() == brute.certificates()
        assert [fp.support for fp in indexed.frequent] == [
            fp.support for fp in brute.frequent
        ]
        assert indexed.stats.as_dict() == brute.stats.as_dict()


class TestMinerRobustness:
    def test_mutation_between_init_and_mine_is_respected(self):
        from repro.mining.miner import FrequentSubgraphMiner

        graph = build_graph(("er", 7, 14, 0.25))
        miner = FrequentSubgraphMiner(
            graph, spec=MiningSpec(measure="mni", min_support=2, max_pattern_nodes=3)
        )
        # Mutate after construction: session state (index, label pairs,
        # histogram prune bounds) must re-sync inside mine().
        base = graph.vertices()[0]
        for i in range(5):
            graph.add_vertex(f"late-{i}", "Z")
            graph.add_edge(base, f"late-{i}")
        mutated = miner.mine()
        fresh = mine_frequent_patterns(
            graph, spec=MiningSpec(measure="mni", min_support=2, max_pattern_nodes=3)
        )
        assert mutated.certificates() == fresh.certificates()
        assert [fp.support for fp in mutated.frequent] == [
            fp.support for fp in fresh.frequent
        ]

    def test_broken_pool_degrades_to_serial(self, monkeypatch):
        from repro.obs import metrics
        from repro.partition import ShardWorkerPool, WorkerPoolError

        def exploding_run(self, *args, **kwargs):
            """Workers that die on first use (killed-worker stand-in)."""
            raise WorkerPoolError("no workers for you")

        monkeypatch.setattr(ShardWorkerPool, "run", exploding_run)
        graph = build_graph(("er", 11, 14, 0.25))
        spec = MiningSpec(measure="mni", min_support=2, max_pattern_nodes=3)
        fallbacks = metrics.counter("repro_pool_serial_fallbacks")
        before = fallbacks.value
        broken = mine_frequent_patterns(graph, spec=spec.replace(workers=4))
        assert fallbacks.value == before + 1  # flat sessions use the pool too
        monkeypatch.undo()
        serial = mine_frequent_patterns(graph, spec=spec)
        assert broken.certificates() == serial.certificates()
        assert broken.stats.as_dict() == serial.stats.as_dict()


#: Flat pooled variants: measures, lazy MNI, truncation and the brute path.
PARALLEL_VARIANTS = {
    "mni": {},
    "mi": dict(measure="mi"),
    "mvc": dict(measure="mvc"),
    "lazy-mni": dict(lazy=True),
    "mni-truncated": dict(max_occurrences=5),
    "mi-truncated": dict(measure="mi", max_occurrences=7),
    "brute": dict(use_index=False),
}


def result_rows(result):
    return [(fp.certificate, fp.support, fp.num_occurrences) for fp in result.frequent]


@pytest.mark.parametrize("variant", sorted(PARALLEL_VARIANTS))
@pytest.mark.parametrize("seed", [3, 17, 29])
def test_parallel_mining_identical_to_serial(seed, variant):
    """A flat pooled mine (one whole-graph shard on both workers) equals
    the serial mine, rows and stats.  Truncated mines keep the flat
    occurrence order: each candidate is one exclusive ``solo`` task."""
    graph = build_graph(("er", seed, 16, 0.3))
    base = MiningSpec(
        measure="mni", min_support=2, max_pattern_nodes=4, max_pattern_edges=4
    )
    spec = base.replace(**PARALLEL_VARIANTS[variant])
    serial = mine_frequent_patterns(graph, spec=spec)
    parallel = mine_frequent_patterns(graph, spec=spec.replace(workers=2))
    assert result_rows(parallel) == result_rows(serial)
    assert parallel.stats.as_dict() == serial.stats.as_dict()


@pytest.mark.parametrize("measure", ["mni", "mi", "mvc", "mis"])
def test_all_measures_mine_identically(measure):
    graph = build_graph(("planted", 45, 8, 0.6))
    spec = MiningSpec(
        measure=measure, min_support=2, max_pattern_nodes=4, max_pattern_edges=4
    )
    indexed = mine_frequent_patterns(graph, spec=spec)
    brute = mine_frequent_patterns(graph, spec=spec.replace(use_index=False))
    assert indexed.certificates() == brute.certificates()
    assert [fp.support for fp in indexed.frequent] == [
        fp.support for fp in brute.frequent
    ]
