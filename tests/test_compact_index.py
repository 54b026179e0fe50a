"""Compact-core tests: LabelTable interning, CSR patching, footprints.

Every decoded view of the index must equal the same view computed
straight from the graph, and its O(delta) CSR splices must land exactly
where a from-scratch rebuild would put them — under randomized mixed
insert/delete/window churn, not just single-delta unit cases.  The
intern table may keep tombstones while patching (slots are never
recycled) but a rebuild must shed them.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.synthetic import random_labeled_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.index import (
    GraphIndex,
    IndexMaintainer,
    LabelTable,
    get_index,
    projected_index_nbytes,
)
from repro.index import graph_index as graph_index_module
from repro.index.graph_index import _label_pair_key
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import MetricsRegistry


def pair_edge_counts(index):
    """The label-pair edge counts, decoded (no query method reads them)."""
    label_of, counts = index.table.label_of, index._pair_counts
    return {(label_of[a], label_of[b]): counts[a, b] for a, b in counts}


def decoded_view(index, graph):
    """Every decoded view of the index's buffers."""
    labels = graph.label_alphabet()
    return {
        "hist": index.label_histogram(),
        "adj_pairs": index.adjacent_label_pairs(),
        "pairs": index.distinct_edge_label_pairs(),
        "deg": {v: index.degree_of(v) for v in graph.vertices()},
        "sig": {v: index.signature_of(v) for v in graph.vertices()},
        "inv": {label: index.vertices_with_label(label) for label in labels},
        "nwl": {
            (v, label): index.neighbors_with_label(v, label)
            for v in graph.vertices()
            for label in labels
        },
        "edges": pair_edge_counts(index),
    }


def graph_view(graph):
    """What :func:`decoded_view` must show, computed by brute force."""
    labels = graph.label_alphabet()
    label_of = graph.label_of
    edges = {}
    for u, v in graph.edges():
        key = _label_pair_key(label_of(u), label_of(v))
        edges[key] = edges.get(key, 0) + 1
    return {
        "hist": graph.label_histogram(),
        "adj_pairs": frozenset(
            pair
            for u, v in graph.edges()
            for pair in ((label_of(u), label_of(v)), (label_of(v), label_of(u)))
        ),
        "pairs": sorted(edges, key=repr),
        "deg": {v: graph.degree(v) for v in graph.vertices()},
        "sig": {
            v: {
                label: len(graph.neighbors_with_label(v, label))
                for label in labels
                if graph.neighbors_with_label(v, label)
            }
            for v in graph.vertices()
        },
        "inv": {
            label: tuple(sorted(graph.vertices_with_label(label), key=repr))
            for label in labels
        },
        "nwl": {
            (v, label): tuple(sorted(graph.neighbors_with_label(v, label), key=repr))
            for v in graph.vertices()
            for label in labels
        },
        "edges": edges,
    }


class TestLabelTable:
    def test_interns_in_canonical_order(self):
        table = LabelTable(["b", "a", "c"], ["Y", "X"])
        assert list(table.vertex_of) == ["b", "a", "c"]
        assert list(table.label_of) == ["Y", "X"]
        assert table.vint("a") == 1
        assert table.lint("X") == 1
        assert table.lint("Z") is None

    def test_intern_appends_and_revives(self):
        table = LabelTable(["a"], ["X"])
        assert table.intern_vertex("b") == 1
        assert table.intern_vertex("b") == 1  # idempotent
        assert table.intern_label("Y") == 1
        assert table.entries == 4

    def test_nbytes_positive(self):
        table = LabelTable(["a", "b"], ["X"])
        assert table.nbytes() > 0


class TestIndexClass:
    @pytest.fixture
    def fresh_registry(self):
        registry = MetricsRegistry()
        previous = metrics_mod.set_registry(registry)
        yield registry
        metrics_mod.set_registry(previous)

    def test_get_index_builds_and_caches_the_one_index_class(self):
        # Callers (and instrumentation wrapping ``GraphIndex.__init__``)
        # rely on every index being built through this one binding.
        assert graph_index_module.GraphIndex is GraphIndex
        graph = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=5)
        index = get_index(graph)
        assert type(index) is GraphIndex
        assert get_index(graph) is index
        graph.add_vertex("fresh", "B")
        rebuilt = get_index(graph)
        assert type(rebuilt) is GraphIndex and rebuilt is not index
        assert "fresh" in rebuilt.vertices_with_label("B")

    def test_get_index_publishes_footprint_gauges(self, fresh_registry):
        graph = random_labeled_graph(20, 0.25, alphabet=("A", "B", "C"), seed=9)
        index = get_index(graph)
        assert fresh_registry.gauge("repro_index_bytes").value == index.nbytes()
        assert (
            fresh_registry.gauge("repro_index_intern_entries").value
            == index.intern_entries()
        )


class TestCompactFootprint:
    def test_projected_footprint_tracks_nbytes(self):
        # The projection is the pager's cost model: it must land within a
        # small constant factor of the measured footprint.
        for seed, size, p in ((3, 30, 0.2), (7, 80, 0.12), (19, 150, 0.08)):
            graph = random_labeled_graph(
                size, p, alphabet=("A", "B", "C", "D"), seed=seed
            )
            projected = projected_index_nbytes(
                graph.num_vertices, graph.num_edges, len(graph.label_alphabet())
            )
            measured = GraphIndex(graph).nbytes()
            assert measured / 3 <= projected <= measured * 3

    def test_rebuild_sheds_tombstone_bytes(self):
        # Patching never recycles slots, so a long window stream leaves
        # the patched buffers larger than the live graph needs; a rebuild
        # must price exactly like a fresh build of the live graph.
        for seed in (6, 18, 27):
            graph, index = _window_stream(seed)
            rebuilt = index.rebuilt()
            assert rebuilt.nbytes() == GraphIndex(graph).nbytes()
            assert rebuilt.nbytes() < index.nbytes()

    def test_intern_entries_counts_table(self):
        graph = random_labeled_graph(15, 0.3, alphabet=("A", "B"), seed=2)
        index = GraphIndex(graph)
        assert index.intern_entries() == graph.num_vertices + len(
            graph.label_alphabet()
        )


def _random_mutation(rng: random.Random, graph: LabeledGraph, next_id: list) -> None:
    vertices = sorted(graph.vertices(), key=repr)
    roll = rng.random()
    if roll < 0.30 or graph.num_vertices < 4:
        vertex = f"n{next_id[0]}"
        next_id[0] += 1
        graph.add_vertex(vertex, rng.choice("ABCD"))
        if vertices and rng.random() < 0.8:
            graph.add_edge(vertex, rng.choice(vertices))
    elif roll < 0.60:
        u, v = rng.sample(vertices, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    elif roll < 0.85:
        edges = graph.edges()
        if edges:
            graph.remove_edge(*rng.choice(edges))
    else:
        vertex = rng.choice(vertices)
        graph.remove_vertex(vertex)


def _window_stream(seed: int):
    """A sliding window of 12 vertices streamed through a patched index."""
    rng = random.Random(seed)
    graph = LabeledGraph(name="window")
    index = GraphIndex(graph)
    cursor = graph.cursor()
    window = []
    for step in range(80):
        vertex = f"w{step}"
        graph.add_vertex(vertex, rng.choice("AB"))
        if window and rng.random() < 0.9:
            graph.add_edge(vertex, rng.choice(window))
        window.append(vertex)
        if len(window) > 12:
            graph.remove_vertex(window.pop(0))
        for delta in cursor.read():
            assert index.apply_delta(delta)
    assert index.is_current()
    return graph, index


class TestCompactChurn:
    """CSR-patched == rebuilt under randomized mixed churn streams."""

    @pytest.mark.parametrize("seed", [1, 2, 5, 9, 14, 23, 31, 47])
    def test_patched_matches_rebuilt(self, seed):
        rng = random.Random(seed)
        graph = random_labeled_graph(
            10, 0.3, alphabet=("A", "B", "C"), seed=seed
        )
        patched = GraphIndex(graph)
        cursor = graph.cursor()
        next_id = [0]
        for step in range(120):
            _random_mutation(rng, graph, next_id)
            for delta in cursor.read():
                assert patched.apply_delta(delta)
            assert patched.is_current()
            if step % 20 == 19:
                expected = graph_view(graph)
                assert decoded_view(patched, graph) == expected
                assert decoded_view(patched.rebuilt(), graph) == expected

    @pytest.mark.parametrize("seed", [6, 18, 27])
    def test_window_stream_and_intern_compaction(self, seed):
        """Sliding-window churn: adds followed by expiry of the oldest.

        While patching, retired slots stay tombstoned (never recycled);
        a rebuild re-interns from scratch, so the fresh table must hold
        exactly the live vertices and labels — no leaked retirees.
        """
        graph, index = _window_stream(seed)
        live = graph.num_vertices + len(graph.label_alphabet())
        assert index.intern_entries() > live  # tombstones accumulated
        rebuilt = index.rebuilt()
        assert rebuilt.intern_entries() == live  # rebuild sheds them
        expected = graph_view(graph)
        assert decoded_view(index, graph) == expected
        assert decoded_view(rebuilt, graph) == expected

    def test_maintainer_patches_compact_index(self):
        graph = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=4)
        maintainer = IndexMaintainer(graph)
        anchor = sorted(graph.vertices(), key=repr)[0]
        graph.add_vertex("fresh", "A")
        graph.add_edge("fresh", anchor)
        index = maintainer.index()
        assert index.is_current()
        assert "fresh" in index.vertices_with_label("A")
        assert maintainer.patches_applied >= 1


class TestSegmentSetMemo:
    def test_memo_invalidated_by_patch(self):
        graph = random_labeled_graph(10, 0.4, alphabet=("A", "B"), seed=8)
        index = GraphIndex(graph)
        vertex = sorted(graph.vertices())[0]
        vi = index.table.vint(vertex)
        li = index.table.lint("A")
        before = index._segment_set(vi, li)
        assert index._segment_set(vi, li) is before  # memoized
        cursor = graph.cursor()
        graph.add_vertex("zz", "A")
        graph.add_edge("zz", vertex)
        for delta in cursor.read():
            index.apply_delta(delta)
        after = index._segment_set(vi, li)
        assert index.table.vint("zz") in after
        assert len(after) == len(before) + 1
