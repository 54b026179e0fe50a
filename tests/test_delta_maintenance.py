"""Randomized equivalence: delta-patched GraphIndex == rebuilt-from-scratch.

The delta layer (repro.index.delta) patches a cached GraphIndex in
O(delta) per update — insertions *and* removals — instead of rebuilding
it.  A patched index must be *structurally identical* to one rebuilt
from scratch — same inverted lists in the same canonical order, same
label-pair edge lists, same degree/neighbor-label signatures, same
version — after every batch of a randomized update sequence, mixed
insert/delete churn included.  Gaps in the delta log — detached
maintainers, bursts past the log's bound — must fall back to a (single)
rebuild and still land on the identical structure.  Style and scope mirror
``tests/test_index_equivalence.py``.
"""

from __future__ import annotations

import gc
import pickle
import random
import weakref

import pytest

from repro.datasets.synthetic import (
    preferential_attachment_graph,
    random_labeled_graph,
)
from repro.graph.builders import path_pattern
from repro.graph.labeled_graph import LabeledGraph
from repro.index import (
    EdgeAdded,
    EdgeRemoved,
    GraphIndex,
    IndexMaintainer,
    VertexAdded,
    VertexRemoved,
    get_index,
)
from repro.index.delta import MIN_BOUND
from repro.index.graph_index import _label_pair_key
from repro.isomorphism.matcher import find_occurrences


def pair_edge_counts(index: GraphIndex):
    """The label-pair edge counts, decoded from the raw buffer."""
    label_of, counts = index.table.label_of, index._pair_counts
    return {(label_of[a], label_of[b]): counts[a, b] for a, b in counts}


def graph_pair_counts(graph):
    """What :func:`pair_edge_counts` must show, counted from the graph."""
    counts = {}
    for u, v in graph.edges():
        key = _label_pair_key(graph.label_of(u), graph.label_of(v))
        counts[key] = counts.get(key, 0) + 1
    return counts


def index_structure(index: GraphIndex, graph):
    """Every observable component of the index, decoded."""
    alphabet = graph.label_alphabet()
    return {
        "version": index.version,
        "inverted": {label: index.vertices_with_label(label) for label in alphabet},
        "histogram": dict(index.label_histogram()),
        "label_pairs": set(index.adjacent_label_pairs()),
        "edge_label_pairs": index.distinct_edge_label_pairs(),
        "pair_counts": pair_edge_counts(index),
        "degrees": {vertex: index.degree_of(vertex) for vertex in graph.vertices()},
        "signatures": {
            vertex: dict(index.signature_of(vertex)) for vertex in graph.vertices()
        },
        "neighbors": {
            (vertex, label): index.neighbors_with_label(vertex, label)
            for vertex in graph.vertices()
            for label in alphabet
        },
    }


def assert_patched_equals_rebuilt(maintainer: IndexMaintainer, graph):
    patched = maintainer.index()
    rebuilt = GraphIndex.build(graph)
    assert index_structure(patched, graph) == index_structure(rebuilt, graph)
    expected = graph_pair_counts(graph)
    assert pair_edge_counts(patched) == expected
    assert {pair: patched.pair_count(*pair) for pair in expected} == expected
    return patched


def grow_randomly(graph, rng: random.Random, steps: int, alphabet, tag: str):
    """Apply ``steps`` random insertions (vertices and edges) to ``graph``."""
    added = 0
    serial = 0
    while added < steps:
        if rng.random() < 0.3:
            graph.add_vertex(f"{tag}-{serial}", rng.choice(alphabet))
            serial += 1
            added += 1
        else:
            u, v = rng.sample(graph.vertices(), 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                added += 1


def churn_randomly(graph, rng: random.Random, steps: int, alphabet, tag: str):
    """Apply ``steps`` random mixed mutations: inserts *and* deletes."""
    applied = 0
    serial = 0
    while applied < steps:
        roll = rng.random()
        if roll < 0.25:
            graph.add_vertex(f"{tag}-{serial}", rng.choice(alphabet))
            serial += 1
            applied += 1
        elif roll < 0.5 and graph.num_edges > 2:
            graph.remove_edge(*rng.choice(graph.edges()))
            applied += 1
        elif roll < 0.6 and graph.num_vertices > 4:
            # remove_vertex cascades: EdgeRemoved deltas then VertexRemoved.
            graph.remove_vertex(rng.choice(graph.vertices()))
            applied += 1
        else:
            u, v = rng.sample(graph.vertices(), 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                applied += 1


#: Randomized update-sequence scenarios: (generator-kind, seed, size, knob).
SEQUENCE_SPECS = (
    [("er", seed, 12, 0.25) for seed in range(8)]
    + [("er", seed, 18, 0.15) for seed in range(8, 14)]
    + [("ba", seed, 20, 2) for seed in range(14, 20)]
)


def build_graph(spec):
    kind, seed, size, knob = spec
    if kind == "er":
        alphabet = ("A", "B", "C") if seed % 2 else ("A", "B", "C", "D")
        return random_labeled_graph(size, knob, alphabet=alphabet, seed=seed)
    return preferential_attachment_graph(
        size, knob, alphabet=("A", "B", "C", "D"), seed=seed, label_skew=0.3
    )


class TestRandomizedPatchEquivalence:
    @pytest.mark.parametrize(
        "spec", SEQUENCE_SPECS, ids=lambda spec: f"{spec[0]}-s{spec[1]}"
    )
    def test_patched_index_identical_after_every_batch(self, spec):
        graph = build_graph(spec)
        rng = random.Random(spec[1] * 101 + 7)
        maintainer = IndexMaintainer(graph)
        for batch in range(5):
            grow_randomly(graph, rng, steps=6, alphabet="ABCD", tag=f"b{batch}")
            assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 0
        assert maintainer.patches_applied >= 5

    @pytest.mark.parametrize(
        "spec", SEQUENCE_SPECS, ids=lambda spec: f"{spec[0]}-s{spec[1]}"
    )
    def test_patched_index_identical_under_mixed_churn(self, spec):
        """Insertions and deletions interleave; every batch still patches."""
        graph = build_graph(spec)
        rng = random.Random(spec[1] * 211 + 13)
        maintainer = IndexMaintainer(graph)
        for batch in range(5):
            churn_randomly(graph, rng, steps=6, alphabet="ABCD", tag=f"c{batch}")
            assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 0
        assert maintainer.patches_applied >= 5

    def test_patched_index_is_adopted_by_get_index(self):
        graph = build_graph(("er", 1, 12, 0.25))
        maintainer = IndexMaintainer(graph)
        graph.add_vertex("late", "A")
        patched = maintainer.index()
        assert get_index(graph) is patched

    def test_matcher_results_through_patched_index(self):
        graph = build_graph(("er", 2, 14, 0.3))
        maintainer = IndexMaintainer(graph)
        rng = random.Random(33)
        pattern = path_pattern(["A", "B", "A"])
        for batch in range(4):
            grow_randomly(graph, rng, steps=5, alphabet="ABC", tag=f"m{batch}")
            maintainer.index()  # patch + re-cache; matching uses it below
            assert find_occurrences(pattern, graph) == find_occurrences(
                pattern, graph, index=False
            )
        assert maintainer.rebuilds == 0


class TestDeltaPublication:
    def test_one_typed_delta_per_mutation(self):
        graph = build_graph(("er", 4, 10, 0.2))
        cursor = graph.cursor()
        before = graph.mutation_version()
        graph.add_vertex("x", "A")
        graph.add_vertex("y", "B")
        graph.add_edge("x", "y")
        graph.remove_edge("x", "y")
        graph.remove_vertex("x")
        received = cursor.read()
        kinds = [type(delta) for delta in received]
        expected = [VertexAdded, VertexAdded, EdgeAdded, EdgeRemoved, VertexRemoved]
        assert kinds == expected
        assert [delta.version for delta in received] == list(
            range(before + 1, before + 6)
        )
        edge_added = received[2]
        assert {edge_added.label_u, edge_added.label_v} == {"A", "B"}
        assert cursor.read() == []  # a read consumes what it returns

    def test_idempotent_mutations_publish_nothing(self):
        graph = build_graph(("er", 5, 10, 0.2))
        graph.add_vertex("x", "A")
        graph.add_vertex("y", "B")
        graph.add_edge("x", "y")
        cursor = graph.cursor()
        graph.add_vertex("x", "A")  # re-add, same label
        graph.add_edge("x", "y")  # existing edge
        assert cursor.read() == []

    def test_last_cursor_closed_takes_the_log_off_the_graph(self):
        graph = build_graph(("er", 6, 10, 0.2))
        first, second = graph.cursor(), graph.cursor()
        log = graph.delta_log()
        assert log is not None
        first.close()
        first.close()  # second close is a no-op
        assert graph.delta_log() is log  # the other cursor still reads it
        second.close()
        assert graph.delta_log() is None
        graph.add_vertex("quiet", "A")  # logged nowhere
        assert first.read() is None  # a closed cursor reads a gap
        assert graph.cursor().read() == []  # a new log starts at the tip

    def test_dropped_cursor_closes_itself(self):
        graph = build_graph(("er", 6, 10, 0.2))
        gc.disable()
        try:
            cursor = graph.cursor()
            assert graph.delta_log() is not None
            del cursor
            assert graph.delta_log() is None
        finally:
            gc.enable()

    def test_log_dropped_from_pickles(self):
        graph = build_graph(("er", 7, 10, 0.2))
        cursor = graph.cursor()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.delta_log() is None
        assert clone == graph
        cursor.close()

    def test_cursors_read_at_their_own_pace(self):
        graph = build_graph(("er", 8, 10, 0.2))
        fast, slow = graph.cursor(), graph.cursor()
        graph.add_vertex("a1", "A")
        assert [d.vertex for d in fast.read()] == ["a1"]
        graph.add_vertex("a2", "B")
        assert [d.vertex for d in fast.read()] == ["a2"]
        assert [d.vertex for d in slow.read()] == ["a1", "a2"]

    def test_cursor_opened_behind_the_log_reads_a_gap(self):
        graph = build_graph(("er", 9, 10, 0.2))
        graph.add_vertex("before", "A")
        cursor = graph.cursor(graph.mutation_version() - 1)
        assert cursor.read() is None
        graph.add_vertex("after", "A")
        assert [d.vertex for d in cursor.read()] == ["after"]

    def test_cursor_past_the_bound_reads_one_gap_then_resumes(self):
        graph = build_graph(("er", 10, 10, 0.2))  # |V| + |E| well under 160
        lagging, keeping_up = graph.cursor(), graph.cursor()
        for serial in range(MIN_BOUND + 1):
            graph.add_vertex(f"b{serial}", "A")
            assert len(keeping_up.read()) == 1
        assert lagging.read() is None
        graph.add_vertex("next", "B")
        assert [d.vertex for d in lagging.read()] == ["next"]

    def test_bound_scales_with_graph_size(self):
        graph = build_graph(("er", 11, 200, 0.02))
        bound = 2 * (graph.num_vertices + graph.num_edges) // 5
        assert bound > MIN_BOUND
        cursor = graph.cursor()

        def flicker(times: int) -> None:
            # Add-then-remove pairs keep |V| + |E|, and so the bound, fixed.
            for _ in range(times):
                graph.add_vertex("flicker", "A")
                graph.remove_vertex("flicker")

        flicker(bound // 2)
        assert len(cursor.read()) == 2 * (bound // 2)
        flicker(bound // 2 + 1)
        assert cursor.read() is None


class TestMaintainerLifetime:
    @pytest.mark.parametrize("kind", ["flat", "sharded"])
    def test_dropped_maintainer_is_freed_without_gc(self, kind):
        # The caller keeps the graph and drops the maintainer: reference
        # counting alone must free it and take its observer off the
        # graph.  A graph holding the maintainer's bound method while
        # the maintainer holds the graph is a cycle that would keep it
        # alive, and observing, until a cycle collection.
        from repro.partition import ShardedIndexMaintainer

        graph = build_graph(("er", 8, 12, 0.25))
        gc.disable()
        try:
            if kind == "flat":
                maintainer = IndexMaintainer(graph)
            else:
                maintainer = ShardedIndexMaintainer(graph, 2, "hash")
            graph.add_vertex("fresh", "A")
            maintainer.refresh()
            assert maintainer.patches_applied == 1
            assert graph.delta_log() is not None
            maintainer_ref = weakref.ref(maintainer)
            del maintainer
            assert maintainer_ref() is None
            assert graph.delta_log() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("holder", ["cached index", "maintainer"])
    def test_dropped_graph_is_freed_without_gc(self, holder):
        # A graph caches its index and the index refers back to the graph
        # weakly, so reference counting alone frees a dropped graph with
        # its index, its maintainer and its delta log.
        gc.disable()
        try:
            graph = build_graph(("er", 23, 12, 0.25))
            maintainer = None
            if holder == "maintainer":
                maintainer = IndexMaintainer(graph)
                graph.add_vertex("fresh", "A")
                maintainer.index()
            else:
                get_index(graph)
            assert graph.cached_index().graph is graph
            graph_ref = weakref.ref(graph)
            del graph, maintainer
            assert graph_ref() is None
        finally:
            gc.enable()


class TestRemovalPatching:
    def test_edge_removal_patches_in_place(self):
        graph = build_graph(("er", 8, 12, 0.3))
        maintainer = IndexMaintainer(graph)
        grow_randomly(graph, random.Random(1), steps=4, alphabet="ABC", tag="r")
        u, v = graph.edges()[0]
        graph.remove_edge(u, v)
        assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 0
        assert maintainer.patches_applied == 5  # 4 insertions + 1 removal

    def test_vertex_removal_patches_with_cascaded_edges(self):
        graph = build_graph(("er", 9, 12, 0.3))
        maintainer = IndexMaintainer(graph)
        graph.add_vertex("gone", "A")
        victim = graph.vertices()[0]
        degree = graph.degree(victim)
        graph.remove_vertex(victim)  # EdgeRemoved x degree, then VertexRemoved
        assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 0
        assert maintainer.patches_applied == degree + 2
        # Maintenance keeps patching afterwards.
        grow_randomly(graph, random.Random(2), steps=4, alphabet="ABC", tag="after")
        assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 0

    def test_label_and_pair_state_shrinks_like_a_rebuild(self):
        """Emptied inverted lists / pair lists vanish, as a rebuild never has them."""
        graph = LabeledGraph([(1, "A"), (2, "B"), (3, "Z")], [(1, 2), (2, 3)])
        maintainer = IndexMaintainer(graph)
        graph.remove_edge(2, 3)
        graph.remove_vertex(3)  # last Z vertex: the label leaves the alphabet
        patched = assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 0
        assert patched.label_histogram() == {"A": 1, "B": 1}
        assert patched.vertices_with_label("Z") == ()
        assert ("B", "Z") not in patched.adjacent_label_pairs()
        assert ("B", "Z") not in pair_edge_counts(patched)

    def test_remove_then_reinsert_round_trips(self):
        graph = build_graph(("er", 17, 12, 0.3))
        maintainer = IndexMaintainer(graph)
        baseline = index_structure(maintainer.index(), graph)
        u, v = graph.edges()[0]
        graph.remove_edge(u, v)
        assert_patched_equals_rebuilt(maintainer, graph)
        graph.add_edge(u, v)
        restored = assert_patched_equals_rebuilt(maintainer, graph)
        roundtrip = dict(index_structure(restored, graph), version=baseline["version"])
        assert roundtrip == baseline
        assert maintainer.rebuilds == 0


class TestRebuildFallbacks:
    def test_interleaved_reads_between_deltas(self):
        """A get_index call mid-stream rebuilds; the maintainer adopts it."""
        graph = build_graph(("er", 10, 12, 0.25))
        maintainer = IndexMaintainer(graph)
        graph.add_vertex("mid", "B")
        interloper = get_index(graph)  # rebuilds + caches behind our back
        adopted = maintainer.index()
        assert adopted is interloper
        assert maintainer.rebuilds == 0
        # And patching continues from the adopted snapshot.
        anchor = graph.vertices()[0]
        target = "mid" if anchor != "mid" else graph.vertices()[1]
        graph.add_edge(anchor, target)
        patched = assert_patched_equals_rebuilt(maintainer, graph)
        assert patched is adopted
        assert maintainer.patches_applied == 1

    def test_detached_maintainer_goes_stale_then_rebuilds(self):
        graph = build_graph(("er", 11, 12, 0.25))
        maintainer = IndexMaintainer(graph)
        assert maintainer.attached
        maintainer.detach()
        assert not maintainer.attached
        graph.add_vertex("unseen", "C")
        assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 1
        maintainer.detach()  # second detach is a no-op

    def test_noop_refresh_clears_nothing_and_patches_nothing(self):
        graph = build_graph(("er", 12, 12, 0.25))
        maintainer = IndexMaintainer(graph)
        first = maintainer.index()
        second = maintainer.index()
        assert first is second
        assert maintainer.patches_applied == 0
        assert maintainer.rebuilds == 0


def burst(graph, steps: int, tag: str) -> None:
    """Add ``steps`` isolated vertices in one run."""
    for serial in range(steps):
        graph.add_vertex(f"{tag}-{serial}", "A")


class TestPatchLimitCoalescing:
    def test_oversized_burst_coalesces_into_one_rebuild(self):
        graph = build_graph(("er", 13, 14, 0.4))
        maintainer = IndexMaintainer(graph)
        mutated = 0
        for u, v in list(graph.edges())[:10]:
            graph.remove_edge(u, v)
            mutated += 1
        burst(graph, MIN_BOUND, "burst")
        mutated += MIN_BOUND
        assert len(maintainer._cursor._log._deltas) <= MIN_BOUND  # bounded state
        assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 1  # one rebuild, not a 74-delta replay
        assert maintainer.patches_applied == 0
        assert maintainer.deltas_coalesced == mutated

    def test_burst_within_limit_patches(self):
        graph = build_graph(("er", 14, 12, 0.3))
        maintainer = IndexMaintainer(graph)
        graph.add_vertex("pre", "A")
        u, v = graph.edges()[0]
        graph.remove_edge(u, v)
        graph.add_vertex("post", "B")
        graph.add_edge("pre", "post")
        assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 0
        assert maintainer.patches_applied == 4

    def test_patching_resumes_after_coalesced_rebuild(self):
        graph = build_graph(("er", 15, 12, 0.3))
        maintainer = IndexMaintainer(graph)
        burst(graph, MIN_BOUND + 5, "burst")
        assert_patched_equals_rebuilt(maintainer, graph)
        grow_randomly(graph, random.Random(9), steps=3, alphabet="ABC", tag="c")
        assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 1
        assert maintainer.patches_applied == 3
        assert maintainer.deltas_coalesced == MIN_BOUND + 5

    def test_adoption_clears_pending_rebuild(self):
        graph = build_graph(("er", 16, 12, 0.3))
        maintainer = IndexMaintainer(graph)
        burst(graph, MIN_BOUND + 1, "burst")
        interloper = get_index(graph)  # someone else pays for the rebuild
        adopted = maintainer.index()
        assert adopted is interloper
        assert maintainer.rebuilds == 0
        graph.add_vertex("after", "B")  # and patching resumes from it
        assert_patched_equals_rebuilt(maintainer, graph)
        assert (maintainer.patches_applied, maintainer.rebuilds) == (1, 0)

    def test_default_limit_scales_with_graph_size(self):
        graph = build_graph(("er", 18, 200, 0.02))
        maintainer = IndexMaintainer(graph)
        # Over 64 deltas yet under the bound 2 * (|V| + |E|) // 5: patched.
        grow_randomly(graph, random.Random(4), steps=80, alphabet="ABC", tag="d")
        assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 0
        assert maintainer.patches_applied == 80


class TestMaintainerRemovalStats:
    """patches_applied vs rebuilds bookkeeping across deletion-shaped streams."""

    def test_pure_deletion_stream_is_all_patches(self):
        graph = build_graph(("er", 20, 14, 0.4))
        maintainer = IndexMaintainer(graph)
        served = 0
        for u, v in list(graph.edges())[:6]:
            graph.remove_edge(u, v)
            assert_patched_equals_rebuilt(maintainer, graph)
            served += 1
        assert maintainer.patches_applied == served
        assert maintainer.rebuilds == 0
        assert maintainer.deltas_coalesced == 0

    def test_mixed_stream_is_all_patches(self):
        graph = build_graph(("er", 21, 14, 0.3))
        maintainer = IndexMaintainer(graph)
        rng = random.Random(31)
        for batch in range(4):
            churn_randomly(graph, rng, steps=5, alphabet="ABC", tag=f"mx{batch}")
            assert_patched_equals_rebuilt(maintainer, graph)
        assert maintainer.rebuilds == 0
        assert maintainer.patches_applied >= 20  # cascades may add more

    def test_gap_then_delete_rebuilds_then_patches(self):
        graph = build_graph(("er", 22, 14, 0.3))
        unobserved = IndexMaintainer(graph)
        unobserved.detach()
        graph.add_vertex("gap", "A")  # mutation the maintainer never saw
        assert_patched_equals_rebuilt(unobserved, graph)
        assert (unobserved.patches_applied, unobserved.rebuilds) == (0, 1)
        # A maintainer observing from here patches the deletions that follow.
        maintainer = IndexMaintainer(graph)
        for u, v in list(graph.edges())[:4]:
            graph.remove_edge(u, v)
        assert_patched_equals_rebuilt(maintainer, graph)
        assert (maintainer.patches_applied, maintainer.rebuilds) == (4, 0)
        # The detached one keeps rebuilding: the gap never heals.  (Drop
        # the cached index first or it would adopt the patcher's work.)
        graph.remove_edge(*graph.edges()[0])
        graph.cache_index(None)
        assert_patched_equals_rebuilt(unobserved, graph)
        assert (unobserved.patches_applied, unobserved.rebuilds) == (0, 2)
