"""Randomized equivalence: DynamicMiner == re-mined-from-scratch, per batch.

The dynamic mining subsystem (repro.mining.dynamic) maintains the
frequent-pattern set under a stream of mixed insertions and deletions,
re-evaluating only patterns whose label-pair footprint intersects the
batch's touched pairs.  After *every* batch its results must be
byte-identical — certificates, support values, occurrence counts — to a
full re-mine of the current graph, both through a freshly built index
and through the ``use_index=False`` brute-force reference path.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.synthetic import planted_pattern_graph, random_labeled_graph
from repro.errors import MiningError
from repro.graph.builders import path_graph, star_pattern
from repro.graph.pattern import Pattern
from repro.mining.dynamic import (
    DynamicMiner,
    StreamBatch,
    mine_stream,
    pattern_footprint,
)
from repro.mining import miner as miner_module
from repro.mining.extension import adjacent_label_pairs, single_edge_patterns
from repro.mining.miner import LatticeMemo, mine_frequent_patterns
from repro.mining.spec import MiningSpec


MINE_SPEC = MiningSpec(
    measure="mni", min_support=2, max_pattern_nodes=4, max_pattern_edges=4
)


def result_key(result):
    """The byte-identity certificate: (certificate, support, occurrences)."""
    return [
        (fp.certificate, fp.support, fp.num_occurrences)
        for fp in sorted(result.frequent, key=lambda fp: fp.certificate)
    ]


def reference_keys(graph, spec):
    """Full re-mine references: rebuilt index (on a copy) and brute force."""
    rebuilt = mine_frequent_patterns(graph.copy(), spec=spec)
    brute = mine_frequent_patterns(graph, spec=spec.replace(use_index=False))
    assert result_key(rebuilt) == result_key(brute)
    return result_key(rebuilt)


def grow_randomly(graph, rng, steps, alphabet, tag):
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


def churn_randomly(graph, rng, steps, alphabet, tag):
    """Mixed mutations: insertions, edge removals, vertex removals."""
    applied = 0
    serial = 0
    while applied < steps:
        roll = rng.random()
        if roll < 0.25:
            graph.add_vertex(f"{tag}-{serial}", rng.choice(alphabet))
            serial += 1
            applied += 1
        elif roll < 0.5 and graph.num_edges > 3:
            graph.remove_edge(*rng.choice(graph.edges()))
            applied += 1
        elif roll < 0.6 and graph.num_vertices > 6:
            graph.remove_vertex(rng.choice(graph.vertices()))
            applied += 1
        else:
            u, v = rng.sample(graph.vertices(), 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                applied += 1


class TestRandomizedStreamEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 8, 13])
    def test_identical_after_every_batch(self, seed):
        alphabet = ("A", "B", "C") if seed % 2 else ("A", "B", "C", "D")
        graph = random_labeled_graph(14, 0.22, alphabet=alphabet, seed=seed)
        rng = random.Random(seed * 37 + 5)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        assert result_key(miner.refresh()) == reference_keys(graph, MINE_SPEC)
        for batch in range(4):
            grow_randomly(graph, rng, steps=5, alphabet="ABCD", tag=f"s{seed}b{batch}")
            dynamic = miner.refresh()
            assert result_key(dynamic) == reference_keys(graph, MINE_SPEC)

    @pytest.mark.parametrize("measure", ["mni", "mi", "mis"])
    def test_measure_generality(self, measure):
        spec = MINE_SPEC.replace(measure=measure)
        graph = planted_pattern_graph(
            star_pattern("A", ["B", "C"]),
            num_copies=8,
            overlap_fraction=0.5,
            background_vertices=4,
            background_edge_probability=0.3,
            seed=21,
        )
        rng = random.Random(99)
        miner = DynamicMiner(graph, spec=spec)
        miner.refresh()
        for batch in range(3):
            grow_randomly(graph, rng, steps=4, alphabet="ABC", tag=f"m{batch}")
            assert result_key(miner.refresh()) == reference_keys(graph, spec)

    def test_lazy_mni_stream(self):
        spec = MINE_SPEC.replace(lazy=True)
        graph = random_labeled_graph(14, 0.25, alphabet=("A", "B", "C"), seed=31)
        rng = random.Random(7)
        miner = DynamicMiner(graph, spec=spec)
        miner.refresh()
        for batch in range(3):
            grow_randomly(graph, rng, steps=4, alphabet="ABC", tag=f"l{batch}")
            assert result_key(miner.refresh()) == reference_keys(graph, spec)

    def test_brute_reference_mode(self):
        graph = random_labeled_graph(12, 0.25, alphabet=("A", "B"), seed=17)
        rng = random.Random(3)
        miner = DynamicMiner(graph, spec=MINE_SPEC.replace(use_index=False))
        miner.refresh()
        grow_randomly(graph, rng, steps=6, alphabet="AB", tag="nb")
        assert result_key(miner.refresh()) == reference_keys(graph, MINE_SPEC)


class TestMixedStreamEquivalence:
    """Deletions ride the same footprint shortcut as insertions."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 8, 13])
    def test_identical_after_every_mixed_batch(self, seed):
        alphabet = ("A", "B", "C") if seed % 2 else ("A", "B", "C", "D")
        graph = random_labeled_graph(14, 0.25, alphabet=alphabet, seed=seed)
        rng = random.Random(seed * 53 + 11)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        assert result_key(miner.refresh()) == reference_keys(graph, MINE_SPEC)
        for batch in range(4):
            churn_randomly(graph, rng, steps=5, alphabet="ABCD", tag=f"x{seed}b{batch}")
            assert result_key(miner.refresh()) == reference_keys(graph, MINE_SPEC)

    @pytest.mark.parametrize("measure", ["mni", "mi", "mis"])
    def test_measure_generality_under_churn(self, measure):
        spec = MINE_SPEC.replace(measure=measure)
        graph = planted_pattern_graph(
            star_pattern("A", ["B", "C"]),
            num_copies=8,
            overlap_fraction=0.5,
            background_vertices=4,
            background_edge_probability=0.3,
            seed=43,
        )
        rng = random.Random(77)
        miner = DynamicMiner(graph, spec=spec)
        miner.refresh()
        for batch in range(3):
            churn_randomly(graph, rng, steps=4, alphabet="ABC", tag=f"g{batch}")
            assert result_key(miner.refresh()) == reference_keys(graph, spec)

    def test_lazy_mni_under_churn(self):
        spec = MINE_SPEC.replace(lazy=True)
        graph = random_labeled_graph(14, 0.28, alphabet=("A", "B", "C"), seed=47)
        rng = random.Random(19)
        miner = DynamicMiner(graph, spec=spec)
        miner.refresh()
        for batch in range(3):
            churn_randomly(graph, rng, steps=4, alphabet="ABC", tag=f"z{batch}")
            assert result_key(miner.refresh()) == reference_keys(graph, spec)

    def test_pure_deletion_batches(self):
        graph = random_labeled_graph(16, 0.3, alphabet=("A", "B", "C"), seed=51)
        rng = random.Random(23)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        miner.refresh()
        for batch in range(4):
            for _ in range(3):
                if graph.num_edges:
                    graph.remove_edge(*rng.choice(graph.edges()))
            assert result_key(miner.refresh()) == reference_keys(graph, MINE_SPEC)

    def test_localized_deletion_reuses_unaffected_patterns(self):
        """Deletions confined to one label region leave the rest reused."""
        graph = planted_pattern_graph(
            star_pattern("A", ["B", "B"]), num_copies=8, overlap_fraction=0.4, seed=3
        )
        offset = graph.num_vertices + 100
        right = planted_pattern_graph(
            star_pattern("C", ["D", "D"]), num_copies=8, overlap_fraction=0.4, seed=4
        )
        for vertex in right.vertices():
            graph.add_vertex(vertex + offset, right.label_of(vertex))
        for u, v in right.edges():
            graph.add_edge(u + offset, v + offset)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        initial = miner.refresh()
        # Delete only C-D edges; every A/B pattern must be reused verbatim.
        cd_edges = [
            (u, v)
            for u, v in graph.edges()
            if {graph.label_of(u), graph.label_of(v)} == {"C", "D"}
        ]
        for edge in cd_edges[:2]:
            graph.remove_edge(*edge)
        refreshed = miner.refresh()
        stats = refreshed.stats
        assert stats.patterns_reused > 0
        assert stats.patterns_evaluated < initial.stats.patterns_evaluated
        assert result_key(refreshed) == reference_keys(graph, MINE_SPEC)

    def test_deleted_pattern_resurfaces_after_reinsert(self):
        """A pattern killed by deletions revives when insertions restore it."""
        graph = planted_pattern_graph(
            star_pattern("A", ["B", "B"]), num_copies=3, overlap_fraction=0.0, seed=9
        )
        spec = MiningSpec(measure="mni", min_support=3, max_pattern_nodes=3)
        miner = DynamicMiner(graph, spec=spec)
        initial = miner.refresh()
        star_cert = next(fp.certificate for fp in initial.frequent if fp.num_edges == 2)
        # Break one planted star: support drops from 3 below min_support.
        a_vertex = sorted(graph.vertices_with_label("A"), key=repr)[0]
        b_neighbor = sorted(graph.neighbors_with_label(a_vertex, "B"), key=repr)[0]
        graph.remove_edge(a_vertex, b_neighbor)
        shrunk = miner.refresh()
        assert star_cert not in {fp.certificate for fp in shrunk.frequent}
        assert shrunk.stats.patterns_revived == 0  # pruning revives nothing
        assert result_key(shrunk) == reference_keys(graph, spec)
        # Repair it: the pruned pattern must resurface, counted as revived.
        graph.add_edge(a_vertex, b_neighbor)
        revived = miner.refresh()
        assert star_cert in {fp.certificate for fp in revived.frequent}
        assert revived.stats.patterns_revived >= 1
        assert result_key(revived) == result_key(initial)

    def test_isolated_vertex_removal_evaluates_nothing(self):
        graph = random_labeled_graph(14, 0.25, alphabet=("A", "B"), seed=55)
        graph.add_vertex("loner", "A")
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        initial = miner.refresh()
        graph.remove_vertex("loner")
        refreshed = miner.refresh()
        assert refreshed.stats.patterns_evaluated == 0
        assert refreshed.stats.patterns_reused == initial.num_frequent
        assert result_key(refreshed) == result_key(initial)


class TestDeltaSavings:
    def test_localized_delta_reuses_unaffected_patterns(self):
        """Insertions confined to one label region leave the rest untouched."""
        left = planted_pattern_graph(
            star_pattern("A", ["B", "B"]), num_copies=8, overlap_fraction=0.4, seed=3
        )
        graph = left
        offset = graph.num_vertices + 100
        right = planted_pattern_graph(
            star_pattern("C", ["D", "D"]), num_copies=8, overlap_fraction=0.4, seed=4
        )
        for vertex in right.vertices():
            graph.add_vertex(vertex + offset, right.label_of(vertex))
        for u, v in right.edges():
            graph.add_edge(u + offset, v + offset)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        initial = miner.refresh()
        assert initial.num_frequent > 0
        # Touch only the C/D region.
        c_vertices = sorted(graph.vertices_with_label("C"), key=repr)
        graph.add_vertex("new-d", "D")
        graph.add_edge(c_vertices[0], "new-d")
        refreshed = miner.refresh()
        stats = refreshed.stats
        assert stats.patterns_reused > 0
        assert stats.patterns_evaluated < initial.stats.patterns_evaluated
        # First appearances on a growth-only refresh are not "revivals".
        assert stats.patterns_revived == 0
        assert result_key(refreshed) == reference_keys(graph, MINE_SPEC)

    def test_vertex_only_batch_evaluates_nothing(self):
        graph = random_labeled_graph(14, 0.25, alphabet=("A", "B"), seed=5)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        initial = miner.refresh()
        graph.add_vertex("isolated", "A")
        refreshed = miner.refresh()
        assert refreshed.stats.patterns_evaluated == 0
        assert refreshed.stats.patterns_reused == initial.num_frequent
        assert result_key(refreshed) == result_key(initial)

    def test_noop_refresh_returns_cached_result(self):
        graph = random_labeled_graph(10, 0.3, alphabet=("A", "B"), seed=6)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        first = miner.refresh()
        assert miner.refresh() is first


def lattice_graph():
    """A random A/B/C region beside three planted S(T, T) stars.

    At ``min_support=3`` breaking one star edge prunes the star and
    restoring it revives it; S and T occur nowhere else.
    """
    graph = random_labeled_graph(20, 0.2, alphabet=("A", "B", "C"), seed=21)
    star = planted_pattern_graph(star_pattern("S", ["T", "T"]), num_copies=3, seed=9)
    for vertex in star.vertices():
        graph.add_vertex(f"p{vertex}", star.label_of(vertex))
    for u, v in star.edges():
        graph.add_edge(f"p{u}", f"p{v}")
    return graph


LATTICE_SPEC = MINE_SPEC.replace(min_support=3)


def lattice_stream(graph):
    """Batches that grow and shrink the label-pair set and prune + revive."""
    hub = sorted(graph.vertices_with_label("S"), key=repr)[0]
    leaf = sorted(graph.neighbors(hub), key=repr)[0]
    a = sorted(graph.vertices_with_label("A"), key=repr)[0]
    b = sorted(graph.vertices_with_label("B"), key=repr)[0]
    return [
        [("v", "n0", "D"), ("e", a, "n0")],
        [("v", "n1", "D"), ("e", "n0", "n1"), ("e", b, "n1")],
        [("de", hub, leaf)],
        [("e", hub, leaf)],
        [
            ("de", "n0", "n1"),
            ("de", b, "n1"),
            ("dv", "n1"),
            ("de", a, "n0"),
            ("dv", "n0"),
        ],
        [("de", hub, leaf)],
        [("e", hub, leaf)],
    ]


def assert_same_lattice(result, reference):
    """Same rows (pattern content included) and the same lattice counters."""
    assert [fp.pattern.graph.signature() for fp in result.frequent] == [
        fp.pattern.graph.signature() for fp in reference.frequent
    ]
    assert result_key(result) == result_key(reference)
    for counter in ("patterns_generated", "duplicates_skipped", "patterns_frequent"):
        assert getattr(result.stats, counter) == getattr(reference.stats, counter)


class TestLatticeMemo:
    """Refreshes replay the previous walk's lattice and still match a mine."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_lattice_unchanged_across_label_churn(self, shards):
        graph = lattice_graph()
        spec = LATTICE_SPEC.replace(shards=shards)
        miner = DynamicMiner(graph, spec=spec)
        assert_same_lattice(miner.refresh(), mine_frequent_patterns(graph, spec=spec))
        pair_counts = [len(adjacent_label_pairs(graph))]
        revived = []
        for batch in lattice_stream(graph):
            miner.apply(batch)
            result = miner.refresh()
            assert_same_lattice(result, mine_frequent_patterns(graph, spec=spec))
            pairs = len(adjacent_label_pairs(graph))
            if pairs != pair_counts[-1]:
                # A new label-pair set invalidates every stored entry.
                assert result.stats.extensions_reused == 0
            else:
                assert result.stats.extensions_reused > 0
            pair_counts.append(pairs)
            revived.append(result.stats.patterns_revived)
        # The stream did what it is for: the label-pair set grew, then
        # shrank back, and the broken star came back twice.
        assert pair_counts[0] < pair_counts[1] < pair_counts[2]
        assert pair_counts[5] == pair_counts[0]
        assert revived[3] >= 1 and revived[6] >= 1
        miner.detach()

    def test_warm_refreshes_replay_instead_of_extending(self, monkeypatch):
        """Warm refreshes over a fixed label-pair set barely extend at all.

        Regenerating the lattice costs one ``extend_with_*`` call per
        generated non-seed candidate; replaying it costs one per child of
        a parent no earlier walk extended.
        """
        graph = random_labeled_graph(30, 0.15, alphabet=("A", "B", "C"), seed=3)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        miner.refresh()
        pairs = adjacent_label_pairs(graph)
        seeds = len(single_edge_patterns(graph))
        calls = []
        for name in ("extend_with_node", "extend_with_edge"):
            original = getattr(Pattern, name)

            def counted(self, *args, _original=original):
                calls.append(1)
                return _original(self, *args)

            monkeypatch.setattr(Pattern, name, counted)
        rng = random.Random(1)
        regenerated = reused = extended = 0
        for _ in range(5):
            u, v = rng.sample(graph.vertices(), 2)
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
            assert adjacent_label_pairs(graph) == pairs
            calls.clear()
            result = miner.refresh()
            extended += len(calls)
            regenerated += result.stats.patterns_generated - seeds
            reused += result.stats.extensions_reused
            assert result_key(result) == reference_keys(graph, MINE_SPEC)
        assert reused > 0
        assert extended * 10 <= regenerated
        miner.detach()

    @pytest.mark.parametrize("fail_at", [0, 2])
    def test_failed_refresh_leaves_the_memo_sound(self, monkeypatch, fail_at):
        """A walk that raises mid-lattice never corrupts a later refresh.

        Batch 0 adds a label pair (the memo starts over), batch 2 keeps
        the pairs (the memo is replayed); either walk fails at level 3.
        """
        graph = lattice_graph()
        miner = DynamicMiner(graph, spec=LATTICE_SPEC)
        miner.refresh()
        original = miner_module._Session.evaluate
        for number, batch in enumerate(lattice_stream(graph)):
            miner.apply(batch)
            if number == fail_at:
                levels = []

                def failing(self, batch, stats):
                    levels.append(len(batch))
                    if len(levels) == 3:
                        raise RuntimeError("evaluation failed")
                    return original(self, batch, stats)

                with monkeypatch.context() as patch:
                    patch.setattr(miner_module._Session, "evaluate", failing)
                    with pytest.raises(RuntimeError):
                        miner.refresh()
            assert_same_lattice(
                miner.refresh(), mine_frequent_patterns(graph, spec=LATTICE_SPEC)
            )
        miner.detach()


def test_certificate_memo_stays_within_its_bound_under_churn(monkeypatch):
    """Over a churned stream the rows equal a static mine's, byte for byte,
    and after every commit the certificate memo holds at most twice as
    many signatures as the walk saw certificates, or only signatures of
    certificates it saw.

    The stream adds a label and takes it away again (its patterns' memo
    entries go stale and stay, within the bound), then thins the graph
    until the lattice shrinks below half the memo (a prune).
    """
    def rows(result):
        return [
            (fp.certificate, fp.support, fp.num_occurrences) for fp in result.frequent
        ]

    commits = []
    real_commit = LatticeMemo.commit

    def recording_commit(self, seen):
        before = len(self._certificates)
        real_commit(self, seen)
        commits.append((before, dict(self._certificates), set(seen)))

    monkeypatch.setattr(LatticeMemo, "commit", recording_commit)
    graph = lattice_graph()
    batches = lattice_stream(graph)
    rng = random.Random(5)
    with DynamicMiner(graph, spec=LATTICE_SPEC) as miner:
        for number in range(12):
            if number < len(batches):
                miner.apply(batches[number])
            elif number > len(batches):
                edges = graph.edges()
                for u, v in rng.sample(edges, len(edges) // 4):
                    graph.remove_edge(u, v)
            result = miner.refresh()
            static = mine_frequent_patterns(graph, spec=LATTICE_SPEC)
            assert rows(result) == rows(static)
    stale = pruned = 0
    for before, held, seen in commits:
        live = all(certificate in seen for certificate in held.values())
        assert len(held) <= 2 * len(seen) or live
        stale += not live
        pruned += len(held) < before
    assert stale and pruned  # kept stale signatures up to the bound, then pruned


def test_memo_replays_only_matching_parents_and_live_duplicates():
    """The reuse rule itself: parent content and certificate-only children."""
    pairs = {("A", "B"), ("B", "A")}
    memo = LatticeMemo()
    memo.begin(pairs)
    parent = Pattern.single_edge("A", "B")
    child = parent.extend_with_node("v2", "v3", "A")
    children = [(child, "child"), (None, "dup"), (None, "child")]
    memo.keep("parent", parent, children)
    memo.commit({"parent", "child", "dup"})
    memo.begin(set(pairs))
    # The stored object, or any pattern with its vertex ids, labels, edges.
    assert memo.children(parent, "parent", {"dup"}) is children
    assert memo.children(Pattern.single_edge("A", "B"), "parent", {"dup"}) is children
    # An isomorphic parent with other vertex ids has other children.
    assert memo.children(Pattern.single_edge("B", "A"), "parent", {"dup"}) is None
    # "dup" must still be a duplicate where it is proposed; the second
    # "child" is one of its earlier sibling.
    assert memo.children(parent, "parent", set()) is None
    # Only what the latest complete walk touched survives a commit.
    memo.commit(set())
    memo.begin(pairs)
    assert memo.children(parent, "parent", {"dup"}) is None
    # A new label-pair set drops the seeds and every entry.
    memo.seeds = [(parent, "parent")]
    memo.keep("parent", parent, children)
    memo.commit({"parent"})
    memo.begin({("A", "A")})
    assert memo.seeds is None
    assert memo.children(parent, "parent", {"dup"}) is None


class TestFallbacks:
    def test_edge_removal_stays_on_the_delta_path(self):
        """A deletion is a delta, not a fallback: unaffected patterns reuse."""
        graph = random_labeled_graph(14, 0.3, alphabet=("A", "B", "C"), seed=9)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        miner.refresh()
        u, v = graph.edges()[0]
        graph.remove_edge(u, v)
        refreshed = miner.refresh()
        assert refreshed.stats.patterns_reused > 0
        assert result_key(refreshed) == reference_keys(graph, MINE_SPEC)

    def test_vertex_removal_stays_on_the_delta_path(self):
        graph = random_labeled_graph(14, 0.3, alphabet=("A", "B", "C"), seed=10)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        miner.refresh()
        graph.remove_vertex(graph.vertices()[0])
        refreshed = miner.refresh()
        assert refreshed.stats.patterns_reused > 0
        assert result_key(refreshed) == reference_keys(graph, MINE_SPEC)

    def test_detached_miner_stays_correct_via_full_remine(self):
        graph = random_labeled_graph(12, 0.25, alphabet=("A", "B"), seed=11)
        miner = DynamicMiner(graph, spec=MINE_SPEC)
        miner.refresh()
        assert miner.attached
        miner.detach()
        assert not miner.attached
        grow_randomly(graph, random.Random(1), steps=5, alphabet="AB", tag="det")
        refreshed = miner.refresh()
        assert refreshed.stats.patterns_reused == 0  # no delta savings anymore
        assert result_key(refreshed) == reference_keys(graph, MINE_SPEC)
        miner.detach()  # idempotent

    def test_rejects_non_anti_monotonic_measure(self):
        graph = random_labeled_graph(8, 0.3, alphabet=("A", "B"), seed=12)
        with pytest.raises(MiningError):
            DynamicMiner(graph, spec=MiningSpec(measure="occurrences"))

    def test_rejects_bad_parameters(self):
        graph = random_labeled_graph(8, 0.3, alphabet=("A", "B"), seed=13)
        with pytest.raises(MiningError):
            DynamicMiner(graph, spec=MiningSpec(min_support=0))
        with pytest.raises(MiningError):
            DynamicMiner(graph, spec=MiningSpec(measure="mis", lazy=True))


class TestMineStream:
    def _updates(self, tag, count):
        updates = [("v", f"{tag}-{i}", "AB"[i % 2]) for i in range(count)]
        for i in range(1, count):
            updates.append(("e", f"{tag}-{i - 1}", f"{tag}-{i}"))
        return updates

    def test_modes_agree_per_batch(self):
        updates = self._updates("u", 6)
        keys = {}
        for mode in ("delta", "rebuild", "brute"):
            graph = random_labeled_graph(10, 0.25, alphabet=("A", "B"), seed=20)
            steps = list(
                mine_stream(
                    graph, updates, spec=MINE_SPEC.replace(batch_size=3, mode=mode)
                )
            )
            assert [step.batch for step in steps] == [0, 1, 2, 3, 4]
            assert steps[0].updates_applied == 0
            keys[mode] = [result_key(step.result) for step in steps]
        assert keys["delta"] == keys["rebuild"] == keys["brute"]

    def test_stream_batch_shape(self):
        graph = random_labeled_graph(8, 0.3, alphabet=("A", "B"), seed=22)
        before_v, before_e = graph.num_vertices, graph.num_edges
        steps = list(
            mine_stream(
                graph,
                [("v", "s-0", "A"), ("e", "s-0", graph.vertices()[0])],
                spec=MINE_SPEC.replace(batch_size=2),
            )
        )
        assert isinstance(steps[0], StreamBatch)
        assert steps[0].num_vertices == before_v and steps[0].num_edges == before_e
        assert steps[1].num_vertices == before_v + 1
        assert steps[1].num_edges == before_e + 1
        assert steps[1].updates_applied == 2

    def test_stream_detaches_observers_when_done(self):
        graph = random_labeled_graph(8, 0.3, alphabet=("A", "B"), seed=24)
        list(mine_stream(graph, [("v", "s-0", "A")], spec=MINE_SPEC))
        assert graph.delta_log() is None
        # Abandoning the generator mid-stream must also clean up.
        stream = mine_stream(graph, [("v", "s-1", "B")], spec=MINE_SPEC)
        next(stream)
        stream.close()
        assert graph.delta_log() is None

    def test_modes_agree_on_mixed_stream(self):
        """Insert/delete updates (de/dv records) keep all modes identical."""
        updates = self._updates("u", 5) + [
            ("de", "u-0", "u-1"),
            ("de", "u-1", "u-2"),
            ("dv", "u-1"),
            ("v", "u-1", "B"),
            ("e", "u-0", "u-1"),
        ]
        keys = {}
        for mode in ("delta", "rebuild", "brute"):
            graph = random_labeled_graph(10, 0.25, alphabet=("A", "B"), seed=26)
            steps = list(
                mine_stream(
                    graph, updates, spec=MINE_SPEC.replace(batch_size=3, mode=mode)
                )
            )
            keys[mode] = [result_key(step.result) for step in steps]
            assert graph.num_vertices == 10 + 5 - 1 + 1
        assert keys["delta"] == keys["rebuild"] == keys["brute"]

    def test_rejects_bad_mode_and_batch_size(self):
        graph = random_labeled_graph(8, 0.3, alphabet=("A", "B"), seed=23)
        with pytest.raises(MiningError):
            list(mine_stream(graph, [], spec=MiningSpec(mode="nope")))
        with pytest.raises(MiningError):
            list(mine_stream(graph, [], spec=MiningSpec(batch_size=0)))
        with pytest.raises(MiningError):
            list(mine_stream(graph, [("x", 1, 2)]))


class TestSlidingWindow:
    def _chain_updates(self, graph, count):
        """A growing chain of new vertices, one edge per new vertex."""
        anchor = graph.vertices()[0]
        updates = []
        for i in range(count):
            updates.append(("v", f"w-{i}", "AB"[i % 2]))
            updates.append(("e", f"w-{i - 1}" if i else anchor, f"w-{i}"))
        return updates

    def test_window_caps_live_stream_edges(self):
        graph = random_labeled_graph(8, 0.25, alphabet=("A", "B"), seed=29)
        base_edges = graph.num_edges
        updates = self._chain_updates(graph, 10)
        steps = list(
            mine_stream(graph, updates, spec=MINE_SPEC.replace(batch_size=4, window=3))
        )
        # Once saturated, every batch expires as many edges as it inserts.
        assert [step.edges_expired for step in steps] == [0, 0, 1, 2, 2, 2]
        assert graph.num_edges == base_edges + 3  # exactly the window remains
        assert sum(step.edges_expired for step in steps) == 10 - 3

    def test_window_modes_agree_per_batch(self):
        updates = None
        keys = {}
        for mode in ("delta", "rebuild", "brute"):
            graph = random_labeled_graph(8, 0.25, alphabet=("A", "B"), seed=33)
            updates = updates or self._chain_updates(graph, 8)
            steps = list(
                mine_stream(
                    graph,
                    updates,
                    spec=MINE_SPEC.replace(batch_size=3, window=4, mode=mode),
                )
            )
            keys[mode] = [
                (result_key(step.result), step.edges_expired) for step in steps
            ]
        assert keys["delta"] == keys["rebuild"] == keys["brute"]

    def test_explicit_deletion_retires_edge_from_window(self):
        """A de record frees window budget; the expiry skips dead entries."""
        graph = random_labeled_graph(8, 0.25, alphabet=("A", "B"), seed=35)
        updates = self._chain_updates(graph, 4) + [("de", "w-2", "w-3")]
        steps = list(
            mine_stream(
                graph,
                updates,
                spec=MINE_SPEC.replace(batch_size=len(updates), window=3),
            )
        )
        # 4 inserted, 1 explicitly deleted -> 3 live: nothing left to expire.
        assert steps[-1].edges_expired == 0
        assert graph.has_edge("w-0", "w-1")

    def test_base_graph_edges_never_expire(self):
        graph = random_labeled_graph(8, 0.4, alphabet=("A", "B"), seed=37)
        base = set(map(tuple, graph.edges()))
        updates = self._chain_updates(graph, 6)
        list(
            mine_stream(graph, updates, spec=MINE_SPEC.replace(batch_size=2, window=1))
        )
        assert base <= set(map(tuple, graph.edges()))

    def test_redundant_reinsert_does_not_hand_base_edge_to_window(self):
        """A stream re-inserting an existing base edge must not make it expire.

        The insertion is an idempotent no-op on the graph, so the window
        may not claim the edge as stream-owned (lax validation — no base
        graph — is exactly the windowed CLI configuration).
        """
        graph = random_labeled_graph(8, 0.4, alphabet=("A", "B"), seed=45)
        u, v = graph.edges()[0]
        updates = [("e", u, v)] + self._chain_updates(graph, 5)
        list(
            mine_stream(graph, updates, spec=MINE_SPEC.replace(batch_size=3, window=2))
        )
        assert graph.has_edge(u, v)

    def test_window_supersedes_explicit_deletion_of_expired_edge(self):
        """A de record for an edge the window already expired is a no-op.

        The stream is valid un-windowed; a small window must not make it
        crash mid-replay just because expiry got to the edge first.
        """
        graph = random_labeled_graph(8, 0.25, alphabet=("A", "B"), seed=43)
        updates = self._chain_updates(graph, 6) + [
            ("de", graph.vertices()[0], "w-0"),  # oldest edge: expired by then
            ("v", "w-6", "A"),
            ("e", "w-5", "w-6"),
        ]
        for mode in ("delta", "rebuild"):
            replay = random_labeled_graph(8, 0.25, alphabet=("A", "B"), seed=43)
            steps = list(
                mine_stream(
                    replay,
                    updates,
                    spec=MINE_SPEC.replace(batch_size=4, window=2, mode=mode),
                )
            )
            assert steps[-1].num_edges == replay.num_edges
            assert not replay.has_edge(replay.vertices()[0], "w-0")

    def test_rejects_bad_window(self):
        graph = random_labeled_graph(8, 0.3, alphabet=("A", "B"), seed=39)
        with pytest.raises(MiningError):
            list(mine_stream(graph, [], spec=MiningSpec(window=0)))

    def test_stream_batch_expired_default(self):
        graph = random_labeled_graph(8, 0.3, alphabet=("A", "B"), seed=41)
        steps = list(mine_stream(graph, [("v", "s-0", "A")], spec=MINE_SPEC))
        assert all(step.edges_expired == 0 for step in steps)


class TestMaxOccurrencesIsOneShot:
    """A truncated occurrence list cannot be maintained: delta paths refuse it."""

    SPEC = MiningSpec(min_support=1, max_pattern_nodes=3, max_occurrences=1)
    UPDATES = [("v", 9, "A"), ("e", 8, 9), ("de", 1, 2)]

    def test_dynamic_miner_refuses(self):
        graph = path_graph(["A", "B"] * 4)
        with pytest.raises(MiningError, match="max_occurrences"):
            DynamicMiner(graph, spec=self.SPEC)
        assert graph.delta_log() is None

    def test_delta_stream_refuses(self):
        graph = path_graph(["A", "B"] * 4)
        with pytest.raises(MiningError, match="max_occurrences"):
            list(mine_stream(graph, self.UPDATES, spec=self.SPEC))
        assert graph.delta_log() is None

    @pytest.mark.parametrize("mode", ["rebuild", "brute"])
    def test_reference_streams_honour_it(self, mode):
        graph = path_graph(["A", "B"] * 4)
        steps = list(
            mine_stream(graph, self.UPDATES, spec=self.SPEC.replace(mode=mode))
        )
        for step in steps:
            assert [fp.num_occurrences for fp in step.result.frequent] == [1, 1, 1]
        final = mine_frequent_patterns(graph, spec=self.SPEC)
        assert result_key(steps[-1].result) == result_key(final)


def test_pattern_footprint_is_canonical():
    pattern = star_pattern("A", ["B", "C"])
    footprint = pattern_footprint(pattern)
    assert len(footprint) == 2
    for pair in footprint:
        assert pair == (pair if repr(pair[0]) <= repr(pair[1]) else (pair[1], pair[0]))
