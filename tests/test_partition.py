"""Partition-subsystem invariants: cover, halo bookkeeping, IO, CLI.

The sharded evaluation layer's exactness rests on structural invariants
of the partition itself — every edge owned by exactly one shard, every
boundary vertex replicated into every incident shard exactly once, halo
expansion reaching the ``n - 2`` ball — so this suite pins them directly,
independent of the mining-level equivalence suite
(``tests/test_partition_equivalence.py``).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.datasets.synthetic import (
    planted_pattern_graph,
    random_labeled_graph,
)
from repro.errors import DatasetError, PartitionError
from repro.graph.builders import star_pattern
from repro.graph.io import save_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.partition import (
    PARTITION_METHODS,
    Partition,
    ShardedIndex,
    load_partition,
    partition_edges,
    save_partition,
)

GRAPH_SPECS = [("er", 3, 16, 0.3), ("er", 9, 20, 0.2), ("er", 14, 12, 0.4)]


def build_graph(spec):
    _, seed, size, p = spec
    return random_labeled_graph(size, p, alphabet=("A", "B", "C"), seed=seed)


def build_pattern():
    from repro.graph.builders import path_pattern

    return path_pattern(["A", "B", "A"])


def clustered_graph():
    """Two welded planted regions joined by a single stitch edge."""
    left = planted_pattern_graph(
        star_pattern("A", ["B", "C"]), num_copies=8, overlap_fraction=0.5, seed=3
    )
    right = planted_pattern_graph(
        star_pattern("D", ["E", "E"]), num_copies=8, overlap_fraction=0.5, seed=5
    )
    offset = left.num_vertices + 100
    for vertex in right.vertices():
        left.add_vertex(vertex + offset, right.label_of(vertex))
    for u, v in right.edges():
        left.add_edge(u + offset, v + offset)
    left.add_edge(0, offset)
    return left


class TestPartitioners:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    @pytest.mark.parametrize("spec", GRAPH_SPECS, ids=lambda s: f"{s[0]}-s{s[1]}")
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_edge_disjoint_cover(self, spec, method, k):
        graph = build_graph(spec)
        partition = partition_edges(graph, k, method)
        assert partition.num_shards == k
        assert partition.method == method
        # Exactly one shard per edge, every edge covered, ids in range.
        assert sorted(partition.assignment, key=repr) == graph.edges()
        assert all(0 <= owner < k for owner in partition.assignment.values())
        assert sum(partition.shard_sizes()) == graph.num_edges

    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_deterministic_across_builds(self, method):
        graph = build_graph(GRAPH_SPECS[0])
        first = partition_edges(graph, 4, method)
        second = partition_edges(graph.copy(), 4, method)
        assert first.assignment == second.assignment
        assert first.vertex_assignment == second.vertex_assignment

    def test_isolated_vertices_are_assigned(self):
        graph = LabeledGraph(vertices=[(1, "A"), (2, "B"), (3, "A")], edges=[(1, 2)])
        partition = partition_edges(graph, 3, "hash")
        assert set(partition.vertex_assignment) == {3}
        assert 0 <= partition.vertex_assignment[3] < 3

    def test_label_method_keeps_pairs_together(self):
        graph = build_graph(GRAPH_SPECS[1])
        partition = partition_edges(graph, 3, "label")
        owner_of_pair = {}
        for (u, v), owner in partition.assignment.items():
            pair = tuple(sorted((graph.label_of(u), graph.label_of(v)), key=repr))
            assert owner_of_pair.setdefault(pair, owner) == owner

    def test_edgecut_beats_hash_on_clustered_graph(self):
        graph = clustered_graph()
        hash_rep = ShardedIndex.build(graph, 2, "hash").replication_factor()
        cut_rep = ShardedIndex.build(graph, 2, "edgecut").replication_factor()
        assert cut_rep < hash_rep

    def test_edgecut_respects_soft_balance(self):
        graph = clustered_graph()
        sizes = partition_edges(graph, 4, "edgecut").shard_sizes()
        capacity = graph.num_edges * 21 // (20 * 4) + 1
        assert max(sizes) <= capacity

    def test_invalid_arguments(self):
        graph = build_graph(GRAPH_SPECS[0])
        with pytest.raises(PartitionError):
            partition_edges(graph, 0, "hash")
        with pytest.raises(PartitionError):
            partition_edges(graph, 2, "metis")
        with pytest.raises(PartitionError):
            partition_edges(graph, 2, "hash").shard_of("nope", "nada")


class TestHaloBookkeeping:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_boundary_vertex_in_every_incident_shard_exactly_once(self, method, k):
        graph = build_graph(GRAPH_SPECS[0])
        sharded = ShardedIndex.build(graph, k, method)
        partition = sharded.partition
        incident = {}
        for (u, v), owner in partition.assignment.items():
            incident.setdefault(u, set()).add(owner)
            incident.setdefault(v, set()).add(owner)
        for vertex, owner in partition.vertex_assignment.items():
            incident.setdefault(vertex, set()).add(owner)
        for vertex in graph.vertices():
            containing = [
                shard.shard_id
                for shard in sharded.shards
                if shard.graph.has_vertex(vertex)
            ]
            # Present in every incident shard; once per shard is implied
            # by shard graphs being sets, so the id list has no repeats.
            assert sorted(containing) == sorted(incident[vertex])
            is_boundary = len(incident[vertex]) > 1
            for shard in sharded.shards:
                if shard.graph.has_vertex(vertex):
                    assert (vertex in shard.halo_vertices) == is_boundary
                    assert (vertex in shard.interior_vertices()) == (not is_boundary)
        assert sharded.boundary_vertices() == {
            vertex for vertex, owners in incident.items() if len(owners) > 1
        }

    def test_shard_graphs_carry_exactly_core_edges(self):
        graph = build_graph(GRAPH_SPECS[1])
        sharded = ShardedIndex.build(graph, 3, "edgecut")
        for shard in sharded.shards:
            assert shard.graph.edges() == list(shard.core_edges)
            assert shard.num_core_edges == len(shard.core_edge_set)
            for u, v in shard.core_edges:
                assert shard.owns_edge((u, v))
                assert shard.graph.label_of(u) == graph.label_of(u)
                assert shard.graph.label_of(v) == graph.label_of(v)

    def test_merged_histogram_counts_replicas_once(self):
        graph = build_graph(GRAPH_SPECS[2])
        for k in (1, 2, 4):
            sharded = ShardedIndex.build(graph, k, "hash")
            assert sharded.label_histogram() == graph.label_histogram()

    def test_label_pair_directory_matches_core_edges(self):
        graph = build_graph(GRAPH_SPECS[0])
        sharded = ShardedIndex.build(graph, 3, "label")
        for pair, shard_ids in sharded.label_pair_directory().items():
            for shard_id in shard_ids:
                labels = {
                    tuple(
                        sorted(
                            (
                                sharded.graph.label_of(u),
                                sharded.graph.label_of(v),
                            ),
                            key=repr,
                        )
                    )
                    for u, v in sharded.shards[shard_id].core_edges
                }
                assert pair in labels
        assert sharded.shards_for_pair("Z", "Z") == ()

    def test_expanded_shard_is_induced_ball(self):
        graph = build_graph(GRAPH_SPECS[0])
        sharded = ShardedIndex.build(graph, 3, "hash")
        shard = sharded.shards[1]
        ball = set(shard.graph.vertices())
        expanded0 = sharded.expanded_shard(1, 0)
        assert set(expanded0.vertices()) == ball
        for _ in range(2):
            ball |= {n for v in ball for n in graph.neighbors(v)}
        expanded2 = sharded.expanded_shard(1, 2)
        assert set(expanded2.vertices()) == ball
        for u, v in expanded2.edges():  # induced: all graph edges inside
            assert graph.has_edge(u, v)
        for u in ball:
            for v in graph.neighbors(u):
                if v in ball:
                    assert expanded2.has_edge(u, v)
        recomputes = sharded.recomputes
        again = sharded.expanded_shard(1, 2)  # no view cache: computed afresh
        assert sharded.recomputes == recomputes + 1
        assert set(again.vertices()) == ball
        assert set(again.edges()) == set(expanded2.edges())

    def test_expanded_shard_degenerates_to_whole_graph(self):
        graph = build_graph(GRAPH_SPECS[0])
        sharded = ShardedIndex.build(graph, 2, "hash")
        assert sharded.expanded_shard(0, graph.num_vertices) is graph

    def test_staleness_tracking(self):
        graph = build_graph(GRAPH_SPECS[0])
        sharded = ShardedIndex.build(graph, 2, "hash")
        assert sharded.is_current()
        graph.add_vertex("fresh", "A")
        assert not sharded.is_current()

    def test_uncovered_edge_raises_partition_error(self):
        graph = build_graph(GRAPH_SPECS[0])
        partition = partition_edges(graph, 2, "hash")
        u = graph.vertices()[0]
        graph.add_vertex("extra", "A")
        graph.add_edge(u, "extra")  # not covered by the partition
        with pytest.raises(PartitionError):
            ShardedIndex(graph, partition)

    @pytest.mark.parametrize("index", [None, False])
    def test_shard_occurrence_limit_truncates_anchored_occurrences(self, index):
        from repro.mining.dynamic import pattern_footprint
        from repro.partition.evaluate import (
            anchored_occurrence_items,
            required_depth,
            shard_exclusive,
        )

        graph = build_graph(GRAPH_SPECS[0])
        sharded = ShardedIndex.build(graph, 3, "hash")
        pattern = build_pattern()

        def anchored(shard_id, limit=None):
            return anchored_occurrence_items(
                pattern,
                sharded.expanded_shard(shard_id, required_depth(pattern)),
                sharded.shards[shard_id].core_edge_set,
                exclusive=shard_exclusive(
                    pattern_footprint(pattern), sharded, shard_id
                ),
                index=index,
                limit=limit,
            )

        for shard_id in range(3):
            full = anchored(shard_id)
            for limit in (0, 1, 3):
                # Early-stopped enumeration returns the same anchored
                # occurrences, in the same order, just truncated.
                assert anchored(shard_id, limit) == full[:limit]


class TestPartitionIO:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_roundtrip(self, tmp_path, method):
        graph = build_graph(GRAPH_SPECS[1])
        graph.add_vertex("loner", "C")  # isolated vertex must survive
        sharded = ShardedIndex.build(graph, 3, method)
        save_partition(sharded, tmp_path / "out")
        loaded = load_partition(tmp_path / "out")
        assert loaded.graph == graph
        assert loaded.num_shards == sharded.num_shards
        assert loaded.partition.method == method
        assert loaded.partition.assignment == sharded.partition.assignment
        assert loaded.partition.vertex_assignment == (
            sharded.partition.vertex_assignment
        )
        for original, reloaded in zip(sharded.shards, loaded.shards):
            assert reloaded.graph == original.graph
            assert reloaded.core_edges == original.core_edges
            assert reloaded.halo_vertices == original.halo_vertices

    def test_missing_and_malformed_directories(self, tmp_path):
        with pytest.raises(DatasetError):
            load_partition(tmp_path / "absent")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("not json")
        with pytest.raises(DatasetError):
            load_partition(bad)

    def test_duplicate_edge_ownership_rejected(self, tmp_path):
        graph = LabeledGraph(vertices=[(1, "A"), (2, "B")], edges=[(1, 2)])
        sharded = ShardedIndex.build(graph, 2, "hash")
        save_partition(sharded, tmp_path / "dup")
        # Copy the owning shard's file over the other: both now claim (1, 2).
        owner = sharded.partition.shard_of(1, 2)
        other = 1 - owner
        text = (tmp_path / "dup" / f"shard-{owner:04d}.lg").read_text()
        (tmp_path / "dup" / f"shard-{other:04d}.lg").write_text(text)
        with pytest.raises(PartitionError):
            load_partition(tmp_path / "dup")

    def test_conflicting_boundary_replica_label_rejected(self, tmp_path):
        graph = build_graph(GRAPH_SPECS[0])
        sharded = ShardedIndex.build(graph, 2, "hash")
        save_partition(sharded, tmp_path / "conflict")
        # Relabel one replicated boundary vertex in a single shard file.
        victim = sorted(sharded.boundary_vertices(), key=repr)[0]
        path = tmp_path / "conflict" / "shard-0001.lg"
        lines = [
            f"v {victim} ZZZ" if line == f"v {victim} {graph.label_of(victim)}"
            else line
            for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PartitionError) as excinfo:
            load_partition(tmp_path / "conflict")
        assert "replicas must agree" in str(excinfo.value)

    def test_manifest_entry_without_file_field_rejected(self, tmp_path):
        import json

        graph = build_graph(GRAPH_SPECS[0])
        save_partition(ShardedIndex.build(graph, 2, "hash"), tmp_path / "nofile")
        manifest_path = tmp_path / "nofile" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["shards"][1]["file"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError):
            load_partition(tmp_path / "nofile")

    def test_partition_is_picklable(self):
        import pickle

        graph = build_graph(GRAPH_SPECS[0])
        partition = partition_edges(graph, 3, "edgecut")
        clone = pickle.loads(pickle.dumps(partition))
        assert isinstance(clone, Partition)
        assert clone.assignment == partition.assignment


class TestPartitionCLI:
    def test_partition_command_writes_directory(self, tmp_path, capsys):
        graph = build_graph(GRAPH_SPECS[0])
        graph_path = tmp_path / "g.lg"
        save_graph(graph, graph_path)
        out = tmp_path / "shards"
        code = main(
            ["partition", str(graph_path), str(out), "--shards", "3",
             "--method", "edgecut"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "3 shards" in output
        assert "replication factor" in output
        loaded = load_partition(out)
        assert loaded.graph == graph

    def test_mine_with_shards_matches_unsharded(self, tmp_path, capsys):
        graph = build_graph(GRAPH_SPECS[0])
        graph_path = tmp_path / "g.lg"
        save_graph(graph, graph_path)
        base_args = [
            "mine", str(graph_path), "--min-support", "2", "--max-nodes", "3"
        ]
        assert main(base_args) == 0
        flat = capsys.readouterr().out
        assert main(base_args + ["--shards", "3", "--partition", "label"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == flat
