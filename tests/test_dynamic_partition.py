"""Dynamic partitions: delta routing, rebalancing, and persisted state.

The mining-level acceptance property (patched sharded miner ==
fresh partition + rebuild, byte for byte) lives in
``tests/test_partition_equivalence.py``; this suite pins the structures
underneath it:

* a delta-patched :class:`ShardedIndex` is **structurally identical** to
  one rebuilt from its own (patched) partition — shard membership and
  labels, core edges, halos, label-pair directory;
* the :class:`EdgeRouter` continues each partitioner's placement rule
  deterministically, and its state survives ``save_partition`` /
  ``load_partition`` so a loaded partition keeps absorbing deltas
  exactly like the saved one;
* :class:`ShardedIndexMaintainer` shares the flat maintainer's
  rebuild/coalesce bookkeeping (gaps rebuild, bursts coalesce, runs
  patch) and applies the :class:`RebalancePolicy` triggers;
* ``repro partition --rebalance`` absorbs on-disk graph drift and
  re-balances in place.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.datasets.synthetic import random_labeled_graph
from repro.errors import PartitionError
from repro.graph.io import save_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.index import MaintainableIndex
from repro.mining.dynamic import DynamicMiner
from repro.mining.miner import mine_frequent_patterns
from repro.mining.spec import MiningSpec
from repro.partition import (
    PARTITION_METHODS,
    EdgeRouter,
    Partition,
    RebalancePolicy,
    ShardedIndex,
    ShardedIndexMaintainer,
    absorb_graph,
    load_partition,
    partition_edges,
    save_partition,
)


MINE_SPEC = MiningSpec(
    measure="mni", min_support=2, max_pattern_nodes=4, max_pattern_edges=4
)


def build_graph(seed, size=14, p=0.25, alphabet=("A", "B", "C")):
    return random_labeled_graph(size, p, alphabet=alphabet, seed=seed)


def churn_randomly(graph, rng, steps, alphabet, tag):
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


def sharded_structure(sharded):
    """Every structure delta maintenance patches, via the public API.

    ``members`` maps each shard's vertices to their labels in the shard
    graph, so a vertex filed under the wrong label shows up.
    """
    return {
        "version": sharded.version,
        "directory": dict(sharded.label_pair_directory()),
        "assignment": dict(sharded.partition.assignment),
        "vertex_assignment": dict(sharded.partition.vertex_assignment),
        "members": [s.graph.labels() for s in sharded.shards],
        "core_edges": [s.graph.edges() for s in sharded.shards],
        "halos": [sharded.halo_vertices(s.shard_id) for s in sharded.shards],
        "boundary": sharded.boundary_vertices(),
    }


def result_rows(result):
    return [(fp.certificate, fp.support, fp.num_occurrences) for fp in result.frequent]


def rebuilt_from_partition(sharded):
    """A ShardedIndex rebuilt from scratch over the *patched* partition."""
    rebuilt = ShardedIndex(
        sharded.graph,
        Partition(
            num_shards=sharded.num_shards,
            method=sharded.partition.method,
            assignment=dict(sharded.partition.assignment),
            vertex_assignment=dict(sharded.partition.vertex_assignment),
        ),
    )
    return rebuilt


class TestShardedApplyDelta:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_patched_structure_identical_to_rebuilt(self, seed, method):
        graph = build_graph(seed)
        maintainer = ShardedIndexMaintainer(graph, 3, method)
        rng = random.Random(seed * 101 + 9)
        for batch in range(5):
            churn_randomly(graph, rng, steps=6, alphabet="ABCD", tag=f"b{batch}")
            patched = maintainer.sharded()
            reference = rebuilt_from_partition(patched)
            got, want = sharded_structure(patched), sharded_structure(reference)
            assert got == dict(want, version=got["version"])
            assert patched.version == graph.mutation_version()
        assert maintainer.rebuilds == 0
        assert maintainer.patches_applied >= 5

    def test_isolated_vertex_lifecycle(self):
        """VertexAdded -> EdgeAdded -> EdgeRemoved -> VertexRemoved round trip."""
        graph = build_graph(5)
        maintainer = ShardedIndexMaintainer(graph, 3, "hash")
        graph.add_vertex("lone", "B")
        patched = maintainer.sharded()
        assert patched.partition.vertex_assignment["lone"] == (
            patched.router().route_vertex("lone")
        )
        anchor = next(v for v in graph.vertices() if v != "lone")
        graph.add_edge(anchor, "lone")
        patched = maintainer.sharded()
        # No longer isolated: the explicit assignment is retired, exactly
        # as a fresh partition would have it.
        assert "lone" not in patched.partition.vertex_assignment
        graph.remove_edge(anchor, "lone")
        patched = maintainer.sharded()
        assert "lone" in patched.partition.vertex_assignment
        graph.remove_vertex("lone")
        patched = maintainer.sharded()
        assert "lone" not in patched.partition.vertex_assignment
        assert all(not s.graph.has_vertex("lone") for s in patched.shards)
        assert sharded_structure(patched) == dict(
            sharded_structure(rebuilt_from_partition(patched)),
            version=patched.version,
        )
        assert maintainer.rebuilds == 0

    def test_reversed_insertion_keeps_endpoint_labels(self):
        """``add_edge(2, 1)`` files each endpoint under its own label.

        The edge normalizes to ``(1, 2)``; both endpoints are new to the
        owner shard (the label pair's sticky home), so each must enter
        the shard graph under the label the graph gives it.
        """
        graph = LabeledGraph(name="reversed")
        for vertex, label in ((1, "A"), (2, "B"), (3, "A"), (4, "B")):
            graph.add_vertex(vertex, label)
        graph.add_edge(3, 4)
        partition = Partition(
            num_shards=2,
            method="label",
            assignment={(3, 4): 1},
            vertex_assignment={1: 0, 2: 0},
        )
        sharded = ShardedIndex(graph, partition)
        maintainer = ShardedIndexMaintainer(sharded=sharded)
        try:
            graph.add_edge(2, 1)
            patched = maintainer.sharded()
        finally:
            maintainer.detach()
        owner = patched.shards[patched.partition.assignment[(1, 2)]].graph
        assert owner is patched.shards[1].graph
        assert owner.label_of(1) == graph.label_of(1) == "A"
        assert owner.label_of(2) == graph.label_of(2) == "B"
        assert sharded_structure(patched) == dict(
            sharded_structure(rebuilt_from_partition(patched)),
            version=patched.version,
        )

    def test_remote_deltas_leave_shard_views_unpatched(self):
        """A delta outside a shipped view's ball derives no patch for it."""
        from repro.graph.labeled_graph import normalize_edge
        from repro.partition.workers import ShippedShard

        graph = LabeledGraph(name="two-islands")
        for i in range(4):
            graph.add_vertex(f"l{i}", "A")
            graph.add_vertex(f"r{i}", "B")
        for i in range(3):
            graph.add_edge(f"l{i}", f"l{i + 1}")
            graph.add_edge(f"r{i}", f"r{i + 1}")
        assignment = {}
        for u, v in graph.edges():
            assignment[(u, v)] = 0 if u.startswith("l") else 1
        partition = Partition(
            num_shards=2,
            method="hash",
            assignment=assignment,
            vertex_assignment={},
        )
        sharded = ShardedIndex(graph, partition)
        maintainer = ShardedIndexMaintainer(sharded=sharded)
        left, right = ShippedShard(0), ShippedShard(1)
        try:
            assert left.update(sharded, 1)[1] and right.update(sharded, 1)[1]
            # Remove a middle right-island edge: no vertex isolates, so
            # only the right shard's view changes.
            graph.remove_edge("r1", "r2")
            patched = maintainer.sharded()
            assert patched is sharded
            assert left.update(sharded, 1) == (None, False)
            patch, whole = right.update(sharded, 1)
            assert not whole
            assert patch.edges_out == (normalize_edge("r1", "r2"),)
            assert patch.core_out == (normalize_edge("r1", "r2"),)
            assert not patch.vertices_out and not patch.edges_in
        finally:
            left.close()
            right.close()
            maintainer.detach()
        assert graph.delta_log() is None

    def test_maintainable_protocol(self):
        graph = build_graph(11)
        sharded = ShardedIndex.build(graph, 2, "label")
        assert isinstance(sharded, MaintainableIndex)
        assert sharded.is_current()
        graph.add_vertex("new", "A")
        assert not sharded.is_current()
        rebuilt = sharded.rebuilt()
        assert rebuilt.is_current()
        assert rebuilt.num_shards == 2
        assert rebuilt.partition.method == "label"


class TestShardedMaintainerLifecycle:
    def test_gap_rebuilds_then_patches(self):
        graph = build_graph(2)
        maintainer = ShardedIndexMaintainer(graph, 3, "hash")
        maintainer.detach()
        graph.add_vertex("gap", "A")
        maintainer_view = maintainer.sharded()
        assert maintainer.rebuilds == 1
        assert maintainer_view.is_current()
        attached = ShardedIndexMaintainer(graph, 3, "hash")
        graph.remove_edge(*graph.edges()[0])
        attached_view = attached.sharded()
        assert attached.patches_applied == 1
        assert attached.rebuilds == 0
        assert attached_view.is_current()

    def test_burst_coalesces_into_one_repartition(self):
        graph = build_graph(4, size=16, p=0.35)
        maintainer = ShardedIndexMaintainer(graph, 2, "hash")
        for u, v in list(graph.edges())[:8]:
            graph.remove_edge(u, v)
        for vertex in range(100, 160):  # past the log's bound of 64
            graph.add_vertex(vertex, "A")
        view = maintainer.sharded()
        assert maintainer.rebuilds == 1
        assert maintainer.patches_applied == 0
        assert maintainer.deltas_coalesced == 68
        assert view.is_current()
        assert sharded_structure(view) == dict(
            sharded_structure(rebuilt_from_partition(view)), version=view.version
        )

    def test_noop_refresh_returns_same_object(self):
        graph = build_graph(6)
        maintainer = ShardedIndexMaintainer(graph, 2, "edgecut")
        first = maintainer.sharded()
        assert maintainer.sharded() is first
        assert maintainer.patches_applied == 0

    def test_rejects_mismatched_graph_and_sharded(self):
        graph = build_graph(7)
        other = build_graph(8)
        sharded = ShardedIndex.build(other, 2, "hash")
        with pytest.raises(PartitionError):
            ShardedIndexMaintainer(graph, sharded=sharded)
        with pytest.raises(PartitionError):
            ShardedIndexMaintainer()


class TestRebalancing:
    def skewed_maintainer(self, policy):
        """A 3-shard partition with every edge piled onto shard 0."""
        graph = build_graph(9, size=16, p=0.3)
        assignment = {edge: 0 for edge in graph.edges()}
        partition = Partition(
            num_shards=3, method="hash", assignment=assignment,
            vertex_assignment={},
        )
        sharded = ShardedIndex(graph, partition)
        return graph, ShardedIndexMaintainer(sharded=sharded, policy=policy)

    def test_overflowing_shard_sheds_edges(self):
        import math

        graph, maintainer = self.skewed_maintainer(
            RebalancePolicy(max_load_factor=1.25)
        )
        view = maintainer.sharded()
        loads = [shard.num_core_edges for shard in view.shards]
        capacity = max(1, math.ceil(1.25 * sum(loads) / 3))
        assert max(loads) <= capacity
        assert maintainer.edges_moved > 0
        assert maintainer.rebalances == 1
        # Moves preserve the partition invariants exactly.
        assert sharded_structure(view) == dict(
            sharded_structure(rebuilt_from_partition(view)), version=view.version
        )
        # ... and mining over the rebalanced partition stays exact.
        sharded_result = mine_frequent_patterns(
            graph.copy(), spec=MINE_SPEC.replace(shards=3)
        )
        flat_result = mine_frequent_patterns(graph.copy(), spec=MINE_SPEC)
        assert sharded_result.certificates() == flat_result.certificates()

    @pytest.mark.parametrize("seed", [0, 4, 10])
    def test_reversed_insertions_with_rebalance_match_flat(self, seed):
        """Edges inserted larger endpoint first, rebalanced every refresh,
        answer exactly what a flat mine of the same graph does."""
        rng = random.Random(seed)
        graph = LabeledGraph(name="reversed-stream")
        for vertex in range(12):
            graph.add_vertex(vertex, rng.choice("ABC"))
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=3, shards=3)
        miner = DynamicMiner(
            graph, spec=spec, rebalance=RebalancePolicy(max_load_factor=1.0)
        )
        try:
            miner.refresh()
            for batch in range(6):
                for _ in range(4):
                    low, high = sorted(rng.sample(range(12), 2))
                    if not graph.has_edge(high, low):
                        graph.add_edge(high, low)
                want = mine_frequent_patterns(graph.copy(), spec=spec.replace(shards=1))
                assert result_rows(miner.refresh()) == result_rows(want), batch
        finally:
            miner.detach()

    def test_rebalance_is_deterministic(self):
        first_graph, first = self.skewed_maintainer(RebalancePolicy(1.25))
        second_graph, second = self.skewed_maintainer(RebalancePolicy(1.25))
        assert (
            first.sharded().partition.assignment
            == second.sharded().partition.assignment
        )

    def test_replication_trigger_falls_back_to_full_repartition(self):
        graph = build_graph(10, size=16, p=0.35)
        maintainer = ShardedIndexMaintainer(
            graph, 4, "hash", policy=RebalancePolicy(1.5, max_replication=1.01)
        )
        before = maintainer.sharded()
        if before.replication_factor() <= 1.01:  # pragma: no cover - guard
            pytest.skip("hash partition unexpectedly local")
        assert maintainer.full_repartitions >= 1
        after = maintainer.sharded()
        assert after.is_current()

    def test_balanced_partition_is_untouched(self):
        graph = build_graph(12)
        maintainer = ShardedIndexMaintainer(
            graph, 2, "hash", policy=RebalancePolicy(max_load_factor=2.0)
        )
        view = maintainer.sharded()
        assert maintainer.edges_moved == 0
        assert view.partition.assignment == partition_edges(graph, 2, "hash").assignment

    def test_policy_validation(self):
        with pytest.raises(PartitionError):
            RebalancePolicy(max_load_factor=0.5)
        with pytest.raises(PartitionError):
            RebalancePolicy(max_replication=0.9)
        graph = build_graph(13)
        with pytest.raises(PartitionError):
            ShardedIndex.build(graph, 2, "hash").rebalance(0.8)


class TestRouter:
    def test_hash_routing_matches_static_partitioner(self):
        graph = build_graph(1, size=18, p=0.3)
        sharded = ShardedIndex.build(graph, 3, "hash")
        router = sharded.router()
        static = partition_edges(graph, 3, "hash")
        for u, v in graph.edges():
            assert router.route_edge(
                u, v, graph.label_of(u), graph.label_of(v)
            ) == static.assignment[(u, v)]

    def test_label_routing_is_sticky(self):
        graph = build_graph(3, alphabet=("A", "B"))
        maintainer = ShardedIndexMaintainer(graph, 2, "label")
        sharded = maintainer.sharded()
        pair_home = {}
        for (lu, lv), shards in sharded.label_pair_directory().items():
            assert len(shards) == 1  # label placement keeps pairs whole
            pair_home[(lu, lv)] = shards[0]
        graph.add_vertex("xa", "A")
        graph.add_vertex("xb", "B")
        graph.add_edge("xa", "xb")
        patched = maintainer.sharded()
        home = pair_home.get(("A", "B"))
        if home is not None:
            assert patched.partition.assignment[("xa", "xb")] == home

    def test_router_loads_stay_exact_when_first_touch_is_a_removal(self):
        """The router must materialize from *pre-delta* state.

        A lazily built router constructed mid-splice (after the detach
        already shrank the shard) would under-count the removed edge.
        """
        graph = build_graph(14)
        maintainer = ShardedIndexMaintainer(graph, 3, "hash")
        graph.remove_edge(*graph.edges()[0])
        patched = maintainer.sharded()  # first router touch is EdgeRemoved
        assert patched.router().loads == [
            shard.num_core_edges for shard in patched.shards
        ]

    def test_router_loads_stay_exact_when_first_touch_is_rebalance(self):
        """Same hazard on the rebalance path (router built mid-move)."""
        graph = build_graph(15, size=16, p=0.3)
        assignment = {edge: 0 for edge in graph.edges()}
        partition = Partition(
            num_shards=2, method="label", assignment=assignment,
            vertex_assignment={},
        )
        sharded = ShardedIndex(graph, partition)
        assert sharded.rebalance(1.0) > 0  # router is built mid-call
        assert sharded.router().loads == [
            shard.num_core_edges for shard in sharded.shards
        ]

    def test_router_reconstruction_matches_live_router(self):
        graph = build_graph(6)
        maintainer = ShardedIndexMaintainer(graph, 3, "edgecut")
        rng = random.Random(77)
        churn_randomly(graph, rng, steps=8, alphabet="ABC", tag="r")
        patched = maintainer.sharded()
        live = patched.router()
        rebuilt = EdgeRouter.for_sharded(patched)
        assert rebuilt.loads == live.loads
        assert rebuilt.method == live.method

    def test_invalid_router_arguments(self):
        with pytest.raises(PartitionError):
            EdgeRouter("metis", 2)
        with pytest.raises(PartitionError):
            EdgeRouter("hash", 0)


class TestPersistedAssignmentState:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_loaded_partition_absorbs_deltas_like_the_saved_one(self, tmp_path, method):
        graph = build_graph(4, size=16, p=0.3)
        live = ShardedIndexMaintainer(graph, 3, method)
        save_partition(live.sharded(), tmp_path / "saved")
        loaded = load_partition(tmp_path / "saved")
        loaded_maintainer = ShardedIndexMaintainer(sharded=loaded)
        # Apply the same churn to both graphs; routing must agree step
        # for step, so the partitions stay identical.
        live_rng = random.Random(4242)
        loaded_rng = random.Random(4242)
        churn_randomly(graph, live_rng, steps=10, alphabet="ABC", tag="s")
        churn_randomly(loaded.graph, loaded_rng, steps=10, alphabet="ABC", tag="s")
        patched_live = live.sharded()
        patched_loaded = loaded_maintainer.sharded()
        assert loaded_maintainer.rebuilds == 0
        assert patched_loaded.partition.assignment == (
            patched_live.partition.assignment
        )
        assert patched_loaded.partition.vertex_assignment == (
            patched_live.partition.vertex_assignment
        )

    def test_sticky_pair_state_survives_round_trip(self, tmp_path):
        """A pair whose edges were all deleted still routes to its old home.

        Shard files alone cannot express this — it is exactly the
        assignment state the format 2 manifest persists.
        """
        graph = LabeledGraph(name="sticky")
        for i in range(3):
            graph.add_vertex(f"a{i}", "A")
            graph.add_vertex(f"b{i}", "B")
            graph.add_vertex(f"c{i}", "C")
        graph.add_edge("a0", "b0")
        for i in range(3):
            graph.add_edge(f"b{i}", f"c{i}")
        maintainer = ShardedIndexMaintainer(graph, 2, "label")
        sharded = maintainer.sharded()
        ab_home = sharded.partition.assignment[("a0", "b0")]
        graph.remove_edge("a0", "b0")  # the last A-B edge disappears
        save_partition(maintainer.sharded(), tmp_path / "sticky")
        loaded = load_partition(tmp_path / "sticky")
        assert loaded.router().route_edge("a1", "b1", "A", "B") == ab_home

    def test_manifest_format_and_fields(self, tmp_path):
        graph = build_graph(2)
        graph.add_vertex("loner", "C")
        sharded = ShardedIndex.build(graph, 3, "label")
        manifest_path = save_partition(sharded, tmp_path / "v2")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == 2
        assert ["loner", sharded.partition.vertex_assignment["loner"]] in (
            manifest["vertex_assignment"]
        )
        assert manifest["router"]["loads"] == [
            shard.num_core_edges for shard in sharded.shards
        ]
        assert manifest["router"]["pair_shards"]

    def test_format_1_manifest_still_loads(self, tmp_path):
        graph = build_graph(3)
        graph.add_vertex("island", "B")
        sharded = ShardedIndex.build(graph, 2, "hash")
        manifest_path = save_partition(sharded, tmp_path / "v1")
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 1
        del manifest["vertex_assignment"]
        del manifest["router"]
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_partition(tmp_path / "v1")
        assert loaded.graph == graph
        assert loaded.partition.vertex_assignment == (
            sharded.partition.vertex_assignment
        )
        # A reconstructed router still routes (no persisted stickiness).
        assert 0 <= loaded.router().route_edge("island", 0, "B", "A") < 2

    def test_unknown_assigned_vertex_rejected(self, tmp_path):
        graph = build_graph(5)
        sharded = ShardedIndex.build(graph, 2, "hash")
        manifest_path = save_partition(sharded, tmp_path / "bad")
        manifest = json.loads(manifest_path.read_text())
        manifest["vertex_assignment"] = [["ghost", 1]]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PartitionError):
            load_partition(tmp_path / "bad")

    @pytest.mark.parametrize("shard_id", [-1, 5])
    def test_out_of_range_manifest_shard_ids_rejected(self, tmp_path, shard_id):
        graph = build_graph(6)
        graph.add_vertex("stray", "A")
        sharded = ShardedIndex.build(graph, 2, "label")
        manifest_path = save_partition(sharded, tmp_path / "range")
        manifest = json.loads(manifest_path.read_text())
        manifest["vertex_assignment"] = [["stray", shard_id]]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PartitionError):
            load_partition(tmp_path / "range")
        manifest["vertex_assignment"] = [
            ["stray", sharded.partition.vertex_assignment["stray"]]
        ]
        manifest["router"]["pair_shards"] = [["A", "B", shard_id]]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PartitionError):
            load_partition(tmp_path / "range")


class TestAbsorbGraph:
    def test_absorbs_drift_and_stays_exact(self):
        graph = build_graph(8, size=16, p=0.3)
        maintainer = ShardedIndexMaintainer(graph, 3, "label")
        maintainer.sharded()
        target = graph.copy()
        rng = random.Random(99)
        churn_randomly(target, rng, steps=8, alphabet="ABC", tag="d")
        applied = absorb_graph(graph, target)
        assert applied > 0
        assert graph == target
        patched = maintainer.sharded()
        assert maintainer.rebuilds == 0
        assert sharded_structure(patched) == dict(
            sharded_structure(rebuilt_from_partition(patched)),
            version=patched.version,
        )

    def test_noop_absorb(self):
        graph = build_graph(9)
        assert absorb_graph(graph, graph.copy()) == 0

    def test_relabel_rejected(self):
        graph = LabeledGraph(vertices=[(1, "A")])
        target = LabeledGraph(vertices=[(1, "B")])
        with pytest.raises(PartitionError):
            absorb_graph(graph, target)


class TestRebalanceCLI:
    def test_rebalance_round_trip(self, tmp_path, capsys):
        graph = build_graph(1, size=18, p=0.3)
        graph_path = tmp_path / "g.lg"
        save_graph(graph, graph_path)
        outdir = tmp_path / "shards"
        code = main(
            ["partition", str(graph_path), str(outdir), "--shards", "3",
             "--method", "label"]
        )
        assert code == 0
        capsys.readouterr()
        # Drift the graph on disk, then absorb + rebalance in place.
        rng = random.Random(5)
        anchor = graph.vertices()[0]
        for i in range(5):
            graph.add_vertex(f"n{i}", rng.choice("ABC"))
            graph.add_edge(anchor, f"n{i}")
        graph.remove_edge(*graph.edges()[-1])
        save_graph(graph, graph_path)
        code = main(
            ["partition", str(graph_path), str(outdir), "--rebalance",
             "--max-load", "1.2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "absorbed" in output
        assert "re-partition" in output
        loaded = load_partition(outdir)
        assert loaded.graph == graph
        sharded_result = mine_frequent_patterns(
            graph.copy(), spec=MINE_SPEC.replace(shards=3)
        )
        flat_result = mine_frequent_patterns(graph.copy(), spec=MINE_SPEC)
        assert sharded_result.certificates() == flat_result.certificates()
