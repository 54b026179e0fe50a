"""Shard-resident views: the worker pool and the in-process runner.

The resident pool (:class:`repro.partition.ShardWorkerPool`) keeps one
long-lived worker per shard and ships each shard's halo-expanded slice
once, whole; after that the parent derives each patch from the graph's
deltas since the last shipment (:class:`ShippedShard`), replacing a
shard's view wholesale after a re-partition or a gap in the delta log.
Serial sharded sessions run the same view machinery in process
(:class:`repro.partition.InProcessRunner`), where ``max_resident``
bounds how many shards hold views, dropping the least recently used
shard's view and shipping it whole on its next use.  Everything here
pins the same contract as the rest of the partition suite:
**byte-identical results** — whatever the worker scheduling, whatever
the eviction order — plus the shard placement (fewer shards than
workers replicate each shard, so a flat pooled session is one
whole-graph shard on every worker) and the pool-lifecycle bugfixes
(Ctrl-C shutdown, pool failures degrading to the in-process runner).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.datasets.synthetic import random_labeled_graph
from repro.errors import MiningError, PartitionError
from repro.graph.builders import path_pattern, star_pattern, triangle_pattern
from repro.graph.canonical import canonical_certificate
from repro.graph.labeled_graph import LabeledGraph
from repro.index.delta import IndexMaintainer
from repro.isomorphism.matcher import Occurrence
from repro.isomorphism.vf2 import (
    _matching_order,
    _Plan,
    _PlanCache,
    _search,
    collect_subgraph_isomorphism_items,
)
from repro.measures.mni import mni_support_from_occurrences
from repro.mining import miner as miner_module
from repro.mining.dynamic import DynamicMiner, apply_update, mine_stream
from repro.mining.miner import FrequentSubgraphMiner, mine_frequent_patterns
from repro.mining.results import FrequentPattern
from repro.mining.spec import MiningSpec
from repro.obs import metrics
from repro.index.graph_index import GraphIndex
from repro.partition import (
    InProcessRunner,
    RebalancePolicy,
    ShardedIndex,
    ShardedIndexMaintainer,
    ShardWorkerPool,
    WorkerPoolError,
    pooled_outcomes,
)
from repro.partition import workers as workers_module
from repro.partition.evaluate import (
    OccurrenceSet,
    anchored_occurrence_items,
    evaluate_task,
    support_from_shard_items,
)
from repro.partition.workers import (
    ResidentView,
    ShardPatch,
    ShippedShard,
    shard_owners,
    shard_patch,
)


MINE_SPEC = MiningSpec(
    measure="mni", min_support=2, max_pattern_nodes=4, max_pattern_edges=4
)


def long_path_graph(extra_chords: bool = True) -> LabeledGraph:
    """A large-diameter graph whose edgecut shards have non-alias balls."""
    graph = LabeledGraph(name="long-path")
    n = 60
    for i in range(n):
        graph.add_vertex(i, "ABC"[i % 3])
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    if extra_chords:
        for i in range(0, n - 6, 6):
            graph.add_edge(i, i + 5)
    return graph


def graph_content(graph: LabeledGraph):
    return (
        sorted((repr(v), graph.label_of(v)) for v in graph.vertices()),
        sorted(repr(edge) for edge in graph.edges()),
    )


def result_key(result):
    return [
        (fp.certificate, fp.support, fp.num_occurrences) for fp in result.frequent
    ]


def assert_mining_identical(left, right):
    assert result_key(left) == result_key(right)
    assert left.stats.as_dict() == right.stats.as_dict()


def fresh_outcomes(patterns, index, **common):
    """``pooled_outcomes`` on a fresh in-process runner, shut down after.

    A fresh runner ships every view whole from
    :meth:`ShardedIndex.expanded_shard`, so the reference does not go
    through the delta-derived patches the pool under test uses.
    """
    runner = InProcessRunner(
        measure=common["measure"],
        lazy=common["lazy"],
        lazy_cap=common["lazy_cap"],
        use_index=True,
    )
    try:
        return pooled_outcomes(patterns, index, runner, **common)
    finally:
        runner.shutdown()


def pager_snapshot(mine):
    """Run ``mine()`` on a fresh metrics registry; returns its snapshot."""
    registry = metrics.MetricsRegistry()
    previous = metrics.set_registry(registry)
    try:
        mine()
    finally:
        metrics.set_registry(previous)
    return registry.snapshot()


# ----------------------------------------------------------------------
# resident pool == flat serial
# ----------------------------------------------------------------------
class TestResidentPoolEquivalence:
    @pytest.mark.parametrize("seed", [2, 9])
    def test_resident_pool_identical_to_flat(self, seed):
        graph = random_labeled_graph(18, 0.22, alphabet=("A", "B", "C"), seed=seed)
        flat = mine_frequent_patterns(graph, spec=MINE_SPEC)
        pooled = mine_frequent_patterns(
            graph, spec=MINE_SPEC.replace(shards=3, workers=2)
        )
        assert_mining_identical(pooled, flat)

    def test_bounded_mines_identical_serial_evicts_pool_holds_none(self):
        """max_resident < shards: identical serial and pooled; the serial
        runner evicted, and the pooled parent held no view at all."""
        graph = long_path_graph()
        flat = mine_frequent_patterns(graph, spec=MINE_SPEC)
        bounded = MINE_SPEC.replace(
            shards=4, max_resident=1, partition_method="edgecut"
        )
        for workers, evicts in ((1, True), (2, False)):
            spec = bounded.replace(workers=workers)
            results = []
            snap = pager_snapshot(
                lambda: results.append(mine_frequent_patterns(graph, spec=spec))
            )
            assert_mining_identical(results[0], flat)
            assert (snap["repro_pager_evictions"] > 0) is evicts, workers
            if not evicts:
                assert snap["repro_pager_peak_resident_weight"] == 0
            assert snap["repro_pager_recomputes"] > 0
        assert graph.delta_log() is None  # every runner closed its cursors

    def test_bounded_peak_weight_below_all_resident(self):
        """The acceptance gate in miniature: bounded residency uses less."""
        graph = long_path_graph()
        peaks = {}
        for max_resident in (1, 4):
            spec = MINE_SPEC.replace(
                shards=4, max_resident=max_resident, partition_method="edgecut"
            )
            snap = pager_snapshot(lambda: mine_frequent_patterns(graph, spec=spec))
            peaks[max_resident] = snap["repro_pager_peak_resident_weight"]
        assert 0 < peaks[1] < peaks[4]


# ----------------------------------------------------------------------
# the bounded in-process runner: eviction order must not matter
# ----------------------------------------------------------------------
def held_weight(runner: InProcessRunner) -> int:
    """The projected weight of every view ``runner`` holds, summed afresh."""
    from repro.index.compact import projected_index_nbytes

    return sum(
        projected_index_nbytes(
            held.view.num_vertices,
            held.view.num_edges,
            len(held.view.label_alphabet()),
        )
        for _record, held, _weight in runner._held.values()
    )


def eager_runner(max_resident=None) -> InProcessRunner:
    return InProcessRunner(
        measure="mni", lazy=False, lazy_cap=2, use_index=True, max_resident=max_resident
    )


def touch(runner: InProcessRunner, index: ShardedIndex, shard_id: int, depth=2):
    """Run one task on ``shard_id``; returns its partial."""
    task = ("part", path_pattern(["A", "B", "C"]), shard_id, False, None)
    (partial,) = runner.run(index, [task], depth)
    return sorted(partial, key=repr)


def fresh_touch(index: ShardedIndex, shard_id: int):
    """:func:`touch` on a fresh unbounded runner."""
    runner = eager_runner()
    try:
        return touch(runner, index, shard_id)
    finally:
        runner.shutdown()


def assert_views_match(runner: InProcessRunner, reference: ShardedIndex, depth=2):
    """Every view ``runner`` holds is the view computed from scratch."""
    for shard_id, (_record, held, _weight) in runner._held.items():
        want = reference.expanded_shard(shard_id, depth)
        assert graph_content(held.view) == graph_content(want), shard_id
        assert held.core == set(reference.shards[shard_id].graph.edges())


class TestBoundedRunner:
    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_random_access_matches_unbounded(self, seed):
        """Any access order, any eviction order: answers == unbounded ones."""
        graph = long_path_graph()
        index = ShardedIndex.build(graph, 4, "edgecut")
        unbounded, bounded = eager_runner(), eager_runner(max_resident=2)
        rng = random.Random(seed)
        try:
            for _ in range(60):
                shard_id = rng.randrange(4)
                assert touch(bounded, index, shard_id) == touch(
                    unbounded, index, shard_id
                )
                assert len(bounded._held) <= 2
                assert bounded.resident_weight == held_weight(bounded)
                assert bounded.peak_resident_weight >= bounded.resident_weight
                assert_views_match(bounded, index)
            assert bounded.evictions > 0
            assert unbounded.evictions == 0
            assert unbounded.resident_weight == held_weight(unbounded)
            assert bounded.peak_resident_weight < unbounded.peak_resident_weight
        finally:
            bounded.shutdown()
            unbounded.shutdown()
        assert graph.delta_log() is None

    def test_deltas_while_evicted_match_fresh_index(self):
        """Edge and isolated-vertex deltas reach evicted shards, which
        come back whole."""
        graph = long_path_graph()
        index = ShardedIndex.build(graph, 4, "edgecut")
        maintainer = ShardedIndexMaintainer(graph, sharded=index)
        runner = eager_runner(max_resident=1)
        try:
            for shard_id in range(4):  # touch every shard; three are evicted
                touch(runner, index, shard_id)
            assert runner.evictions == 3
            updates = [("v", 990 + i, "A") for i in range(8)]
            updates += [("e", 20, 45), ("e", 990, 3), ("de", 0, 1), ("dv", 991)]
            for update in updates:
                apply_update(graph, update)
                assert maintainer.sharded() is index  # patched, not rebuilt
                reference = ShardedIndex(graph, index.partition)
                for shard_id in range(4):
                    recomputes = index.recomputes
                    got = touch(runner, index, shard_id)
                    assert index.recomputes == recomputes + 1  # shipped whole
                    assert got == fresh_touch(reference, shard_id)
                    assert list(runner._held) == [shard_id]
                    assert_views_match(runner, reference)
                    assert runner.resident_weight == held_weight(runner)
        finally:
            runner.shutdown()
            maintainer.detach()
        assert graph.delta_log() is None

    def test_bound_and_weight_survive_repartition(self):
        """A re-partition drops the runner's views; its bound and peak stay."""
        graph = long_path_graph()
        maintainer = ShardedIndexMaintainer(
            graph,
            policy=RebalancePolicy(max_replication=1.0),
            sharded=ShardedIndex.build(graph, 4, "edgecut"),
        )
        runner = eager_runner(max_resident=1)
        try:
            index = maintainer.sharded()
            for shard_id in range(4):
                touch(runner, index, shard_id)
            peak = runner.peak_resident_weight
            assert peak > 0
            apply_update(graph, ("e", 0, 30))
            rebuilt = maintainer.sharded()
            assert rebuilt is not index
            assert maintainer.full_repartitions > 0
            for shard_id in range(4):
                touch(runner, rebuilt, shard_id)
            assert runner.max_resident == 1
            assert runner.peak_resident_weight >= peak
            assert runner.evictions == 6  # the re-bind itself evicts nothing
            assert list(runner._held) == [3]
            assert_views_match(runner, ShardedIndex(graph, rebuilt.partition))
            assert runner.resident_weight == held_weight(runner)
        finally:
            runner.shutdown()
            maintainer.detach()
        assert runner.resident_weight == 0

    def test_max_resident_below_one_rejected(self):
        with pytest.raises(PartitionError, match="max_resident"):
            eager_runner(max_resident=0)


# ----------------------------------------------------------------------
# resident views patched by delta == views computed from scratch
# ----------------------------------------------------------------------
def index_content(index: GraphIndex, graph: LabeledGraph):
    """Every decoded query of ``index`` over ``graph``'s vertices and labels."""
    alphabet = graph.label_alphabet()
    return {
        "histogram": dict(index.label_histogram()),
        "inverted": {label: index.vertices_with_label(label) for label in alphabet},
        "label_pairs": set(index.adjacent_label_pairs()),
        "degrees": {v: index.degree_of(v) for v in graph.vertices()},
        "signatures": {v: dict(index.signature_of(v)) for v in graph.vertices()},
        "neighbors": {
            (v, label): index.neighbors_with_label(v, label)
            for v in graph.vertices()
            for label in alphabet
        },
    }


def random_churn(graph: LabeledGraph, rng: random.Random, steps: int, tag: str):
    """``steps`` random vertex/edge inserts and deletes, applied to ``graph``.

    Returns them as stream updates.  Edges join random vertex pairs, so
    halo balls both grow (a chord across the long path) and shrink (a
    chord or path edge removed).
    """
    updates = []
    for step in range(steps):
        vertices = graph.vertices()
        roll = rng.random()
        if roll < 0.2:
            update = ("v", f"{tag}{step}", rng.choice("ABC"))
        elif roll < 0.55:
            u, v = rng.sample(vertices, 2)
            if graph.has_edge(u, v):
                continue
            update = ("e", u, v)
        elif roll < 0.9 and graph.num_edges:
            update = ("de", *rng.choice(graph.edges()))
        else:
            update = ("dv", rng.choice(vertices))
        apply_update(graph, update)
        updates.append(update)
    return updates


class Shipper:
    """The pool's parent side in process: one record per shipped shard.

    :meth:`ship` patches a worker's view as the pool would: whole on the
    shard's first use and after the index object changed (the records
    are closed, as a re-bound pool closes them), otherwise by the patch
    its record derives from the deltas.  The pickle round trip is the
    pipe: the worker owns a copy.
    """

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.records = {}
        self.bound = None
        self.whole = 0  # patches that replaced a view wholesale

    def ship(self, worker: ResidentView, index: ShardedIndex, shard_id) -> bool:
        """Bring ``worker`` current; ``True`` when a patch went out."""
        if index is not self.bound:
            self.close()
            self.bound = index
        record = self.records.get(shard_id)
        if record is None:
            record = self.records[shard_id] = ShippedShard(shard_id)
        patch, whole = record.update(index, self.depth)
        self.whole += whole
        if patch is not None:
            worker.apply(pickle.loads(pickle.dumps(patch)), use_index=True)
        return patch is not None

    def close(self) -> None:
        for record in self.records.values():
            record.close()


def assert_worker_current(worker: ResidentView, index: ShardedIndex, shard_id, depth):
    """The worker holds the view computed from scratch, indexed alike."""
    view = index.expanded_shard(shard_id, depth)
    assert graph_content(worker.view) == graph_content(view)
    assert worker.core == set(index.shards[shard_id].graph.edges())
    got = worker.view.cached_index()
    want = GraphIndex(worker.view.copy())
    assert index_content(got, view) == index_content(want, view)


class TestResidentViewPatching:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_patched_view_matches_expanded(self, seed):
        """After N patches a worker's view is the parent's view, indexed alike.

        Small batches patch the index delta by delta; the last round
        deletes two thirds of the graph, a burst past the delta log's
        bound: the parent replaces the views wholesale and the workers'
        indexes fold the patches into one rebuild, with the same result.
        """
        graph = long_path_graph()
        maintainer = ShardedIndexMaintainer(graph, 4, "edgecut")
        index = maintainer.sharded()
        depth = 2
        rng = random.Random(seed)
        resident = {shard_id: ResidentView() for shard_id in range(4)}
        shipper = Shipper(depth)
        try:
            for shard_id, worker in resident.items():
                shipper.ship(worker, index, shard_id)
                assert_worker_current(worker, index, shard_id, depth)
            patched = 0
            for round_ in range(8):
                random_churn(graph, rng, 6, f"r{round_}-")
                assert maintainer.sharded() is index  # patched, not re-partitioned
                for shard_id, worker in resident.items():
                    patched += shipper.ship(worker, index, shard_id)
                    assert_worker_current(worker, index, shard_id, depth)
            assert patched > 0
            for worker in resident.values():
                assert worker._maintainer.rebuilds == 0  # every refresh patched
            vertices = graph.vertices()
            for vertex in vertices[: 2 * len(vertices) // 3]:
                apply_update(graph, ("dv", vertex))
            index = maintainer.sharded()
            for shard_id, worker in resident.items():
                shipper.ship(worker, index, shard_id)
                assert_worker_current(worker, index, shard_id, depth)
            assert any(worker._maintainer.rebuilds for worker in resident.values())
        finally:
            shipper.close()
            maintainer.detach()

    def test_relabeled_vertex_leaves_and_returns(self):
        """A vertex deleted and re-added with a new label is patched exactly."""
        graph = LabeledGraph([(1, "A"), (2, "B"), (3, "A")], [(1, 2), (2, 3)])
        maintainer = ShardedIndexMaintainer(graph, 1, "hash")
        worker = ResidentView()
        shipper = Shipper(1)
        try:
            assert shipper.ship(worker, maintainer.sharded(), 0)
            assert graph_content(worker.view) == graph_content(graph)
            apply_update(graph, ("dv", 2))
            apply_update(graph, ("v", 2, "C"))
            apply_update(graph, ("e", 1, 2))
            index = maintainer.sharded()
            assert shipper.ship(worker, index, 0)
            assert graph_content(worker.view) == graph_content(graph)
            assert worker.core == {(1, 2)}
            patched_index = worker.view.cached_index()
            assert index_content(patched_index, graph) == index_content(
                GraphIndex(graph.copy()), graph
            )
        finally:
            shipper.close()
            maintainer.detach()

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["path", "dense"])
    def test_derived_patches_match_expansion(self, kind, depth):
        """Views patched only by derived patches equal views computed afresh.

        Each round of the seeded stream is followed by one patch per
        shard.  The stream mixes vertex and edge inserts and deletes,
        chords that bridge into balls and removals that shrink them, in
        place rebalance moves (the core graphs change under a fixed
        graph), a re-partitioned index (the views are replaced whole),
        and a burst past the source log's bound (a gap: replaced whole
        too).  On the dense graph most balls are the whole graph.
        """
        if kind == "path":
            graph = long_path_graph()
        else:
            graph = random_labeled_graph(16, 0.25, alphabet="ABC", seed=11)
        policy = RebalancePolicy(max_load_factor=1.0)
        maintainer = ShardedIndexMaintainer(graph, 4, "edgecut", policy=policy)
        index = maintainer.sharded()
        rng = random.Random(depth)
        resident = {shard_id: ResidentView() for shard_id in range(4)}
        shipper = Shipper(depth)
        whole = derived = aliases = moved = 0

        def churn(tag):
            return lambda: random_churn(graph, rng, rng.randint(1, 6), tag)

        def hub_out():
            apply_update(graph, ("dv", "grow-hub"))

        def repartition():
            nonlocal maintainer, moved
            random_churn(graph, rng, 3, "rp-")
            moved += maintainer.edges_moved
            maintainer.detach()
            maintainer = ShardedIndexMaintainer(
                sharded=ShardedIndex.build(graph, 4, "label")
            )

        def burst():
            leaf_burst(graph, graph.vertices()[0], "leaf-", count=80)

        rounds = [churn("a-"), churn("b-"), lambda: chord_burst(graph, rng, "grow-")]
        rounds += [hub_out, churn("c-"), churn("d-"), repartition, churn("e-")]
        rounds += [burst, churn("f-"), churn("g-")]
        try:
            for shard_id, worker in resident.items():
                shipper.ship(worker, index, shard_id)
                assert_worker_current(worker, index, shard_id, depth)
            for step in rounds:
                step()
                index = maintainer.sharded()
                before = shipper.whole
                aliases += sum(
                    index.expanded_shard(s, depth) is graph for s in range(4)
                )
                for shard_id, worker in resident.items():
                    shipper.ship(worker, index, shard_id)
                    assert_worker_current(worker, index, shard_id, depth)
                shipped_whole = shipper.whole - before
                whole += shipped_whole
                derived += shipped_whole == 0
            # Only the re-partition and the burst replaced views wholesale.
            assert derived == len(rounds) - 2
            assert whole > 0
            assert moved + maintainer.edges_moved > 0
            if kind == "dense":
                assert aliases > 0  # balls that are the whole graph
        finally:
            shipper.close()
            maintainer.detach()

    def test_localized_stream_recomputes_no_view(self):
        """Under a pool, steady-state batches recompute no halo view."""
        spec = MiningSpec(
            min_support=2.0,
            max_pattern_nodes=4,
            shards=4,
            workers=2,
            partition_method="edgecut",
        )
        graph = long_path_graph()
        reference_graph = long_path_graph()
        batches = [
            [("e", 10, 13)],
            [("de", 10, 13), ("v", "x", "A"), ("e", "x", 11)],
            [("de", 11, 12), ("e", "x", 12)],
            [("dv", "x"), ("e", 11, 12)],
        ]
        miner = DynamicMiner(graph, spec=spec)
        reference = DynamicMiner(reference_graph, spec=spec.replace(workers=1))
        try:
            assert_mining_identical(miner.refresh(), reference.refresh())
            sharded = miner._sharded_maintainer.sharded()
            pool = miner._resources.pool
            assert isinstance(pool, ShardWorkerPool)
            for batch in batches:
                recomputes = sharded.recomputes
                miner.apply(batch)
                reference.apply(batch)
                assert_mining_identical(miner.refresh(), reference.refresh())
                assert miner._sharded_maintainer.sharded() is sharded
                assert sharded.recomputes == recomputes
            assert pool.slices_patched > 0
        finally:
            miner.detach()
            reference.detach()


# ----------------------------------------------------------------------
# pool-failure fallback (satellite: BrokenExecutor/OSError coverage)
# ----------------------------------------------------------------------
class TestPoolFailureFallback:
    def test_worker_pool_error_falls_back_to_serial(self, monkeypatch):
        """A pool that dies mid-level degrades to serial, byte-identical."""
        graph = random_labeled_graph(16, 0.25, alphabet=("A", "B", "C"), seed=3)
        serial = mine_frequent_patterns(graph, spec=MINE_SPEC.replace(shards=3))

        def broken_run(self, sharded, tasks, depth):
            raise WorkerPoolError("worker killed mid-level (test)")

        monkeypatch.setattr(ShardWorkerPool, "run", broken_run)
        miner = FrequentSubgraphMiner(
            graph, spec=MINE_SPEC.replace(shards=3, workers=2)
        )
        result = miner.mine()
        assert_mining_identical(result, serial)

    def test_dynamic_pool_failure_mid_refresh_stays_serial(self, monkeypatch):
        """A pool lost on a delta refresh: serial answer, serial from then on."""
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=4, shards=3, workers=2)
        graph, updates = _stream_fixture()
        reference_graph, _ = _stream_fixture()
        fallbacks = metrics.counter("repro_pool_serial_fallbacks")
        miner = DynamicMiner(graph, spec=spec)
        reference = DynamicMiner(reference_graph, spec=spec.replace(workers=1))
        try:
            assert_mining_identical(miner.refresh(), reference.refresh())
            pool = miner._resources.pool
            assert isinstance(pool, ShardWorkerPool)

            def broken_run(self, sharded, tasks, depth):
                raise WorkerPoolError("worker killed mid-refresh (test)")

            spawned = []
            real_init = ShardWorkerPool.__init__

            def counting_init(self, *args, **kwargs):
                spawned.append(self)
                real_init(self, *args, **kwargs)

            monkeypatch.setattr(ShardWorkerPool, "run", broken_run)
            monkeypatch.setattr(ShardWorkerPool, "__init__", counting_init)
            before = fallbacks.value
            miner.apply(updates[:4])
            reference.apply(updates[:4])
            assert_mining_identical(miner.refresh(), reference.refresh())
            assert fallbacks.value == before + 1
            assert pool._closed
            runner = miner._resources.pool
            assert isinstance(runner, InProcessRunner)
            miner.apply(updates[4:])
            reference.apply(updates[4:])
            assert_mining_identical(miner.refresh(), reference.refresh())
            assert spawned == [] and miner._resources.pool is runner
            assert fallbacks.value == before + 1
        finally:
            miner.detach()
            reference.detach()

    def test_split_replies_keep_task_order(self, monkeypatch):
        """Results split across replies still land in task order."""
        from repro.partition import workers

        # Forked workers inherit the patched size: every result is sent
        # as soon as it is computed.
        monkeypatch.setattr(workers, "REPLY_BYTES", 1)
        graph = long_path_graph()
        index = ShardedIndex.build(graph, 4, "edgecut")
        patterns = [path_pattern(list(labels)) for labels in ("AB", "ABC", "BCA")]
        common = dict(
            measure="mni",
            lazy=False,
            lazy_cap=2,
            max_occurrences=None,
            depth=1,
            flat_evaluate=None,
        )
        pool = ShardWorkerPool(2, measure="mni", lazy=False, lazy_cap=2, use_index=True)
        try:
            got = pooled_outcomes(patterns, index, pool, **common)
            assert got == fresh_outcomes(patterns, index, **common)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def test_killed_worker_raises_worker_pool_error(self):
        """A genuinely dead worker process surfaces as WorkerPoolError."""
        graph = long_path_graph()
        index = ShardedIndex.build(graph, 4, "edgecut")
        pool = ShardWorkerPool(2, measure="mni", lazy=False, lazy_cap=2, use_index=True)
        try:
            pattern = path_pattern(["A", "B"])
            tasks = [("part", pattern, shard_id, False, None) for shard_id in range(4)]
            assert len(pool.run(index, tasks, 2)) == 4
            for process in pool._procs:
                process.terminate()
                process.join(timeout=5.0)
            with pytest.raises(WorkerPoolError):
                pool.run(index, tasks, 2)
            assert pool._closed  # a failed batch shuts the pool down
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def test_killed_worker_after_patches_falls_back_and_fresh_pool_ships_whole(self):
        """Workers killed after patching: serial answers, and a new pool
        starts from whole slices (it has nothing to patch against)."""
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=4, shards=3, workers=2)
        graph, reference_graph, model = (long_path_graph() for _ in range(3))
        miner = DynamicMiner(graph, spec=spec)
        reference = DynamicMiner(reference_graph, spec=spec.replace(workers=1))
        fallbacks = metrics.counter("repro_pool_serial_fallbacks")
        rng = random.Random(3)

        def step():
            batch = random_churn(model, rng, 4, f"k{rng.random()}-")
            miner.apply(batch)
            reference.apply(batch)
            result = miner.refresh()
            assert_mining_identical(result, reference.refresh())
            return result

        try:
            assert_mining_identical(miner.refresh(), reference.refresh())
            pool = miner._resources.pool
            assert isinstance(pool, ShardWorkerPool)
            for _ in range(10):
                step()
                if pool.slices_patched:
                    break
            assert pool.slices_patched > 0
            for process in pool._procs:
                process.terminate()
                process.join(timeout=5.0)
            before = fallbacks.value
            result = step()
            assert fallbacks.value == before + 1
            assert isinstance(miner._resources.pool, InProcessRunner)
            step()  # and serial from then on

            sharded = miner._sharded_maintainer.sharded()
            patterns = [fp.pattern for fp in result.frequent]
            common = dict(
                measure="mni",
                lazy=False,
                lazy_cap=2,
                max_occurrences=None,
                depth=2,
                flat_evaluate=None,
            )
            fresh = ShardWorkerPool(
                2, measure="mni", lazy=False, lazy_cap=2, use_index=True
            )
            try:
                pooled = pooled_outcomes(patterns, sharded, fresh, **common)
                assert pooled == fresh_outcomes(patterns, sharded, **common)
                assert fresh.slices_shipped > 0
                assert fresh.slices_patched == 0
            finally:
                fresh.shutdown(wait=False, cancel_futures=True)
        finally:
            miner.detach()
            reference.detach()


# ----------------------------------------------------------------------
# pool-lifecycle bugfixes
# ----------------------------------------------------------------------
class _RecordingPool:
    def __init__(self):
        self.calls = []

    def shutdown(self, wait=True, cancel_futures=False):
        self.calls.append(("shutdown", wait, cancel_futures))


class TestShutdownOnInterrupt:
    def test_interrupt_uses_non_waiting_shutdown(self, monkeypatch):
        """Ctrl-C mid-mine must not drain the pool (the hang bugfix)."""
        graph = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=1)
        miner = FrequentSubgraphMiner(
            graph, spec=MINE_SPEC.replace(shards=2, workers=2)
        )
        fake = _RecordingPool()
        monkeypatch.setattr(miner_module, "_make_pool", lambda *args: fake)

        def interrupted(session, batch, stats):
            raise KeyboardInterrupt

        monkeypatch.setattr(miner_module._Session, "evaluate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            miner.mine()
        assert fake.calls == [("shutdown", False, True)]

    def test_clean_exit_uses_waiting_shutdown(self, monkeypatch):
        """A serial sharded mine shuts its in-process runner down too."""
        graph = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=1)
        miner = FrequentSubgraphMiner(graph, spec=MINE_SPEC.replace(shards=2))
        fake = _RecordingPool()
        monkeypatch.setattr(miner_module, "_make_pool", lambda *args: fake)

        def all_pruned(session, batch, stats):
            return [
                FrequentPattern(pattern, 0.0, certificate, -1)
                for pattern, certificate in batch
            ]

        monkeypatch.setattr(miner_module._Session, "evaluate", all_pruned)
        result = miner.mine()
        assert result.frequent == []
        assert fake.calls == [("shutdown", True, False)]


# ----------------------------------------------------------------------
# placement: fewer shards than workers replicate each shard
# ----------------------------------------------------------------------
def mirror(pool: ShardWorkerPool):
    """Record what ``pool`` sends, applying it to in-process views.

    Returns ``(views, tasks, sent)``: per worker, the shard id ->
    :class:`ResidentView` it holds after applying every patch sent to it
    in order (the worker's own view code, over a pickle round trip), the
    shard ids of the tasks it was sent, and every patch object sent.
    """
    views = {worker: {} for worker in range(pool.workers)}
    tasks = {worker: [] for worker in range(pool.workers)}
    sent = []
    real = pool._send

    def send(worker, message):
        if message[0] == "run":
            _, patches, batch = message
            for patch in patches:
                sent.append(patch)
                held = views[worker].setdefault(patch.shard_id, ResidentView())
                held.apply(pickle.loads(pickle.dumps(patch)), use_index=False)
            tasks[worker].extend(task[2] for task in batch)
        real(worker, message)

    pool._send = send
    return views, tasks, sent


PLACEMENT_PATTERNS = [
    path_pattern(["A", "B"]),
    path_pattern(["A", "B", "C"]),
    path_pattern(["B", "C", "A"]),
    path_pattern(["C", "A", "B", "C"]),
    star_pattern("A", ["B", "C", "C"]),
]

POOL_COMMON = dict(
    measure="mni",
    lazy=False,
    lazy_cap=2,
    max_occurrences=None,
    depth=2,
    flat_evaluate=None,
)


class TestReplicatedPlacement:
    OWNERS = {
        (1, 2): [(0, 1)],
        (2, 3): [(0, 2), (1,)],
        (4, 2): [(0,), (1,), (0,), (1,)],
    }

    @pytest.mark.parametrize("layout", sorted(OWNERS), ids="k{0[0]}-w{0[1]}".format)
    def test_owner_lists(self, layout):
        shards, workers = layout
        owners = [shard_owners(s, shards, workers) for s in range(shards)]
        assert owners == self.OWNERS[layout]

    def test_at_least_as_many_shards_as_workers_keeps_one_owner(self):
        for shards in range(2, 9):
            for workers in range(1, shards + 1):
                for shard_id in range(shards):
                    owners = shard_owners(shard_id, shards, workers)
                    assert owners == (shard_id % workers,)

    @pytest.mark.parametrize("layout", sorted(OWNERS), ids="k{0[0]}-w{0[1]}".format)
    def test_churned_owner_views_match_expansion(self, layout):
        """After every churn batch each owner holds the shard's view as
        computed from scratch, every owner got tasks, and the pooled
        outcomes equal the in-process ones."""
        shards, workers = layout
        graph = long_path_graph()
        rng = random.Random(5)
        maintainer = ShardedIndexMaintainer(graph, shards, "hash")
        pool = ShardWorkerPool(
            workers, measure="mni", lazy=False, lazy_cap=2, use_index=True
        )
        views, tasks, sent = mirror(pool)
        try:
            for number in range(6):
                if number:
                    random_churn(graph, rng, rng.randint(1, 5), f"p{number}-")
                index = maintainer.sharded()
                want = fresh_outcomes(PLACEMENT_PATTERNS, index, **POOL_COMMON)
                got = pooled_outcomes(PLACEMENT_PATTERNS, index, pool, **POOL_COMMON)
                assert got == want, number
                for shard_id in range(shards):
                    view = index.expanded_shard(shard_id, 2)
                    core = set(index.shards[shard_id].graph.edges())
                    for worker in shard_owners(shard_id, shards, workers):
                        held = views[worker][shard_id]
                        assert graph_content(held.view) == graph_content(view)
                        assert held.core == core
            for shard_id in range(shards):
                for worker in shard_owners(shard_id, shards, workers):
                    assert shard_id in tasks[worker]
            assert pool.slices_patched > 0
            assert all(isinstance(patch, ShardPatch) for patch in sent)
            if shards == 1:
                # A flat pooled session's layout: each worker holds one
                # view, the whole graph, and no partition crossed a pipe.
                for worker in range(workers):
                    assert list(views[worker]) == [0]
                    held = views[worker][0]
                    assert graph_content(held.view) == graph_content(graph)
                    assert held.core == set(graph.edges())
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            maintainer.detach()

    def test_same_count_rebind_replaces_views_on_every_holder(self):
        """2 shards on 3 workers, re-bound to new 2-shard indexes with
        deletions between; then 3- and 1-shard indexes are refused.

        Every re-bind to a new index object of the pool's shard count
        ships each shard whole again to every holder (shard 0 sits on
        two workers), and after each step a worker holds, for every
        shard it owns, the view computed from scratch.  A bind to
        another shard count raises and leaves the pool serving its last
        index unchanged.
        """
        graph = long_path_graph()
        rng = random.Random(7)
        pool = ShardWorkerPool(3, measure="mni", lazy=False, lazy_cap=2, use_index=True)
        views, _tasks, _sent = mirror(pool)
        holders = [shard_owners(shard_id, 2, 3) for shard_id in range(2)]
        assert holders == [(0, 2), (1,)]
        try:
            for step in range(1, 4):
                for vertex in rng.sample(graph.vertices(), 3):
                    apply_update(graph, ("dv", vertex))
                index = ShardedIndex.build(graph, 2, "hash")
                want = fresh_outcomes(PLACEMENT_PATTERNS, index, **POOL_COMMON)
                got = pooled_outcomes(PLACEMENT_PATTERNS, index, pool, **POOL_COMMON)
                assert got == want, step
                assert sorted(pool._shipped) == [0, 1]
                assert pool.slices_shipped == 3 * step
                assert pool.slices_patched == 0
                for worker, held in views.items():
                    for shard_id, view in held.items():
                        assert worker in holders[shard_id]
                        expanded = index.expanded_shard(shard_id, 2)
                        assert graph_content(view.view) == graph_content(expanded)
                        core = set(index.shards[shard_id].graph.edges())
                        assert view.core == core
            for shards in (3, 1):
                other = ShardedIndex.build(graph, shards, "hash")
                with pytest.raises(PartitionError, match="2 shard"):
                    pooled_outcomes(PLACEMENT_PATTERNS, other, pool, **POOL_COMMON)
            got = pooled_outcomes(PLACEMENT_PATTERNS, index, pool, **POOL_COMMON)
            assert got == want
            assert pool.slices_shipped == 9
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# streams: workers honored, never silently dropped
# ----------------------------------------------------------------------
def _stream_fixture():
    graph = LabeledGraph(name="stream")
    for i in range(12):
        graph.add_vertex(i, "AB"[i % 2])
    for i in range(11):
        graph.add_edge(i, i + 1)
    updates = [
        ("v", 100, "A"),
        ("e", 100, 0),
        ("e", 100, 3),
        ("de", 2, 3),
        ("v", 101, "B"),
        ("e", 101, 5),
        ("e", 100, 101),
        ("de", 0, 1),
    ]
    return graph, updates


class TestStreamWorkers:
    def _run(self, **strategy):
        graph, updates = _stream_fixture()
        spec = MiningSpec(batch_size=3, min_support=2.0, max_pattern_nodes=4)
        return [
            result_key(step.result)
            for step in mine_stream(graph, updates, spec=spec.replace(**strategy))
        ]

    def test_stream_workers_identical_to_serial(self):
        serial = self._run()
        pooled = self._run(shards=3, workers=2)
        assert pooled == serial

    def test_stream_out_of_core_identical(self):
        serial = self._run()
        paged = self._run(shards=3, workers=2, max_resident=1)
        assert paged == serial

    def test_reference_modes_take_workers(self):
        serial = self._run()
        rebuilt = self._run(mode="rebuild", shards=2, workers=2)
        assert rebuilt == serial

    def test_flat_delta_workers_identical_to_serial(self):
        """A flat pooled delta stream equals the serial one batch by batch,
        rows and stats, over one pool that survives every refresh."""
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=4)
        graph, updates = _stream_fixture()
        reference_graph, _ = _stream_fixture()
        pooled = DynamicMiner(graph, spec=spec.replace(workers=2))
        serial = DynamicMiner(reference_graph, spec=spec)
        try:
            assert_mining_identical(pooled.refresh(), serial.refresh())
            pool = pooled._resources.pool
            assert isinstance(pool, ShardWorkerPool)
            assert pooled._sharded_maintainer.sharded().num_shards == 1
            for start in range(0, len(updates), 3):
                pooled.apply(updates[start : start + 3])
                serial.apply(updates[start : start + 3])
                assert_mining_identical(pooled.refresh(), serial.refresh())
                assert pooled._resources.pool is pool
            assert pool.slices_patched > 0
        finally:
            pooled.detach()
            serial.detach()
        assert self._run(workers=2) == self._run()

    def test_dynamic_miner_persistent_pool_reused(self):
        """One pool across refreshes; slices re-ship only when dirtied."""
        graph, updates = _stream_fixture()
        miner = DynamicMiner(
            graph,
            spec=MiningSpec(min_support=2.0, max_pattern_nodes=4, shards=3, workers=2),
        )
        try:
            miner.refresh()
            pool = miner._resources.pool
            assert isinstance(pool, ShardWorkerPool)
            shipped_once = pool.slices_shipped
            assert shipped_once > 0
            miner.refresh()  # no mutations: nothing dispatched, same pool
            assert miner._resources.pool is pool
            assert pool.slices_shipped == shipped_once
            for update in updates:
                from repro.mining.dynamic import apply_update

                apply_update(graph, update)
            miner.refresh()
            assert miner._resources.pool is pool  # survived the delta refresh too
        finally:
            miner.detach()

    def test_pooled_refresh_batches_each_level(self, monkeypatch):
        """A delta refresh sends each level's affected candidates in one call."""
        from repro.mining.dynamic import apply_update
        from repro.partition import workers as workers_module

        graph, updates = _stream_fixture()
        batches = []
        real = workers_module.pooled_outcomes

        def counting(patterns, *args, **kwargs):
            batches.append(len(patterns))
            return real(patterns, *args, **kwargs)

        monkeypatch.setattr(workers_module, "pooled_outcomes", counting)
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=4, shards=3, workers=2)
        with DynamicMiner(graph, spec=spec) as miner:
            miner.refresh()
            for update in updates:
                apply_update(graph, update)
            batches.clear()
            result = miner.refresh()
        levels = result.max_pattern_edges() + 1
        assert sum(batches) == result.stats.patterns_evaluated > levels
        assert len(batches) <= levels

    def test_dynamic_validation(self):
        graph, _ = _stream_fixture()
        with pytest.raises(MiningError):
            DynamicMiner(graph, spec=MiningSpec(max_resident=2))
        with pytest.raises(MiningError):
            DynamicMiner(graph, spec=MiningSpec(shards=2, max_resident=0))


# ----------------------------------------------------------------------
# randomized churn: pooled refresh == serial sharded == flat, per batch
# ----------------------------------------------------------------------
#: Two shards per worker under label partitioning, and a hash layout
#: whose index caches one shard's view (``max_resident=1``).
CHURN_LAYOUTS = {
    "label-4x2": dict(shards=4, partition_method="label", workers=2),
    "hash-3x2-paged": dict(
        shards=3, partition_method="hash", workers=2, max_resident=1
    ),
}


def removal_burst(graph: LabeledGraph, rng: random.Random):
    """Delete vertices until the deltas outnumber half of ``|V| + |E|``.

    Past that point the deltas exceed the maintainers' patch limit
    (``max(64, |V| + |E|)`` of the shrinking graph), so the sharded
    maintainer re-partitions and the pool re-binds, and the workers'
    patches outgrow their views' limits and fold into index rebuilds.
    """
    target = (graph.num_vertices + graph.num_edges) // 2 + 1
    updates, deltas = [], 0
    while deltas <= target:
        vertex = rng.choice(graph.vertices())
        deltas += graph.degree(vertex) + 1
        apply_update(graph, ("dv", vertex))
        updates.append(("dv", vertex))
    return updates


def chord_burst(graph: LabeledGraph, rng: random.Random, tag: str):
    """A new vertex joined to far-apart vertices: halo balls jump in size."""
    hub = f"{tag}hub"
    updates = [("v", hub, "A")]
    apply_update(graph, updates[0])
    for vertex in rng.sample(graph.vertices(), min(6, graph.num_vertices - 1)):
        if vertex != hub:
            apply_update(graph, ("e", hub, vertex))
            updates.append(("e", hub, vertex))
    return updates


class TestPatchedChurn:
    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize("layout", sorted(CHURN_LAYOUTS))
    def test_pooled_refresh_matches_serial_and_flat(self, layout, seed):
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=4)
        sharded_spec = spec.replace(**CHURN_LAYOUTS[layout])
        policy = RebalancePolicy(max_load_factor=1.2)
        graphs = [long_path_graph() for _ in range(3)]
        model = long_path_graph()
        pooled = DynamicMiner(graphs[0], spec=sharded_spec, rebalance=policy)
        serial = DynamicMiner(
            graphs[1], spec=sharded_spec.replace(workers=1), rebalance=policy
        )
        flat = DynamicMiner(graphs[2], spec=spec)
        miners = (pooled, serial, flat)
        rng = random.Random(seed)
        try:
            rows = [result_key(miner.refresh()) for miner in miners]
            assert rows[0] == rows[1] == rows[2]
            pool = pooled._resources.pool
            assert isinstance(pool, ShardWorkerPool)
            first = pool.slices_shipped
            assert first == sharded_spec.shards  # every shard, whole
            index = pooled._sharded_maintainer.sharded()
            for number in range(12):
                if number == 4:
                    batch = chord_burst(model, rng, f"c{number}-")
                elif number == 7:
                    batch = removal_burst(model, rng)
                else:
                    batch = random_churn(model, rng, rng.randint(1, 6), f"b{number}-")
                for miner in miners:
                    miner.apply(batch)
                shipped = pool.slices_shipped
                results = [miner.refresh() for miner in miners]
                rows = [result_key(result) for result in results]
                assert rows[0] == rows[1] == rows[2], number
                assert results[0].stats.as_dict() == results[1].stats.as_dict()
                # A shard crosses the pipe whole again only when the
                # removal burst outran the delta log (a gap) and the
                # maintainer re-partitioned; every other batch is patched.
                previous, index = index, pooled._sharded_maintainer.sharded()
                if number != 7:
                    assert index is previous, number
                    assert pool.slices_shipped == shipped, number
            assert pooled._resources.pool is pool  # no fallback
            assert pooled._sharded_maintainer.rebuilds >= 1
            assert pool.slices_patched > 0
            assert pool.tasks_from_sets > 0  # answers read from kept sets
            assert first < pool.slices_shipped <= first + sharded_spec.shards
        finally:
            for miner in miners:
                miner.detach()

    def test_whole_graph_views_keep_no_parent_copy(self):
        """Shards whose balls swallow the graph are recorded as vertex
        sets in the parent, not as copies of the graph."""
        graph = random_labeled_graph(16, 0.25, alphabet="ABC", seed=11)
        maintainer = ShardedIndexMaintainer(graph, 4, "label")
        pool = ShardWorkerPool(2, measure="mni", lazy=False, lazy_cap=2, use_index=True)
        pattern = path_pattern(["A", "B"])
        tasks = [("part", pattern, shard_id, False, None) for shard_id in range(4)]
        common = dict(
            measure="mni",
            lazy=False,
            lazy_cap=2,
            max_occurrences=None,
            depth=2,
            flat_evaluate=None,
        )
        try:
            for batch in ([], [("v", "new", "A"), ("e", "new", 0)], [("e", "new", 5)]):
                for update in batch:
                    apply_update(graph, update)
                index = maintainer.sharded()
                assert all(index.expanded_shard(s, 2) is graph for s in range(4))
                want = fresh_outcomes([pattern], index, **common)
                assert len(pool.run(index, tasks, 2)) == 4
                for record in pool._shipped.values():
                    assert record.members == set(graph.vertices())
                    core = index.shards[record.shard_id].graph.edges()
                    assert record.core == set(core)
                assert pooled_outcomes([pattern], index, pool, **common) == want
            assert pool.slices_patched > 0
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            maintainer.detach()
        assert graph.delta_log() is None  # the pool's cursors closed

    def test_rebind_to_another_shard_count_is_refused(self):
        """A pool serves one shard count: a 2-shard index is refused by a
        pool placed for 4, and a new 4-shard index ships every shard
        whole again, recorded members and all."""
        graph = long_path_graph()
        rng = random.Random(3)
        pool = ShardWorkerPool(2, measure="mni", lazy=False, lazy_cap=2, use_index=True)
        pattern = path_pattern(["A", "B", "C"])
        common = dict(
            measure="mni",
            lazy=False,
            lazy_cap=2,
            max_occurrences=None,
            depth=1,
            flat_evaluate=None,
        )
        try:
            for shards in (4, 2, 4):
                for vertex in rng.sample(graph.vertices(), 8):
                    apply_update(graph, ("dv", vertex))
                index = ShardedIndex.build(graph, shards, "hash")
                if shards != 4:
                    with pytest.raises(PartitionError, match="4 shard"):
                        pool.run(index, [("solo", pattern, 0, False, None)], 1)
                    continue
                want = fresh_outcomes([pattern], index, **common)
                assert pooled_outcomes([pattern], index, pool, **common) == want
                assert sorted(pool._shipped) == list(range(4))
                recorded = metrics.gauge("repro_pool_recorded_members").value
                assert recorded == sum(len(r.members) for r in pool._shipped.values())
                assert recorded <= index.num_shards * graph.num_vertices
            assert pool.slices_shipped == 4 + 4
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    @pytest.mark.parametrize("seed", [2, 6])
    def test_whole_graph_views_patch_independently(self, seed):
        """Balls that swallow the graph are one alias object in the parent;
        the two shards a worker owns must still hold separate views."""
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=3)
        sharded_spec = spec.replace(shards=4, partition_method="label", workers=2)
        graphs = [
            random_labeled_graph(16, 0.25, alphabet="ABC", seed=11) for _ in range(4)
        ]
        model = graphs.pop()
        pooled = DynamicMiner(graphs[0], spec=sharded_spec)
        serial = DynamicMiner(graphs[1], spec=sharded_spec.replace(workers=1))
        flat = DynamicMiner(graphs[2], spec=spec)
        miners = (pooled, serial, flat)
        rng = random.Random(seed)
        try:
            for number in range(8):
                if number:
                    batch = random_churn(model, rng, rng.randint(1, 4), f"w{number}-")
                    for miner in miners:
                        miner.apply(batch)
                rows = [result_key(miner.refresh()) for miner in miners]
                assert rows[0] == rows[1] == rows[2], number
            assert pooled._resources.pool.slices_patched > 0
        finally:
            for miner in miners:
                miner.detach()


# ----------------------------------------------------------------------
# maintained occurrence sets: patched by delta == enumerated afresh
# ----------------------------------------------------------------------
SET_PATTERNS = [
    path_pattern(["A", "B"]),
    path_pattern(["B", "A", "B"]),
    path_pattern(["A", "B", "C"]),
    path_pattern(["C", "A", "B", "C"]),
    star_pattern("A", ["B", "C", "C"]),
    triangle_pattern("A", "B", "C"),
]

EAGER = dict(measure="mni", lazy=False, lazy_cap=2, use_index=True)


def relabel(graph: LabeledGraph, vertex, label) -> None:
    """Delete ``vertex`` and add it back under ``label``, with its edges."""
    neighbors = list(graph.neighbors(vertex))
    apply_update(graph, ("dv", vertex))
    apply_update(graph, ("v", vertex, label))
    for neighbor in neighbors:
        apply_update(graph, ("e", vertex, neighbor))


def leaf_burst(graph: LabeledGraph, vertex, tag: str, count: int = 40) -> None:
    """``2 * count`` deltas around one vertex: past the log's bound of 64."""
    for i in range(count):
        apply_update(graph, ("v", f"{tag}{i}", "ABC"[i % 3]))
        apply_update(graph, ("e", vertex, f"{tag}{i}"))


def occurrence_list(items_list):
    return [
        Occurrence(mapping_items=items, index=i) for i, items in enumerate(items_list)
    ]


def assert_sets_current(sets, worker: ResidentView):
    """Sync every set; each must equal a fresh enumeration on the view.

    Returns the :meth:`OccurrenceSet.sync` outcomes (``False`` = gap).
    """
    outcomes = []
    for pattern, kept in sets.items():
        outcomes.append(kept.sync(worker.view))
        every = anchored_occurrence_items(
            pattern, worker.view, worker.core, exclusive=True
        )
        assert sorted(kept.items(), key=repr) == sorted(every, key=repr)
        anchored = anchored_occurrence_items(
            pattern, worker.view, worker.core, exclusive=False
        )
        assert sorted(kept.anchored(worker.core), key=repr) == sorted(
            anchored, key=repr
        )
        assert len(kept) == len(every)
        assert kept.mni() == mni_support_from_occurrences(
            pattern, occurrence_list(every)
        )
    return outcomes


class TestOccurrenceSets:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_patched_sets_match_fresh_enumeration(self, seed):
        """Maintained sets equal a fresh enumeration after every sync.

        Each round ships one or more patches to the views before the
        sets sync, as a worker that is not asked about a pattern in every
        batch does.  The rounds cover random churn, a vertex relabelled
        out and back (within one sync and across two), an edge added and
        removed again within one sync, a halo that grows (a hub joined
        to far vertices) and shrinks (the hub deleted), a burst past the
        views' delta-log bound (a gap: the set refills by enumeration)
        and a burst that re-partitions the index, after which the views
        are replaced wholesale, as a re-bound pool does.
        """
        graph = long_path_graph()
        maintainer = ShardedIndexMaintainer(graph, 4, "edgecut")
        index = maintainer.sharded()
        depth = 2
        rng = random.Random(seed)
        workers = {shard_id: ResidentView() for shard_id in range(4)}
        shipper = Shipper(depth)
        sets = {}
        for shard_id, worker in workers.items():
            shipper.ship(worker, index, shard_id)
            sets[shard_id] = {
                pattern: OccurrenceSet(pattern, worker.view) for pattern in SET_PATTERNS
            }
        vertex = graph.vertices()[rng.randrange(graph.num_vertices)]
        label = graph.label_of(vertex)
        other = "B" if label != "B" else "C"
        far = next(
            w
            for w in graph.vertices_with_label(other)
            if w != vertex and not graph.has_edge(vertex, w)
        )

        def churn(tag):
            return lambda: random_churn(graph, rng, rng.randint(1, 6), tag)

        rounds = [
            [churn("a-"), churn("b-")],
            [
                lambda: relabel(graph, vertex, other),
                lambda: relabel(graph, vertex, label),
            ],
            [lambda: relabel(graph, vertex, other)],
            [lambda: relabel(graph, vertex, label)],
            [
                lambda: apply_update(graph, ("e", vertex, far)),
                lambda: apply_update(graph, ("de", vertex, far)),
            ],
            [lambda: chord_burst(graph, rng, "grow-")],
            [lambda: apply_update(graph, ("dv", "grow-hub"))],
            [churn("c-"), churn("d-"), churn("e-")],
            [lambda: leaf_burst(graph, vertex, "leaf-")],
            [lambda: removal_burst(graph, rng)],
            [churn("f-"), churn("g-")],
        ]
        outcomes = []
        for steps in rounds:
            for step in steps:
                step()
                index = maintainer.sharded()
                for shard_id, worker in workers.items():
                    shipper.ship(worker, index, shard_id)
            for shard_id, worker in workers.items():
                outcomes += assert_sets_current(sets[shard_id], worker)
        shipper.close()
        maintainer.detach()
        assert True in outcomes and False in outcomes  # patched, and refilled
        assert maintainer.rebuilds >= 1  # the removal burst re-partitioned

    def test_same_certificate_other_node_ids_is_another_set(self):
        """Isomorphic patterns with other node ids keep separate sets.

        A set's items are positional, so a certificate key would serve
        one pattern the other's node ids.
        """
        forward = path_pattern(["A", "B", "C"])
        backward = path_pattern(["C", "B", "A"])
        assert canonical_certificate(forward.graph) == canonical_certificate(
            backward.graph
        )
        assert forward.graph.signature() != backward.graph.signature()
        graph = long_path_graph()
        worker = ResidentView()
        patch = shard_patch(0, graph, set(graph.edges()))
        worker.apply(patch, use_index=True)
        for _ in range(3):
            for pattern in (forward, backward):
                got = worker.evaluate(("part", pattern, 0, True, None), EAGER)
                want = collect_subgraph_isomorphism_items(pattern, worker.view)
                assert sorted(got, key=repr) == sorted(want, key=repr)
        assert len(worker._sets) == 2
        assert worker.counts == [2, 2, 0]  # built at the 2nd pass, read at the 3rd

    @pytest.mark.parametrize("seed", [0, 4])
    def test_memo_patched_plan_matches_fresh_plan(self, seed):
        """A cached plan, memo-reset at touched vertices, answers as a fresh one.

        Every requirement verdict the cached plan holds must also equal
        the verdict a fresh plan reaches for the same (depth, vertex).
        """
        graph = random_labeled_graph(30, 0.12, alphabet=("A", "B", "C"), seed=seed)
        maintainer = IndexMaintainer(graph)
        cursor = graph.cursor()
        pattern = path_pattern(["A", "B", "C", "A"])
        nodes = sorted(pattern.nodes(), key=repr)
        cache = _PlanCache(pattern)
        rng = random.Random(seed)
        searched = 0
        try:
            for round_ in range(12):
                ci = maintainer.index()
                touched = set()
                for delta in cursor.read():
                    touched.update(
                        (delta.u, delta.v) if hasattr(delta, "u") else (delta.vertex,)
                    )
                cache.touch(ci, touched)
                vint_of = ci.table._vint_of
                for u, v in graph.edges():
                    for a, b in pattern.edges():
                        for x, y in ((u, v), (v, u)):
                            if (graph.label_of(x), graph.label_of(y)) != (
                                pattern.label_of(a),
                                pattern.label_of(b),
                            ):
                                continue
                            anchors = (vint_of[x], vint_of[y])
                            got = cache.search(ci, graph, (a, b), anchors, nodes)
                            order = _matching_order(pattern, graph, (a, b))
                            fresh = _Plan(pattern, ci, order, (a, b))
                            images = [0] * len(fresh.order)
                            images[:2] = anchors
                            scratch = bytearray(len(ci.table.vertex_of))
                            want = _search(ci, fresh, images, scratch, None, nodes)
                            assert got == want
                            cached = cache.plans[(a, b)]
                            for kept, new in zip(cached.memo, fresh.memo):
                                if kept is None:
                                    continue
                                for w, verdict in enumerate(new):
                                    if verdict and kept[w]:
                                        assert kept[w] == verdict
                            searched += 1
                random_churn(graph, rng, 5, f"r{round_}-")
            assert searched > 0
            assert maintainer.rebuilds == 0  # one index, patched in place
        finally:
            cursor.close()
            maintainer.detach()

    def test_counted_mni_matches_measure(self):
        """MNI read off a set's image counts equals the measure's answer."""
        graph = long_path_graph()
        maintainer = ShardedIndexMaintainer(graph, 1, "hash")
        worker = ResidentView()
        shipper = Shipper(1)
        rng = random.Random(7)
        try:
            for round_ in range(6):
                shipper.ship(worker, maintainer.sharded(), 0)
                assert worker.core == set(graph.edges())
                for pattern in SET_PATTERNS:
                    task = ("solo", pattern, 0, True, None)
                    want = support_from_shard_items(
                        pattern,
                        worker.view,
                        [collect_subgraph_isomorphism_items(pattern, worker.view)],
                        "mni",
                    )
                    assert worker.evaluate(task, EAGER) == want
                random_churn(graph, rng, 4, f"m{round_}-")
        finally:
            shipper.close()
            maintainer.detach()
        assert worker.counts[0] > 0  # answers came from kept sets

    def test_bound_evicts_the_least_recently_used_set(self, monkeypatch):
        """Past the bound the oldest-used set goes first, and is counted."""
        graph = long_path_graph()
        worker = ResidentView()
        patch = shard_patch(0, graph, set(graph.edges()))
        worker.apply(patch, use_index=True)
        first, second = path_pattern(["A", "B"]), path_pattern(["B", "C"])
        sizes = [
            len(collect_subgraph_isomorphism_items(p, graph)) for p in (first, second)
        ]
        elements = graph.num_vertices + graph.num_edges
        # Room for either set alone, never for both.
        per_element = max(sizes) / elements
        monkeypatch.setattr(workers_module, "SET_OCCURRENCES_PER_ELEMENT", per_element)
        assert sum(sizes) > worker._bound() >= max(sizes)
        for pattern in (first, first, second, second):
            worker.evaluate(("solo", pattern, 0, True, None), EAGER)
        assert list(worker._sets) == [second.graph.signature()]
        assert worker._stored == sizes[1] <= worker._bound()
        assert worker.counts == [0, 2, 1]

    @pytest.mark.parametrize(
        "change, limit",
        [
            ({"lazy": True}, None),
            ({}, 3),
            ({"use_index": False}, None),
            ({"measure": "mi"}, None),
        ],
        ids=["lazy", "max_occurrences", "no-index", "other-measure"],
    )
    def test_other_modes_take_todays_path(self, change, limit):
        """Lazy, an occurrence limit, the brute path and other measures
        enumerate every time and keep no set."""
        config = dict(EAGER, **change)
        graph = long_path_graph()
        worker = ResidentView()
        core = set(graph.edges())
        patch = shard_patch(0, graph, core)
        worker.apply(patch, use_index=config["use_index"])
        pattern = path_pattern(["A", "B", "C"])
        for kind in ("solo", "part", "solo", "part", "solo"):
            task = (kind, pattern, 0, True, limit)
            want = evaluate_task(task, worker.view, worker.core, config)
            if kind == "part" and config["lazy"]:
                want = dict(want)
            assert worker.evaluate(task, config) == want
        assert not worker._sets
        assert worker.counts == [0, 0, 0]

    def test_sets_start_at_the_second_evaluation_on_the_pool(self):
        """The pool's counters: no set after one pass, built on the second,
        read on the third; the one-shot answers stay identical."""
        graph = long_path_graph()
        maintainer = ShardedIndexMaintainer(graph, 3, "hash")
        pool = ShardWorkerPool(2, measure="mni", lazy=False, lazy_cap=2, use_index=True)
        tasks = [
            ("part", pattern, shard_id, False, None)
            for pattern in SET_PATTERNS
            for shard_id in range(3)
        ]
        try:
            index = maintainer.sharded()
            want = [
                evaluate_task(
                    task,
                    index.expanded_shard(task[2], 2),
                    set(index.shards[task[2]].graph.edges()),
                    EAGER,
                )
                for task in tasks
            ]
            tallies = []
            for _ in range(3):
                got = pool.run(index, tasks, 2)
                assert [sorted(items, key=repr) for items in got] == [
                    sorted(items, key=repr) for items in want
                ]
                tallies.append((pool.sets_built, pool.tasks_from_sets))
            assert tallies == [(0, 0), (len(tasks), 0), (len(tasks), len(tasks))]
            assert pool.stats()["repro_pool_tasks_from_sets"] == len(tasks)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            maintainer.detach()

    def test_one_shot_pooled_mine_keeps_no_set(self):
        registry = metrics.MetricsRegistry()
        previous = metrics.set_registry(registry)
        try:
            result = mine_frequent_patterns(
                long_path_graph(),
                spec=MINE_SPEC.replace(shards=4, workers=2, partition_method="label"),
            )
        finally:
            metrics.set_registry(previous)
        assert result.frequent
        snap = registry.snapshot()
        assert snap["repro_pool_tasks_dispatched"] > 0
        assert snap["repro_pool_sets_built"] == 0
        assert snap["repro_pool_tasks_from_sets"] == 0


# ----------------------------------------------------------------------
# serial sharded sessions: the pool's view machinery, in process
# ----------------------------------------------------------------------
#: A stream that touches one stretch of the long path and undoes itself.
LOCALIZED_BATCHES = [
    [("e", 10, 13)],
    [("de", 10, 13), ("v", "x", "A"), ("e", "x", 11)],
    [("de", 11, 12), ("e", "x", 12)],
    [("dv", "x"), ("e", 11, 12)],
]


def served_from_sets(runner: InProcessRunner) -> int:
    """Tasks the runner's held views answered from kept occurrence sets."""
    return sum(held.counts[0] for _record, held, _weight in runner._held.values())


class TestInProcessRunner:
    def test_localized_stream_computes_no_view(self):
        """A serial sharded miner computes no view on steady-state batches
        and answers re-evaluated eager-MNI tasks from kept sets, equal to
        a flat miner batch by batch, rows and stats."""
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=4)
        graph, flat_graph = long_path_graph(), long_path_graph()
        serial = DynamicMiner(
            graph, spec=spec.replace(shards=4, partition_method="edgecut")
        )
        flat = DynamicMiner(flat_graph, spec=spec)
        try:
            assert_mining_identical(serial.refresh(), flat.refresh())
            sharded = serial._sharded_maintainer.sharded()
            runner = serial._resources.pool
            assert isinstance(runner, InProcessRunner)
            assert len(runner._held) == 4
            for batch in LOCALIZED_BATCHES * 3:
                recomputes = sharded.recomputes
                serial.apply(batch)
                flat.apply(batch)
                assert_mining_identical(serial.refresh(), flat.refresh())
                assert serial._sharded_maintainer.sharded() is sharded
                assert sharded.recomputes == recomputes  # no view computed
            assert serial._resources.pool is runner
            assert served_from_sets(runner) > 0
        finally:
            serial.detach()
            flat.detach()
        assert graph.delta_log() is None  # detach closed the runner's cursors

    @pytest.mark.parametrize("seed", [3, 8])
    def test_bounded_serial_stream_matches_flat(self, seed):
        """max_resident=1 under churn: every batch equals the flat miner,
        the runner evicts, and its weight is the weight of what it holds."""
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=4)
        bounded = spec.replace(shards=3, partition_method="hash", max_resident=1)
        graph, flat_graph, model = (long_path_graph() for _ in range(3))
        serial = DynamicMiner(graph, spec=bounded)
        flat = DynamicMiner(flat_graph, spec=spec)
        rng = random.Random(seed)
        try:
            assert_mining_identical(serial.refresh(), flat.refresh())
            runner = serial._resources.pool
            for number in range(8):
                batch = random_churn(model, rng, rng.randint(1, 5), f"s{number}-")
                serial.apply(batch)
                flat.apply(batch)
                assert_mining_identical(serial.refresh(), flat.refresh())
                assert len(runner._held) == 1
                assert runner.resident_weight == held_weight(runner)
            assert runner.evictions > 0
        finally:
            serial.detach()
            flat.detach()
        assert graph.delta_log() is None

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_serial_sharded_mine_leaves_no_delta_log(self, lazy):
        """The per-call runner is shut down: no cursor stays on any graph."""
        graph = long_path_graph()
        spec = MINE_SPEC.replace(lazy=lazy, shards=3, partition_method="label")
        miner = FrequentSubgraphMiner(graph, spec=spec)
        assert_mining_identical(
            miner.mine(), mine_frequent_patterns(graph, spec=spec.replace(shards=1))
        )
        assert graph.delta_log() is None
        assert all(shard.graph.delta_log() is None for shard in miner._sharded.shards)


class TestReplicatedDealing:
    def test_each_signature_stays_on_one_holder(self, monkeypatch):
        """(K=1, W=2) under churn: a pattern's tasks go to the same worker
        in every batch, so its kept set is built on one holder only."""
        holders = {}
        real = ShardWorkerPool._send

        def send(pool, worker, message):
            if message[0] == "run":
                for task in message[2]:
                    key = task[1].graph.signature()
                    holders.setdefault(key, set()).add(worker)
            real(pool, worker, message)

        monkeypatch.setattr(ShardWorkerPool, "_send", send)
        spec = MiningSpec(min_support=2.0, max_pattern_nodes=4)
        graph, flat_graph, model = (long_path_graph() for _ in range(3))
        pooled = DynamicMiner(graph, spec=spec.replace(workers=2))
        flat = DynamicMiner(flat_graph, spec=spec)
        rng = random.Random(2)
        try:
            assert_mining_identical(pooled.refresh(), flat.refresh())
            pool = pooled._resources.pool
            assert isinstance(pool, ShardWorkerPool)
            for number in range(8):
                batch = random_churn(model, rng, rng.randint(1, 4), f"d{number}-")
                pooled.apply(batch)
                flat.apply(batch)
                assert_mining_identical(pooled.refresh(), flat.refresh())
            assert pool.sets_built > 0
            assert all(len(workers) == 1 for workers in holders.values())
            assert set().union(*holders.values()) == {0, 1}  # both deal
        finally:
            pooled.detach()
            flat.detach()
