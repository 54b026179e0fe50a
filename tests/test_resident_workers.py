"""Shard-resident workers and the out-of-core shard pager.

The resident pool (:class:`repro.partition.ShardWorkerPool`) keeps one
long-lived worker per shard and ships each shard's halo-expanded slice
once, re-shipping only slices that deltas dirtied; the pager
(:class:`repro.partition.ShardPager`) bounds how many shards keep views
in memory, spilling cold shards to disk and re-hydrating (plus replaying
ball-safe pending deltas) on demand.  Everything here pins the same
contract as the rest of the partition suite: **byte-identical results**
— whatever the worker scheduling, whatever the eviction order — plus the
pool-lifecycle bugfixes (Ctrl-C shutdown, flat workers never shipped a
partition, pool failures degrading to serial).
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.synthetic import random_labeled_graph
from repro.errors import MiningError
from repro.graph.builders import path_pattern
from repro.graph.labeled_graph import LabeledGraph
from repro.mining import miner as miner_module
from repro.mining.dynamic import DynamicMiner, mine_stream
from repro.mining.miner import FrequentSubgraphMiner, mine_frequent_patterns
from repro.mining.results import FrequentPattern
from repro.mining.spec import MiningSpec
from repro.obs import metrics
from repro.partition import (
    ShardedIndex,
    ShardPager,
    ShardWorkerPool,
    WorkerPoolError,
    load_shard_view,
    save_shard_views,
)
from repro.partition.workers import build_slice, restrict_view


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

    def test_out_of_core_pool_identical_and_pages(self):
        """max_resident < shards under the pool: identical, and it paged."""
        graph = long_path_graph()
        flat = mine_frequent_patterns(graph, spec=MINE_SPEC)
        miner = FrequentSubgraphMiner(
            graph,
            spec=MINE_SPEC.replace(
                shards=4, workers=2, max_resident=1, partition_method="edgecut"
            ),
        )
        paged = miner.mine()
        assert_mining_identical(paged, flat)
        pager = miner._pager
        assert pager is not None
        assert pager.evictions > 0
        assert pager.rehydrations + pager.recomputes > 0

    def test_out_of_core_peak_weight_below_all_resident(self):
        """The acceptance gate in miniature: bounded residency uses less."""
        graph = long_path_graph()
        peaks = {}
        for max_resident in (1, 4):
            miner = FrequentSubgraphMiner(
                graph,
                spec=MINE_SPEC.replace(
                    shards=4, max_resident=max_resident, partition_method="edgecut"
                ),
            )
            miner.mine()
            peaks[max_resident] = miner._pager.peak_resident_weight
        assert peaks[1] < peaks[4]


# ----------------------------------------------------------------------
# the pager in isolation: eviction order must not matter
# ----------------------------------------------------------------------
class TestShardPager:
    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_randomized_eviction_order_byte_identity(self, seed, tmp_path):
        """Any access order, any eviction order: views == pristine views."""
        graph = long_path_graph()
        pristine = ShardedIndex.build(graph, 4, "edgecut")
        paged_index = ShardedIndex.build(graph, 4, "edgecut")
        pager = ShardPager(paged_index, max_resident=2, cache_dir=str(tmp_path))
        rng = random.Random(seed)
        accesses = [
            (rng.randrange(4), rng.choice([0, 1, 2])) for _ in range(60)
        ]
        for shard_id, depth in accesses:
            got = paged_index.expanded_shard(shard_id, depth)
            want = pristine.expanded_shard(shard_id, depth)
            assert graph_content(got) == graph_content(want), (shard_id, depth)
        assert pager.evictions > 0
        assert pager.rehydrations > 0
        pager.close()

    def test_replay_and_stale_spills(self, tmp_path):
        """Isolated-vertex deltas replay onto spills; edge deltas poison them."""
        from repro.partition import ShardedIndexMaintainer

        graph = long_path_graph()
        maintainer = ShardedIndexMaintainer(graph, 4, "edgecut")
        index = maintainer.sharded()
        pager = ShardPager(index, max_resident=1, cache_dir=str(tmp_path))
        for shard_id in range(4):  # touch all shards; 3 spill
            index.expanded_shard(shard_id, 2)
        assert pager.evictions > 0
        # Ball-safe deltas: keep adding isolated vertices until one lands
        # in a *spilled* shard, then its re-hydrated view must replay it.
        home = None
        for i in range(8):
            vertex = 990 + i
            graph.add_vertex(vertex, "A")
            assert maintainer.sharded() is index  # patched, not rebuilt
            shard_id = index.partition.vertex_assignment.get(vertex)
            if shard_id is not None and shard_id in pager._on_disk:
                home = (vertex, shard_id)
                break
        assert home is not None, "router never hit a spilled shard"
        vertex, shard_id = home
        rehydrations_before = pager.rehydrations
        view = index.expanded_shard(shard_id, 2)
        assert view.has_vertex(vertex)
        assert pager.rehydrations > rehydrations_before
        assert pager.replayed_deltas > 0
        # An edge delta poisons the spills it touches: those shards must
        # recompute, and every view must match a from-scratch reference
        # built over the same partition.
        graph.add_edge(20, 45)
        assert maintainer.sharded() is index
        recomputes_before = pager.recomputes
        reference = ShardedIndex(graph, index.partition)
        for shard_id in range(4):
            assert graph_content(index.expanded_shard(shard_id, 2)) == graph_content(
                reference.expanded_shard(shard_id, 2)
            ), shard_id
        assert pager.recomputes > recomputes_before
        pager.close()

    def test_shard_view_roundtrip(self, tmp_path):
        graph = long_path_graph()
        index = ShardedIndex.build(graph, 4, "edgecut")
        views = {d: index.expanded_shard(1, d) for d in (0, 2)}
        save_shard_views(tmp_path, 1, views)
        for depth, view in views.items():
            loaded = load_shard_view(tmp_path, 1, depth)
            assert graph_content(loaded) == graph_content(view)
        assert load_shard_view(tmp_path, 1, 1) is None  # depth not spilled
        assert load_shard_view(tmp_path, 3, 0) is None  # shard not spilled

    def test_restrict_view_matches_expanded(self):
        """Workers derive shallow views from the max-depth slice."""
        graph = long_path_graph()
        index = ShardedIndex.build(graph, 4, "edgecut")
        for shard_id in range(4):
            slice_ = build_slice(index, shard_id, 2)
            for depth in (0, 1, 2):
                derived = restrict_view(slice_, depth)
                want = index.expanded_shard(shard_id, depth)
                assert graph_content(derived) == graph_content(want)


# ----------------------------------------------------------------------
# pool-failure fallback (satellite: BrokenExecutor/OSError coverage)
# ----------------------------------------------------------------------
class TestPoolFailureFallback:
    def test_worker_pool_error_falls_back_to_serial(self, monkeypatch):
        """A pool that dies mid-level degrades to serial, byte-identical."""
        graph = random_labeled_graph(16, 0.25, alphabet=("A", "B", "C"), seed=3)
        serial = mine_frequent_patterns(graph, spec=MINE_SPEC.replace(shards=3))

        def broken_run(self, sharded, tasks):
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

            def broken_run(self, sharded, tasks):
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
            assert pool._closed and miner._resources.pool is None
            miner.apply(updates[4:])
            reference.apply(updates[4:])
            assert_mining_identical(miner.refresh(), reference.refresh())
            assert spawned == [] and miner._resources.pool is None
            assert fallbacks.value == before + 1
        finally:
            miner.detach()
            reference.detach()

    def test_killed_worker_raises_worker_pool_error(self):
        """A genuinely dead worker process surfaces as WorkerPoolError."""
        graph = long_path_graph()
        index = ShardedIndex.build(graph, 4, "edgecut")
        pool = ShardWorkerPool(
            2, measure="mni", lazy=False, lazy_cap=2, use_index=True, depth=2
        )
        try:
            pattern = path_pattern(["A", "B"])
            tasks = [
                ("part", pattern, shard_id, 0, False, None) for shard_id in range(4)
            ]
            assert len(pool.run(index, tasks)) == 4
            for process in pool._procs:
                process.terminate()
                process.join(timeout=5.0)
            with pytest.raises(WorkerPoolError):
                pool.run(index, tasks)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


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
        graph = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=1)
        miner = FrequentSubgraphMiner(graph, spec=MINE_SPEC)
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


class TestFlatWorkersStayFlat:
    def test_flat_pool_ships_no_partition(self):
        from repro.partition import Partition

        graph = random_labeled_graph(10, 0.3, alphabet=("A", "B"), seed=0)
        pool = miner_module._make_pool(graph, MINE_SPEC.replace(workers=2), None)
        try:
            assert pool is None or not any(
                isinstance(arg, Partition) for arg in pool._initargs
            )
        finally:
            if pool is not None:
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

    def test_delta_workers_require_shards(self):
        """workers must never be silently dropped: shards=1 delta raises."""
        graph, updates = _stream_fixture()
        with pytest.raises(MiningError, match="workers > 1 requires shards > 1"):
            list(mine_stream(graph, updates, spec=MiningSpec(mode="delta", workers=2)))

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
            DynamicMiner(graph, spec=MiningSpec(workers=2))
        with pytest.raises(MiningError):
            DynamicMiner(graph, spec=MiningSpec(max_resident=2))
        with pytest.raises(MiningError):
            DynamicMiner(graph, spec=MiningSpec(shards=2, max_resident=0))
