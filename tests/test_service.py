"""Tests for the graph service: MVCC snapshots, result cache, protocol."""

import gc
import json
import socket
import threading
import weakref
from dataclasses import replace

import pytest

from repro.errors import BudgetExceededError, MiningError, ServiceError
from repro.graph.builders import path_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.pattern import Pattern
from repro.index.delta import MIN_BOUND, DeltaLog
from repro.measures.base import _REGISTRY, measure_info
from repro.mining.dynamic import DynamicMiner, StreamApplier
from repro.mining.miner import mine_frequent_patterns
from repro.mining.spec import MiningSpec
from repro.mining.standing import StandingSpec, evaluate_standing, replay_answer
from repro.service import (
    GraphService,
    ResultCache,
    SnapshotRegistry,
    handle_request,
    parse_updates,
    result_bytes,
    serve_tcp,
)

SPEC = MiningSpec(min_support=2)

UPDATES = [
    ("v", 6, "b"),
    ("e", 5, 6),
    ("v", 7, "a"),
    ("e", 6, 7),
    ("de", 1, 2),
    ("e", 1, 2),
]


def base_graph():
    return path_graph(["a", "b", "a", "b", "a"])


def graph_after(n_updates):
    """The base graph with the first ``n_updates`` applied directly."""
    graph = base_graph()
    StreamApplier(graph, window=None).apply_batch(UPDATES[:n_updates])
    return graph


class TestSnapshotRegistry:
    def test_pin_tip_then_advance_preserves_frozen_view(self):
        graph = base_graph()
        registry = SnapshotRegistry(graph)
        snap = registry.pin()
        edges_before = snap.graph.num_edges
        graph.add_vertex(6, "b")
        graph.add_edge(5, 6)
        registry.publish()
        assert registry.tip > snap.version
        assert snap.graph.num_edges == edges_before  # frozen, not live
        with registry.pin() as tip_snap:
            assert tip_snap.graph.num_edges == edges_before + 1
        snap.release()
        registry.close()

    def test_unpinned_old_version_is_garbage_collected(self):
        graph = base_graph()
        registry = SnapshotRegistry(graph)
        old_tip = registry.tip
        graph.add_vertex(6, "b")
        registry.publish()
        with pytest.raises(ServiceError, match="not materialized"):
            registry.pin(old_tip)
        registry.close()

    def test_refcount_gc(self):
        graph = base_graph()
        registry = SnapshotRegistry(graph)
        evicted = []
        registry.on_evict(evicted.append)
        first = registry.pin()
        second = registry.pin()
        version = first.version
        graph.add_vertex(6, "b")
        registry.publish()
        first.release()
        assert evicted == []  # still pinned by `second`
        assert registry.pin(version).graph is second.graph  # re-pinnable
        registry._release(version)
        second.release()
        assert evicted == [version]
        with pytest.raises(ServiceError, match="not materialized"):
            registry.pin(version)
        registry.close()

    def test_double_release_raises(self):
        registry = SnapshotRegistry(base_graph())
        snap = registry.pin()
        snap.release()
        with pytest.raises(ServiceError, match="already released"):
            snap.release()
        registry.close()

    def test_pinned_snapshot_graph_is_immutable(self):
        graph = base_graph()
        registry = SnapshotRegistry(graph)
        with registry.pin() as snap:
            with pytest.raises(ServiceError, match="immutable"):
                snap.graph.add_vertex(99, "z")
        registry.close()

    def test_publish_replays_deletions(self):
        graph = base_graph()
        registry = SnapshotRegistry(graph)
        graph.remove_edge(1, 2)
        graph.add_vertex(6, "b")
        graph.add_edge(5, 6)
        registry.publish()
        with registry.pin() as snap:
            assert not snap.graph.has_edge(1, 2)
            assert snap.graph.has_edge(5, 6)
            assert snap.graph.num_edges == graph.num_edges
        registry.close()

    def test_close_detaches_observer(self):
        graph = base_graph()
        registry = SnapshotRegistry(graph)
        registry.close()
        assert graph.delta_log() is None
        registry.close()  # idempotent


#: One batch past the delta log's bound on base_graph(): a chain of 40
#: new ``c`` vertices.  It touches only the (c, c) label pair, so a
#: consumer that kept up would skip or reuse everything built on (a, b).
BURST = [("v", 100, "c")] + [
    update for i in range(101, 140) for update in (("v", i, "c"), ("e", i - 1, i))
]


class TestGapPerConsumer:
    """Each delta consumer falls back, exactly, when its cursor reads a gap."""

    def test_burst_is_past_the_bound(self):
        graph = base_graph()
        size = graph.num_vertices + graph.num_edges + len(BURST)  # all growth
        assert len(BURST) > max(MIN_BOUND, 2 * size // 5)

    def test_miner_rewalks_in_full(self):
        graph = base_graph()
        miner = DynamicMiner(graph, spec=SPEC)
        miner.refresh()
        StreamApplier(graph).apply_batch(BURST)
        result = miner.refresh()
        miner.detach()
        assert result.stats.patterns_reused == 0
        assert result.stats.patterns_skipped_unaffected == 0
        brute = mine_frequent_patterns(graph, spec=SPEC.replace(use_index=False))
        assert result_bytes(result) == result_bytes(brute)

    def test_snapshots_copy_once_and_keep_pins(self, monkeypatch):
        graph = base_graph()
        registry = SnapshotRegistry(graph)
        pinned = registry.pin()
        frozen = pinned.graph.copy()
        copied = []
        copy = LabeledGraph.copy

        def counting_copy(self):
            copied.append(self)
            return copy(self)

        monkeypatch.setattr(LabeledGraph, "copy", counting_copy)
        StreamApplier(graph).apply_batch(BURST)
        registry.publish()
        assert len(copied) == 1 and copied[0] is graph  # no replay, one copy
        assert pinned.graph == frozen
        with registry.pin() as tip:
            assert tip.graph == graph and tip.graph is not graph
        pinned.release()
        registry.close()

    def test_subscriptions_evaluate_everything(self):
        threshold = StandingSpec.from_kwargs(
            kind="threshold", min_support=2, max_nodes=3
        )
        watch = StandingSpec.from_kwargs(
            pattern=Pattern.single_edge("a", "b"), min_support=2
        )
        with GraphService(base_graph()) as service:
            subs = [service.subscribe(threshold), service.subscribe(watch)]
            baselines = [sub.answer_snapshot() for sub in subs]
            before = service.metrics_snapshot()
            service.apply_updates(BURST)
            after = service.metrics_snapshot()
            with service.pin() as snap:
                for sub, baseline in zip(subs, baselines):
                    replayed = replay_answer(baseline, sub.poll())
                    assert replayed == evaluate_standing(sub.spec, snap.graph)
        moved = {
            name: after[name] - before.get(name, 0)
            for name in ("repro_subs_evaluations", "repro_subs_dispatch_skipped")
        }
        assert moved == {
            "repro_subs_evaluations": 2,
            "repro_subs_dispatch_skipped": 0,
        }

    def test_service_graph_carries_one_log(self, monkeypatch):
        appended_to = []
        append = DeltaLog.append

        def counting_append(self, delta):
            appended_to.append(self)
            append(self, delta)

        monkeypatch.setattr(DeltaLog, "append", counting_append)
        graph = base_graph()
        other = StandingSpec.from_kwargs(kind="threshold", min_support=3, max_nodes=3)
        with GraphService(graph, maintain=SPEC) as service:
            service.subscribe(other)  # its evaluator runs its own miner
            log = graph.delta_log()
            service.apply_updates(UPDATES)
            assert graph.delta_log() is log
        assert len(appended_to) == len(UPDATES)  # one append per mutation
        assert all(target is log for target in appended_to)
        assert graph.delta_log() is None  # and no cursor outlives the service


class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache()
        assert cache.get(1, "k") is None
        cache.put(1, "k", "value")
        assert cache.get(1, "k") == "value"
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
        }

    def test_peek_does_not_count(self):
        cache = ResultCache()
        cache.put(1, "k", "value")
        assert cache.peek(1, "k") == "value"
        assert cache.peek(1, "other") is None
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put(1, "a", "A")
        cache.put(1, "b", "B")
        cache.get(1, "a")  # refresh a: b is now the LRU entry
        cache.put(1, "c", "C")
        assert cache.peek(1, "b") is None
        assert cache.peek(1, "a") == "A"
        assert cache.stats()["evictions"] == 1

    def test_drop_version_and_retain(self):
        cache = ResultCache()
        cache.put(1, "a", "A")
        cache.put(2, "a", "B")
        cache.put(3, "a", "C")
        cache.drop_version(2)
        assert cache.peek(2, "a") is None
        cache.retain(lambda v: v == 3)
        assert cache.peek(1, "a") is None
        assert cache.peek(3, "a") == "C"
        assert len(cache) == 1


class TestGraphService:
    def test_updates_advance_versions_and_counts(self):
        with GraphService(base_graph()) as service:
            v0 = service.version
            info = service.apply_updates(UPDATES[:2])
            assert info.version > v0
            assert info.applied == 2
            assert info.num_vertices == 6
            assert info.num_edges == 5

    def test_mine_matches_one_shot_at_each_version(self):
        with GraphService(base_graph()) as service:
            for n in (2, 4, 6):
                service.apply_updates(UPDATES[n - 2 : n])
                served = service.mine(SPEC)
                direct = mine_frequent_patterns(graph_after(n), spec=SPEC)
                assert result_bytes(served) == result_bytes(direct)

    def test_pinned_reader_unaffected_by_writer_advance(self):
        with GraphService(base_graph()) as service:
            service.apply_updates(UPDATES[:2])
            snap = service.pin()
            service.apply_updates(UPDATES[2:])  # writer moves on
            served = service.mine(SPEC, snapshot=snap)
            direct = mine_frequent_patterns(graph_after(2), spec=SPEC)
            assert result_bytes(served) == result_bytes(direct)
            snap.release()

    def test_concurrent_readers_pin_older_snapshots(self):
        # The acceptance scenario: the writer advances through the stream
        # while threaded readers hold snapshots of *older* versions; every
        # reader's result must be byte-identical to a one-shot mine of the
        # graph at its pinned version.
        expected = {
            n: result_bytes(mine_frequent_patterns(graph_after(n), spec=SPEC))
            for n in (0, 2, 4, 6)
        }
        with GraphService(base_graph()) as service:
            snaps = {0: service.pin()}
            for n in (2, 4, 6):
                service.apply_updates(UPDATES[n - 2 : n])
                snaps[n] = service.pin()

            results = {}
            errors = []

            def read(n, snap):
                try:
                    results[n] = result_bytes(service.mine(SPEC, snapshot=snap))
                except BaseException as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [
                threading.Thread(target=read, args=(n, snap))
                for n, snap in snaps.items()
            ]
            for t in threads:
                t.start()
            # Keep writing while the readers mine their pinned versions.
            service.apply_updates([("v", 8, "b"), ("e", 7, 8)])
            for t in threads:
                t.join()
            assert errors == []
            assert results == expected
            for snap in snaps.values():
                snap.release()

    def test_repeated_requests_hit_the_cache(self):
        with GraphService(base_graph()) as service:
            service.mine(SPEC)
            before = service.cache.stats()
            service.mine(SPEC)
            service.mine(SPEC)
            after = service.cache.stats()
            assert after["hits"] == before["hits"] + 2
            assert after["misses"] == before["misses"]

    def test_version_advance_invalidates_only_unpinned_versions(self):
        with GraphService(base_graph()) as service:
            service.mine(SPEC)  # cached at v0
            v0 = service.version
            pinned = service.pin()  # keep v0 alive
            service.apply_updates(UPDATES[:2])
            # v0 is pinned: its entry must survive the advance.
            assert service.cache.peek(v0, SPEC.cache_key()) is not None
            service.mine(SPEC, snapshot=pinned)  # still a hit
            assert service.cache.stats()["hits"] >= 1
            pinned.release()
            # Last pin gone and v0 is no longer the tip: entry evicted.
            assert service.cache.peek(v0, SPEC.cache_key()) is None

    def test_maintained_service_precaches_each_version(self):
        with GraphService(base_graph(), maintain=SPEC) as service:
            service.apply_updates(UPDATES[:2])
            stats_before = service.cache.stats()
            result = service.mine()  # spec-less → the maintained spec
            assert service.cache.stats()["hits"] == stats_before["hits"] + 1
            direct = mine_frequent_patterns(graph_after(2), spec=SPEC)
            assert result_bytes(result) == result_bytes(direct)

    def test_maintained_result_is_cached_before_its_version_is_published(self):
        # A reader that pins the new tip the moment it is published must
        # find the maintained entry, never re-mine it from scratch.
        with GraphService(base_graph(), maintain=SPEC) as service:
            publish = service.registry.publish
            cached_at_publish = []

            def checked_publish():
                version = publish()
                cached_at_publish.append(
                    (version, service.cache.peek(version, SPEC.cache_key()) is not None)
                )
                return version

            service.registry.publish = checked_publish
            versions = [
                service.apply_updates(UPDATES[n - 2 : n]).version for n in (2, 4, 6)
            ]
            assert cached_at_publish == [(v, True) for v in versions]

    def test_async_submit_tickets(self):
        with GraphService(base_graph()) as service:
            ticket = service.submit(SPEC)
            result = ticket.wait(timeout=120)
            assert ticket.done
            assert ticket.poll() is not None
            direct = mine_frequent_patterns(graph_after(0), spec=SPEC)
            assert result_bytes(result) == result_bytes(direct)

    def test_submit_after_stop_raises(self):
        service = GraphService(base_graph())
        service.stop()
        service.stop()  # idempotent
        with pytest.raises(ServiceError, match="stopped"):
            service.submit_updates([("v", 6, "b")])

    def test_stop_releases_graph_observers(self):
        graph = base_graph()
        service = GraphService(graph, maintain=SPEC)
        service.apply_updates(UPDATES[:2])
        service.stop()
        assert graph.delta_log() is None

    def test_maintained_spec_refuses_max_occurrences(self):
        # The maintained result is cached under spec.cache_key(), which
        # includes max_occurrences; serving it untruncated was wrong.
        graph = path_graph(["A", "B"] * 4)
        spec = MiningSpec(min_support=1, max_pattern_nodes=3, max_occurrences=1)
        with pytest.raises(MiningError, match="max_occurrences"):
            GraphService(graph, maintain=spec)
        assert graph.delta_log() is None
        # An ad-hoc read of the same spec is a one-shot mine: honoured.
        with GraphService(graph) as service:
            served = service.mine(spec=spec)
        direct = mine_frequent_patterns(graph, spec=spec)
        assert result_bytes(served) == result_bytes(direct)
        assert [fp.num_occurrences for fp in served.frequent] == [1, 1, 1]

    @pytest.mark.parametrize(
        "maintain,second_key",
        [
            (MiningSpec(min_support=2, max_pattern_nodes=3), False),
            (
                MiningSpec(
                    min_support=2,
                    max_pattern_nodes=3,
                    shards=2,
                    workers=2,
                    max_resident=1,
                ),
                False,
            ),
            (MiningSpec(min_support=2, max_pattern_nodes=3), True),
        ],
        ids=["flat", "sharded-pooled-paged", "flat-with-second-key-subscription"],
    )
    def test_stopped_service_is_freed_without_gc(
        self, maintain, second_key, built_miners
    ):
        # The caller keeps the graph; the stopped service and every miner
        # in its table (a live subscription's too) must be freed by
        # reference counting alone, not wait for a cycle collection.
        graph = base_graph()
        gc.disable()
        try:
            service = GraphService(graph, maintain=maintain)
            if second_key:
                service.subscribe(
                    StandingSpec.from_kwargs(
                        kind="threshold", min_support=1, max_nodes=2
                    )
                )
            service.apply_updates(UPDATES[:2])
            service.mine(SPEC)
            service.stop()
            service_ref = weakref.ref(service)
            del service
            assert service_ref() is None
            assert len(built_miners) == (2 if second_key else 1)
            assert [ref() for _, ref in built_miners] == [None] * len(built_miners)
            assert graph.delta_log() is None
        finally:
            gc.enable()

    def test_bad_update_fails_the_ticket_not_the_writer(self):
        with GraphService(base_graph()) as service:
            with pytest.raises(Exception):
                service.apply_updates([("e", 98, 99)])  # unknown endpoints
            # The writer thread survives and keeps serving.
            info = service.apply_updates(UPDATES[:2])
            assert info.applied == 2


class TestProtocol:
    def test_parse_updates_validates(self):
        assert parse_updates([["v", 6, "b"], ["de", 1, 2], ["dv", 3]]) == [
            ("v", 6, "b"),
            ("de", 1, 2),
            ("dv", 3),
        ]
        with pytest.raises(ServiceError, match="unknown update kind"):
            parse_updates([["x", 1]])
        with pytest.raises(ServiceError, match="must have"):
            parse_updates([["e", 1]])
        with pytest.raises(ServiceError, match="array"):
            parse_updates("e 1 2")

    def request(self, service, payload):
        response, shutdown = handle_request(service, json.dumps(payload))
        return response, shutdown

    def test_full_conversation(self):
        with GraphService(base_graph(), maintain=SPEC) as service:
            ping, _ = self.request(service, {"op": "ping", "id": 1})
            assert ping == {"ok": True, "op": "ping", "v": 1, "id": 1}

            version, _ = self.request(service, {"op": "version"})
            assert version["ok"] and version["num_vertices"] == 5

            update, _ = self.request(
                service, {"op": "update", "updates": [["v", 6, "b"], ["e", 5, 6]]}
            )
            assert update["ok"] and update["applied"] == 2

            mined, _ = self.request(service, {"op": "mine"})
            assert mined["ok"]
            assert mined["cached"] is True  # writer pre-cached this version
            direct = mine_frequent_patterns(graph_after(2), spec=SPEC)
            assert mined["result"] == json.loads(result_bytes(direct))

            stats, _ = self.request(service, {"op": "stats"})
            assert stats["ok"] and stats["maintained"] is True

            bye, shutdown = self.request(service, {"op": "shutdown", "id": 9})
            assert shutdown and bye["id"] == 9

    def test_mine_with_inline_spec_fields(self):
        with GraphService(base_graph()) as service:
            first, _ = self.request(service, {"op": "mine", "spec": {"min_support": 2}})
            assert first["ok"] and first["cached"] is False
            again, _ = self.request(service, {"op": "mine", "spec": {"min_support": 2}})
            assert again["cached"] is True
            assert again["result"] == first["result"]

    def test_error_shapes(self):
        with GraphService(base_graph()) as service:
            bad_json, _ = self.request_raw(service, "{not json")
            assert bad_json["ok"] is False and bad_json["type"] == "ServiceError"

            unknown, _ = self.request(service, {"op": "teleport", "id": 3})
            assert unknown["ok"] is False and unknown["id"] == 3

            bad_spec, _ = self.request(
                service, {"op": "mine", "spec": {"min_support": -1}}
            )
            assert bad_spec["ok"] is False
            assert bad_spec["type"] == "MiningError"

            bad_version, _ = self.request(service, {"op": "mine", "version": 10**9})
            assert bad_version["ok"] is False
            assert "not materialized" in bad_version["error"]

    def request_raw(self, service, line):
        return handle_request(service, line)

    def test_budget_exhaustion_is_a_typed_error(self, monkeypatch):
        def exhausted(bundle):
            raise BudgetExceededError(7)

        info = measure_info("mvc")
        monkeypatch.setitem(_REGISTRY, "mvc", replace(info, compute=exhausted))
        with GraphService(base_graph()) as service:
            mined, shutdown = self.request(
                service, {"op": "mine", "spec": {"measure": "mvc"}, "id": 4}
            )
        assert not shutdown
        assert mined["ok"] is False and mined["id"] == 4
        assert mined["type"] == "BudgetExceededError"
        assert mined["code"] == "budget_exceeded"

    def test_integer_threshold_hits_the_maintained_cache(self):
        # The CLI's --min-support is a float; a JSON client's 3 is an int.
        maintain = MiningSpec(min_support=3.0)
        with GraphService(base_graph(), maintain=maintain) as service:
            update, _ = self.request(
                service, {"op": "update", "updates": [["v", 6, "b"], ["e", 5, 6]]}
            )
            assert update["ok"] and service.cache.stats()["entries"] == 1
            mined, _ = self.request(service, {"op": "mine", "spec": {"min_support": 3}})
            assert mined["ok"] and mined["cached"] is True
            assert service.cache.stats()["entries"] == 1


#: Spec payloads of the wrong field type: each must come back as a typed
#: ``bad_request`` response, never as an exception out of handle_request.
MALFORMED_SPECS = [
    ("mine", {"min_support": "3"}),
    ("mine", {"workers": 2.5}),
    ("mine", {"max_pattern_nodes": None}),
    ("mine", {"lazy": "yes"}),
    ("mine", {"shards": True}),
    ("subscribe", {"kind": "threshold", "min_support": "3"}),
    ("subscribe", {"kind": "threshold", "lazy": 1}),
    ("subscribe", {"kind": "threshold", "events": 5}),
]


class TestMalformedSpecFields:
    @pytest.mark.parametrize("op, spec", MALFORMED_SPECS)
    def test_wrong_type_is_a_bad_request(self, op, spec):
        with GraphService(base_graph()) as service:
            response, shutdown = handle_request(
                service, json.dumps({"op": op, "spec": spec, "id": 7})
            )
        assert not shutdown
        assert response["ok"] is False
        assert response["code"] == "bad_request"
        assert response["type"] == "MiningError"
        assert response["id"] == 7

    def test_tcp_connection_survives_a_malformed_spec(self):
        class Announce:
            def __init__(self):
                self.lines = []
                self.ready = threading.Event()

            def write(self, text):
                self.lines.append(text)

            def flush(self):
                self.ready.set()

        announce = Announce()
        with GraphService(base_graph()) as service:
            server = threading.Thread(
                target=serve_tcp,
                args=(service,),
                kwargs={"port": 0, "announce": announce},
                daemon=True,
            )
            server.start()
            assert announce.ready.wait(10)
            port = json.loads("".join(announce.lines))["port"]
            with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
                stream = conn.makefile("rwb")

                def ask(payload):
                    stream.write((json.dumps(payload) + "\n").encode())
                    stream.flush()
                    return json.loads(stream.readline())

                for op, spec in MALFORMED_SPECS:
                    bad = ask({"op": op, "spec": spec})
                    assert bad["ok"] is False and bad["code"] == "bad_request"
                assert ask({"op": "ping"})["ok"] is True
                assert ask({"op": "shutdown"})["ok"] is True
            server.join(10)
            assert not server.is_alive()
