"""Standing-query subscriptions: spec, lifecycle, routing, equivalence.

The correctness bar for the whole subsystem is the *reconstruction law*:
for any subscription, replaying its cumulative event stream over the
baseline answer must reproduce exactly the answer a one-shot evaluation
reports at the bracketing versions — whatever mix of insertions,
deletions, and window expiry the stream contains, and whichever path
(maintained cache adoption, incremental DynamicMiner refresh, or direct
pattern evaluation) produced the events.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.datasets.synthetic import random_labeled_graph
from repro.errors import MiningError, ServiceError
from repro.graph.builders import path_graph
from repro.graph.pattern import Pattern
from repro.mining.dynamic import StreamApplier, apply_update
from repro.mining.miner import mine_frequent_patterns
from repro.mining.spec import MiningSpec
from repro.mining.standing import (
    EVENT_TYPES,
    AnswerEntry,
    StandingSpec,
    answer_from_result,
    diff_answer,
    evaluate_standing,
    replay_answer,
)
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ClientSession,
    GraphService,
    ResultCache,
    handle_request,
    result_bytes,
)
from repro.service.subscriptions import SubscriptionRegistry


@pytest.fixture
def fresh_registry():
    """Swap in an empty metrics registry so counter asserts are exact."""
    registry = MetricsRegistry()
    previous = metrics_mod.set_registry(registry)
    yield registry
    metrics_mod.set_registry(previous)


def base_graph():
    return path_graph(["a", "b", "a", "b", "a", "b"])


AB = Pattern.single_edge("a", "b")
THRESHOLD = StandingSpec.from_kwargs(kind="threshold", min_support=2, max_nodes=3)
WATCH_AB = StandingSpec.from_kwargs(pattern=AB, min_support=2)


class TestStandingSpec:
    def test_kinds_and_validation(self):
        with pytest.raises(MiningError, match="unknown standing-query kind"):
            StandingSpec(kind="sometimes")
        with pytest.raises(MiningError, match="requires a pattern"):
            StandingSpec(kind="pattern")
        with pytest.raises(MiningError, match="does not take a pattern"):
            StandingSpec.from_kwargs(kind="threshold", pattern=AB)
        with pytest.raises(MiningError, match="min_support"):
            StandingSpec(min_support=0)
        with pytest.raises(MiningError, match="anti-monotonic"):
            StandingSpec(measure="occurrences")
        with pytest.raises(MiningError, match="lazy"):
            StandingSpec(measure="mis", lazy=True)
        with pytest.raises(MiningError, match="unknown event type"):
            StandingSpec(events=("became_popular",))
        with pytest.raises(MiningError, match="delivery"):
            StandingSpec(delivery="carrier_pigeon")
        with pytest.raises(MiningError, match="at least one edge"):
            StandingSpec.from_kwargs(pattern=Pattern.single_node("a"))

    def test_pattern_normalization_is_canonical(self):
        # The same motif, given in different orders and container types,
        # must serialize to one canonical wire form.
        a = StandingSpec.from_kwargs(pattern=AB)
        b = StandingSpec.from_kwargs(
            pattern={"nodes": [["v2", "b"], ["v1", "a"]], "edges": [["v2", "v1"]]}
        )
        assert a == b
        assert a.to_json() == b.to_json()
        assert StandingSpec.from_json(a.to_json()) == a

    def test_pattern_kwarg_implies_kind(self):
        assert StandingSpec.from_kwargs(pattern=AB).kind == "pattern"

    def test_aliases_match_mining_spec(self):
        spec = StandingSpec.from_kwargs(kind="threshold", max_nodes=4, max_edges=5)
        assert spec.max_pattern_nodes == 4
        assert spec.max_pattern_edges == 5
        with pytest.raises(MiningError, match="given twice"):
            StandingSpec.from_kwargs(max_nodes=4, max_pattern_nodes=4)
        with pytest.raises(MiningError, match="unknown standing-query parameter"):
            StandingSpec.from_kwargs(workers=4)

    def test_events_filter_canonicalized(self):
        spec = StandingSpec.from_kwargs(
            events=["support_changed", "became_frequent", "became_frequent"]
        )
        assert spec.events == ("became_frequent", "support_changed")
        assert [e for e in spec.events if e not in EVENT_TYPES] == []

    def test_events_filter_rejects_unknown_and_empty(self):
        # from_kwargs is the wire/CLI path: a typo must be a bad_request,
        # not a filter that silently suppresses every event.
        with pytest.raises(MiningError, match="unknown event type"):
            StandingSpec.from_kwargs(events=["became_popular"])
        with pytest.raises(MiningError, match="unknown event type"):
            StandingSpec.from_kwargs(events=["became_frequent", "oops"])
        with pytest.raises(MiningError, match="unknown event type"):
            StandingSpec.from_kwargs(events="became_popular")
        with pytest.raises(MiningError, match="must not be empty"):
            StandingSpec.from_kwargs(events=[])
        with pytest.raises(MiningError, match="must not be empty"):
            StandingSpec(events=())

    def test_threshold_cache_key_shared_with_mining_spec(self):
        # A threshold subscription asks exactly the mining question — it
        # must hit cache entries that plain mine requests populated.
        spec = StandingSpec.from_kwargs(kind="threshold", min_support=3, max_nodes=4)
        assert spec.cache_key() == MiningSpec(
            min_support=3, max_pattern_nodes=4
        ).cache_key()

    def test_pattern_cache_key_is_certificate_based(self):
        flipped = Pattern.single_edge("b", "a", nodes=("x9", "x1"))
        assert WATCH_AB.cache_key() == StandingSpec.from_kwargs(
            pattern=flipped, min_support=2
        ).cache_key()
        assert "certificate" in json.loads(WATCH_AB.cache_key())


class TestDiffReplay:
    def test_roundtrip_random_answers(self):
        rng = random.Random(7)
        certs = [f"c{i}" for i in range(12)]

        def random_answer():
            return {
                c: AnswerEntry(float(rng.randint(1, 6)), rng.randint(-1, 9), True)
                for c in certs
                if rng.random() < 0.5
            }

        state = random_answer()
        for version in range(30):
            target = random_answer()
            events, _ = diff_answer(state, target, version=version)
            assert replay_answer(state, events) == target
            # One event per certificate per version, certificate-sorted.
            assert [e.certificate for e in events] == sorted(
                {e.certificate for e in events}
            )
            state = target

    def test_event_types(self):
        old = {
            "gone": AnswerEntry(3.0, 3, True),
            "less": AnswerEntry(3.0, 4, True),
            "same": AnswerEntry(2.0, 2, True),
            "support": AnswerEntry(3.0, -1, True),
        }
        new = {
            "fresh": AnswerEntry(2.0, 2, True),
            "less": AnswerEntry(2.0, 2, True),
            "same": AnswerEntry(2.0, 2, True),
            "support": AnswerEntry(2.0, -1, True),
        }
        events, next_seq = diff_answer(old, new, version=9)
        kinds = {e.certificate: e.type for e in events}
        assert kinds == {
            "gone": "became_infrequent",
            "fresh": "became_frequent",
            "less": "occurrences_lost",
            "support": "support_changed",
        }
        assert next_seq == len(events)
        assert [e.seq for e in events] == list(range(len(events)))
        gone = next(e for e in events if e.certificate == "gone")
        assert gone.support is None and gone.num_occurrences is None

    def test_event_filter_suppresses_and_keeps_seq_dense(self):
        old = {"gone": AnswerEntry(3.0, 3, True)}
        new = {"fresh": AnswerEntry(2.0, 2, True)}
        events, next_seq = diff_answer(
            old, new, version=1, event_filter=("became_frequent",)
        )
        assert [e.type for e in events] == ["became_frequent"]
        assert next_seq == 1

    def test_payload_roundtrip(self):
        events, _ = diff_answer({}, {"c": AnswerEntry(2.0, 2, True)}, version=3)
        from repro.mining.standing import AnswerEvent

        assert [AnswerEvent.from_payload(e.payload()) for e in events] == events


class TestLifecycle:
    def test_register_duplicate_unsubscribe(self):
        with GraphService(base_graph()) as service:
            first = service.subscribe(THRESHOLD)
            second = service.subscribe(THRESHOLD)  # duplicates are distinct
            assert first.id != second.id
            assert first.answer_snapshot() == second.answer_snapshot()
            assert len(service.subscriptions) == 2
            assert service.unsubscribe(first) is True
            assert service.unsubscribe(first.id) is False  # already gone
            assert service.unsubscribe("s999") is False
            assert len(service.subscriptions) == 1
            assert service.unsubscribe(second) is True

    def test_observer_detaches_with_last_subscription(self):
        graph = base_graph()
        with GraphService(graph) as service:
            registry = service.subscriptions
            assert registry._cursor is None  # zero subs -> zero cursors
            sub = service.subscribe(WATCH_AB)
            assert registry._cursor is not None and registry._cursor.open
            cursor = registry._cursor
            service.unsubscribe(sub)
            assert registry._cursor is None and not cursor.open

    def test_drop_owner_gc(self):
        with GraphService(base_graph()) as service:
            service.subscribe(THRESHOLD, owner="conn-1")
            service.subscribe(WATCH_AB, owner="conn-1")
            survivor = service.subscribe(WATCH_AB, owner="conn-2")
            assert service.drop_owner("conn-1") == 2
            assert service.drop_owner("conn-1") == 0
            assert [s.id for s in [survivor]] == [survivor.id]
            assert len(service.subscriptions) == 1

    def test_subscribe_after_stop_raises(self):
        service = GraphService(base_graph())
        service.stop()
        with pytest.raises(ServiceError, match="stopped"):
            service.subscribe(THRESHOLD)

    def test_subscribe_rejects_non_spec(self):
        with GraphService(base_graph()) as service:
            with pytest.raises(ServiceError, match="StandingSpec"):
                service.subscribe(MiningSpec())

    def test_push_delivery_in_process(self):
        pushed = []
        spec = THRESHOLD.replace(delivery="push")
        with GraphService(base_graph()) as service:
            with pytest.raises(ServiceError, match="push callback"):
                service.subscribe(spec)
            sub = service.subscribe(
                spec, push=lambda s, v, events: pushed.append((s.id, v, list(events)))
            )
            service.apply_updates([("v", 7, "a"), ("e", 6, 7)])
            polled = sub.poll()
        assert polled  # pushed events remain pollable (at-least-once)
        assert pushed == [(sub.id, sub.version, polled)]

    def test_pending_bound_drops_oldest(self, fresh_registry):
        graph = base_graph()
        registry = SubscriptionRegistry(graph, ResultCache(), max_pending=2)
        sub = registry.register(WATCH_AB, version=0)
        for step in range(3):
            apply_update(graph, ("v", 100 + step, "a"))
            apply_update(graph, ("e", 100 + step, 2))
            registry.dispatch(step + 1)
        assert sub.pending == 2
        assert sub.dropped == 1
        assert fresh_registry.snapshot()["repro_subs_events_dropped"] == 1
        events = sub.poll()
        # The *newest* events survive; their versions are the latest two.
        assert [e.version for e in events] == [2, 3]
        registry.close()


class TestFootprintRouting:
    def test_untouched_pairs_skip_every_subscription(self, fresh_registry):
        with GraphService(base_graph()) as service:
            service.subscribe(WATCH_AB)
            service.subscribe(THRESHOLD)
            # d-d edges: no subscribed pair, and cap(d,d) = 2*1 = 2 is
            # only promoted when it reaches min_support -- use min_support
            # 2 patterns? No: THRESHOLD.min_support == 2, so a d-d pair
            # *would* qualify.  Vertex-only batches touch no pair at all.
            service.apply_updates([("v", 50, "d"), ("v", 51, "d")])
            snap = fresh_registry.snapshot()
            assert snap["repro_subs_dispatch_skipped"] == 2
            assert snap["repro_subs_evaluations"] == 0

    def test_low_cap_insertion_skips_threshold_sub(self, fresh_registry):
        spec = StandingSpec.from_kwargs(kind="threshold", min_support=3, max_nodes=3)
        with GraphService(base_graph()) as service:
            sub = service.subscribe(spec)
            baseline = sub.answer_snapshot()
            # One d-d edge: cap = 2 * pairs(d,d) = 2 < min_support 3, and
            # (d,d) is not in any frequent pattern's footprint -> the
            # batch provably cannot change the answer; no re-evaluation.
            service.apply_updates([("v", 50, "d"), ("v", 51, "d"), ("e", 50, 51)])
            snap = fresh_registry.snapshot()
            assert snap["repro_subs_dispatch_skipped"] == 1
            assert snap["repro_subs_evaluations"] == 0
            assert sub.poll() == []
            assert sub.answer_snapshot() == baseline
            assert sub.version == service.version  # skipped but current

    def test_same_label_cap_doubles(self, fresh_registry):
        # MNI of the one-edge d-d pattern over a single d-d data edge is
        # 2 (both endpoints map both ways), so with min_support 2 the
        # insertion *must* be routed even though only one edge exists.
        spec = StandingSpec.from_kwargs(kind="threshold", min_support=2, max_nodes=3)
        with GraphService(base_graph()) as service:
            sub = service.subscribe(spec)
            service.apply_updates([("v", 50, "d"), ("v", 51, "d"), ("e", 50, 51)])
            events = sub.poll()
            assert [(e.type, e.support) for e in events] == [("became_frequent", 2.0)]
            snap = fresh_registry.snapshot()
            assert snap["repro_subs_evaluations"] == 1

    def test_pattern_footprint_routing(self, fresh_registry):
        with GraphService(base_graph()) as service:
            sub = service.subscribe(WATCH_AB)
            # b-b touch: disjoint from the a-b footprint.
            service.apply_updates([("e", 2, 4)])
            assert fresh_registry.snapshot()["repro_subs_dispatch_skipped"] == 1
            assert sub.poll() == []
            # a-b touch: must re-evaluate and report the gained occurrence.
            service.apply_updates([("v", 7, "a"), ("e", 7, 2)])
            events = sub.poll()
            assert [e.type for e in events] == ["occurrences_gained"]
            assert fresh_registry.snapshot()["repro_subs_evaluations"] == 1

    def test_shared_evaluator_routes_all_subs_on_watched_shrink(
        self, fresh_registry
    ):
        # Two subscriptions to the same threshold spec share one
        # evaluator.  When a deletion empties the frequent set, the first
        # sub's evaluate() advances the evaluator's watched set to the
        # (now empty) post-batch footprint — the second sub must still be
        # routed against the *pre-batch* watched set, or it silently
        # keeps the stale answer forever.
        with GraphService(base_graph()) as service:
            first = service.subscribe(THRESHOLD)
            second = service.subscribe(THRESHOLD)
            assert first.cache_key == second.cache_key  # one shared evaluator
            assert first.answer_snapshot()  # baseline has frequent patterns
            service.apply_updates(
                [("de", 1, 2), ("de", 2, 3), ("de", 3, 4), ("de", 4, 5)]
            )
            events_first = first.poll()
            events_second = second.poll()
            assert events_first and events_second
            assert [e.payload() for e in events_first] == [
                e.payload() for e in events_second
            ]
            assert all(e.type == "became_infrequent" for e in events_first)
            assert first.answer_snapshot() == second.answer_snapshot() == {}
            # The second evaluation was free (evaluator answer reused),
            # and nothing was mis-skipped.
            assert fresh_registry.snapshot()["repro_subs_dispatch_skipped"] == 0

    def test_shared_evaluator_skip_still_skips_every_sub(self, fresh_registry):
        # The memoized routing decision must preserve the skip counters:
        # an untouched batch skips *both* subs of a shared evaluator.
        with GraphService(base_graph()) as service:
            service.subscribe(THRESHOLD)
            service.subscribe(THRESHOLD)
            service.apply_updates([("v", 50, "d"), ("v", 51, "d")])
            snap = fresh_registry.snapshot()
            assert snap["repro_subs_dispatch_skipped"] == 2
            assert snap["repro_subs_evaluations"] == 0

    def test_maintained_spec_subscription_adopts_cache(self, fresh_registry):
        maintain = MiningSpec(min_support=2, max_pattern_nodes=3)
        spec = StandingSpec.from_kwargs(kind="threshold", min_support=2, max_nodes=3)
        with GraphService(base_graph(), maintain=maintain) as service:
            sub = service.subscribe(spec)
            for step in range(3):
                service.apply_updates([("v", 60 + step, "a"), ("e", 60 + step, 2)])
            assert sub.poll()
            snap = fresh_registry.snapshot()
            # Every dispatch evaluation was served by the writer's
            # pre-cached maintained result: one miner session per batch
            # (plus the baseline mine at subscribe time), not two.
            assert snap["repro_subs_evaluations"] == 3
            assert snap["repro_miner_sessions"] == 4


MAINTAIN = THRESHOLD.mining_spec()
#: A second threshold question: a different cache key from MAINTAIN's.
OTHER_KEY = THRESHOLD.replace(min_support=3.0)
TABLE_BATCHES = [
    [("v", 7, "a"), ("e", 6, 7), ("v", 8, "b"), ("e", 7, 8)],
    [("de", 1, 2), ("e", 8, 2)],
    [("v", 9, "a"), ("e", 8, 9), ("de", 3, 4)],
]


def _replays_match(service, subs, reference, batches):
    """Apply ``batches``; every sub's replayed events equal a one-shot answer."""
    states = {sub.id: sub.answer_snapshot() for sub in subs}
    applier = StreamApplier(reference, None)
    for batch in batches:
        service.apply_updates(batch)
        applier.apply_batch(batch)
        for sub in subs:
            states[sub.id] = replay_answer(states[sub.id], sub.poll())
            assert states[sub.id] == evaluate_standing(sub.spec, reference)


class TestMaintainedSpecTable:
    """One refcounted miner per cache key, whoever asks the question."""

    def test_subscription_before_first_batch_shares_the_maintained_miner(
        self, built_miners, fresh_registry
    ):
        assert THRESHOLD.cache_key() == MAINTAIN.cache_key()
        with GraphService(base_graph(), maintain=MAINTAIN) as service:
            sub = service.subscribe(THRESHOLD)  # version 0: nothing cached yet
            assert [key for key, _ in built_miners] == [MAINTAIN.cache_key()]
            snap = fresh_registry.snapshot()
            assert snap["repro_service_maintained_specs"] == 1
            _replays_match(service, [sub], base_graph(), TABLE_BATCHES)
        assert len(built_miners) == 1

    def test_evicted_maintained_entry_is_refreshed_not_rebuilt(self, built_miners):
        # With one cache entry, the second key's baseline evicts the
        # maintained result; the maintained key's subscription must then
        # ask the table's miner, not build its own.
        with GraphService(base_graph(), maintain=MAINTAIN, cache_size=1) as service:
            reference = base_graph()
            _replays_match(service, [], reference, TABLE_BATCHES[:1])
            subs = [service.subscribe(OTHER_KEY), service.subscribe(THRESHOLD)]
            _replays_match(service, subs, reference, TABLE_BATCHES[1:])
        keys = sorted(key for key, _ in built_miners)
        assert keys == sorted([MAINTAIN.cache_key(), OTHER_KEY.cache_key()])

    def test_sharded_maintained_miner_serves_flat_subscription(self, built_miners):
        maintain = MAINTAIN.replace(shards=2)
        with GraphService(base_graph(), maintain=maintain) as service:
            sub = service.subscribe(THRESHOLD)
            _replays_match(service, [sub], base_graph(), TABLE_BATCHES)
            ((key, miner_ref),) = built_miners
            assert key == THRESHOLD.cache_key()
            assert miner_ref().spec.shards == 2  # the first spec's strategy

    def test_last_reference_closes_the_miner(self, built_miners, fresh_registry):
        def gauge():
            return fresh_registry.snapshot()["repro_service_maintained_specs"]

        graph = base_graph()
        with GraphService(graph, maintain=MAINTAIN) as service:
            shared = [service.subscribe(THRESHOLD) for _ in range(2)]
            lone = service.subscribe(OTHER_KEY)
            assert gauge() == 2
            miners = {key: ref() for key, ref in built_miners}
            assert len(built_miners) == len(miners) == 2
            service.unsubscribe(lone)
            assert not miners[OTHER_KEY.cache_key()].attached
            assert gauge() == 1
            for sub in shared:
                service.unsubscribe(sub)
            maintained = miners[MAINTAIN.cache_key()]
            assert maintained.attached and gauge() == 1
            info = service.apply_updates(TABLE_BATCHES[0])
            assert maintained.refresh() is info.result  # the writer's refresh
            expected = mine_frequent_patterns(graph.copy(), spec=MAINTAIN)
            assert result_bytes(info.result) == result_bytes(expected)
        assert not maintained.attached and gauge() == 0


def _random_stream(rng, reference, num_updates, *, labels=("a", "b", "c")):
    """A valid mixed update stream, evolved against ``reference``."""
    updates = []
    next_vertex = 1000
    for _ in range(num_updates):
        vertices = list(reference.vertices())
        edges = list(reference.edges())
        roll = rng.random()
        if roll < 0.35 or len(vertices) < 4:
            update = ("v", next_vertex, rng.choice(labels))
            next_vertex += 1
        elif roll < 0.70:
            for _ in range(20):
                u, v = rng.sample(vertices, 2)
                if not reference.has_edge(u, v):
                    break
            else:
                continue
            update = ("e", u, v)
        elif roll < 0.90 and edges:
            update = ("de", *rng.choice(edges))
        elif vertices:
            update = ("dv", rng.choice(vertices))
        else:
            continue
        apply_update(reference, update)
        updates.append(update)
    return updates


def _batches(updates, size):
    return [updates[i : i + size] for i in range(0, len(updates), size)]


class TestEquivalence:
    """Event-stream == mine-diff, across measures, strategies, streams."""

    @pytest.mark.parametrize(
        "measure,lazy,maintain,window",
        [
            ("mni", False, None, None),
            ("mni", True, None, None),
            ("mni", False, "sharded", None),
            ("mni", False, "same", 25),
            ("mi", False, None, None),
            ("mis", False, None, None),
        ],
    )
    def test_replay_reconstructs_one_shot_diff(self, measure, lazy, maintain, window):
        rng = random.Random(hash((measure, lazy, maintain, window)) & 0xFFFF)
        small = measure in ("mi", "mis")  # NP-hard measures: keep tiny
        base = random_labeled_graph(
            10 if small else 16,
            0.22,
            alphabet=("a", "b", "c"),
            seed=rng.randint(0, 999),
        )
        min_support = 2.0
        threshold = StandingSpec.from_kwargs(
            kind="threshold",
            measure=measure,
            min_support=min_support,
            max_nodes=3,
            lazy=lazy,
        )
        watches = [
            StandingSpec.from_kwargs(
                pattern=Pattern.single_edge(lu, lv),
                measure=measure,
                min_support=min_support,
                lazy=lazy,
            )
            for lu, lv in (("a", "b"), ("c", "c"))
        ]
        maintain_spec = None
        if maintain == "sharded":
            maintain_spec = threshold.mining_spec().replace(shards=2)
        elif maintain == "same":
            maintain_spec = threshold.mining_spec()

        # The stream is generated against (and leaves behind) a evolving
        # scratch copy; the *reference* below replays it through its own
        # StreamApplier so window expiry matches the service exactly.
        scratch = base.copy()
        updates = _random_stream(rng, scratch, 16 if small else 30)

        service = GraphService(base.copy(), maintain=maintain_spec, window=window)
        try:
            subs = [service.subscribe(spec) for spec in [threshold, *watches]]
            reference = base.copy()
            applier = StreamApplier(reference, window)
            states = {}
            for sub in subs:
                states[sub.id] = sub.answer_snapshot()
                assert states[sub.id] == evaluate_standing(sub.spec, reference)
            for batch in _batches(updates, 5):
                service.apply_updates(batch)
                applier.apply_batch(batch)
                for sub in subs:
                    events = sub.poll()
                    states[sub.id] = replay_answer(states[sub.id], events)
                    assert states[sub.id] == evaluate_standing(sub.spec, reference), (
                        f"replayed events diverged for {sub.spec.kind} "
                        f"({measure}, lazy={lazy}, maintain={maintain})"
                    )
        finally:
            service.stop()

    def test_threshold_answer_matches_one_shot_mine(self):
        # The threshold answer is literally the one-shot mining result.
        with GraphService(base_graph()) as service:
            sub = service.subscribe(THRESHOLD)
            service.apply_updates([("v", 7, "a"), ("e", 6, 7), ("e", 7, 2)])
            sub.poll()
            expected = answer_from_result(
                mine_frequent_patterns(
                    service.registry.pin().graph, spec=THRESHOLD.mining_spec()
                )
            )
            assert sub.answer_snapshot() == expected

    def test_seq_numbers_are_dense_per_subscription(self):
        rng = random.Random(99)
        base = random_labeled_graph(12, 0.25, alphabet=("a", "b"), seed=3)
        scratch = base.copy()
        updates = _random_stream(rng, scratch, 24, labels=("a", "b"))
        with GraphService(base.copy()) as service:
            sub = service.subscribe(THRESHOLD)
            seen = []
            for batch in _batches(updates, 4):
                service.apply_updates(batch)
                seen.extend(sub.poll())
            assert [e.seq for e in seen] == list(range(len(seen)))
            versions = [e.version for e in seen]
            assert versions == sorted(versions)

    def test_event_filtered_subscription_only_sees_requested_types(self):
        spec = THRESHOLD.replace(events=("became_frequent", "became_infrequent"))
        rng = random.Random(5)
        base = random_labeled_graph(12, 0.25, alphabet=("a", "b"), seed=8)
        scratch = base.copy()
        updates = _random_stream(rng, scratch, 24, labels=("a", "b"))
        with GraphService(base.copy()) as service:
            sub = service.subscribe(spec)
            full = service.subscribe(THRESHOLD)
            kinds = set()
            membership_events = 0
            for batch in _batches(updates, 4):
                service.apply_updates(batch)
                kinds.update(e.type for e in sub.poll())
                membership_events += sum(
                    e.type in spec.events for e in full.poll()
                )
            assert kinds <= {"became_frequent", "became_infrequent"}
            assert membership_events > 0  # the filter had something to keep


class TestProtocolSurface:
    def request(self, service, payload, session=None):
        response, shutdown = handle_request(service, json.dumps(payload), session)
        return response

    def test_every_response_carries_protocol_version(self):
        with GraphService(base_graph()) as service:
            for payload in (
                {"op": "ping"},
                {"op": "version"},
                {"op": "nope"},
                "not json at all",
            ):
                line = payload if isinstance(payload, str) else json.dumps(payload)
                response, _ = handle_request(service, line)
                assert response["v"] == 1

    def test_unsupported_protocol_version_refused(self):
        with GraphService(base_graph()) as service:
            response = self.request(service, {"op": "ping", "v": 2})
            assert not response["ok"]
            assert response["code"] == "unsupported_protocol"
            assert self.request(service, {"op": "ping", "v": 1})["ok"]

    def test_error_codes_machine_readable(self):
        with GraphService(base_graph()) as service:
            assert self.request(service, {"op": "frob"})["code"] == "unknown_op"
            assert (
                self.request(service, {"op": "mine", "spec": []})["code"]
                == "bad_request"
            )
            assert (
                self.request(service, {"op": "poll_events", "subscription": "s9"})[
                    "code"
                ]
                == "unknown_subscription"
            )
            assert (
                self.request(service, {"op": "unsubscribe", "subscription": "s9"})[
                    "code"
                ]
                == "unknown_subscription"
            )

    def test_subscribe_poll_unsubscribe_roundtrip(self):
        with GraphService(base_graph()) as service:
            subscribed = self.request(
                service,
                {"op": "subscribe", "spec": {"min_support": 2, "max_nodes": 3}},
            )
            assert subscribed["ok"] and subscribed["kind"] == "threshold"
            sub_id = subscribed["subscription"]
            baseline = {
                entry["certificate"]: AnswerEntry(
                    entry["support"], entry["num_occurrences"], entry["frequent"]
                )
                for entry in subscribed["answer"]
            }
            self.request(
                service, {"op": "update", "updates": [["v", 7, "a"], ["e", 6, 7]]}
            )
            polled = self.request(
                service, {"op": "poll_events", "subscription": sub_id}
            )
            assert polled["ok"] and polled["events"]
            from repro.mining.standing import AnswerEvent

            events = [AnswerEvent.from_payload(p) for p in polled["events"]]
            replayed = replay_answer(baseline, events)
            with service.pin() as snap:
                expected = evaluate_standing(
                    StandingSpec.from_kwargs(
                        kind="threshold", min_support=2, max_nodes=3
                    ),
                    snap.graph,
                )
            assert replayed == expected
            done = self.request(
                service, {"op": "unsubscribe", "subscription": sub_id}
            )
            assert done["ok"]

    def test_push_requires_session(self):
        with GraphService(base_graph()) as service:
            response = self.request(
                service,
                {"op": "subscribe", "spec": {"min_support": 2, "delivery": "push"}},
            )
            assert not response["ok"] and response["code"] == "bad_request"

    def test_push_never_blocks_writer_on_slow_client(self):
        # A client whose socket stays full (write blocks, no exception)
        # must stall only its own sender thread: batch application keeps
        # going, and the bounded notify queue drops oldest frames.
        import threading

        with GraphService(base_graph()) as service:
            lines = []
            stalled = threading.Event()
            gate = threading.Event()

            def slow_write(line):
                stalled.set()
                assert gate.wait(10.0)
                lines.append(line)

            session = ClientSession(service, slow_write, max_queued_notifies=2)
            subscribed = self.request(
                service,
                {
                    "op": "subscribe",
                    "spec": {"min_support": 2, "max_nodes": 3, "delivery": "push"},
                },
                session,
            )
            assert subscribed["ok"]
            # First batch: the sender picks up its frame and blocks in
            # the (simulated full) socket write.
            done = self.request(
                service,
                {"op": "update", "updates": [["v", 70, "a"], ["e", 2, 70]]},
                session,
            )
            assert done["ok"]
            assert stalled.wait(10.0)
            # Three more batches while the sender is wedged: each must
            # apply promptly (a blocked writer would hang this loop), and
            # the two-deep queue drops the oldest overflowing frame.
            for step in range(1, 4):
                done = self.request(
                    service,
                    {
                        "op": "update",
                        "updates": [["v", 70 + step, "a"], ["e", 2, 70 + step]],
                    },
                    session,
                )
                assert done["ok"]
            assert session.notify_drops == 1
            gate.set()
            assert session.flush_notifies(timeout=10.0)
            notifies = [json.loads(line) for line in lines]
            assert all(n["event"] == "notify" for n in notifies)
            # 4 dispatched frames, 1 dropped: the in-flight one plus the
            # newest two survive.
            assert len(notifies) == 3
            session.close()

    def test_session_push_and_disconnect_gc(self):
        with GraphService(base_graph()) as service:
            lines = []
            session = ClientSession(service, lines.append)
            subscribed = self.request(
                service,
                {
                    "op": "subscribe",
                    "spec": {"min_support": 2, "max_nodes": 3, "delivery": "push"},
                },
                session,
            )
            assert subscribed["ok"]
            self.request(
                service,
                {"op": "update", "updates": [["v", 7, "a"], ["e", 6, 7]]},
                session,
            )
            # Push delivery is asynchronous (a per-session sender thread
            # drains the queue); wait for it before inspecting the wire.
            assert session.flush_notifies(timeout=10.0)
            notifies = [json.loads(line) for line in lines]
            notifies = [n for n in notifies if n.get("event") == "notify"]
            assert len(notifies) == 1
            assert notifies[0]["subscription"] == subscribed["subscription"]
            assert notifies[0]["v"] == 1
            assert notifies[0]["events"]
            assert len(service.subscriptions) == 1
            session.close()  # client drop => subscription GC'd
            assert len(service.subscriptions) == 0
