"""Standing-query subscriptions on the graph service writer.

:class:`SubscriptionRegistry` lives on :class:`~repro.service.GraphService`
and turns ``mine-stream`` inside out: clients register
:class:`~repro.mining.standing.StandingSpec` requests once, and after
every applied batch the writer *dispatches* the batch's label-pair
footprint to only the affected subscriptions, re-evaluates just those,
and emits typed :class:`~repro.mining.standing.AnswerEvent` streams
(per-subscription sequence numbers, stamped with the snapshot version
they apply to).

**Routing invariants** (why skipping is sound):

* a *pattern* subscription is unaffected when the batch's touched label
  pairs are disjoint from the pattern's footprint — every occurrence
  gained or lost must map a pattern edge onto a touched data edge
  (``DynamicMiner``'s reuse argument), and the support measures are pure
  functions of the occurrence set;
* a *threshold* subscription watches the label-pair union of its
  currently-frequent patterns.  A deleted pair outside that set only
  shrinks supports of already-infrequent patterns; an inserted pair
  ``p`` outside it can only promote patterns containing ``p``, whose
  support is bounded by ``MNI(single-edge(p)) <= pairs(p) * (2 if
  same-label else 1)`` — anti-monotonicity plus the measure chain
  (every supported measure ``<= sigma_MNI``).  When that cap stays
  below ``min_support``, the batch cannot change the answer.

All registry mutation and dispatch runs on the service's single writer
thread (the service routes ``subscribe``/``unsubscribe`` through the
command queue), so routing state needs no locks; only each
subscription's event queue is shared with poller threads.

Zero subscriptions cost zero: the registry only holds a cursor on the
graph's delta log, and an :class:`~repro.index.delta.IndexMaintainer`
(skip-rule pair counts, pattern evaluation), while at least one
subscription of either kind exists, and :meth:`dispatch` is a
constant-time early exit when none do.  After a maintained writer
refresh that maintainer adopts the writer's patched index in O(1).

The writer's table of maintained specs lives here too: one refcounted
:class:`DynamicMiner` per cache key, for ``maintain=`` and each threshold key.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import ServiceError
from ..graph.labeled_graph import LabeledGraph
from ..index.delta import EdgeAdded, EdgeRemoved, IndexMaintainer
from ..index.graph_index import GraphIndex
from ..mining.dynamic import DynamicMiner, pattern_footprint
from ..mining.results import MiningResult
from ..mining.spec import MiningSpec
from ..mining.standing import (
    Answer,
    AnswerEvent,
    StandingSpec,
    answer_from_result,
    diff_answer,
    evaluate_standing,
)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .cache import ResultCache

logger = logging.getLogger("repro.service.subscriptions")

LabelPair = Tuple

#: Per-subscription pending-event bound: a poller that falls this far
#: behind starts losing its *oldest* events (counted, never silent).
DEFAULT_MAX_PENDING = 4096


class Subscription:
    """One registered standing query and its pending event stream.

    Created by :meth:`SubscriptionRegistry.register` (via
    ``GraphService.subscribe``); hand it back to ``unsubscribe`` when
    done.  :meth:`poll` drains pending events (oldest first) and is the
    only method safe to call from any thread — everything else belongs
    to the writer.
    """

    __slots__ = (
        "id",
        "spec",
        "owner",
        "version",
        "seq",
        "cache_key",
        "footprint",
        "answer",
        "dropped",
        "_push",
        "_events",
        "_lock",
        "_max_pending",
    )

    def __init__(
        self,
        sub_id: str,
        spec: StandingSpec,
        *,
        owner: Optional[str],
        version: int,
        answer: Answer,
        push: Optional[Callable[["Subscription", int, List[AnswerEvent]], None]],
        max_pending: int,
    ) -> None:
        self.id = sub_id
        self.spec = spec
        self.owner = owner
        self.version = version
        self.seq = 0
        self.cache_key = spec.cache_key()
        self.footprint: Optional[FrozenSet[LabelPair]] = spec.footprint()
        self.answer = answer
        self.dropped = 0
        self._push = push
        self._events: deque = deque()
        self._lock = threading.Lock()
        self._max_pending = max_pending

    @property
    def pending(self) -> int:
        """How many events are queued for :meth:`poll`."""
        with self._lock:
            return len(self._events)

    def poll(self, max_events: Optional[int] = None) -> List[AnswerEvent]:
        """Drain up to ``max_events`` pending events (all by default)."""
        with self._lock:
            if max_events is None or max_events >= len(self._events):
                drained = list(self._events)
                self._events.clear()
            else:
                drained = [self._events.popleft() for _ in range(max(0, max_events))]
        return drained

    def answer_snapshot(self) -> Answer:
        """The last dispatched answer state (a copy)."""
        return dict(self.answer)

    def _enqueue(self, events: List[AnswerEvent]) -> int:
        """Queue events for polling; returns how many old ones fell off."""
        dropped = 0
        with self._lock:
            self._events.extend(events)
            while len(self._events) > self._max_pending:
                self._events.popleft()
                dropped += 1
            self.dropped += dropped
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Subscription({self.id!r}, kind={self.spec.kind!r}, "
            f"version={self.version}, pending={self.pending})"
        )


class _ThresholdEvaluator:
    """Shared evaluation state for threshold subscriptions with one key.

    Serves answers cache-first: the writer's maintained refresh (or any
    reader's mine of the same question) lands in the
    :class:`~repro.service.ResultCache` under the same key.  A miss
    refreshes the key's table miner (O(delta); a no-op if the writer
    already did at this version) and caches the result for everyone.

    ``watched`` is the label-pair union of the current frequent
    patterns: the routing set the skip rule above tests against.
    """

    __slots__ = ("spec", "refs", "version", "answer", "watched")

    def __init__(self, spec: StandingSpec) -> None:
        self.spec = spec
        self.refs = 0
        self.version: Optional[int] = None
        self.answer: Answer = {}
        self.watched: FrozenSet[LabelPair] = frozenset()

    def evaluate(self, version: int, cache: ResultCache, refresh) -> Answer:
        """The answer at ``version``; ``refresh(key)`` serves a cache miss."""
        if self.version == version:
            return self.answer
        key = self.spec.cache_key()
        result = cache.get(version, key)
        if result is None:
            result = refresh(key)
            cache.put(version, key, result)
        self.answer = answer_from_result(result)
        self.watched = frozenset().union(
            *(pattern_footprint(fp.pattern) for fp in result.frequent)
        )
        self.version = version
        return self.answer

    def adopt(self, version: int) -> None:
        """Fast-forward to ``version`` with the answer proven unchanged."""
        self.version = version

    def affected_by(
        self,
        inserted: Set[LabelPair],
        removed: Set[LabelPair],
        index: GraphIndex,
    ) -> bool:
        if not inserted.isdisjoint(self.watched):
            return True
        if not removed.isdisjoint(self.watched):
            return True
        threshold = self.spec.min_support
        for pair in inserted:
            cap = index.pair_count(*pair) * (2 if pair[0] == pair[1] else 1)
            if cap >= threshold:
                return True
        return False


class SubscriptionRegistry:
    """The writer-side dispatcher for standing-query subscriptions."""

    def __init__(
        self,
        graph: LabeledGraph,
        cache: ResultCache,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        self._graph = graph
        self._cache = cache
        self._max_pending = max_pending
        self._subs: Dict[str, Subscription] = {}
        self._evaluators: Dict[str, _ThresholdEvaluator] = {}
        # The maintained-spec table: cache key -> (miner, refcount).
        self._maintained: Dict[str, Tuple[DynamicMiner, int]] = {}
        self._next_id = 0
        # Held while any subscription exists (see the module docstring).
        self._cursor = None
        self._index_maintainer: Optional[IndexMaintainer] = None
        registry = _metrics.get_registry()
        registry.gauge("repro_subs_active")
        registry.counter("repro_subs_registered")
        registry.counter("repro_subs_unregistered")
        registry.counter("repro_subs_dispatches")
        registry.counter("repro_subs_dispatch_skipped")
        registry.counter("repro_subs_evaluations")
        registry.counter("repro_subs_events_emitted")
        registry.counter("repro_subs_events_dropped")

    # ------------------------------------------------------------------
    # lifecycle (writer thread only)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._subs)

    def get(self, sub_id: str) -> Optional[Subscription]:
        """The subscription with this id, or ``None``."""
        return self._subs.get(sub_id)

    def register(
        self,
        spec: StandingSpec,
        *,
        version: int,
        push: Optional[Callable] = None,
        owner: Optional[str] = None,
    ) -> Subscription:
        """Register one standing query; returns its live subscription.

        The baseline answer is evaluated at ``version`` (the current
        tip) so the first dispatched events diff against exactly what
        the caller was told on registration.
        """
        if not isinstance(spec, StandingSpec):
            raise ServiceError(
                f"subscriptions take a StandingSpec, got {type(spec).__name__}"
            )
        if spec.delivery == "push" and push is None:
            raise ServiceError("push delivery requires a push callback")
        self._attach()
        self._next_id += 1
        sub_id = f"s{self._next_id}"
        if spec.kind == "threshold":
            evaluator = self._evaluators.get(spec.cache_key())
            if evaluator is None:
                self.acquire(spec.mining_spec())
                evaluator = _ThresholdEvaluator(spec)
                self._evaluators[spec.cache_key()] = evaluator
            evaluator.refs += 1
            answer = evaluator.evaluate(version, self._cache, self.refresh)
        else:
            answer = evaluate_standing(
                spec, self._graph, index=self._index_maintainer.index()
            )
        sub = Subscription(
            sub_id,
            spec,
            owner=owner,
            version=version,
            answer=answer,
            push=push if spec.delivery == "push" else None,
            max_pending=self._max_pending,
        )
        self._subs[sub_id] = sub
        _metrics.counter("repro_subs_registered").inc()
        _metrics.gauge("repro_subs_active").set(len(self._subs))
        return sub

    def unregister(self, sub_id: str) -> bool:
        """Remove one subscription; ``False`` when the id is unknown."""
        sub = self._subs.pop(sub_id, None)
        if sub is None:
            return False
        if sub.spec.kind == "threshold":
            evaluator = self._evaluators[sub.cache_key]
            evaluator.refs -= 1
            if not evaluator.refs:
                del self._evaluators[sub.cache_key]
                self.release(sub.cache_key)
        if not self._subs:
            self._detach()
        _metrics.counter("repro_subs_unregistered").inc()
        _metrics.gauge("repro_subs_active").set(len(self._subs))
        return True

    def drop_owner(self, owner: str) -> int:
        """GC every subscription registered by ``owner`` (client drop)."""
        doomed = [s.id for s in self._subs.values() if s.owner == owner]
        for sub_id in doomed:
            self.unregister(sub_id)
        return len(doomed)

    def close(self) -> None:
        """Drop every subscription, close every maintained miner, detach."""
        for sub_id in list(self._subs):
            self.unregister(sub_id)
        for key in list(self._maintained):  # the service's maintain= entry
            self.release(key)

    def acquire(self, spec: MiningSpec) -> None:
        """Take a reference on ``spec``'s miner; the key's first spec builds it."""
        key = spec.cache_key()
        miner, refs = self._maintained.get(key, (None, 0))
        if miner is None:
            miner = DynamicMiner(self._graph, spec=spec)
        self._maintained[key] = (miner, refs + 1)
        _metrics.gauge("repro_service_maintained_specs").set(len(self._maintained))

    def release(self, key: str) -> None:
        """Drop one reference on ``key``'s miner; the last one closes it."""
        miner, refs = self._maintained.pop(key)
        if refs > 1:
            self._maintained[key] = (miner, refs - 1)
        else:
            miner.close()
        _metrics.gauge("repro_service_maintained_specs").set(len(self._maintained))

    def refresh(self, key: str) -> MiningResult:
        """``key``'s maintained answer at the graph's current version."""
        return self._maintained[key][0].refresh()

    # ------------------------------------------------------------------
    # delta reading + routing (writer thread only)
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        if self._cursor is not None:
            return
        self._cursor = self._graph.cursor()
        self._index_maintainer = IndexMaintainer(self._graph)

    def _detach(self) -> None:
        if self._cursor is None:
            return
        self._cursor.close()
        self._index_maintainer.detach()
        self._cursor = self._index_maintainer = None

    def _touched(self) -> Optional[Tuple[Set[LabelPair], Set[LabelPair]]]:
        """``(inserted_pairs, removed_pairs)`` since the last dispatch.

        ``None`` for a gap in the delta log: treat everything as affected.
        """
        deltas = self._cursor.read()
        if deltas is None:
            return None
        inserted = {d.label_pair() for d in deltas if isinstance(d, EdgeAdded)}
        removed = {d.label_pair() for d in deltas if isinstance(d, EdgeRemoved)}
        return inserted, removed

    # ------------------------------------------------------------------
    # dispatch (writer thread, once per applied batch)
    # ------------------------------------------------------------------
    def dispatch(self, version: int) -> None:
        """Route the last batch's footprint and notify affected subs."""
        if not self._subs:
            return
        with _trace.span("subs.dispatch", version=version, subscriptions=len(self)):
            self._dispatch(version)

    def _dispatch(self, version: int) -> None:
        _metrics.counter("repro_subs_dispatches").inc()
        touched = self._touched()
        index = self._index_maintainer.index()
        if touched is None:
            inserted = removed = None
            touched_pairs = None
        else:
            inserted, removed = touched
            touched_pairs = inserted | removed
        skipped = evaluated = emitted = dropped = 0
        # Threshold subscriptions sharing a cache key share one evaluator,
        # and the first evaluate() of a dispatch advances its ``watched``
        # set to the post-batch frequent patterns.  Routing must test the
        # *pre-batch* watched set for every sub, so the decision is made
        # once per evaluator — before any evaluate() mutates it — and
        # reused by every later sub with the same key.
        threshold_affected: Dict[str, bool] = {}
        for sub in list(self._subs.values()):
            if sub.spec.kind == "pattern":
                affected = touched_pairs is None or not touched_pairs.isdisjoint(
                    sub.footprint
                )
                if not affected:
                    sub.version = version
                    skipped += 1
                    continue
                with _trace.span("subs.evaluate", subscription=sub.id, kind="pattern"):
                    new_answer = evaluate_standing(sub.spec, self._graph, index=index)
            else:
                evaluator = self._evaluators[sub.cache_key]
                affected = threshold_affected.get(sub.cache_key)
                if affected is None:
                    affected = touched_pairs is None or evaluator.affected_by(
                        inserted, removed, index
                    )
                    threshold_affected[sub.cache_key] = affected
                if not affected:
                    evaluator.adopt(version)
                    sub.version = version
                    skipped += 1
                    continue
                with _trace.span(
                    "subs.evaluate", subscription=sub.id, kind="threshold"
                ):
                    new_answer = evaluator.evaluate(version, self._cache, self.refresh)
            evaluated += 1
            events, sub.seq = diff_answer(
                sub.answer,
                new_answer,
                version=version,
                seq_start=sub.seq,
                event_filter=sub.spec.events,
            )
            sub.answer = new_answer
            sub.version = version
            if events:
                emitted += len(events)
                dropped += sub._enqueue(events)
                if sub._push is not None:
                    try:
                        sub._push(sub, version, events)
                    except Exception:  # noqa: BLE001 - a dead client must
                        # never take the writer down; disconnect GC will
                        # reap the subscription.
                        logger.warning(
                            "push delivery for subscription %s failed; "
                            "events remain pollable",
                            sub.id,
                            exc_info=True,
                        )
        if skipped:
            _metrics.counter("repro_subs_dispatch_skipped").inc(skipped)
        if evaluated:
            _metrics.counter("repro_subs_evaluations").inc(evaluated)
        if emitted:
            _metrics.counter("repro_subs_events_emitted").inc(emitted)
        if dropped:
            _metrics.counter("repro_subs_events_dropped").inc(dropped)
