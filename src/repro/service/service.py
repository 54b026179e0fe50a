"""The in-process graph service: one writer, many readers, one cache.

:class:`GraphService` is the single code path behind all three request
surfaces — in-process callers, the ``repro serve`` daemon, and
``mine-stream`` (a thin client of this class):

* **one writer thread** owns the live graph.  Update batches are
  submitted as tickets and applied in order through
  :class:`~repro.mining.dynamic.StreamApplier` (sliding-window rules
  included); after each batch the writer — when a *maintenance spec* is
  configured — refreshes that spec's miner in its one table of
  maintained specs (O(delta) reuse/skip, shared with threshold
  subscriptions on the same key) and caches the result at the new
  version, and only then publishes that version as a new snapshot, so
  readers asking the maintained question are pure cache hits;
* **readers never touch the live graph.**  A mine request pins an
  immutable snapshot from the :class:`SnapshotRegistry`, consults the
  :class:`ResultCache` at the pinned version, and only on a miss runs a
  one-shot mine of the frozen snapshot graph.  Readers never block the
  writer (and the writer never waits for readers);
* results are **byte-identical** to a one-shot ``mine()`` of the graph
  at the pinned version, whichever path produced them: the snapshot
  graph *is* the graph at that version, and the maintained results are
  pinned equal to one-shot results by the dynamic-mining equivalence
  suite.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from queue import SimpleQueue
from typing import Iterator, List, Optional, Sequence

from ..errors import MiningError, ServiceError
from ..graph.labeled_graph import LabeledGraph
from ..mining.dynamic import GraphUpdate, StreamApplier
from ..mining.miner import mine_frequent_patterns
from ..mining.results import MiningResult
from ..mining.spec import DEFAULT_SPEC, MiningSpec
from ..mining.standing import StandingSpec
from ..obs import metrics as _metrics
from .cache import ResultCache
from .snapshots import Snapshot, SnapshotRegistry
from .subscriptions import Subscription, SubscriptionRegistry


@dataclass(frozen=True)
class BatchInfo:
    """What one applied update batch did (an update ticket's result)."""

    version: int
    applied: int
    expired: int
    num_vertices: int
    num_edges: int
    result: Optional[MiningResult] = None


class Ticket:
    """A pending request: poll it, or wait for its result.

    ``poll()`` is non-blocking (``None`` until done), ``wait()`` blocks
    and returns the result — re-raising the worker's exception if the
    request failed.
    """

    __slots__ = ("_event", "_result", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result = None
        self._error: Optional[BaseException] = None

    def _resolve(self, result) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def poll(self):
        """The result if finished, else ``None`` (errors re-raise)."""
        if not self._event.is_set():
            return None
        return self.wait()

    def wait(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise ServiceError(f"request did not complete within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result


class GraphService:
    """A long-running mining service over one live graph.

    Parameters
    ----------
    graph:
        The live data graph.  After construction it belongs to the
        writer: mutate it only via :meth:`submit_updates`.
    maintain:
        Optional :class:`MiningSpec` the writer keeps *maintained*: each
        applied batch refreshes a :class:`DynamicMiner` with this spec
        (stream fields — ``window``, ``batch_size``, ``mode`` — are
        honored by the writer, not the miner) and caches the result at
        the new version.  Without it the service is pure MVCC + cache:
        every first request at a version mines a snapshot.
    cache_size:
        Optional LRU bound on the result cache (entries, not bytes).
    window:
        Optional sliding-window size for the writer's
        :class:`StreamApplier` (defaults to the maintenance spec's
        ``window``, or no expiry without one).
    """

    def __init__(
        self,
        graph: LabeledGraph,
        maintain: Optional[MiningSpec] = None,
        cache_size: Optional[int] = None,
        window: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self._maintain = maintain
        registry = _metrics.get_registry()
        registry.counter("repro_service_batches_applied")
        registry.counter("repro_service_mine_requests")
        registry.gauge("repro_service_maintained_specs")
        self.cache = ResultCache(max_entries=cache_size)
        self.registry = SnapshotRegistry(graph)
        # A fully-released non-tip version can never be requested again
        # (its snapshot is gone) — drop its cache entries with it.
        self.registry.on_evict(self._on_snapshot_evicted)
        self.subscriptions = SubscriptionRegistry(graph, self.cache)
        if window is None and maintain is not None:
            window = maintain.window
        self._applier = StreamApplier(graph, window)
        if maintain is not None:
            try:
                self.subscriptions.acquire(maintain)  # released by stop()
            except MiningError:
                # A spec the miner refuses must not leave the registry
                # subscribed to the caller's graph.
                self.registry.close()
                raise
        self._commands: SimpleQueue = SimpleQueue()
        self._stopped = False
        self._lock = threading.Lock()
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-service-writer", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        while True:
            command = self._commands.get()
            if command is None:
                return
            kind, payload, ticket = command
            try:
                if kind == "batch":
                    ticket._resolve(self._apply_batch(payload))
                elif kind == "subscribe":
                    spec, push, owner = payload
                    ticket._resolve(
                        self.subscriptions.register(
                            spec, version=self.registry.tip, push=push, owner=owner
                        )
                    )
                elif kind == "unsubscribe":
                    ticket._resolve(self.subscriptions.unregister(payload))
                else:  # drop_owner
                    ticket._resolve(self.subscriptions.drop_owner(payload))
            except BaseException as exc:  # noqa: BLE001 - ticket carries it
                ticket._fail(exc)

    def _apply_batch(self, updates: Sequence[GraphUpdate]) -> BatchInfo:
        applied, expired = self._applier.apply_batch(updates)
        result = None
        if self._maintain is not None:
            # Cache the maintained result before the version is published:
            # a reader that pins the new tip must find it, never re-mine.
            key = self._maintain.cache_key()
            result = self.subscriptions.refresh(key)
            self.cache.put(self._graph.mutation_version(), key, result)
        version = self.registry.publish()
        # Version advance is the one invalidation rule: entries for
        # versions nobody can reach anymore (older than tip, unpinned)
        # are dead weight; pinned versions keep their entries.
        pinned = self.registry.pinned_versions()
        self.cache.retain(lambda v: v == version or v in pinned)
        # Standing queries see the batch last, after the maintained
        # result landed in the cache: a threshold subscription to the
        # maintained spec is then a pure cache adoption, never a mine.
        self.subscriptions.dispatch(version)
        _metrics.counter("repro_service_batches_applied").inc()
        return BatchInfo(
            version=version,
            applied=applied,
            expired=expired,
            num_vertices=self._graph.num_vertices,
            num_edges=self._graph.num_edges,
            result=result,
        )

    def _on_snapshot_evicted(self, version: int) -> None:
        # The tip's entries survive pin/release churn (the version is
        # still reachable); a *non-tip* version whose last pin went away
        # can never be requested again, so its entries go with it.
        if version != self.registry.tip:
            self.cache.drop_version(version)

    def submit_updates(self, updates: Sequence[GraphUpdate]) -> Ticket:
        """Queue one update batch for the writer; returns its ticket.

        The ticket resolves to a :class:`BatchInfo` once the writer has
        applied the batch, (with a maintenance spec) refreshed + cached
        the maintained result, and published the new snapshot version.
        """
        return self._submit_command("batch", list(updates))

    def _submit_command(self, kind: str, payload) -> Ticket:
        with self._lock:
            if self._stopped:
                raise ServiceError("the service is stopped")
            ticket = Ticket()
            self._commands.put((kind, payload, ticket))
            return ticket

    def apply_updates(self, updates: Sequence[GraphUpdate]) -> BatchInfo:
        """Submit one batch and wait for it (convenience wrapper)."""
        return self.submit_updates(updates).wait()

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------
    def subscribe(
        self,
        spec: StandingSpec,
        push=None,
        owner: Optional[str] = None,
    ) -> Subscription:
        """Register a standing query; returns its live subscription.

        Routed through the writer's command queue so the baseline answer
        is race-free against in-flight batches: it is evaluated at the
        tip version visible once every earlier batch has dispatched.
        ``push`` (a ``(subscription, version, events)`` callable) is
        required for — and only used with — ``delivery="push"`` specs.
        """
        return self._submit_command("subscribe", (spec, push, owner)).wait()

    def unsubscribe(self, subscription) -> bool:
        """Remove a subscription (object or id); ``False`` if unknown."""
        sub_id = getattr(subscription, "id", subscription)
        return self._submit_command("unsubscribe", sub_id).wait()

    def drop_owner(self, owner: str) -> int:
        """GC every subscription owned by ``owner`` (client disconnect)."""
        return self._submit_command("drop_owner", owner).wait()

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The latest published snapshot version."""
        return self.registry.tip

    @property
    def maintain_spec(self) -> MiningSpec:
        """The spec a spec-less request gets (maintained, or defaults)."""
        return self._maintain if self._maintain is not None else DEFAULT_SPEC

    def pin(self, version: Optional[int] = None) -> Snapshot:
        """Pin a snapshot (tip by default); release it when done."""
        return self.registry.pin(version)

    def mine(
        self,
        spec: Optional[MiningSpec] = None,
        version: Optional[int] = None,
        snapshot: Optional[Snapshot] = None,
    ) -> MiningResult:
        """Answer one mining request at a pinned version, cache-first.

        Runs on the calling thread (use :meth:`submit` for the async
        surface).  The snapshot is pinned *before* the cache lookup so a
        concurrent version advance cannot slip between "cache says miss
        at V" and "mine at V".  Passing an already-pinned ``snapshot``
        skips pinning (and the snapshot stays pinned for the caller).
        """
        if spec is None:
            spec = self.maintain_spec
        if snapshot is not None:
            if version is not None and version != snapshot.version:
                raise ServiceError(
                    f"version {version} contradicts the pinned snapshot "
                    f"(version {snapshot.version})"
                )
            return self._execute(spec, snapshot)
        with self.registry.pin(version) as snap:
            return self._execute(spec, snap)

    def _execute(self, spec: MiningSpec, snap: Snapshot) -> MiningResult:
        _metrics.counter("repro_service_mine_requests").inc()
        key = spec.cache_key()
        cached = self.cache.get(snap.version, key)
        if cached is not None:
            return cached
        result = mine_frequent_patterns(snap.graph, spec=spec)
        self.cache.put(snap.version, key, result)
        return result

    def submit(
        self, spec: Optional[MiningSpec] = None, version: Optional[int] = None
    ) -> Ticket:
        """Async mine request: returns a ticket resolving to the result.

        The snapshot is pinned synchronously (so the request is anchored
        to the version visible *now*), then the mine runs on a reader
        thread — submit/poll/await without ever blocking the writer.
        """
        if spec is None:
            spec = self.maintain_spec
        snap = self.registry.pin(version)
        ticket = Ticket()

        def run() -> None:
            try:
                ticket._resolve(self._execute(spec, snap))
            except BaseException as exc:  # noqa: BLE001 - ticket carries it
                ticket._fail(exc)
            finally:
                snap.release()

        thread = threading.Thread(
            target=run, name=f"repro-service-reader-v{snap.version}", daemon=True
        )
        thread.start()
        return ticket

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> _metrics.MetricsRegistry:
        """The active metrics registry (injectable via ``obs.set_registry``)."""
        return _metrics.get_registry()

    def metrics_snapshot(self) -> dict:
        """The full registry snapshot — the ``metrics`` verb's payload."""
        return self.metrics.snapshot()

    def stats(self) -> dict:
        """Snapshot bookkeeping for the request surface.

        Cache counters are read through :meth:`metrics_snapshot` (the
        ``metrics`` verb), under their ``repro_cache_*`` names.
        """
        return {
            "version": self.registry.tip,
            "pinned_versions": sorted(self.registry.pinned_versions()),
            "maintained": self._maintain is not None,
        }

    def stop(self) -> None:
        """Drain the writer, close every miner and the registry. Idempotent.

        Queued update batches finish first (their tickets resolve);
        anything submitted after stop() raises.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._commands.put(None)
        self._writer.join()
        self.subscriptions.close()
        self.registry.close()

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def stream(
        self, updates: Sequence[GraphUpdate], batch_size: int = 1
    ) -> Iterator[BatchInfo]:
        """Apply ``updates`` in batches, yielding each batch's info."""
        batch: List[GraphUpdate] = []
        for update in updates:
            batch.append(update)
            if len(batch) >= batch_size:
                yield self.apply_updates(batch)
                batch = []
        if batch:
            yield self.apply_updates(batch)
