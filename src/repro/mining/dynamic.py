"""Dynamic frequent-subgraph mining over a growing data graph.

The static miner (:mod:`repro.mining.miner`) answers one question about
one graph snapshot.  :class:`DynamicMiner` maintains the
answer *under a stream of updates*: mutate the data graph, call
:meth:`DynamicMiner.refresh`, and the frequent-pattern set is brought
current — without re-evaluating patterns the updates cannot have touched.

Two observations make that sound for a **mixed insert/delete** stream
under the paper's anti-monotone support measures:

* every occurrence of a pattern ``P`` *gained or lost* by the batch must
  map at least one pattern edge onto an inserted or deleted data edge, so
  the labels of that data edge form a pair in ``P``'s **label-pair
  footprint** — a pattern whose footprint is disjoint from the batch's
  touched pairs (inserted and deleted alike) has an unchanged occurrence
  set, and every measure in this library is a pure function of the
  occurrence set, so its support (and occurrence count) is unchanged;
* a pattern that was *not* frequent before and has an unaffected
  footprint cannot be frequent now: sub-patterns only ever shed edges, so
  an ancestor's footprint is contained in ``P``'s — an unaffected ``P``
  has unaffected ancestors, its whole chain of supports is unchanged, and
  by anti-monotonicity it stays exactly as infrequent as it was.  (This
  is why the miner refuses non-anti-monotone measures.)

So the refresh re-runs the static miner's lattice walk
(:func:`repro.mining.miner._walk` — the same seeds, level batches,
evaluator and extensions) with one per-candidate rule added:
known-frequent + unaffected footprint -> **reuse** the cached result;
unknown + unaffected -> **skip** (provably infrequent); affected -> join
the level's batch and **re-evaluate**.  Deletions can only shrink
supports, so an affected pattern may drop out of the frequent set — and
its pruned descendants may *resurface* after later insertions: the
lattice walk proposes candidates from frequent parents each refresh,
so revival is automatically bounded to the touched footprint
(``stats.patterns_revived`` counts patterns that re-entered the frequent
set on a delta refresh).  The candidates themselves barely change from
one refresh to the next, so the walk replays them from a
:class:`~repro.mining.miner.LatticeMemo` the miner keeps across
refreshes (``stats.extensions_reused`` counts the parents whose
children it replayed) and regenerates only the children of parents the
previous walk did not extend under the current adjacent label pairs.
Results are byte-identical to a from-scratch mine of the current graph
(certificates, supports, occurrence counts — pinned by
``tests/test_dynamic_mining.py``); only the work differs, which
``stats.patterns_reused`` / ``stats.patterns_skipped_unaffected``
report.

The miner reads the graph's delta log through a cursor; a gap (after
:meth:`DynamicMiner.detach`, or a batch past the log's bound) is
answered with a full re-mine.  The data graph's index rides along through an
:class:`~repro.index.delta.IndexMaintainer`, so the ``GraphIndex`` is
patched in O(delta) — insertions and deletions alike — rather than
rebuilt per batch; ``spec.use_index=False`` keeps the brute-force
reference path alive, and rebuild-per-batch via
:func:`repro.mining.miner.mine_frequent_patterns` is the reference mode of
:func:`mine_stream` (CLI: ``repro-graph mine-stream``, including the
sliding-window workload ``--window N`` that expires the oldest live
stream edges).  Both entry points take one
:class:`~repro.mining.spec.MiningSpec` as ``spec=``.  With ``shards=k``
(CLI ``--shards K --partition M``) the stream runs over the partitioned
evaluator: the delta mode keeps one delta-maintained
:class:`~repro.partition.ShardedIndex` alive across the whole stream
while the reference modes re-partition per batch.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import MiningError
from ..graph.labeled_graph import Label, LabeledGraph, normalize_edge
from ..graph.pattern import Pattern
from ..index.delta import EdgeAdded, EdgeRemoved, IndexMaintainer
from ..index.graph_index import _label_pair_key
from ..measures.base import measure_info
from .miner import EVALUATE, LatticeMemo, _make_pool, _Session, _sharded_index, _walk
from .results import FrequentPattern, MiningResult, MiningStats
from .spec import MiningSpec, require_spec

LabelPair = Tuple[Label, Label]

#: A graph update as parsed from an update stream (see
#: :func:`repro.graph.io.parse_update_stream`): ``("v", vertex, label)``,
#: ``("e", u, v)``, ``("de", u, v)`` or ``("dv", vertex)``.
GraphUpdate = Tuple


def apply_update(graph: LabeledGraph, update: GraphUpdate) -> None:
    """Apply one parsed update op to ``graph``."""
    kind = update[0]
    if kind == "v":
        graph.add_vertex(update[1], update[2])
    elif kind == "e":
        graph.add_edge(update[1], update[2])
    elif kind == "de":
        graph.remove_edge(update[1], update[2])
    elif kind == "dv":
        graph.remove_vertex(update[1])
    else:
        raise MiningError(
            f"unknown update kind {kind!r} (expected 'v', 'e', 'de' or 'dv')"
        )


def pattern_footprint(pattern: Pattern) -> FrozenSet[LabelPair]:
    """The canonical label pairs realized by ``pattern``'s edges."""
    graph = pattern.graph
    return frozenset(
        _label_pair_key(graph.label_of(u), graph.label_of(v)) for u, v in graph.edges()
    )


class _MinerResources:
    """Everything a :class:`DynamicMiner` must give back, held *outside* it.

    The index/sharded maintainers and the persistent worker pool
    outlive a miner that is simply dropped on the floor — the pool
    keeps OS processes alive.  Keeping them on a separate object lets a
    ``weakref.finalize`` on the miner call :meth:`release` without
    referencing the miner itself (which would keep it alive forever), so
    constructed-and-abandoned miners cannot leak workers even when
    refresh never ran.

    :meth:`release` is idempotent and re-runnable: each step takes and
    nulls its slot first, so an explicit ``detach()`` followed by the
    finalizer (or a second ``detach()``) is a no-op, and a failure partway
    through releases the rest on the next call.
    """

    __slots__ = ("maintainer", "sharded_maintainer", "pool")

    def __init__(self) -> None:
        self.maintainer = None
        self.sharded_maintainer = None
        self.pool = None

    def release(self) -> None:
        """Detach + shut down everything still held.

        Never waits on in-flight work: this runs on the interrupt path
        and inside GC finalization, where blocking is unacceptable.
        """
        maintainer, self.maintainer = self.maintainer, None
        if maintainer is not None:
            maintainer.detach()
        sharded, self.sharded_maintainer = self.sharded_maintainer, None
        if sharded is not None:
            sharded.detach()
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


class _FootprintRule:
    """The delta refresh's reuse rule for one batch of touched label pairs.

    A candidate whose footprint meets ``delta_pairs`` is evaluated.  An
    unaffected one is reused when the previous refresh found it frequent
    and skipped otherwise — by the module docstring's argument its
    support is unchanged either way.  The lattice walk
    (:func:`repro.mining.miner._walk`) calls the rule per candidate and
    asks :meth:`revived` about every frequent one.
    """

    def __init__(
        self,
        delta_pairs: Set[LabelPair],
        previous: Dict[str, FrequentPattern],
        ever_frequent: Set[str],
        footprints: Dict[str, FrozenSet[LabelPair]],
    ) -> None:
        self._delta_pairs = delta_pairs
        self._previous = previous
        self._ever_frequent = ever_frequent
        self._footprints = footprints

    def __call__(self, pattern: Pattern, certificate: str, stats: MiningStats):
        footprint = self._footprints.get(certificate)
        if footprint is None:
            footprint = self._footprints[certificate] = pattern_footprint(pattern)
        if footprint & self._delta_pairs:
            return EVALUATE
        cached = self._previous.get(certificate)
        if cached is None:
            stats.patterns_skipped_unaffected += 1
        else:
            stats.patterns_reused += 1
        return cached

    def revived(self, certificate: str) -> bool:
        """Frequent again after an earlier refresh pruned it.

        A deletion pushed it out, an insertion brought it back; a pattern
        frequent for the first time is not a revival.
        """
        return certificate not in self._previous and certificate in self._ever_frequent


class DynamicMiner:
    """Maintain the frequent-pattern set of one graph under updates.

    Construct over a live :class:`LabeledGraph`; the miner opens a cursor
    on the graph's delta log.  Mutate the graph freely (directly
    or via :meth:`apply`), then call :meth:`refresh` to get a
    :class:`MiningResult` for the *current* graph.  ``spec`` is the
    same :class:`~repro.mining.spec.MiningSpec` that configures
    :class:`~repro.mining.miner.FrequentSubgraphMiner` (``None`` = the
    defaults); its measure must be anti-monotonic — the delta reuse
    argument depends on it — and the stream fields are ignored.  The
    one-shot-only ``max_occurrences`` is refused: a truncated occurrence
    list is not a pure function of the graph, so the reuse argument
    does not hold for it.

    Each refresh runs the static miner's lattice walk
    (:func:`repro.mining.miner._walk`): a full walk on the first refresh
    and after gaps in the delta log, and otherwise the same walk with the
    label-pair footprint rule (:class:`_FootprintRule`).  What the miner
    owns is what the walk does not: the delta cursor, the maintained
    index and partition, the revival bookkeeping, the lattice memo
    (:class:`~repro.mining.miner.LatticeMemo`) every walk replays and
    refills, and the lifetime of its worker pool.

    With ``use_index=True`` (default) the graph's acceleration index is
    delta-patched between refreshes through an
    :class:`~repro.index.delta.IndexMaintainer`; ``use_index=False`` is
    the brute-force reference path.  With ``shards=k > 1`` the data
    graph additionally rides a delta-maintained
    :class:`~repro.partition.ShardedIndex` (kept current in O(delta) by
    a :class:`~repro.partition.ShardedIndexMaintainer` — no re-partition
    per batch) and every affected candidate evaluates through the
    halo-aware sharded path; results stay byte-identical to the flat
    run.  An optional :class:`~repro.partition.RebalancePolicy`
    (``rebalance=``, a policy object rather than a spec field) lets
    skewed streams trigger shard rebalancing between refreshes.

    ``workers=n > 1`` evaluates each level's affected candidates through
    one **persistent** shard-resident worker pool
    (:class:`~repro.partition.ShardWorkerPool`), started on the first
    refresh: workers keep their shard views across refreshes and the
    parent patches only the views that deltas actually dirtied.  A flat
    spec with ``workers > 1`` is maintained as one shard whose view, the
    whole graph, every worker holds (the session rule of
    :func:`~repro.mining.miner._sharded_index`).  A pool that cannot
    start, or fails mid-refresh, leaves the session serial.
    ``max_resident=N`` bounds how many shards keep halo views in the
    maintained index's view cache (the least recently used shard's views
    are dropped and recomputed on their next use); the bound survives
    policy-triggered re-partitions.
    """

    def __init__(
        self,
        data: LabeledGraph,
        spec: Optional[MiningSpec] = None,
        rebalance=None,
    ) -> None:
        spec = require_spec(spec)
        info = measure_info(spec.measure)
        if not info.anti_monotonic:
            raise MiningError(
                f"measure {spec.measure!r} is not anti-monotonic; dynamic "
                "maintenance relies on anti-monotone pruning and reuse"
            )
        if spec.max_occurrences is not None:
            raise MiningError(
                "max_occurrences is one-shot only: a truncated occurrence "
                "list cannot be maintained under updates (got "
                f"max_occurrences={spec.max_occurrences}); use the "
                "rebuild/brute stream modes"
            )
        self.data = data
        self.spec = spec
        # Every releasable resource lives on ``_resources`` so the
        # finalizer below can give it all back without touching (and
        # thus without keeping alive) the miner itself.
        self._resources = _MinerResources()
        # The pool is started once per session, on the first refresh.
        self._pool_started = False
        if spec.use_index:
            self._maintainer = IndexMaintainer(data)
            self._resources.maintainer = self._maintainer
        else:
            self._maintainer = None
        self._sharded_maintainer = None
        sharded = _sharded_index(data, spec)
        if sharded is not None:
            from ..partition.maintainer import ShardedIndexMaintainer

            self._sharded_maintainer = ShardedIndexMaintainer(
                data, policy=rebalance, sharded=sharded
            )
            self._resources.sharded_maintainer = self._sharded_maintainer
        self._cursor = data.cursor()
        # Abandoned miners (service shutdown, reader exception, plain GC)
        # release everything even if detach()/close() was never called.
        self._finalizer = weakref.finalize(self, self._resources.release)
        self._frequent: Dict[str, FrequentPattern] = {}
        # Certificates that were frequent in *some* earlier refresh; a
        # pattern re-entering the frequent set after deletions pruned it
        # is a revival (stats.patterns_revived), a first appearance not.
        self._ever_frequent: Set[str] = set()
        self._footprints: Dict[str, FrozenSet[LabelPair]] = {}
        # The lattice barely moves between refreshes: each walk replays
        # the seeds and the children of parents the previous one extended.
        self._lattice = LatticeMemo()
        self._synced_version: Optional[int] = None
        self._last_result: Optional[MiningResult] = None

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True while the miner still reads the graph's delta log."""
        return self._cursor.open

    def detach(self) -> None:
        """Stop reading deltas (index and sharded maintainers included).

        Also tears down the persistent worker pool (without waiting —
        detach may run on the interrupt path).  Refreshes after a
        detach-era mutation fall back to a full re-mine — results stay
        correct, only the delta savings are lost.
        """
        self._cursor.close()
        self._resources.release()

    #: Explicit lifecycle alias: a service shutting its miner down reads
    #: better as ``close()`` than ``detach()``; they are the same release.
    close = detach

    def __enter__(self) -> "DynamicMiner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def apply(self, updates: Iterable[GraphUpdate]) -> int:
        """Apply parsed update ops to the graph; returns how many were applied."""
        count = 0
        for update in updates:
            apply_update(self.data, update)
            count += 1
        return count

    def refresh(self) -> MiningResult:
        """Bring the frequent-pattern set current; returns the full result."""
        target = self.data.mutation_version()
        if self._synced_version == target and self._last_result is not None:
            return self._last_result
        deltas = self._cursor.read()
        delta_pairs = None
        if deltas is not None and self._synced_version is not None:
            # Inserted and deleted edges both contribute their pair: any
            # occurrence gained *or* lost must use a touched data edge.
            # Vertex deltas touch no pair — patterns have no isolated
            # nodes, and a VertexRemoved follows its incident EdgeRemoved
            # deltas, which carry the pairs.
            delta_pairs = {
                d.label_pair()
                for d in deltas
                if isinstance(d, (EdgeAdded, EdgeRemoved))
            }
        # Until the walk completes the miner is synced nowhere: a walk
        # that raises leaves the next refresh a full re-mine.
        self._synced_version = None
        result = self._mine(delta_pairs)
        self._frequent = {fp.certificate: fp for fp in result.frequent}
        self._ever_frequent.update(self._frequent)
        self._synced_version = target
        self._last_result = result
        return result

    mine = refresh

    # ------------------------------------------------------------------
    def _mine(self, delta_pairs: Optional[Set[LabelPair]]) -> MiningResult:
        """One lattice walk over the maintained structures."""
        resources = self._resources
        sharded = (
            self._sharded_maintainer.sharded()
            if self._sharded_maintainer is not None
            else None
        )
        if not self._pool_started:
            self._pool_started = True
            resources.pool = _make_pool(self.spec)
        session = _Session(
            self.data,
            self.spec,
            self._maintainer.index() if self._maintainer is not None else None,
            sharded,
            pool=resources.pool,
        )
        rule = None
        if delta_pairs is not None:
            rule = _FootprintRule(
                delta_pairs, self._frequent, self._ever_frequent, self._footprints
            )
        try:
            return _walk(session, rule, self._lattice)
        finally:
            # The evaluator shuts a pool that failed mid-level down and
            # drops it; the session then stays serial.
            resources.pool = session.pool


@dataclass(frozen=True)
class StreamBatch:
    """One step of :func:`mine_stream`: the result after applying a batch."""

    batch: int
    updates_applied: int
    num_vertices: int
    num_edges: int
    result: MiningResult
    edges_expired: int = 0


class _SlidingWindow:
    """Expire the oldest live stream-inserted edges beyond a size cap.

    The window tracks edges inserted *by the stream* (base-graph edges
    never expire) in insertion order.  An explicit ``("de", u, v)`` update
    retires the edge from the window; re-inserting an edge restarts its
    age.  :meth:`expire` removes the oldest live edges from the graph
    until at most ``size`` remain, publishing ordinary ``EdgeRemoved``
    deltas — so the delta-maintained index and miner see window churn as
    plain deletions.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._queue: deque = deque()  # (edge, insertion serial)
        self._live: Dict[Tuple, int] = {}  # edge -> latest insertion serial
        self._expired: set = set()  # expired, not (yet) re-inserted
        self._serial = 0

    def supersedes(self, update: GraphUpdate) -> bool:
        """True when expiry already satisfied this explicit deletion.

        A stream written against the un-windowed replay may delete an
        edge the window expired first; the record is then vacuously done
        (the edge is gone) rather than an error — without this, a valid
        stream could crash mid-replay purely because of the window size.
        """
        return update[0] == "de" and (
            normalize_edge(update[1], update[2]) in self._expired
        )

    def observe(self, update: GraphUpdate) -> None:
        kind = update[0]
        if kind == "e":
            edge = normalize_edge(update[1], update[2])
            self._serial += 1
            self._live[edge] = self._serial
            self._expired.discard(edge)
            self._queue.append((edge, self._serial))
        elif kind == "de":
            edge = normalize_edge(update[1], update[2])
            self._live.pop(edge, None)
            self._expired.discard(edge)
        elif kind == "dv":
            vertex = update[1]
            for edge in [e for e in self._live if vertex in e]:
                del self._live[edge]
            self._expired = {e for e in self._expired if vertex not in e}

    def expire(self, graph: LabeledGraph) -> int:
        expired = 0
        while len(self._live) > self.size:
            edge, serial = self._queue.popleft()
            if self._live.get(edge) == serial:
                del self._live[edge]
                self._expired.add(edge)
                graph.remove_edge(*edge)
                expired += 1
        return expired


class StreamApplier:
    """Apply update-stream records to a graph, window rules included.

    The one implementation of "what a batch of stream records does to the
    graph", shared by :func:`mine_stream`'s reference modes and the
    service writer thread (:mod:`repro.service`) — so windowed expiry,
    superseded deletions, and redundant-insert handling cannot drift
    between the library path and the daemon path.
    """

    def __init__(self, graph: LabeledGraph, window: Optional[int] = None) -> None:
        if window is not None and window < 1:
            raise MiningError("window must be >= 1 (or None for no expiry)")
        self.graph = graph
        self._sliding = _SlidingWindow(window) if window is not None else None

    def apply(self, update: GraphUpdate) -> None:
        """Apply one record (window bookkeeping included, no expiry yet)."""
        sliding = self._sliding
        if sliding is None:
            apply_update(self.graph, update)
            return
        if sliding.supersedes(update):
            sliding.observe(update)  # the record is vacuously done
            return
        # An insertion of an edge the graph already has is an idempotent
        # no-op; the window must not claim it (it belongs to the base
        # graph, or keeps its original age).
        redundant = update[0] == "e" and self.graph.has_edge(update[1], update[2])
        apply_update(self.graph, update)
        if not redundant:
            sliding.observe(update)

    def expire(self) -> int:
        """End-of-batch window expiry; returns how many edges aged out."""
        if self._sliding is None:
            return 0
        return self._sliding.expire(self.graph)

    def apply_batch(self, batch: Sequence[GraphUpdate]) -> Tuple[int, int]:
        """Apply a whole batch then expire; returns (applied, expired)."""
        for update in batch:
            self.apply(update)
        return len(batch), self.expire()


def mine_stream(
    data: LabeledGraph,
    updates: Sequence[GraphUpdate],
    spec: Optional[MiningSpec] = None,
) -> Iterator[StreamBatch]:
    """Mine a live graph: apply ``updates`` in batches, yield per-batch results.

    Updates may mix insertions (``v`` / ``e``) and deletions (``de`` /
    ``dv``).  ``spec`` (``None`` = the defaults) configures both the
    mining question and the replay; ``spec.mode`` selects the
    maintenance strategy:

    * ``"delta"`` — :class:`DynamicMiner` with the delta-maintained index
      (the fast path);
    * ``"rebuild"`` — full re-mine per batch with a freshly rebuilt index
      (reference path);
    * ``"brute"`` — full re-mine per batch with ``use_index=False``
      (brute-force reference path).

    ``shards=k`` runs every mode over the sharded evaluator: the delta
    mode maintains one partition across the whole stream (deltas routed
    to their owning shards, no re-partition), while the reference modes
    re-partition + rebuild per batch — so comparing the two measures
    exactly the cost dynamic partition maintenance avoids.  Results are
    byte-identical to ``shards=1`` in every mode.

    ``workers=n`` is honored by **every** mode — never silently dropped:
    the delta mode evaluates through one persistent shard-resident pool
    across all batches (with ``shards=1``, one whole-graph shard held by
    every worker), and the reference modes pass workers into each
    per-batch mine.
    ``max_resident=N`` likewise rides along to bound how many shards
    keep cached halo views.

    ``window=N`` turns the replay into a **sliding-window** workload: after
    each batch, the oldest live stream-inserted edges are removed until at
    most ``N`` remain (base-graph edges never expire; explicit deletions
    retire an edge from the window, re-insertions restart its age, and a
    ``de`` record for an edge the window already expired is vacuously
    satisfied instead of failing).  Expiry mutates the graph through the
    ordinary ``remove_edge`` path, so every mode sees identical graphs
    and ``StreamBatch.edges_expired`` reports the churn per batch.

    Batch 0 is the base graph before any update; all three modes yield
    byte-identical results per batch (pinned by the test suite).

    The delta mode is a thin client of the in-process
    :class:`~repro.service.GraphService`: batches go to the service's
    single writer thread (which applies them through this module's
    :class:`DynamicMiner` and caches each version's result), so the CLI
    stream, the daemon protocol, and in-process callers all exercise the
    same code path.  The reference modes stay service-free on purpose —
    they are the independent baseline the equivalence suites diff the
    service-mediated path against.
    """
    spec = require_spec(spec)
    if spec.mode == "delta":
        yield from _stream_via_service(data, updates, spec)
        return

    applier = StreamApplier(data, spec.window)

    def evaluate() -> MiningResult:
        from .miner import mine_frequent_patterns

        return mine_frequent_patterns(
            data, spec=spec.replace(use_index=(spec.mode == "rebuild"))
        )

    yield StreamBatch(0, 0, data.num_vertices, data.num_edges, evaluate())
    starts = range(0, len(updates), spec.batch_size)
    for batch_number, start in enumerate(starts, start=1):
        chunk = updates[start : start + spec.batch_size]
        applied, expired = applier.apply_batch(chunk)
        yield StreamBatch(
            batch_number,
            applied,
            data.num_vertices,
            data.num_edges,
            evaluate(),
            expired,
        )


def _stream_via_service(
    data: LabeledGraph, updates: Sequence[GraphUpdate], spec: MiningSpec
) -> Iterator[StreamBatch]:
    """The delta stream as a service client: one writer, ticketed batches."""
    from ..service import GraphService

    service = GraphService(data, maintain=spec)
    try:
        # Batch 0 = an empty batch: the writer publishes the base version
        # and runs (and caches) the initial refresh.
        starts = [None] + list(range(0, len(updates), spec.batch_size))
        for batch_number, start in enumerate(starts):
            chunk = [] if start is None else updates[start : start + spec.batch_size]
            info = service.submit_updates(chunk).wait()
            yield StreamBatch(
                batch_number,
                info.applied,
                info.num_vertices,
                info.num_edges,
                info.result,
                info.expired,
            )
    finally:
        # The service's miner (and its IndexMaintainer) holds cursors on
        # the caller's graph; leave none open once the stream is
        # consumed, abandoned, or fails mid-batch.
        service.stop()
