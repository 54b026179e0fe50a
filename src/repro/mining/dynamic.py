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

So the refresh re-runs the pattern-growth search but, per candidate:
known-frequent + unaffected footprint -> **reuse** the cached result;
unknown + unaffected -> **skip** (provably infrequent); affected ->
re-evaluate through the shared :func:`repro.mining.parallel.evaluate_support`
path.  Deletions can only shrink supports, so an affected pattern may
drop out of the frequent set — and its pruned descendants may *resurface*
after later insertions: the lattice walk regenerates candidates from
frequent parents each refresh, so revival is automatically bounded to the
touched footprint (``stats.patterns_revived`` counts patterns that
re-entered the frequent set on a delta refresh).  Results are
byte-identical to a from-scratch mine of the current graph (certificates,
supports, occurrence counts — pinned by ``tests/test_dynamic_mining.py``);
only the work differs, which ``stats.patterns_reused`` /
``stats.patterns_skipped_unaffected`` report.

Observation gaps (e.g. after :meth:`DynamicMiner.detach`) are answered
with a full re-mine.  The data graph's index rides along through an
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

import math
import weakref
from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import MiningError
from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import Label, LabeledGraph, normalize_edge
from ..graph.pattern import Pattern
from ..index.delta import (
    PATCHABLE_DELTAS,
    AnyDelta,
    EdgeAdded,
    EdgeRemoved,
    IndexMaintainer,
)
from ..index.graph_index import _label_pair_key
from ..measures.base import measure_info
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.logs import get_logger
from .extension import adjacent_label_pairs, all_extensions, single_edge_patterns
from .parallel import evaluate_support
from .results import FrequentPattern, MiningResult, MiningStats
from .spec import MiningSpec, require_spec

_LOG = get_logger("mining.dynamic")

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

    The graph subscription, the index/sharded maintainers, the persistent
    worker pool, and the out-of-core pager all
    outlive a miner that is simply dropped on the floor — the graph keeps
    the observers alive and the pool keeps OS processes alive.  Keeping
    them on a separate object lets a ``weakref.finalize`` on the miner
    call :meth:`release` without referencing the miner itself (which
    would keep it alive forever), so constructed-and-abandoned miners
    cannot leak subscriptions or workers even when refresh never ran.

    :meth:`release` is idempotent and re-runnable: each step takes and
    nulls its slot first, so an explicit ``detach()`` followed by the
    finalizer (or a second ``detach()``) is a no-op, and a failure partway
    through releases the rest on the next call.
    """

    __slots__ = (
        "graph",
        "observer",
        "maintainer",
        "sharded_maintainer",
        "pool",
        "pager",
    )

    def __init__(self) -> None:
        self.graph: Optional[LabeledGraph] = None
        self.observer = None
        self.maintainer = None
        self.sharded_maintainer = None
        self.pool = None
        self.pager = None

    def release(self) -> None:
        """Unsubscribe + detach + shut down everything still held.

        Never waits on in-flight work: this runs on the interrupt path
        and inside GC finalization, where blocking is unacceptable.
        """
        graph, observer = self.graph, self.observer
        self.graph = self.observer = None
        if graph is not None and observer is not None:
            graph.unsubscribe(observer)
        maintainer, self.maintainer = self.maintainer, None
        if maintainer is not None:
            maintainer.detach()
        sharded, self.sharded_maintainer = self.sharded_maintainer, None
        if sharded is not None:
            sharded.detach()
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        pager, self.pager = self.pager, None
        if pager is not None:
            pager.close()


class DynamicMiner:
    """Maintain the frequent-pattern set of one graph under updates.

    Construct over a live :class:`LabeledGraph`; the miner subscribes to
    the graph's mutation-observer hook.  Mutate the graph freely (directly
    or via :meth:`apply`), then call :meth:`refresh` to get a
    :class:`MiningResult` for the *current* graph.  ``spec`` is the
    same :class:`~repro.mining.spec.MiningSpec` that configures
    :class:`~repro.mining.miner.FrequentSubgraphMiner` (``None`` = the
    defaults); its measure must be anti-monotonic — the delta reuse
    argument depends on it — and the one-shot-only ``max_occurrences``
    and stream fields are ignored.

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

    ``workers=n > 1`` (sharded sessions only — the delta path has no
    other task granularity, so flat parallelism would be silently
    dropped; it raises instead) evaluates affected candidates through
    one **persistent** shard-resident worker pool
    (:class:`~repro.partition.ShardWorkerPool`): workers keep their
    shard views across refreshes and the parent re-ships only slices
    that deltas actually dirtied.  ``max_resident=N`` bounds resident
    shard views through an out-of-core
    :class:`~repro.partition.ShardPager` that survives policy-triggered
    re-partitions.
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
        if spec.workers > 1 and spec.shards <= 1:
            # Delta maintenance evaluates one affected candidate at a
            # time; (candidate, shard) tasks are its only parallel
            # granularity.  Refusing beats silently mining serially.
            raise MiningError(
                "workers > 1 requires shards > 1 under delta maintenance "
                f"(got workers={spec.workers}, shards={spec.shards}); use the "
                "rebuild/brute stream modes for flat parallelism"
            )
        self.data = data
        self.spec = spec
        self.measure = spec.measure
        self.min_support = spec.min_support
        self.max_pattern_nodes = spec.max_pattern_nodes
        self.max_pattern_edges = spec.max_pattern_edges
        self.lazy = spec.lazy
        self.use_index = spec.use_index
        self.shards = spec.shards
        self.partition_method = spec.partition_method
        self.workers = spec.workers
        self.max_resident = spec.max_resident
        # Every releasable resource lives on ``_resources`` so the
        # finalizer below can give it all back without touching (and
        # thus without keeping alive) the miner itself.
        self._resources = _MinerResources()
        self._resources.graph = data
        self._pool_failed = False
        if self.use_index:
            self._maintainer = IndexMaintainer(data)
            self._resources.maintainer = self._maintainer
        else:
            self._maintainer = None
        self._sharded_maintainer = None
        if self.shards > 1:
            from ..partition.maintainer import ShardedIndexMaintainer

            self._sharded_maintainer = ShardedIndexMaintainer(
                data, self.shards, self.partition_method, policy=rebalance
            )
            self._resources.sharded_maintainer = self._sharded_maintainer
            if self.max_resident is not None:
                from ..partition.workers import ShardPager

                # Attached now, carried across policy re-partitions by
                # ShardedIndexMaintainer.sharded().
                self._pager = ShardPager(
                    self._sharded_maintainer.sharded(), self.max_resident
                )
        self._buffer: List[AnyDelta] = []
        self._observer = data.subscribe(self._buffer.append)
        self._resources.observer = self._observer
        self._attached = True
        # Abandoned miners (service shutdown, reader exception, plain GC)
        # release everything even if detach()/close() was never called.
        self._finalizer = weakref.finalize(self, self._resources.release)
        self._frequent: Dict[str, FrequentPattern] = {}
        # Certificates that were frequent in *some* earlier refresh; a
        # pattern re-entering the frequent set after deletions pruned it
        # is a revival (stats.patterns_revived), a first appearance not.
        self._ever_frequent: Set[str] = set()
        self._footprints: Dict[str, FrozenSet[LabelPair]] = {}
        # Candidate generation re-creates literally identical pattern
        # objects every refresh; their canonical certificates are the
        # single biggest recurring cost of the lattice walk, so memoize
        # them across refreshes keyed by the (hashable) graph signature.
        self._certificates: Dict[Tuple, str] = {}
        self._synced_version: Optional[int] = None
        self._last_result: Optional[MiningResult] = None

    # ------------------------------------------------------------------
    # The pool and pager live on _resources (so the finalizer can release
    # them); these properties keep the miner's own code — and tests that
    # reach for miner._pool — unchanged.
    @property
    def _pool(self):
        return self._resources.pool

    @_pool.setter
    def _pool(self, value) -> None:
        self._resources.pool = value

    @property
    def _pager(self):
        return self._resources.pager

    @_pager.setter
    def _pager(self, value) -> None:
        self._resources.pager = value

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True while the miner still observes the graph's mutations."""
        return self._attached

    def detach(self) -> None:
        """Stop observing (index and sharded maintainers included).

        Also tears down the persistent worker pool (without waiting —
        detach may run on the interrupt path) and closes the out-of-core
        pager.  Refreshes after a detach-era mutation fall back to a full
        re-mine — results stay correct, only the delta savings are lost.
        """
        self._attached = False
        self._resources.release()

    #: Explicit lifecycle alias: a service shutting its miner down reads
    #: better as ``close()`` than ``detach()``; they are the same release.
    close = detach

    def __enter__(self) -> "DynamicMiner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    @property
    def _lazy_cap(self) -> int:
        return max(1, math.ceil(self.min_support))

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
        delta_pairs = self._consume_deltas(target)
        result = self._mine(delta_pairs)
        self._frequent = {fp.certificate: fp for fp in result.frequent}
        self._ever_frequent.update(self._frequent)
        self._synced_version = target
        self._last_result = result
        return result

    mine = refresh

    # ------------------------------------------------------------------
    def _consume_deltas(self, target: int) -> Optional[Set[LabelPair]]:
        """Canonical label pairs touched since the last refresh.

        Inserted and deleted edges both contribute their pair: any
        occurrence gained *or* lost must use a touched data edge.  Vertex
        deltas touch no pair — an added or removed isolated vertex cannot
        appear in any occurrence (patterns have no isolated nodes), and a
        ``VertexRemoved`` is always preceded by its incident
        ``EdgeRemoved`` deltas, which carry the pairs.

        ``None`` means "treat everything as affected" — first refresh, an
        unknown delta kind, or any gap in observation (detached, or a
        buffer that cannot replay the version counter contiguously).
        """
        # The subscribed observer is this list's bound .append — clear in
        # place, never swap the list out from under it.
        buffer = list(self._buffer)
        self._buffer.clear()
        synced = self._synced_version
        if synced is None or not self._attached:
            return None
        deltas = [d for d in buffer if d.version > synced]
        if not deltas:
            # Version moved but nothing observed: a gap; re-mine fully.
            return None if synced != target else set()
        if deltas[0].version != synced + 1 or deltas[-1].version != target:
            return None
        if any(b.version != a.version + 1 for a, b in zip(deltas, deltas[1:])):
            return None
        if not all(isinstance(d, PATCHABLE_DELTAS) for d in deltas):
            return None
        return {
            d.label_pair() for d in deltas if isinstance(d, (EdgeAdded, EdgeRemoved))
        }

    def _certificate(self, pattern: Pattern) -> str:
        key = pattern.graph.signature()
        certificate = self._certificates.get(key)
        if certificate is None:
            certificate = canonical_certificate(pattern.graph)
            self._certificates[key] = certificate
        return certificate

    def _footprint(self, pattern: Pattern, certificate: str) -> FrozenSet[LabelPair]:
        cached = self._footprints.get(certificate)
        if cached is None:
            cached = pattern_footprint(pattern)
            self._footprints[certificate] = cached
        return cached

    # ------------------------------------------------------------------
    def _ensure_pool(self, sharded) -> None:
        """Start the session's :class:`ShardWorkerPool` if it should run.

        One pool serves every refresh of the session (``_pool`` stays
        ``None`` for serial sessions).  A spawn failure degrades the whole
        session to serial — results are identical either way.
        """
        if (
            self.workers <= 1
            or sharded is None
            or self._pool_failed
            or self._pool is not None
        ):
            return
        try:
            from ..partition.workers import ShardWorkerPool

            self._pool = ShardWorkerPool(
                self.workers,
                measure=self.measure,
                lazy=self.lazy,
                lazy_cap=self._lazy_cap,
                use_index=self.use_index,
                depth=max(0, self.max_pattern_nodes - 2),
            )
        except (OSError, ValueError) as exc:
            _LOG.warning(
                "could not start the shard worker pool (%s); the "
                "session evaluates serially from here on",
                exc,
            )
            _metrics.counter("repro_pool_serial_fallbacks").inc()
            self._pool_failed = True

    def _drop_pool(self) -> None:
        """A pool-infrastructure failure: go serial for good."""
        _LOG.warning(
            "shard runner failed mid-refresh; affected candidates re-evaluate "
            "serially and the session stays serial"
        )
        _metrics.counter("repro_pool_serial_fallbacks").inc()
        self._pool_failed = True
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _evaluate(
        self,
        pattern: Pattern,
        certificate: str,
        delta_pairs: Optional[Set[LabelPair]],
        histogram: Dict,
        stats: MiningStats,
        sharded=None,
    ) -> Optional[FrequentPattern]:
        """One candidate: reuse, skip (returns ``None``), or evaluate."""
        if delta_pairs is not None and not (
            self._footprint(pattern, certificate) & delta_pairs
        ):
            cached = self._frequent.get(certificate)
            if cached is not None:
                stats.patterns_reused += 1
                return cached
            stats.patterns_skipped_unaffected += 1
            return None
        stats.patterns_evaluated += 1
        stats.support_calls += 1
        outcome = None
        if sharded is not None and self._pool is not None:
            outcome = self._evaluate_pooled(pattern, sharded, histogram)
        if outcome is not None:
            support, num_occurrences = outcome
        elif sharded is not None:
            from ..partition.evaluate import sharded_evaluate_support

            support, num_occurrences = sharded_evaluate_support(
                pattern,
                sharded,
                self.measure,
                lazy=self.lazy,
                lazy_cap=self._lazy_cap,
                max_occurrences=None,
                index_arg=None if self.use_index else False,
                histogram=histogram,
                prune_below=self.min_support,
            )
        else:
            support, num_occurrences = evaluate_support(
                pattern,
                self.data,
                self.measure,
                lazy=self.lazy,
                lazy_cap=self._lazy_cap,
                max_occurrences=None,
                index_arg=None if self.use_index else False,
                histogram=histogram,
                prune_below=self.min_support,
            )
        if num_occurrences >= 0:
            stats.occurrence_enumerations += 1
        return FrequentPattern(
            pattern=pattern,
            support=support,
            certificate=certificate,
            num_occurrences=num_occurrences,
        )

    def _evaluate_pooled(
        self, pattern: Pattern, sharded, histogram: Dict
    ) -> Optional[Tuple[float, int]]:
        """One affected candidate through the shard runner.

        Plans/merges through the same :func:`pooled_outcomes` path as
        static pooled mining, so the outcome is byte-identical to the
        serial ``sharded_evaluate_support`` call it replaces.  Pool
        infrastructure failures return ``None`` (caller re-evaluates
        serially) and drop the runner for the rest of the session.
        """
        from concurrent.futures import BrokenExecutor

        from ..partition.workers import pooled_outcomes

        def flat_evaluate(p: Pattern) -> Tuple[float, int]:
            return evaluate_support(
                p,
                self.data,
                self.measure,
                lazy=self.lazy,
                lazy_cap=self._lazy_cap,
                max_occurrences=None,
                index_arg=None if self.use_index else False,
                histogram=histogram,
                prune_below=self.min_support,
            )

        try:
            return pooled_outcomes(
                [pattern],
                sharded,
                self._pool,
                measure=self.measure,
                lazy=self.lazy,
                lazy_cap=self._lazy_cap,
                max_occurrences=None,
                flat_evaluate=flat_evaluate,
                histogram=histogram,
                prune_below=self.min_support,
            )[0]
        except (OSError, BrokenExecutor):
            self._drop_pool()
            return None

    def _mine(self, delta_pairs: Optional[Set[LabelPair]]) -> MiningResult:
        """Pattern-growth closure with per-candidate reuse/skip/evaluate."""
        from .miner import record_session_metrics

        index = self._maintainer.index() if self._maintainer is not None else None
        sharded = (
            self._sharded_maintainer.sharded()
            if self._sharded_maintainer is not None
            else None
        )
        self._ensure_pool(sharded)
        label_pairs = adjacent_label_pairs(self.data, index=index)
        histogram = (
            index.label_histogram()
            if index is not None
            else self.data.label_histogram()
        )
        stats = MiningStats()
        frequent: List[FrequentPattern] = []
        seen: Set[str] = set()
        levels = 0

        with _trace.span(
            "mine",
            dynamic=True,
            delta=delta_pairs is not None,
            measure=self.measure,
            min_support=self.min_support,
            shards=self.shards,
            workers=self.workers,
        ) as mine_span:
            level: List[Tuple[Pattern, str]] = []
            with _trace.span("seeds") as seed_span:
                for seed in single_edge_patterns(self.data, index=index):
                    stats.patterns_generated += 1
                    certificate = self._certificate(seed)
                    if certificate in seen:
                        stats.duplicates_skipped += 1
                        continue
                    seen.add(certificate)
                    level.append((seed, certificate))
                seed_span.set(seeds=len(level))

            while level:
                levels += 1
                frequent_before = stats.patterns_frequent
                pruned_before = stats.patterns_pruned
                reused_before = stats.patterns_reused
                skipped_before = stats.patterns_skipped_unaffected
                with _trace.span(
                    "level", level=levels, candidates=len(level)
                ) as level_span:
                    next_level: List[Tuple[Pattern, str]] = []
                    for pattern, certificate in level:
                        evaluated = self._evaluate(
                            pattern,
                            certificate,
                            delta_pairs,
                            histogram,
                            stats,
                            sharded,
                        )
                        if evaluated is None:
                            continue
                        if evaluated.support >= self.min_support:
                            stats.patterns_frequent += 1
                            if (
                                delta_pairs is not None
                                and certificate not in self._frequent
                                and certificate in self._ever_frequent
                            ):
                                # Frequent again after an earlier refresh
                                # pruned it — a deletion pushed it out, an
                                # insertion revived it.
                                stats.patterns_revived += 1
                            frequent.append(evaluated)
                            for extension in all_extensions(
                                pattern,
                                label_pairs,
                                max_nodes=self.max_pattern_nodes,
                                max_edges=self.max_pattern_edges,
                            ):
                                stats.patterns_generated += 1
                                ext_certificate = self._certificate(extension)
                                if ext_certificate in seen:
                                    stats.duplicates_skipped += 1
                                    continue
                                seen.add(ext_certificate)
                                next_level.append((extension, ext_certificate))
                        else:
                            stats.patterns_pruned += 1
                    level_span.set(
                        frequent=stats.patterns_frequent - frequent_before,
                        pruned=stats.patterns_pruned - pruned_before,
                        reused=stats.patterns_reused - reused_before,
                        skipped=stats.patterns_skipped_unaffected
                        - skipped_before,
                    )
                level = next_level

            frequent.sort(key=lambda fp: (fp.num_edges, -fp.support, fp.certificate))
            mine_span.set(levels=levels, frequent=len(frequent))
        record_session_metrics(stats, levels)
        return MiningResult(
            frequent=frequent,
            stats=stats,
            measure=self.measure,
            min_support=self.min_support,
        )


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
    across all batches (requires ``shards > 1``; it raises otherwise),
    and the reference modes pass workers into each per-batch mine.
    ``max_resident=N`` likewise rides along to bound resident shard
    views out-of-core.

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
        # The service's miner (and its IndexMaintainer) subscribed to the
        # caller's graph; leave no observers behind once the stream is
        # consumed, abandoned, or fails mid-batch.
        service.stop()
