"""Frequent-subgraph miner for a single large graph.

A pattern-growth (gSpan/GraMi-flavored) search:

1. seed with every distinct one-edge pattern occurring in the data graph;
2. repeatedly take a frequent pattern and generate its one-edge extensions
   (forward = new node, backward = close a cycle), deduplicated by
   canonical certificate;
3. evaluate the configured support measure; extensions below the threshold
   are pruned and — because every measure the paper proposes is
   **anti-monotonic** — pruning is *safe*: no frequent superpattern can hide
   behind an infrequent subpattern.

The search is organized **level-synchronously** (all candidates with k+1
edges are generated from the level-k survivors, deduplicated, then
evaluated as a batch).  Seeds are all one-edge patterns and each
extension adds exactly one edge, so the levels are the pattern sizes;
the per-level batches are what parallel support evaluation
(``workers > 1``) farms out while keeping results identical.

This module holds the **one lattice walk** (:func:`_walk`) and its one
evaluator (:meth:`_Session.evaluate`: flat candidates serially; sharded
ones through the one sharded evaluator,
:func:`repro.partition.workers.pooled_outcomes`, in process or on the
shard-resident pool; with one pool-failure fallback).  A pooled session
is always sharded: with ``shards=1`` it runs as one shard whose
whole-graph view every worker holds (:func:`_sharded_index`).
:class:`FrequentSubgraphMiner` runs the walk over one graph
snapshot; :class:`~repro.mining.dynamic.DynamicMiner` runs the same walk
with a per-candidate reuse rule (its label-pair footprint test) and a
:class:`LatticeMemo` that replays the previous walk's candidates, to
keep the answer current under updates.

Every run is configured by one :class:`~repro.mining.spec.MiningSpec`
passed as ``spec=`` — the only way in; field names below refer to it.
The data graph's :class:`~repro.index.GraphIndex` is built **once per
mining session** and reused across every candidate evaluation (and every
worker builds its own copy exactly once); ``use_index=False`` selects the
brute-force reference path the equivalence tests compare against.

The support measure is pluggable (any name registered in
:mod:`repro.measures`); using a non-anti-monotonic measure (e.g. raw
occurrence count) makes pruning heuristic, which the miner flags via
``MiningError`` unless ``allow_non_anti_monotonic=True``.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import MiningError
from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import LabeledGraph
from ..graph.pattern import Pattern
from ..index.graph_index import GraphIndex, get_index
from ..measures.base import measure_info
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.logs import get_logger
from .extension import adjacent_label_pairs, all_extensions, single_edge_patterns
from .results import FrequentPattern, MiningResult, MiningStats
from .spec import MiningSpec, require_spec

_LOG = get_logger("mining.miner")

#: A reuse rule's verdict for a candidate the walk must evaluate (see
#: :func:`_walk`).
EVALUATE = object()


def record_session_metrics(stats: MiningStats, levels: int) -> None:
    """Flush one mining session's counters onto the active registry.

    Called once at session end (never per candidate — the hot loop pays
    nothing) by the lattice walk; zero-valued counters still register,
    so every ``repro_miner_*`` name appears in snapshots from the first
    session on.
    """
    registry = _metrics.get_registry()
    registry.counter("repro_miner_sessions").inc()
    registry.counter("repro_miner_levels").inc(levels)
    # Declared here (not in the pool) so the name exists even when no
    # pool was ever constructed; incremented at the fallback sites.
    registry.counter("repro_pool_serial_fallbacks")
    # Declared here because pooled evaluation runs the matchers inside
    # worker processes: the counters are per-process, and the parent's
    # snapshot must still carry the names.
    registry.counter("repro_match_vf2_calls")
    registry.counter("repro_match_anchored_searches")
    for name, value in stats.as_dict().items():
        registry.counter(f"repro_miner_{name}").inc(value)


def _lazy_cap(min_support: float) -> int:
    """Ceiling of the (possibly fractional) threshold for lazy mode."""
    return max(1, math.ceil(min_support))


def _halo_depth(spec: MiningSpec) -> int:
    """The sharded session's one view depth: exhaustive for every pattern
    of at most ``max_pattern_nodes`` nodes."""
    return max(0, spec.max_pattern_nodes - 2)


def _sharded_index(data: LabeledGraph, spec: MiningSpec):
    """The session's :class:`~repro.partition.ShardedIndex`, or None (flat).

    The one rule for when a session is sharded: ``shards`` shards when
    ``shards > 1``; one shard when ``workers > 1``, so a flat pooled
    session runs on the shard-resident pool as a whole-graph view
    replicated to every worker; otherwise flat.  The one-shard index
    uses the ``hash`` partitioner whatever ``partition_method`` says
    (a flat spec's method is never validated).
    """
    if spec.shards > 1:
        shards, method = spec.shards, spec.partition_method
    elif spec.workers > 1:
        shards, method = 1, "hash"
    else:
        return None
    from ..partition.sharded_index import ShardedIndex

    return ShardedIndex.build(data, shards, method, spec.max_resident)


def _make_pool(spec: MiningSpec):
    """The session's worker pool, or None (serial).

    This is the one place a
    :class:`~repro.partition.workers.ShardWorkerPool` is built, and the
    only pool there is: every pooled session is sharded
    (:func:`_sharded_index`).  A construction failure degrades to the
    serial path, which produces identical results; the degrade path for
    workers that die later is :meth:`_Session.evaluate`.
    """
    if spec.workers <= 1:
        return None
    from ..partition.workers import ShardWorkerPool

    try:
        return ShardWorkerPool(
            spec.workers,
            measure=spec.measure,
            lazy=spec.lazy,
            lazy_cap=_lazy_cap(spec.min_support),
            use_index=spec.use_index,
        )
    except (OSError, ValueError) as exc:
        # Restricted environments (no usable start method, no
        # /dev/shm): degrade to the serial path, which produces
        # identical results.
        _LOG.warning("could not start the worker pool (%s); mining serially", exc)
        _metrics.counter("repro_pool_serial_fallbacks").inc()
        return None


class _Session:
    """One walk's inputs and the one evaluator that reads them.

    ``index`` and ``sharded`` are the caller's structures for ``data``
    (rebuilt per graph version by the static miner, delta-maintained by
    the dynamic one); ``pool`` is the caller's worker pool or ``None``.
    Every sharded batch — serial, pooled, or re-evaluated after a pool
    failure — goes through one :func:`~repro.partition.workers.pooled_outcomes`
    call with ``pool`` as its runner (``None`` = in process).
    :meth:`evaluate` drops a pool that fails mid-level, so the caller
    reads ``pool`` back after the walk.
    """

    def __init__(
        self,
        data: LabeledGraph,
        spec: MiningSpec,
        index: Optional[GraphIndex],
        sharded=None,
        pool=None,
    ) -> None:
        self.data = data
        self.spec = spec
        self.index = index
        self.sharded = sharded
        self.pool = pool
        self.label_pairs = adjacent_label_pairs(data, index=index)
        self._index_arg = None if spec.use_index else False
        self._common = dict(
            lazy=spec.lazy,
            lazy_cap=_lazy_cap(spec.min_support),
            max_occurrences=spec.max_occurrences,
            histogram=(index if index is not None else data).label_histogram(),
            prune_below=spec.min_support,
        )

    def _flat(self, pattern: Pattern) -> Tuple[float, int]:
        from .parallel import evaluate_support

        return evaluate_support(
            pattern,
            self.data,
            self.spec.measure,
            index_arg=self._index_arg,
            **self._common,
        )

    def _outcomes(self, patterns: List[Pattern]) -> List[Tuple[float, int]]:
        if self.sharded is None:
            return [self._flat(pattern) for pattern in patterns]
        from ..partition.workers import pooled_outcomes

        return pooled_outcomes(
            patterns,
            self.sharded,
            self.pool,
            measure=self.spec.measure,
            depth=_halo_depth(self.spec),
            flat_evaluate=self._flat,
            use_index=self.spec.use_index,
            **self._common,
        )

    def evaluate(
        self, batch: Sequence[Tuple[Pattern, str]], stats: MiningStats
    ) -> List[FrequentPattern]:
        """Evaluate one level's batch of candidates, results in batch order.

        A sharded session (pooled sessions included, see
        :func:`_sharded_index`) sends the whole batch through one
        :func:`~repro.partition.workers.pooled_outcomes` call — the one
        sharded evaluator, whose runner is the shard-resident pool or,
        without a pool, the planner itself in process.  A flat session
        evaluates it serially.  A pool-infrastructure failure (a worker
        killed, a pipe broken) raises
        :class:`~repro.partition.workers.WorkerPoolError`, an
        ``OSError``: the pool is shut down without waiting, ``pool`` set
        to ``None``, and the batch re-evaluated through the same call
        without it, so the rest of the run stays serial.  Evaluation is
        pure, so the retry changes nothing but wall-clock time.
        """
        if not batch:
            return []
        patterns = [pattern for pattern, _ in batch]
        try:
            outcomes = self._outcomes(patterns)
        except OSError as exc:
            if self.pool is None:
                raise
            _LOG.warning(
                "worker pool failed mid-level (%s); re-evaluating the "
                "level serially and staying serial for this run",
                exc,
            )
            _metrics.counter("repro_pool_serial_fallbacks").inc()
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None
            outcomes = self._outcomes(patterns)
        results = []
        for (pattern, certificate), (support, num_occurrences) in zip(batch, outcomes):
            stats.support_calls += 1
            if num_occurrences >= 0:
                stats.occurrence_enumerations += 1
            results.append(
                FrequentPattern(
                    pattern=pattern,
                    support=support,
                    certificate=certificate,
                    num_occurrences=num_occurrences,
                )
            )
        return results


class LatticeMemo:
    """The candidate lattice of the last walk, replayed by the next one.

    Under updates the lattice barely moves between refreshes, and the
    children :func:`all_extensions` yields for a parent depend only on
    the parent's content and the data graph's adjacent label pairs (the
    size caps are fixed per miner).  So a maintained miner keeps one memo
    across refreshes and hands it to every :func:`_walk`.  For the label
    pairs of its last walk it stores

    * the seed list, as ``(pattern, certificate)`` pairs, and
    * for each extended parent certificate, the parent pattern and its
      ordered ``(child, certificate)`` list; a child that was a duplicate
      when it was recorded is stored as its certificate only
      (``child`` is ``None``).

    A walk replays a parent's entry (:meth:`children`) when the survivor
    is the stored parent object or equals it (same vertex ids, labels and
    edges), and every certificate-only child is still a duplicate at the
    point it is proposed; otherwise it regenerates the children through
    :func:`all_extensions`, the one child generator, and certifies them
    through :meth:`certify`.  Replayed candidates are the very objects an
    earlier walk generated, so the hit path neither copies a graph nor
    takes a signature.

    :meth:`begin` drops everything when the label-pair set changed.  A
    walk records the entries it touches in a fresh table that replaces
    the stored one only in :meth:`commit`, so the memo keeps just what
    the latest complete walk touched, and a walk that raises leaves the
    previous walk's entries in place.
    """

    __slots__ = ("seeds", "_label_pairs", "_entries", "_touched", "_certificates")

    def __init__(self) -> None:
        self._label_pairs: Optional[FrozenSet] = None
        self.seeds: Optional[List[Tuple[Pattern, str]]] = None
        self._entries: Dict[str, Tuple[Pattern, list]] = {}
        self._touched: Dict[str, Tuple[Pattern, list]] = {}
        # Miss-path certificates by graph signature; they do not depend on
        # the label pairs, so they outlive a label-pair change.
        self._certificates: Dict[Tuple, str] = {}

    def begin(self, label_pairs) -> None:
        """Start a walk over a data graph with these adjacent label pairs."""
        if label_pairs != self._label_pairs:
            self._label_pairs = frozenset(label_pairs)
            self.seeds = None
            self._entries = {}
        self._touched = {}

    def certify(self, graph: LabeledGraph) -> str:
        """``graph``'s canonical certificate, memoized by its signature."""
        key = graph.signature()
        certificate = self._certificates.get(key)
        if certificate is None:
            certificate = self._certificates[key] = canonical_certificate(graph)
        return certificate

    def children(self, parent: Pattern, certificate: str, seen) -> Optional[list]:
        """The stored children of ``parent`` if the walk may replay them.

        ``seen`` holds the certificates proposed so far in the walk.
        ``None`` means regenerate: no entry, an entry for different
        content, or a certificate-only child that would not be a
        duplicate where it is proposed.
        """
        entry = self._entries.get(certificate)
        if entry is None:
            return None
        stored, children = entry
        if stored is not parent and stored != parent:
            return None
        added = set()
        for child, child_certificate in children:
            if child_certificate in seen or child_certificate in added:
                continue
            if child is None:
                return None
            added.add(child_certificate)
        return children

    def keep(self, certificate: str, parent: Pattern, children: list) -> None:
        """Record the children the current walk proposed for ``parent``."""
        self._touched[certificate] = (parent, children)

    def commit(self, seen) -> None:
        """End a complete walk: keep its entries and the certificates it saw.

        ``seen`` is every certificate the walk proposed.  The certificate
        memo is pruned to the signatures whose certificates are in
        ``seen`` only once it holds more than ``2 * len(seen)``
        signatures.  So after every commit it holds at most that many,
        or only signatures of certificates the walk saw, and a warm
        refresh over a steady lattice rebuilds nothing.
        """
        self._entries, self._touched = self._touched, {}
        if len(self._certificates) > 2 * len(seen):
            self._certificates = {
                key: certificate
                for key, certificate in self._certificates.items()
                if certificate in seen
            }


def _walk(
    session: _Session, reuse=None, memo: Optional[LatticeMemo] = None
) -> MiningResult:
    """The lattice walk: seed, evaluate each level as one batch, extend.

    ``reuse`` is an optional per-candidate rule.  ``reuse(pattern,
    certificate, stats)`` returns :data:`EVALUATE` for a candidate the
    walk must evaluate, a cached :class:`FrequentPattern` to keep
    unevaluated, or ``None`` to drop the candidate as provably
    infrequent (the rule counts its own reuses and skips on ``stats``);
    ``reuse.revived(certificate)`` tells whether a frequent candidate
    re-entered the frequent set.  Without a rule every candidate is
    evaluated.  Frequent candidates — evaluated or kept — are extended
    in level order, so the walk visits the same lattice either way.

    ``memo`` is an optional :class:`LatticeMemo` carried across walks: it
    replays the seeds and the children of parents an earlier walk
    extended instead of regenerating them.  The candidates, their order
    and every counter but ``extensions_reused`` are the same with or
    without it.
    """
    spec = session.spec
    stats = MiningStats()
    frequent: List[FrequentPattern] = []
    seen: set = set()
    levels = 0
    if memo is None:
        certify = canonical_certificate
    else:
        memo.begin(session.label_pairs)
        certify = memo.certify

    def propose(pattern: Pattern, certificate: str, into) -> bool:
        """Add a new candidate to ``into``; False for a duplicate."""
        stats.patterns_generated += 1
        if certificate in seen:
            stats.duplicates_skipped += 1
            return False
        seen.add(certificate)
        into.append((pattern, certificate))
        return True

    def extend(pattern: Pattern, certificate: str, into) -> None:
        children = None if memo is None else memo.children(pattern, certificate, seen)
        if children is not None:
            stats.extensions_reused += 1
            for child, child_certificate in children:
                propose(child, child_certificate, into)
        else:
            children = []
            for child in all_extensions(
                pattern,
                session.label_pairs,
                max_nodes=spec.max_pattern_nodes,
                max_edges=spec.max_pattern_edges,
            ):
                child_certificate = certify(child.graph)
                if not propose(child, child_certificate, into):
                    child = None
                children.append((child, child_certificate))
        if memo is not None:
            memo.keep(certificate, pattern, children)

    with _trace.span(
        "mine",
        delta=reuse is not None,
        measure=spec.measure,
        min_support=spec.min_support,
        shards=spec.shards,
        workers=spec.workers,
    ) as mine_span:
        level: List[Tuple[Pattern, str]] = []
        with _trace.span("seeds") as seed_span:
            seeds = memo.seeds if memo is not None else None
            if seeds is None:
                seeds = [
                    (seed, certify(seed.graph))
                    for seed in single_edge_patterns(session.data, index=session.index)
                ]
                if memo is not None:
                    memo.seeds = seeds
            for seed, certificate in seeds:
                propose(seed, certificate, level)
            seed_span.set(seeds=len(level))

        while level:
            levels += 1
            before = stats.as_dict()
            with _trace.span(
                "level", level=levels, candidates=len(level)
            ) as level_span:
                with _trace.span("evaluate", candidates=len(level)):
                    if reuse is None:
                        kept = [EVALUATE] * len(level)
                    else:
                        kept = [reuse(*candidate, stats) for candidate in level]
                    pending = [
                        i for i, verdict in enumerate(kept) if verdict is EVALUATE
                    ]
                    stats.patterns_evaluated += len(pending)
                    results = session.evaluate([level[i] for i in pending], stats)
                    for i, result in zip(pending, results):
                        kept[i] = result
                survivors: List[Tuple[Pattern, str]] = []
                for candidate, result in zip(level, kept):
                    if result is None:
                        continue
                    if result.support >= spec.min_support:
                        stats.patterns_frequent += 1
                        if reuse is not None and reuse.revived(candidate[1]):
                            stats.patterns_revived += 1
                        frequent.append(result)
                        survivors.append(candidate)
                    else:
                        stats.patterns_pruned += 1
                next_level: List[Tuple[Pattern, str]] = []
                with _trace.span("extend"):
                    for pattern, certificate in survivors:
                        extend(pattern, certificate, next_level)
                level_span.set(
                    frequent=stats.patterns_frequent - before["patterns_frequent"],
                    pruned=stats.patterns_pruned - before["patterns_pruned"],
                    generated=stats.patterns_generated - before["patterns_generated"],
                    reused=stats.patterns_reused - before["patterns_reused"],
                    skipped=stats.patterns_skipped_unaffected
                    - before["patterns_skipped_unaffected"],
                )
            level = next_level

        frequent.sort(key=lambda fp: (fp.num_edges, -fp.support, fp.certificate))
        mine_span.set(levels=levels, frequent=len(frequent))
    if memo is not None:
        memo.commit(seen)
    record_session_metrics(stats, levels)
    return MiningResult(
        frequent=frequent,
        stats=stats,
        measure=spec.measure,
        min_support=spec.min_support,
    )


class FrequentSubgraphMiner:
    """Mine frequent patterns from one labeled graph.

    Parameters
    ----------
    data:
        The single data graph to mine.
    spec:
        The :class:`~repro.mining.spec.MiningSpec` describing the run
        (``None`` = :data:`~repro.mining.spec.DEFAULT_SPEC`).  Its
        structural fields decide what is mined: the support ``measure``
        (any registered name; non-anti-monotonic ones need
        ``allow_non_anti_monotonic``), ``min_support``, the pattern-size
        caps, the ``max_occurrences`` safety valve (a candidate's
        support is then computed from its truncated occurrence list),
        and ``lazy`` (MNI only: GraMi-style threshold-bounded
        evaluation, reported supports capped at ``min_support``).

        Its strategy fields decide how, and never change the result:
        ``use_index=False`` is the brute-force reference path;
        ``shards=k`` evaluates support over ``k`` edge-disjoint,
        halo-expanded shards (``partition_method`` picks the
        partitioner) and merges per-shard results exactly;
        ``workers > 1`` evaluates each level's candidates on the
        shard-resident worker pool (falling back to serial if it cannot
        be spawned), whose long-lived workers hold their shards' views
        for the whole session: shard ``s`` lives on every worker ``w``
        with ``w % min(k, workers) == s % workers``.  A pooled session
        with ``shards=1`` is one ``hash`` shard whose view is the whole
        graph, held by every worker.  ``max_resident`` bounds how many
        shards keep halo views in the sharded index's view cache,
        dropping the least recently used shard's views (recomputed on
        their next use).  With ``max_occurrences`` set and ``k > 1``,
        sharded truncation is deterministic but may keep a different
        occurrence subset than the flat order; one shard keeps the flat
        order.

    :meth:`mine` runs the module's lattice walk with no reuse rule and a
    worker pool of its own, started per call and shut down when the
    call ends.
    """

    def __init__(self, data: LabeledGraph, spec: Optional[MiningSpec] = None) -> None:
        spec = require_spec(spec)
        info = measure_info(spec.measure)
        if not info.anti_monotonic and not spec.allow_non_anti_monotonic:
            raise MiningError(
                f"measure {spec.measure!r} is not anti-monotonic; pruning would be "
                "unsound (pass allow_non_anti_monotonic=True to experiment)"
            )
        self.data = data
        self.spec = spec
        # Built once per mining session; every candidate evaluation, seed
        # generation, and extension proposal reuses it.  mine() re-syncs
        # against the graph's mutation version, so a graph mutated between
        # construction and mining never sees a stale index or partition.
        self._index: Optional[GraphIndex] = None
        self._sharded = None
        self._session_version: Optional[int] = None
        self._sync_session_state()

    def _sync_session_state(self) -> None:
        """(Re)derive per-session state from the data graph when it changed."""
        if self._session_version == self.data.mutation_version():
            return
        self._index = get_index(self.data) if self.spec.use_index else None
        self._sharded = _sharded_index(self.data, self.spec)
        self._session_version = self.data.mutation_version()

    def mine(self) -> MiningResult:
        """Run the search; returns every frequent pattern found."""
        self._sync_session_state()
        session = _Session(
            self.data,
            self.spec,
            self._index,
            self._sharded,
            pool=_make_pool(self.spec),
        )
        try:
            result = _walk(session)
        except BaseException:
            # Interrupt/failure path: never *wait* for in-flight work —
            # a Ctrl-C during a long level must not hang on shutdown.
            if session.pool is not None:
                session.pool.shutdown(wait=False, cancel_futures=True)
            raise
        if session.pool is not None:
            session.pool.shutdown()
        return result


def mine_frequent_patterns(
    data: LabeledGraph, spec: Optional[MiningSpec] = None
) -> MiningResult:
    """Convenience one-call mining entry point (see :class:`FrequentSubgraphMiner`)."""
    return FrequentSubgraphMiner(data, spec).mine()
