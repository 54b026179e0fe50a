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
evaluated as a batch).  This is the same traversal the old FIFO queue
performed — seeds are all one-edge patterns, each extension adds exactly
one edge — but it exposes the per-level batches needed for parallel
support evaluation (``workers > 1``) while keeping results identical.

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
from typing import List, Optional, Sequence, Tuple

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


def record_session_metrics(stats: MiningStats, levels: int) -> None:
    """Flush one mining session's counters onto the active registry.

    Called once at session end (never per candidate — the hot loop pays
    nothing) by both the static and dynamic lattice walks; zero-valued
    counters still register, so every ``repro_miner_*`` name appears in
    snapshots from the first session on.
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
        ``workers > 1`` evaluates each level's candidates in worker
        processes (falling back to serial if they cannot be spawned);
        ``shards=k`` evaluates support over ``k`` edge-disjoint,
        halo-expanded shards (``partition_method`` picks the
        partitioner) and merges per-shard results exactly — with
        ``workers`` as well, each shard is pinned to one long-lived
        shard-resident worker (``shard_id % workers``) that holds its
        slice for the whole session; ``max_resident`` bounds the
        resident shard views, spilling the least recently used one to
        disk (:class:`repro.partition.workers.ShardPager`).  With
        ``max_occurrences`` set, sharded truncation is deterministic but
        may keep a different occurrence subset than the flat order.
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
        self.measure = spec.measure
        self.min_support = spec.min_support
        self.max_pattern_nodes = spec.max_pattern_nodes
        self.max_pattern_edges = spec.max_pattern_edges
        self.max_occurrences = spec.max_occurrences
        self.lazy = spec.lazy
        self.use_index = spec.use_index
        self.workers = spec.workers
        self.shards = spec.shards
        self.partition_method = spec.partition_method
        self.max_resident = spec.max_resident
        self._pager = None
        # Built once per mining session; every candidate evaluation, seed
        # generation, and extension proposal reuses it.  mine() re-syncs
        # against the graph's mutation version, so a graph mutated between
        # construction and mining never sees stale label pairs, histogram
        # counts, or prune bounds.
        self._index_arg = None if self.use_index else False
        self._index: Optional[GraphIndex] = None
        self._sharded = None
        self._session_version: Optional[int] = None
        self._sync_session_state()

    def _sync_session_state(self) -> None:
        """(Re)derive per-session state from the data graph when it changed."""
        if self._session_version == self.data.mutation_version():
            return
        self._index = get_index(self.data) if self.use_index else None
        self._label_pairs = adjacent_label_pairs(self.data, index=self._index)
        self._histogram = (
            self._index.label_histogram()
            if self._index
            else self.data.label_histogram()
        )
        if self._pager is not None:
            # The old index (and any spills derived from it) is obsolete.
            self._pager.close()
            self._pager = None
        if self.shards > 1:
            from ..partition.sharded_index import ShardedIndex

            self._sharded = ShardedIndex.build(
                self.data, self.shards, self.partition_method
            )
            if self.max_resident is not None:
                from ..partition.workers import ShardPager

                self._pager = ShardPager(self._sharded, self.max_resident)
        else:
            self._sharded = None
        self._session_version = self.data.mutation_version()

    # ------------------------------------------------------------------
    @property
    def _lazy_cap(self) -> int:
        """Ceiling of the (possibly fractional) threshold for lazy mode."""
        return max(1, math.ceil(self.min_support))

    def _record(
        self,
        pattern: Pattern,
        certificate: str,
        support: float,
        num_occurrences: int,
        stats: MiningStats,
    ) -> FrequentPattern:
        """The single stats-bookkeeping + result-assembly path.

        Both the serial evaluator and the process-pool outcome loop feed
        through here, so serial and parallel runs cannot drift apart.
        """
        stats.support_calls += 1
        if num_occurrences >= 0:
            stats.occurrence_enumerations += 1
        return FrequentPattern(
            pattern=pattern,
            support=support,
            certificate=certificate,
            num_occurrences=num_occurrences,
        )

    def _support_of(
        self, pattern: Pattern, certificate: str, stats: MiningStats
    ) -> FrequentPattern:
        """Evaluate the measure for one candidate, recording stats."""
        if self._sharded is not None:
            from ..partition.evaluate import sharded_evaluate_support

            support, num_occurrences = sharded_evaluate_support(
                pattern,
                self._sharded,
                self.measure,
                lazy=self.lazy,
                lazy_cap=self._lazy_cap,
                max_occurrences=self.max_occurrences,
                index_arg=self._index_arg,
                histogram=self._histogram,
                prune_below=self.min_support,
            )
            return self._record(pattern, certificate, support, num_occurrences, stats)
        from .parallel import evaluate_support

        support, num_occurrences = evaluate_support(
            pattern,
            self.data,
            self.measure,
            lazy=self.lazy,
            lazy_cap=self._lazy_cap,
            max_occurrences=self.max_occurrences,
            index_arg=self._index_arg,
            histogram=self._histogram,
            prune_below=self.min_support,
        )
        return self._record(pattern, certificate, support, num_occurrences, stats)

    # ------------------------------------------------------------------
    def _evaluate_level(
        self,
        level: Sequence[Tuple[Pattern, str]],
        stats: MiningStats,
        pool,
    ) -> Tuple[List[FrequentPattern], object]:
        """Evaluate one level's candidates in order; returns (results, pool).

        ``ProcessPoolExecutor`` spawns workers lazily, so environments
        that cannot fork only fail here, at the first ``map`` — not in
        :meth:`_make_pool`.  Any pool-infrastructure failure (spawn
        refused, workers killed) shuts the pool down and re-evaluates the
        level serially; the returned pool is then ``None`` so the rest of
        the run stays serial.  Evaluation is pure, so the retry changes
        nothing but wall-clock time.
        """
        from concurrent.futures import BrokenExecutor

        outcomes = None
        if pool is not None and self._sharded is not None:
            try:
                outcomes = self._pooled_sharded_outcomes(level, pool)
            except (OSError, BrokenExecutor) as exc:
                _LOG.warning(
                    "shard worker pool failed mid-level (%s); re-evaluating "
                    "the level serially and staying serial for this run",
                    exc,
                )
                _metrics.counter("repro_pool_serial_fallbacks").inc()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
        elif pool is not None:
            from .parallel import evaluate_candidate

            patterns = [pattern for pattern, _ in level]
            chunksize = max(1, len(patterns) // (self.workers * 4))
            try:
                outcomes = list(
                    pool.map(evaluate_candidate, patterns, chunksize=chunksize)
                )
            except (OSError, BrokenExecutor) as exc:
                _LOG.warning(
                    "worker pool failed mid-level (%s); re-evaluating the "
                    "level serially and staying serial for this run",
                    exc,
                )
                _metrics.counter("repro_pool_serial_fallbacks").inc()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
        if outcomes is None:
            return (
                [
                    self._support_of(pattern, certificate, stats)
                    for pattern, certificate in level
                ],
                pool,
            )
        evaluated = [
            self._record(pattern, certificate, support, num_occurrences, stats)
            for (pattern, certificate), (support, num_occurrences) in zip(
                level, outcomes
            )
        ]
        return evaluated, pool

    def _pooled_sharded_outcomes(
        self, level: Sequence[Tuple[Pattern, str]], pool
    ) -> List[Tuple[float, int]]:
        """One level through the pool at (candidate, shard) granularity.

        The parent plans each candidate exactly as the serial sharded
        evaluator would — same prune bound, same relevant-shard set, same
        flat fallback for unshardable patterns — routes the planned
        (candidate, shard) tasks through the shared planner/merger
        (:func:`repro.partition.workers.pooled_outcomes`), and merges
        each candidate's shard partials through the shared merge helpers.
        Outcomes are therefore byte-identical to the serial sharded run,
        which in turn matches the unsharded one.
        """
        from ..partition.workers import pooled_outcomes
        from .parallel import evaluate_support

        def flat_evaluate(pattern: Pattern) -> Tuple[float, int]:
            return evaluate_support(
                pattern,
                self.data,
                self.measure,
                lazy=self.lazy,
                lazy_cap=self._lazy_cap,
                max_occurrences=self.max_occurrences,
                index_arg=self._index_arg,
                histogram=self._histogram,
                prune_below=self.min_support,
            )

        return pooled_outcomes(
            [pattern for pattern, _ in level],
            self._sharded,
            pool,
            measure=self.measure,
            lazy=self.lazy,
            lazy_cap=self._lazy_cap,
            max_occurrences=self.max_occurrences,
            flat_evaluate=flat_evaluate,
            histogram=self._histogram,
            prune_below=self.min_support,
        )

    def _make_pool(self):
        """A process pool for support evaluation, or None (serial).

        Sharded sessions get the shard-resident worker pool; flat
        sessions get the candidate-level executor.  Any construction
        failure degrades to the serial path, which produces identical
        results; the degrade path for workers that die later lives in
        :meth:`_evaluate_level`.
        """
        if self.workers <= 1:
            return None
        if self._sharded is not None:
            try:
                from ..partition.workers import ShardWorkerPool

                return ShardWorkerPool(
                    self.workers,
                    measure=self.measure,
                    lazy=self.lazy,
                    lazy_cap=self._lazy_cap,
                    use_index=self.use_index,
                    depth=max(0, self.max_pattern_nodes - 2),
                )
            except (OSError, ValueError) as exc:
                _LOG.warning(
                    "could not start the shard worker pool (%s); mining serially",
                    exc,
                )
                _metrics.counter("repro_pool_serial_fallbacks").inc()
                return None
        try:
            from concurrent.futures import ProcessPoolExecutor

            from .parallel import init_worker

            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=init_worker,
                initargs=(
                    self.data,
                    self.measure,
                    self.lazy,
                    self._lazy_cap,
                    self.max_occurrences,
                    self.use_index,
                    self.min_support,
                ),
            )
        except (OSError, ValueError) as exc:
            # Restricted environments (no usable start method, no
            # /dev/shm): degrade to the serial path, which produces
            # identical results.
            _LOG.warning(
                "could not start the worker pool (%s); mining serially", exc
            )
            _metrics.counter("repro_pool_serial_fallbacks").inc()
            return None

    def mine(self) -> MiningResult:
        """Run the search; returns every frequent pattern found."""
        self._sync_session_state()
        stats = MiningStats()
        frequent: List[FrequentPattern] = []
        seen: set = set()
        levels = 0

        with _trace.span(
            "mine",
            measure=self.measure,
            min_support=self.min_support,
            shards=self.shards,
            workers=self.workers,
        ) as mine_span:
            level: List[Tuple[Pattern, str]] = []
            with _trace.span("seeds") as seed_span:
                for seed in single_edge_patterns(self.data, index=self._index):
                    stats.patterns_generated += 1
                    certificate = canonical_certificate(seed.graph)
                    if certificate in seen:
                        stats.duplicates_skipped += 1
                        continue
                    seen.add(certificate)
                    level.append((seed, certificate))
                seed_span.set(seeds=len(level))

            pool = self._make_pool()
            try:
                while level:
                    levels += 1
                    frequent_before = stats.patterns_frequent
                    pruned_before = stats.patterns_pruned
                    generated_before = stats.patterns_generated
                    with _trace.span(
                        "level", level=levels, candidates=len(level)
                    ) as level_span:
                        stats.patterns_evaluated += len(level)
                        survivors: List[Pattern] = []
                        with _trace.span("evaluate", candidates=len(level)):
                            results, pool = self._evaluate_level(level, stats, pool)
                        for evaluated in results:
                            if evaluated.support >= self.min_support:
                                stats.patterns_frequent += 1
                                frequent.append(evaluated)
                                survivors.append(evaluated.pattern)
                            else:
                                stats.patterns_pruned += 1
                        next_level: List[Tuple[Pattern, str]] = []
                        with _trace.span("extend"):
                            for pattern in survivors:
                                for extension in all_extensions(
                                    pattern,
                                    self._label_pairs,
                                    max_nodes=self.max_pattern_nodes,
                                    max_edges=self.max_pattern_edges,
                                ):
                                    stats.patterns_generated += 1
                                    certificate = canonical_certificate(
                                        extension.graph
                                    )
                                    if certificate in seen:
                                        stats.duplicates_skipped += 1
                                        continue
                                    seen.add(certificate)
                                    next_level.append((extension, certificate))
                        level_span.set(
                            frequent=stats.patterns_frequent - frequent_before,
                            pruned=stats.patterns_pruned - pruned_before,
                            generated=stats.patterns_generated - generated_before,
                        )
                    level = next_level
            except BaseException:
                # Interrupt/failure path: never *wait* for in-flight work —
                # a Ctrl-C during a long level must not hang on shutdown.
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                raise
            if pool is not None:
                pool.shutdown()

            frequent.sort(key=lambda fp: (fp.num_edges, -fp.support, fp.certificate))
            mine_span.set(levels=levels, frequent=len(frequent))
        record_session_metrics(stats, levels)
        return MiningResult(
            frequent=frequent,
            stats=stats,
            measure=self.measure,
            min_support=self.min_support,
        )


def mine_frequent_patterns(
    data: LabeledGraph, spec: Optional[MiningSpec] = None
) -> MiningResult:
    """Convenience one-call mining entry point (see :class:`FrequentSubgraphMiner`)."""
    return FrequentSubgraphMiner(data, spec).mine()
