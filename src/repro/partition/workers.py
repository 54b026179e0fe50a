"""The sharded evaluator, shard-resident worker processes and shard paging.

The one sharded evaluator, and two subsystems that bound what mining
keeps in memory, built on the same invalidation protocol:

**The one sharded evaluator** (:func:`pooled_outcomes`).  It plans each
batch of candidates into ``(kind, pattern, shard_id, depth, exclusive,
limit)`` tasks, has a *runner* evaluate them, and merges the partials.
The runner is either the resident pool below or, with ``runner=None``,
the planner itself evaluating in process against
:meth:`ShardedIndex.expanded_shard` — both through the one task function
:func:`~repro.partition.evaluate.evaluate_task`, so serial and pooled
sharded mining are byte-identical by construction.

**Shard-resident workers** (:class:`ShardWorkerPool`), the one executor
for sharded pooled mining.  Rather than shipping the whole data graph
and partition to every worker (memory ``workers x |G|``, paid again by
every new pool), each long-lived worker *owns* the shards pinned to it
(``shard_id % workers``): the parent ships one :class:`ShardSlice` per shard — the
shard's member set, core edges, and its deepest halo-expanded view — and
from then on routes only constant-size ``(candidate -> partial support)``
requests over the pipe.  Workers derive every shallower view they need by
BFS restriction *inside* the slice (sound because for ``d <= D`` the
radius-``d`` ball around the shard computed within the radius-``D`` ball
equals the global radius-``d`` ball) and hand it to
:func:`~repro.partition.evaluate.evaluate_task` — so results are
byte-identical to in-process evaluation regardless of worker count or
scheduling.  A slice is re-shipped only when delta maintenance
invalidated it (the pool subscribes to
:meth:`ShardedIndex.subscribe_invalidations` and applies the same
staleness rule as the index's own view cache); across the batches of a
``mine_stream`` run, untouched shards never cross the process boundary
again.

**Out-of-core paging** (:class:`ShardPager`).  Halo-expanded views are
the dominant per-shard memory; with ``max_resident=N`` at most ``N``
shards keep views in parent memory (LRU), and evicted shards spill to
disk as manifest-format-2 shard cache directories
(:func:`repro.partition.io.save_shard_views`).  Re-access re-hydrates the
spilled view and replays any pending deltas that are provably
*ball-safe* — only isolated-vertex additions/removals qualify, because an
added or removed **edge** can change which vertices a ball reaches in a
way the spilled view cannot see; any such delta (and every rebalance
move) marks the spill stale and the view is recomputed from the live
index instead.  Either way the resulting view is content-identical to an
always-resident one, so mining results are byte-identical regardless of
eviction order.  The source graph, shard core graphs, and router are the
index's own maintained state and never page out — eviction is forbidden
for them (and pointless for whole-graph alias views, which share the
source graph's storage and are accounted at zero weight).
"""

from __future__ import annotations

import multiprocessing
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PartitionError
from ..graph.labeled_graph import Edge, LabeledGraph, Vertex
from ..graph.pattern import Pattern
from ..index.compact import projected_index_nbytes
from ..obs import metrics as _metrics
from .evaluate import (
    NodeImages,
    ShardTask,
    evaluate_task,
    merge_lazy_partials,
    plan_candidate,
    required_depth,
    shard_exclusive,
    support_from_shard_items,
)
from .sharded_index import ShardedIndex


class WorkerPoolError(OSError):
    """A resident worker died or its pipe broke mid-run.

    Subclasses :class:`OSError` so the miner's existing pool-failure
    fallback (``except (OSError, BrokenExecutor)`` -> serial
    re-evaluation) covers the resident pool without new plumbing.
    """


# ----------------------------------------------------------------------
# slices: what a worker owns
# ----------------------------------------------------------------------
@dataclass
class ShardSlice:
    """Everything one worker needs to evaluate candidates against one shard.

    ``view`` is the halo expansion at ``depth`` — the deepest the session
    can ever need (``max_pattern_nodes - 2``); shallower views are derived
    worker-side by BFS restriction from ``members``.
    """

    shard_id: int
    depth: int
    members: Tuple[Vertex, ...]
    core_edges: Tuple[Edge, ...]
    view: LabeledGraph


def build_slice(sharded: ShardedIndex, shard_id: int, depth: int) -> ShardSlice:
    """Snapshot one shard for shipping (view computed via the index cache/pager)."""
    shard = sharded.shards[shard_id]
    return ShardSlice(
        shard_id=shard_id,
        depth=depth,
        members=tuple(shard.graph.vertices()),
        core_edges=tuple(shard.core_edges),
        view=sharded.expanded_shard(shard_id, depth),
    )


def restrict_view(slice_: ShardSlice, depth: int) -> LabeledGraph:
    """The depth-``depth`` expansion derived from a deeper slice view.

    For ``depth <= slice_.depth`` the radius-``depth`` ball around the
    shard members computed inside the slice view equals the global ball
    (every path of length ``<= depth`` from a member lies within the
    shipped radius-``slice_.depth`` ball), so the induced subgraph is
    content-identical to the parent's
    :meth:`ShardedIndex.expanded_shard` at the same depth.
    """
    if depth >= slice_.depth:
        return slice_.view
    keep: Set[Vertex] = set(slice_.members)
    frontier = set(slice_.members)
    for _ in range(depth):
        if not frontier:
            break
        frontier = {
            neighbor
            for vertex in frontier
            for neighbor in slice_.view.neighbors(vertex)
            if neighbor not in keep
        }
        keep |= frontier
    if len(keep) == slice_.view.num_vertices:
        return slice_.view
    view = slice_.view.subgraph(keep)
    view.name = f"{slice_.view.name or 'slice'}@{depth}"
    return view


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _slice_view(
    slices: Dict[int, ShardSlice],
    derived: Dict[Tuple[int, int], LabeledGraph],
    shard_id: int,
    depth: int,
) -> LabeledGraph:
    """The worker's ``(shard, depth)`` view, restricted once from its slice."""
    key = (shard_id, depth)
    view = derived.get(key)
    if view is None:
        view = derived[key] = restrict_view(slices[shard_id], depth)
    return view


def _worker_main(conn, config: Dict[str, object]) -> None:
    """Resident worker loop: hold slices, answer eval requests in order."""
    slices: Dict[int, ShardSlice] = {}
    cores: Dict[int, frozenset] = {}
    derived: Dict[Tuple[int, int], LabeledGraph] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "slice":
            slice_: ShardSlice = message[1]
            slices[slice_.shard_id] = slice_
            cores[slice_.shard_id] = frozenset(slice_.core_edges)
            for key in [k for k in derived if k[0] == slice_.shard_id]:
                del derived[key]
            continue
        if kind == "eval":
            seq, task = message[1], message[2]
            shard_id, depth = task[2], task[3]
            try:
                payload = evaluate_task(
                    task,
                    partial(_slice_view, slices, derived, shard_id, depth),
                    cores[shard_id],
                    config,
                )
                if isinstance(payload, NodeImages):
                    payload = dict(payload)  # scan every node before sending
                reply = ("ok", seq, payload)
            except BaseException:
                reply = ("err", seq, traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# the parent-side pool
# ----------------------------------------------------------------------
class ShardWorkerPool:
    """Long-lived shard-owning worker processes behind a request queue.

    Shards are pinned to workers by ``shard_id % workers`` — every task
    for a shard runs where its slice lives, and results are collected by
    per-task sequence number, so outcomes are position-stable and
    byte-identical however the OS schedules the processes.  The pool
    follows one :class:`ShardedIndex` at a time (:meth:`bind`); delta
    invalidations mark shipped slices dirty and :meth:`run` re-ships
    exactly those before dispatching.  Infrastructure failures raise
    :class:`WorkerPoolError` (an ``OSError``), which callers treat like a
    broken executor: shut down, fall back to serial, results unchanged.

    ``shutdown(wait=False, cancel_futures=True)`` terminates the workers
    instead of draining them — the Ctrl-C path must never wait on a slow
    candidate.
    """

    #: Eval requests in flight per worker; bounds both pipe backpressure
    #: (no deadlock when results outgrow the socket buffer) and parent
    #: memory for returned partials.
    WINDOW = 4

    def __init__(
        self,
        workers: int,
        *,
        measure: str,
        lazy: bool,
        lazy_cap: int,
        use_index: bool,
        depth: int,
    ) -> None:
        self.workers = max(1, int(workers))
        self.depth = max(0, int(depth))
        self._config = dict(
            measure=measure, lazy=lazy, lazy_cap=lazy_cap, use_index=use_index
        )
        self._procs: List = []
        self._conns: List = []
        self._closed = False
        self._bound: Optional[ShardedIndex] = None
        self._shipped: Set[int] = set()
        self._dirty: Set[int] = set()
        self._slice_vertices: Dict[int, Set[Vertex]] = {}
        self.slices_shipped = 0
        self.slices_reshipped = 0
        self.tasks_dispatched = 0
        # Declare the pool's instruments before spawning: the documented
        # names must exist in snapshots even if process start fails below.
        registry = _metrics.get_registry()
        for name in ("tasks_dispatched", "slices_shipped", "slices_reshipped"):
            registry.counter(f"repro_pool_{name}")
        registry.histogram("repro_pool_queue_depth")
        context = multiprocessing.get_context()
        try:
            for _ in range(self.workers):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, self._config),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._procs.append(process)
                self._conns.append(parent_conn)
        except (OSError, ValueError):
            self.shutdown(wait=False, cancel_futures=True)
            raise

    # -- index binding & staleness -------------------------------------
    def bind(self, sharded: ShardedIndex) -> None:
        """Follow ``sharded``; a new index object invalidates every slice.

        Re-binding happens when a maintainer rebuilt (re-partitioned) the
        index — shard contents may have changed arbitrarily, so all
        shipped slices are dropped and re-shipped on demand.
        """
        if sharded is self._bound:
            return
        if self._bound is not None:
            self._bound.unsubscribe_invalidations(self._on_invalidation)
        self._bound = sharded
        self._shipped.clear()
        self._dirty.clear()
        self._slice_vertices.clear()
        sharded.subscribe_invalidations(self._on_invalidation)

    def _on_invalidation(self, shard_ids, vertices, delta) -> None:
        """The pool's copy of the view-cache staleness rule.

        A shipped slice goes dirty exactly when the index's own cached
        expansion for that shard would have been dropped: the shard's
        membership was touched, or a touched vertex lies inside the
        shipped view (recorded parent-side at ship time — a whole-graph
        alias view contains every vertex and therefore always dirties).
        """
        for shard_id in list(self._shipped):
            if shard_id in shard_ids:
                self._dirty.add(shard_id)
                continue
            resident = self._slice_vertices.get(shard_id, ())
            if any(vertex in resident for vertex in vertices):
                self._dirty.add(shard_id)

    def detach(self) -> None:
        """Stop following the bound index (slices stay with the workers)."""
        if self._bound is not None:
            self._bound.unsubscribe_invalidations(self._on_invalidation)
            self._bound = None

    # -- plumbing ------------------------------------------------------
    def _worker_for(self, shard_id: int) -> int:
        return shard_id % self.workers

    def _send(self, worker: int, message) -> None:
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerPoolError(
                f"shard worker {worker} is gone (send failed: {exc})"
            ) from exc

    def _ship(self, sharded: ShardedIndex, shard_id: int) -> None:
        reship = shard_id in self._shipped
        slice_ = build_slice(sharded, shard_id, self.depth)
        self._send(self._worker_for(shard_id), ("slice", slice_))
        self._shipped.add(shard_id)
        self._dirty.discard(shard_id)
        self._slice_vertices[shard_id] = set(slice_.view.vertices())
        self.slices_shipped += 1
        _metrics.counter("repro_pool_slices_shipped").inc()
        if reship:
            self.slices_reshipped += 1
            _metrics.counter("repro_pool_slices_reshipped").inc()

    # -- the request/response cycle ------------------------------------
    def run(self, sharded: ShardedIndex, tasks: Sequence[ShardTask]) -> List:
        """Evaluate ``tasks`` on their owning workers; results in task order.

        Ships missing/dirty slices first, then dispatches with a bounded
        per-worker window (send a few, collect, send more) so a flood of
        large partials can never deadlock against a full task pipe.
        """
        self.bind(sharded)
        if self._closed:
            raise WorkerPoolError("shard worker pool is shut down")
        if not tasks:
            return []
        needed = sorted({task[2] for task in tasks})
        for shard_id in needed:
            if shard_id not in self._shipped or shard_id in self._dirty:
                self._ship(sharded, shard_id)
        queues: Dict[int, deque] = {}
        for seq, task in enumerate(tasks):
            queues.setdefault(self._worker_for(task[2]), deque()).append((seq, task))
        depth_histogram = _metrics.histogram("repro_pool_queue_depth")
        for queue in queues.values():
            depth_histogram.observe(len(queue))
        results: List = [None] * len(tasks)
        in_flight: Dict[int, int] = {worker: 0 for worker in queues}
        remaining = len(tasks)
        from multiprocessing.connection import wait as connection_wait

        def top_up(worker: int) -> None:
            queue = queues[worker]
            while queue and in_flight[worker] < self.WINDOW:
                seq, task = queue.popleft()
                self._send(worker, ("eval", seq, task))
                in_flight[worker] += 1

        for worker in queues:
            top_up(worker)
        conn_of = {self._conns[worker]: worker for worker in queues}
        while remaining:
            active = [
                conn
                for conn, worker in conn_of.items()
                if in_flight[worker] or queues[worker]
            ]
            ready = connection_wait(active, timeout=5.0)
            if not ready:
                for worker in queues:
                    if (in_flight[worker] or queues[worker]) and not self._procs[
                        worker
                    ].is_alive():
                        raise WorkerPoolError(
                            f"shard worker {worker} died mid-level "
                            f"(exitcode {self._procs[worker].exitcode})"
                        )
                continue
            for conn in ready:
                worker = conn_of[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerPoolError(
                        f"shard worker {worker} died mid-level ({exc})"
                    ) from exc
                status, seq, payload = message
                if status == "err":
                    raise RuntimeError(
                        f"shard worker {worker} task failed:\n{payload}"
                    )
                results[seq] = payload
                in_flight[worker] -= 1
                remaining -= 1
                top_up(worker)
        self.tasks_dispatched += len(tasks)
        _metrics.counter("repro_pool_tasks_dispatched").inc(len(tasks))
        return results

    def stats(self) -> Dict[str, int]:
        """This pool's counters under the registry naming convention.

        The values come from the pool's own counter attributes
        (``tasks_dispatched``, ``slices_shipped``, ``slices_reshipped``),
        which are their storage; the registry counters of the same names
        are process-wide.
        """
        return {
            "repro_pool_tasks_dispatched": self.tasks_dispatched,
            "repro_pool_slices_shipped": self.slices_shipped,
            "repro_pool_slices_reshipped": self.slices_reshipped,
        }

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Stop the workers.

        ``wait=True`` (default) asks each worker to finish its queue and
        exit; ``wait=False, cancel_futures=True`` terminates immediately —
        the interrupt path, which must not block on an in-flight
        candidate.
        """
        if self._closed:
            return
        self._closed = True
        self.detach()
        if wait and not cancel_futures:
            for conn in self._conns:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for process in self._procs:
                process.join(timeout=5.0)
        for process in self._procs:
            if process.is_alive():
                process.terminate()
        for process in self._procs:
            process.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass


def pooled_outcomes(
    patterns: Sequence[Pattern],
    sharded: ShardedIndex,
    runner: Optional[ShardWorkerPool],
    *,
    measure: str,
    lazy: bool,
    lazy_cap: Optional[int],
    max_occurrences: Optional[int],
    flat_evaluate: Callable[[Pattern], Tuple[float, int]],
    histogram: Optional[Dict] = None,
    prune_below: Optional[float] = None,
    use_index: bool = True,
) -> List[Tuple[float, int]]:
    """Plan, run, and merge one batch of candidates: the sharded evaluator.

    The only sharded evaluator of the lattice walk
    (:meth:`repro.mining.miner._Session.evaluate`), called once per level
    with that level's batch — every candidate of a static mine, or the
    footprint-affected candidates of a dynamic refresh.  Per candidate
    the planner takes the :func:`~repro.partition.evaluate.plan_candidate`
    decision (prune bound, flat fallback through ``flat_evaluate``,
    relevant shards), then emits one ``solo`` task (one relevant shard)
    or one ``part`` task per shard (fanout).

    ``runner`` is a :class:`ShardWorkerPool`, which gets the batch's
    tasks in one :meth:`ShardWorkerPool.run`, or ``None``, which
    evaluates each task in process as the merge reaches it, against
    :meth:`ShardedIndex.expanded_shard` (``use_index=False`` is the
    brute reference path).  Either way every task goes through
    :func:`~repro.partition.evaluate.evaluate_task` and every partial
    through the same merges, so outcomes are byte-identical however the
    tasks execute.  In process, a lazy fanout's partials are on-demand
    :class:`~repro.partition.evaluate.NodeImages` scans that
    :func:`~repro.partition.evaluate.merge_lazy_partials` reads node by
    node, keeping its early exits.
    """
    plans: List[Tuple[str, object]] = []
    tasks: List[ShardTask] = []
    for pattern in patterns:
        kind, payload = plan_candidate(
            pattern,
            sharded,
            measure,
            lazy=lazy,
            histogram=histogram,
            prune_below=prune_below,
        )
        if kind != "shards":
            plans.append((kind, payload))
            continue
        shard_ids: List[int] = payload  # type: ignore[assignment]
        # One relevant shard finishes the candidate where it runs
        # ("solo"); otherwise each returns a partial for the merge
        # ("part") — with no relevant shard, the empty merge is the exact
        # answer.  Lazy scans never filter on core edges, so they skip
        # the exclusivity test.
        task_kind = "solo" if len(shard_ids) == 1 else "part"
        plans.append((task_kind, len(shard_ids)))
        depth = required_depth(pattern)
        tasks.extend(
            (
                task_kind,
                pattern,
                shard_id,
                depth,
                not lazy and shard_exclusive(pattern, sharded, shard_id),
                max_occurrences,
            )
            for shard_id in shard_ids
        )
    if runner is None:
        config = dict(
            measure=measure, lazy=lazy, lazy_cap=lazy_cap, use_index=use_index
        )
        partials = (
            evaluate_task(
                task,
                partial(sharded.expanded_shard, task[2], task[3]),
                sharded.shards[task[2]].core_edge_set,
                config,
            )
            for task in tasks
        )
    else:
        partials = iter(runner.run(sharded, tasks) if tasks else ())
    outcomes: List[Tuple[float, int]] = []
    for pattern, (kind, payload) in zip(patterns, plans):
        if kind == "pruned":
            outcomes.append(payload)  # type: ignore[arg-type]
        elif kind == "flat":
            outcomes.append(flat_evaluate(pattern))
        elif kind == "solo":
            outcomes.append(next(partials))
        else:
            shard_partials = [
                next(partials)
                for _ in range(payload)  # type: ignore[arg-type]
            ]
            if lazy:
                outcomes.append(
                    (float(merge_lazy_partials(shard_partials, cap=lazy_cap)), -1)
                )
            else:
                outcomes.append(
                    support_from_shard_items(
                        pattern,
                        sharded.graph,
                        shard_partials,
                        measure,
                        max_occurrences=max_occurrences,
                    )
                )
    return outcomes


# ----------------------------------------------------------------------
# out-of-core paging
# ----------------------------------------------------------------------
_STALE = object()  # pending-delta sentinel: spill unusable, recompute


class ShardPager:
    """LRU residency for halo-expanded shard views, with disk spill.

    Attach to a :class:`ShardedIndex` (``ShardPager(sharded,
    max_resident=N)`` attaches itself); from then on
    :meth:`ShardedIndex.expanded_shard` routes through :meth:`view`.  At
    most ``max_resident`` shards keep views in memory; the least recently
    used shard is evicted when the bound would be exceeded — its views
    spill to a manifest-format-2 shard cache directory
    (:func:`repro.partition.io.save_shard_views`) and later re-access
    re-hydrates from disk instead of recomputing.

    Delta maintenance marks spills stale through the index's
    invalidation hook.  Isolated-vertex deltas (``VertexAdded`` /
    ``VertexRemoved``) are **ball-safe** — an isolated vertex reaches
    nothing, so no other vertex's ball membership can change — and are
    queued for replay onto the re-hydrated view; edge deltas and
    rebalance moves can re-shape halo balls invisibly to the spilled
    view, so they poison the spill (``recomputes`` counts the fallback).
    Replay or recompute, the produced view is content-identical to an
    always-resident one: results never depend on eviction order.

    Whole-graph alias views (a ball that swallowed the graph) share the
    source graph's storage: they are accounted at zero weight and never
    spilled — evicting them frees nothing, and the source graph itself
    (like shard core graphs and the router) is maintained state that
    must never page out.

    ``resident_weight`` / ``peak_resident_weight`` account resident view
    footprints deterministically via
    :func:`repro.index.compact.projected_index_nbytes` — the analytic
    byte cost of an index over each non-alias view — so paging
    decisions track what a view actually costs to keep hot.  The
    out-of-core benchmark gates on these.
    """

    def __init__(
        self,
        sharded: ShardedIndex,
        max_resident: int,
        cache_dir: Optional[str] = None,
    ) -> None:
        if max_resident < 1:
            raise PartitionError(f"max_resident must be >= 1, got {max_resident}")
        self.max_resident = int(max_resident)
        self._tmp = None
        if cache_dir is None:
            import tempfile

            self._tmp = tempfile.TemporaryDirectory(prefix="repro-shard-cache-")
            cache_dir = self._tmp.name
        self.cache_dir = Path(cache_dir)
        self.evictions = 0
        self.spills = 0
        self.rehydrations = 0
        self.recomputes = 0
        self.replayed_deltas = 0
        self.resident_weight = 0
        self.peak_resident_weight = 0
        registry = _metrics.get_registry()
        for name in (
            "evictions",
            "spills",
            "rehydrations",
            "recomputes",
            "replayed_deltas",
        ):
            registry.counter(f"repro_pager_{name}")
        registry.gauge("repro_pager_resident_weight")
        registry.gauge("repro_pager_peak_resident_weight")
        self.sharded: Optional[ShardedIndex] = None
        self._resident: "OrderedDict[int, Dict[int, LabeledGraph]]" = OrderedDict()
        self._on_disk: Dict[int, Set[int]] = {}
        self._disk_vertices: Dict[int, Set[Vertex]] = {}
        self._pending: Dict[int, object] = {}
        self.attach(sharded)

    # -- binding -------------------------------------------------------
    def attach(self, sharded: ShardedIndex) -> None:
        """Start paging for ``sharded`` (clears all prior pager state)."""
        if self.sharded is not None:
            self.detach()
        self.sharded = sharded
        self._resident.clear()
        self._on_disk.clear()
        self._disk_vertices.clear()
        self._pending.clear()
        self.resident_weight = 0
        sharded.subscribe_invalidations(self._on_invalidation)
        sharded.attach_pager(self)

    def detach(self) -> None:
        """Stop paging; the index falls back to its in-memory cache."""
        if self.sharded is not None:
            self.sharded.unsubscribe_invalidations(self._on_invalidation)
            if self.sharded.pager is self:
                self.sharded.detach_pager()
            self.sharded = None

    def rebind(self, sharded: ShardedIndex) -> None:
        """Follow a rebuilt (re-partitioned) index; all spills are void."""
        self.attach(sharded)

    # -- weights -------------------------------------------------------
    def _view_weight(self, view: LabeledGraph) -> int:
        if self.sharded is not None and view is self.sharded.graph:
            return 0
        return projected_index_nbytes(
            view.num_vertices,
            view.num_edges,
            len(view.label_alphabet()),
        )

    # -- the cache interface -------------------------------------------
    def view(self, shard_id: int, depth: int) -> LabeledGraph:
        """The (shard, depth) expansion — resident, re-hydrated, or computed."""
        assert self.sharded is not None, "pager is detached"
        entry = self._resident.get(shard_id)
        if entry is not None:
            self._resident.move_to_end(shard_id)
            view = entry.get(depth)
            if view is None:
                view = self._materialize(shard_id, depth)
                entry[depth] = view
                self._bump_weight(view)
            return view
        view = self._materialize(shard_id, depth)
        self._resident[shard_id] = {depth: view}
        self._bump_weight(view)
        self._evict_over_limit()
        return view

    def _bump_weight(self, view: LabeledGraph) -> None:
        self.resident_weight += self._view_weight(view)
        if self.resident_weight > self.peak_resident_weight:
            self.peak_resident_weight = self.resident_weight
        self._sync_weight_gauges()

    def _sync_weight_gauges(self) -> None:
        _metrics.gauge("repro_pager_resident_weight").set(self.resident_weight)
        _metrics.gauge("repro_pager_peak_resident_weight").set_max(
            self.peak_resident_weight
        )

    def _materialize(self, shard_id: int, depth: int) -> LabeledGraph:
        pending = self._pending.get(shard_id)
        if pending is not _STALE and depth in self._on_disk.get(shard_id, ()):
            from .io import load_shard_view

            view = load_shard_view(self.cache_dir, shard_id, depth)
            if view is not None:
                self.rehydrations += 1
                _metrics.counter("repro_pager_rehydrations").inc()
                if pending:
                    for delta in pending:  # type: ignore[union-attr]
                        self._replay(view, delta)
                    replayed = len(pending)  # type: ignore[arg-type]
                    self.replayed_deltas += replayed
                    _metrics.counter("repro_pager_replayed_deltas").inc(replayed)
                return view
        self.recomputes += 1
        _metrics.counter("repro_pager_recomputes").inc()
        assert self.sharded is not None
        return self.sharded._compute_expansion(shard_id, depth)

    @staticmethod
    def _replay(view: LabeledGraph, delta) -> None:
        """Apply one ball-safe pending delta to a re-hydrated view."""
        from ..index.delta import VertexAdded, VertexRemoved

        if isinstance(delta, VertexAdded):
            if not view.has_vertex(delta.vertex):
                view.add_vertex(delta.vertex, delta.label)
        elif isinstance(delta, VertexRemoved):
            if view.has_vertex(delta.vertex):
                view.remove_vertex(delta.vertex)

    def _evict_over_limit(self) -> None:
        while len(self._resident) > self.max_resident:
            shard_id, views = self._resident.popitem(last=False)
            self._spill(shard_id, views)
            self.evictions += 1
            _metrics.counter("repro_pager_evictions").inc()

    def _spill(self, shard_id: int, views: Dict[int, LabeledGraph]) -> None:
        assert self.sharded is not None
        for view in views.values():
            self.resident_weight -= self._view_weight(view)
        self._sync_weight_gauges()
        graph = self.sharded.graph
        spillable = {
            depth: view for depth, view in views.items() if view is not graph
        }
        if not spillable:
            # Only whole-graph aliases were resident: nothing worth
            # writing, the next access recomputes the (cheap) alias.
            self._on_disk.pop(shard_id, None)
            self._disk_vertices.pop(shard_id, None)
            self._pending.pop(shard_id, None)
            return
        from .io import save_shard_views

        save_shard_views(self.cache_dir, shard_id, spillable)
        self.spills += 1
        _metrics.counter("repro_pager_spills").inc()
        self._on_disk[shard_id] = set(spillable)
        vertices: Set[Vertex] = set()
        for view in spillable.values():
            vertices.update(view.vertices())
        self._disk_vertices[shard_id] = vertices
        # The spill reflects the shard's current state; prior pending
        # deltas are baked in.
        self._pending.pop(shard_id, None)

    # -- staleness -----------------------------------------------------
    def _on_invalidation(self, shard_ids, vertices, delta) -> None:
        """Mirror the index's invalidation rule onto resident + spilled views."""
        from ..index.delta import VertexAdded, VertexRemoved

        graph = self.sharded.graph if self.sharded is not None else None
        for shard_id in list(self._resident):
            views = self._resident[shard_id]
            affected = shard_id in shard_ids or any(
                view is graph or any(view.has_vertex(v) for v in vertices)
                for view in views.values()
            )
            if affected:
                for view in views.values():
                    self.resident_weight -= self._view_weight(view)
                del self._resident[shard_id]
                self._sync_weight_gauges()
        replayable = isinstance(delta, (VertexAdded, VertexRemoved))
        for shard_id in list(self._on_disk):
            touched = shard_id in shard_ids or bool(
                self._disk_vertices.get(shard_id, set()).intersection(vertices)
            )
            if not touched:
                continue
            if not replayable:
                self._pending[shard_id] = _STALE
                continue
            pending = self._pending.get(shard_id)
            if pending is _STALE:
                continue
            if pending is None:
                pending = []
                self._pending[shard_id] = pending
            pending.append(delta)  # type: ignore[union-attr]
            if isinstance(delta, VertexAdded):
                # The new vertex belongs to this shard's future view;
                # track it so later deltas touching it are seen as
                # touching the spill.
                self._disk_vertices.setdefault(shard_id, set()).add(delta.vertex)

    def stats(self) -> Dict[str, int]:
        """This pager's counters under the registry naming convention.

        The values come from the pager's own attributes (``evictions``,
        ``resident_weight``, ...), which are their storage; the registry
        instruments of the same names are process-wide.
        """
        return {
            "repro_pager_evictions": self.evictions,
            "repro_pager_spills": self.spills,
            "repro_pager_rehydrations": self.rehydrations,
            "repro_pager_recomputes": self.recomputes,
            "repro_pager_replayed_deltas": self.replayed_deltas,
            "repro_pager_resident_weight": self.resident_weight,
            "repro_pager_peak_resident_weight": self.peak_resident_weight,
        }

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Detach and delete the spill directory (if pager-owned)."""
        self.detach()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
