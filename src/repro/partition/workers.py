"""The sharded evaluator and the shard-resident worker processes.

**The one sharded evaluator** (:func:`pooled_outcomes`).  It plans each
batch of candidates into ``(kind, pattern, shard_id, exclusive, limit)``
tasks, has a *runner* evaluate them, and merges the partials.  The
runner is either the resident pool below or, with ``runner=None``, the
planner itself evaluating in process against
:meth:`ShardedIndex.expanded_shard`.  Both go through the one task
function :func:`~repro.partition.evaluate.evaluate_task`, and both
evaluate every task against the same view: the shard's halo expansion
at the session depth ``D = max_pattern_nodes - 2``, one view per shard.
Serial and pooled sharded mining are therefore byte-identical by
construction.

**Shard-resident workers** (:class:`ShardWorkerPool`), the one executor
for sharded pooled mining.  Rather than shipping the whole data graph
and partition to every worker (memory ``workers x |G|``, paid again by
every new pool), each long-lived worker *owns* the shards pinned to it
(``shard_id % workers``) and holds one :class:`ResidentView` per shard:
the shard's core edges and its depth-``D`` halo view, whose index an
:class:`~repro.index.delta.IndexMaintainer` keeps current.  What crosses
the pipe is one kind of update, a :class:`ShardPatch`: the difference
between the view the parent last shipped for a shard and the current
one.  On a shard's first use that is the difference to an empty view,
the whole shard.  After that a patch goes out only when delta
maintenance dirtied the shard (the pool subscribes to
:meth:`ShardedIndex.subscribe_invalidations` and applies the same
staleness rule as the index's own view cache), or after
:meth:`ShardWorkerPool.bind` to a new index (a rebuild or
re-partition).  The worker applies it through the :class:`LabeledGraph`
mutation API, so its index is patched in O(delta), and a burst past the
view's delta-log bound folds into one rebuild.  Across the batches of
a ``mine_stream`` run, untouched shards never cross the process boundary
again.  A worker's tasks for one batch go out in one message, together
with the patches they need, and come back in task order, in one reply
unless the results outgrow :data:`REPLY_BYTES`.

The pool keeps the view it last shipped per shard (it diffs the next
patch against it), so under a pool the parent holds one view per shipped
shard whatever the index's ``max_resident`` bound says; the bound limits
only the index's own view cache.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import PartitionError
from ..graph.labeled_graph import Edge, Label, LabeledGraph, Vertex, normalize_edge
from ..graph.pattern import Pattern
from ..index.delta import IndexMaintainer
from ..obs import metrics as _metrics
from .evaluate import (
    NodeImages,
    OccurrenceSet,
    ShardTask,
    evaluate_task,
    merge_lazy_partials,
    plan_candidate,
    required_depth,
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
# what crosses the pipe: patches
# ----------------------------------------------------------------------
@dataclass
class ShardPatch:
    """The difference between two halo views of one shard, and its core edges.

    The fields are applied in order (:meth:`ResidentView.apply`): edges
    out, vertices out, vertices in, edges in.  So every removed vertex is
    already isolated and every added edge finds both endpoints.  A vertex
    whose label changed between the views leaves and comes back.  Against
    an empty view the patch is the whole shard.
    """

    shard_id: int
    edges_out: Tuple[Edge, ...]
    vertices_out: Tuple[Vertex, ...]
    vertices_in: Tuple[Tuple[Vertex, Label], ...]
    edges_in: Tuple[Edge, ...]
    core_out: Tuple[Edge, ...]
    core_in: Tuple[Edge, ...]

    def __len__(self) -> int:
        return (
            len(self.edges_out)
            + len(self.vertices_out)
            + len(self.vertices_in)
            + len(self.edges_in)
            + len(self.core_out)
            + len(self.core_in)
        )


_ABSENT = object()


def shard_patch(
    shard_id: int,
    old_view: LabeledGraph,
    new_view: LabeledGraph,
    old_core: AbstractSet[Edge],
    new_core: AbstractSet[Edge],
) -> ShardPatch:
    """The :class:`ShardPatch` that turns ``old_view`` into ``new_view``.

    O(|old_view| + |new_view|) set comparisons in the parent; what
    crosses the pipe, and what the worker's index is patched with, is
    only the difference.
    """
    edges_out: Set[Edge] = set()
    edges_in: Set[Edge] = set()
    vertices_out: List[Vertex] = []
    vertices_in: List[Tuple[Vertex, Label]] = []
    if old_view is not new_view:
        old_labels, new_labels = old_view.labels(), new_view.labels()
        for vertex, label in old_labels.items():
            if new_labels.get(vertex, _ABSENT) != label:
                vertices_out.append(vertex)
                edges_out.update(
                    normalize_edge(vertex, w) for w in old_view.neighbors(vertex)
                )
        for vertex, label in new_labels.items():
            if old_labels.get(vertex, _ABSENT) != label:
                vertices_in.append((vertex, label))
                edges_in.update(
                    normalize_edge(vertex, w) for w in new_view.neighbors(vertex)
                )
                continue
            before, after = old_view.neighbors(vertex), new_view.neighbors(vertex)
            if before != after:
                edges_out.update(normalize_edge(vertex, w) for w in before - after)
                edges_in.update(normalize_edge(vertex, w) for w in after - before)
    return ShardPatch(
        shard_id=shard_id,
        edges_out=tuple(edges_out),
        vertices_out=tuple(vertices_out),
        vertices_in=tuple(vertices_in),
        edges_in=tuple(edges_in),
        core_out=tuple(old_core - new_core),
        core_in=tuple(new_core - old_core),
    )


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
#: A view keeps at most this many stored occurrences per vertex and edge
#: of its own: the bound on its :class:`OccurrenceSet` store.
SET_OCCURRENCES_PER_ELEMENT = 4


class ResidentView:
    """One shard as its worker holds it, patched in place across batches.

    ``view`` is the shard's halo view at the session depth and ``core``
    its core-edge set; both start empty, and the first patch fills them.
    On the indexed path an :class:`~repro.index.delta.IndexMaintainer`
    rides the view from then on, so the mutations of later patches patch
    the view's cached index in O(delta).

    The view also keeps the occurrence sets of the patterns it is asked
    about again (eager MNI tasks without an occurrence limit, indexed):
    the first evaluation of a pattern enumerates as usual and only
    remembers the pattern's key, ``pattern.graph.signature()`` (node ids
    included: the items of a set are positional, so an isomorphic
    pattern with other node ids is another key); the second builds the
    pattern's :class:`~repro.partition.evaluate.OccurrenceSet`, and
    later ones sync it by the view's deltas and read their answer from
    it.  The sets hold at most :data:`SET_OCCURRENCES_PER_ELEMENT` x
    ``(|V| + |E|)`` occurrences in all; past that the least recently
    used sets are dropped.  ``counts`` tallies tasks served from a kept
    set, sets built and sets dropped (by a gap or the bound).
    """

    __slots__ = ("view", "core", "_maintainer", "_sets", "_seen", "_stored", "counts")

    def __init__(self) -> None:
        self.view = LabeledGraph()
        self.core: Set[Edge] = set()
        self._maintainer: Optional[IndexMaintainer] = None
        self._sets: "OrderedDict[object, OccurrenceSet]" = OrderedDict()
        self._seen: "OrderedDict[object, None]" = OrderedDict()
        self._stored = 0
        self.counts = [0, 0, 0]  # served, built, dropped

    def apply(self, patch: ShardPatch, use_index: bool) -> None:
        """Patch the view, its index and the core edges to the parent's state."""
        view = self.view
        for u, v in patch.edges_out:
            view.remove_edge(u, v)
        for vertex in patch.vertices_out:
            view.remove_vertex(vertex)
        for vertex, label in patch.vertices_in:
            view.add_vertex(vertex, label)
        for u, v in patch.edges_in:
            view.add_edge(u, v)
        self.core.difference_update(patch.core_out)
        self.core.update(patch.core_in)
        if not use_index:
            return
        if self._maintainer is None:
            self._maintainer = IndexMaintainer(view)  # one build, on first use
        else:
            self._maintainer.index()

    def evaluate(self, task: ShardTask, config: Dict[str, object]):
        """Run one task against this view; lazy scans are read out in full."""
        source = None
        if (
            config["measure"] == "mni"
            and not config["lazy"]
            and config["use_index"]
            and task[4] is None
        ):
            source = self._occurrence_set(task[1])
        payload = evaluate_task(task, lambda: self.view, self.core, config, source)
        if isinstance(payload, NodeImages):
            payload = dict(payload)  # scan every node before sending
        if source is not None:
            self._trim()
        return payload

    def _occurrence_set(self, pattern: Pattern) -> Optional[OccurrenceSet]:
        """The pattern's synced set, built at its second evaluation here."""
        key = pattern.graph.signature()
        kept = self._sets.get(key)
        if kept is None:
            if key not in self._seen:
                self._seen[key] = None
                if len(self._seen) > self._bound():
                    self._seen.popitem(last=False)
                return None
            del self._seen[key]
            kept = self._sets[key] = OccurrenceSet(pattern, self.view)
            self.counts[1] += 1
            self._stored += len(kept)
            return kept
        self._sets.move_to_end(key)
        before = len(kept)
        if kept.sync(self.view):
            self.counts[0] += 1
        else:
            self.counts[1] += 1
            self.counts[2] += 1
        self._stored += len(kept) - before
        return kept

    def _bound(self) -> int:
        view = self.view
        return SET_OCCURRENCES_PER_ELEMENT * (view.num_vertices + view.num_edges)

    def _trim(self) -> None:
        """Drop the least recently used sets while the store is over its bound."""
        bound = self._bound()
        while self._stored > bound and self._sets:
            _key, dropped = self._sets.popitem(last=False)
            dropped.close()
            self._stored -= len(dropped)
            self.counts[2] += 1


#: A worker splits a batch's reply once its pickled results reach this
#: many bytes, so it holds at most about this much of a level's partials
#: at a time; a typical batch still goes back in one reply.
REPLY_BYTES = 1 << 20


def _worker_main(conn, config: Dict[str, object]) -> None:
    """Resident worker loop: apply a batch's patches, run its tasks.

    Results go back pickled one by one, in task order: in ``("more",
    chunk)`` replies while they outgrow :data:`REPLY_BYTES`, then one
    ``("ok", chunk, counts)`` (or ``("err", traceback)``) that ends the
    batch.  ``counts`` is the batch's occurrence-set tally, summed over
    the worker's views (:attr:`ResidentView.counts`): tasks served from
    a kept set, sets built, sets dropped.
    """
    resident: Dict[int, ResidentView] = {}
    use_index = bool(config["use_index"])
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, patches, tasks = message
        chunk: List[bytes] = []
        size = 0
        try:
            for patch in patches:
                view = resident.get(patch.shard_id)
                if view is None:
                    view = resident[patch.shard_id] = ResidentView()
                view.apply(patch, use_index)
            for task in tasks:
                result = resident[task[2]].evaluate(task, config)
                chunk.append(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                size += len(chunk[-1])
                if size >= REPLY_BYTES:
                    conn.send(("more", chunk))
                    chunk, size = [], 0
            counts = [0, 0, 0]
            for view in resident.values():
                counts = [a + b for a, b in zip(counts, view.counts)]
                view.counts = [0, 0, 0]
            reply = ("ok", chunk, tuple(counts))
        except BaseException:
            reply = ("err", traceback.format_exc())
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
#: The pool's own dispatch counters, and those fed by the workers'
#: replies (in reply order).
_DISPATCH_COUNTERS = ("tasks_dispatched", "slices_shipped", "slices_patched")
_SET_COUNTERS = ("tasks_from_sets", "sets_built", "sets_dropped")


class ShardWorkerPool:
    """Long-lived shard-owning worker processes, one message per batch each.

    Shards are pinned to workers by ``shard_id % workers``: every task
    for a shard runs where its resident view lives.  :meth:`run` sends
    each worker one message per batch (the patches its shards need, then
    its tasks in order) and reads its reply, so outcomes are
    position-stable and byte-identical however the OS schedules the
    processes.  The pool keeps, per shard, the view and core edges it
    last shipped: exactly what the worker holds, so a patch diffed
    against it is exact whatever happened in between.  It follows one
    :class:`ShardedIndex` at one depth at a time (:meth:`bind`); delta
    invalidations mark shipped shards dirty, and :meth:`run` patches
    exactly those.  Infrastructure failures raise
    :class:`WorkerPoolError` (an ``OSError``), which callers treat like a
    broken executor: shut down, fall back to serial, results unchanged.
    A batch that fails in any way shuts the pool down, since the workers'
    views may then be anywhere between two states.

    ``shutdown(wait=False, cancel_futures=True)`` terminates the workers
    instead of draining them — the Ctrl-C path must never wait on a slow
    candidate.
    """

    def __init__(
        self,
        workers: int,
        *,
        measure: str,
        lazy: bool,
        lazy_cap: int,
        use_index: bool,
    ) -> None:
        self.workers = max(1, int(workers))
        self._config = dict(
            measure=measure, lazy=lazy, lazy_cap=lazy_cap, use_index=use_index
        )
        self._procs: List = []
        self._conns: List = []
        self._closed = False
        self._bound: Optional[ShardedIndex] = None
        self._depth: Optional[int] = None
        # shard id -> (the view last shipped, its core-edge set)
        self._shipped: Dict[int, Tuple[LabeledGraph, FrozenSet[Edge]]] = {}
        self._dirty: Set[int] = set()
        # One copy of the source graph, shared within a batch by every
        # shard whose view is the whole graph.
        self._graph_copy: Optional[LabeledGraph] = None
        self.slices_shipped = 0
        self.slices_patched = 0
        self.tasks_dispatched = 0
        # The workers' occurrence-set tallies, summed from their replies.
        self.tasks_from_sets = 0
        self.sets_built = 0
        self.sets_dropped = 0
        # Declare the pool's instruments before spawning: the documented
        # names must exist in snapshots even if process start fails below.
        registry = _metrics.get_registry()
        for name in _DISPATCH_COUNTERS + _SET_COUNTERS:
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
    def bind(self, sharded: ShardedIndex, depth: int) -> None:
        """Follow ``sharded``'s views at ``depth``.

        A new index object (a maintainer rebuilt or re-partitioned it) or
        a new depth may change any view, so every shard shipped so far
        goes dirty; its next use patches it against what its worker
        holds.
        """
        if sharded is self._bound and depth == self._depth:
            return
        if sharded is not self._bound:
            self.detach()
            self._bound = sharded
            sharded.subscribe_invalidations(self._on_invalidation)
        self._depth = depth
        self._dirty.update(self._shipped)

    def _on_invalidation(self, shard_ids, vertices) -> None:
        """The pool's copy of the view-cache staleness rule.

        A shipped shard goes dirty exactly when the index's own cached
        expansion for it would have been dropped: the shard's membership
        was touched, or a touched vertex lies inside the view last
        shipped.
        """
        for shard_id, (view, _core) in self._shipped.items():
            if shard_id in shard_ids or any(view.has_vertex(v) for v in vertices):
                self._dirty.add(shard_id)

    def detach(self) -> None:
        """Stop following the bound index (the workers keep their views)."""
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

    def _snapshot(self, view: LabeledGraph) -> LabeledGraph:
        """``view`` as it can be kept: the live source graph is copied.

        The source graph is what :meth:`ShardedIndex.expanded_shard`
        returns for a ball that swallowed the whole graph, and it keeps
        mutating; every such shard updated in one batch shares one copy.
        """
        assert self._bound is not None
        if view is not self._bound.graph:
            return view
        if self._graph_copy is None:
            self._graph_copy = view.copy()
        return self._graph_copy

    def _update(self, sharded: ShardedIndex, shard_id: int) -> Optional[ShardPatch]:
        """The patch that brings ``shard_id``'s resident view current, if any.

        A shard never shipped is diffed against an empty view (the whole
        shard); a dirty one against the view last shipped.
        """
        shipped = self._shipped.get(shard_id)
        if shipped is not None and shard_id not in self._dirty:
            return None
        self._dirty.discard(shard_id)
        assert self._depth is not None
        view = self._snapshot(sharded.expanded_shard(shard_id, self._depth))
        core = frozenset(sharded.shards[shard_id].core_edge_set)
        self._shipped[shard_id] = (view, core)
        if shipped is None:
            self.slices_shipped += 1
            _metrics.counter("repro_pool_slices_shipped").inc()
            return shard_patch(shard_id, LabeledGraph(), view, frozenset(), core)
        patch = shard_patch(shard_id, shipped[0], view, shipped[1], core)
        if not len(patch):
            return None
        self.slices_patched += 1
        _metrics.counter("repro_pool_slices_patched").inc()
        return patch

    # -- the request/response cycle ------------------------------------
    def run(
        self, sharded: ShardedIndex, tasks: Sequence[ShardTask], depth: int
    ) -> List:
        """Evaluate ``tasks`` on their owning workers; results in task order.

        Every task is evaluated against its shard's halo view at
        ``depth``.  Each worker gets one message — the patches its shards
        need, then its tasks — and sends the results back in task order,
        split only past :data:`REPLY_BYTES`.  Every reply is read
        before a task failure is raised, so no stale reply is left in a
        pipe; any failure then shuts the pool down.
        """
        if self._closed:
            raise WorkerPoolError("shard worker pool is shut down")
        self.bind(sharded, depth)
        if not tasks:
            return []
        try:
            results = self._dispatch(sharded, tasks)
        except BaseException:
            self.shutdown(wait=False, cancel_futures=True)
            raise
        self.tasks_dispatched += len(tasks)
        _metrics.counter("repro_pool_tasks_dispatched").inc(len(tasks))
        return results

    def _dispatch(self, sharded: ShardedIndex, tasks: Sequence[ShardTask]) -> List:
        positions: Dict[int, List[int]] = {}
        for position, task in enumerate(tasks):
            positions.setdefault(self._worker_for(task[2]), []).append(position)
        patches: Dict[int, List[ShardPatch]] = {worker: [] for worker in positions}
        for shard_id in sorted({task[2] for task in tasks}):
            patch = self._update(sharded, shard_id)
            if patch is not None:
                patches[self._worker_for(shard_id)].append(patch)
        self._graph_copy = None
        depth_histogram = _metrics.histogram("repro_pool_queue_depth")
        for worker, owned in positions.items():
            depth_histogram.observe(len(owned))
            self._send(worker, ("run", patches[worker], [tasks[p] for p in owned]))
        from multiprocessing.connection import wait as connection_wait

        results: List = [None] * len(tasks)
        received = dict.fromkeys(positions, 0)
        pending = {self._conns[worker]: worker for worker in positions}
        failures: List[str] = []
        while pending:
            ready = connection_wait(list(pending), timeout=5.0)
            if not ready:
                for worker in pending.values():
                    if not self._procs[worker].is_alive():
                        raise WorkerPoolError(
                            f"shard worker {worker} died mid-level "
                            f"(exitcode {self._procs[worker].exitcode})"
                        )
                continue
            for conn in ready:
                worker = pending.pop(conn)
                try:
                    status, payload, *tally = conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerPoolError(
                        f"shard worker {worker} died mid-level ({exc})"
                    ) from exc
                if status == "err":
                    failures.append(f"shard worker {worker} task failed:\n{payload}")
                    continue
                if tally:
                    self._count_sets(*tally)
                done = received[worker]
                for position, data in zip(positions[worker][done:], payload):
                    results[position] = pickle.loads(data)
                received[worker] = done + len(payload)
                if status == "more":
                    pending[conn] = worker
        if failures:
            raise RuntimeError("\n".join(failures))
        return results

    def _count_sets(self, counts: Tuple[int, int, int]) -> None:
        """Add one worker reply's occurrence-set tally to the pool's counters."""
        for name, count in zip(_SET_COUNTERS, counts):
            if count:
                setattr(self, name, getattr(self, name) + count)
                _metrics.counter(f"repro_pool_{name}").inc(count)

    def stats(self) -> Dict[str, int]:
        """This pool's counters under the registry naming convention.

        The values come from the pool's own counter attributes
        (``tasks_dispatched``, ``slices_shipped``, ``slices_patched`` and
        the workers' occurrence-set tallies ``tasks_from_sets``,
        ``sets_built``, ``sets_dropped``), which are their storage; the
        registry counters of the same names are process-wide.
        """
        return {
            f"repro_pool_{name}": getattr(self, name)
            for name in _DISPATCH_COUNTERS + _SET_COUNTERS
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
    depth: int,
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

    Every task is evaluated against its shard's halo view at ``depth``,
    the session depth (``max_pattern_nodes - 2``), which must cover every
    planned pattern's :func:`~repro.partition.evaluate.required_depth`.
    ``runner`` is a :class:`ShardWorkerPool`, which gets the batch's
    tasks and the depth in one :meth:`ShardWorkerPool.run`, or ``None``,
    which evaluates each task in process as the merge reaches it, against
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
        shards: List[Tuple[int, bool]] = payload  # type: ignore[assignment]
        if required_depth(pattern) > depth:
            raise PartitionError(
                f"{pattern!r} needs halo depth {required_depth(pattern)}, "
                f"above the session depth {depth}"
            )
        # One relevant shard finishes the candidate where it runs
        # ("solo"); otherwise each returns a partial for the merge
        # ("part") — with no relevant shard, the empty merge is the exact
        # answer.
        task_kind = "solo" if len(shards) == 1 else "part"
        plans.append((task_kind, len(shards)))
        tasks.extend(
            (task_kind, pattern, shard_id, exclusive, max_occurrences)
            for shard_id, exclusive in shards
        )
    if runner is None:
        config = dict(
            measure=measure, lazy=lazy, lazy_cap=lazy_cap, use_index=use_index
        )
        partials = (
            evaluate_task(
                task,
                partial(sharded.expanded_shard, task[2], depth),
                sharded.shards[task[2]].core_edge_set,
                config,
            )
            for task in tasks
        )
    else:
        partials = iter(runner.run(sharded, tasks, depth) if tasks else ())
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
