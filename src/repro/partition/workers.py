"""The sharded evaluator and its two runners: in process and shard-resident.

**The one sharded evaluator** (:func:`pooled_outcomes`).  It plans each
batch of candidates into ``(kind, pattern, shard_id, exclusive, limit)``
tasks, has a *runner* evaluate them, and merges the partials.  There is
one view machinery and two runners of it: the resident pool below, and
:class:`InProcessRunner`, which runs the same machinery in the calling
process for serial sessions.  Both hold one :class:`ResidentView` per
shard, the shard's halo expansion at the session depth ``D =
max_pattern_nodes - 2``, kept current by that shard's
:class:`ShippedShard` record, and both evaluate every task through the
one task function :func:`~repro.partition.evaluate.evaluate_task`.
Serial and pooled sharded mining are therefore byte-identical by
construction.

**Shard-resident workers** (:class:`ShardWorkerPool`), the one pool of
the package: every pooled session is sharded, and a flat session with
``workers > 1`` runs as one shard whose view is the whole graph.
Rather than shipping the whole data graph and partition to every worker
(memory ``workers x |G|``, paid again by every new pool), each
long-lived worker *owns* the shards placed on it (:func:`shard_owners`:
``shard_id % workers`` when there are at least as many shards as
workers, otherwise each shard on every ``k``-th worker) and holds one
:class:`ResidentView` per shard: the shard's core edges and its
depth-``D`` halo view, whose index an
:class:`~repro.index.delta.IndexMaintainer` keeps current.  What crosses
the pipe is one kind of update, a :class:`ShardPatch`: on a shard's
first use the whole view, after that the change since its last
shipment, which the parent derives from the graph's deltas
(:class:`ShippedShard`) without recomputing or diffing a view.  The
worker applies it through the :class:`LabeledGraph` mutation API, so
its index is patched in O(delta), and a burst past the view's delta-log
bound folds into one rebuild.  Across the batches of a ``mine_stream``
run, untouched shards never cross the process boundary again.  A
worker's tasks for one batch go out in one message, together with the
patches they need, and come back in task order, in one reply unless the
results outgrow :data:`REPLY_BYTES`.

The pooled parent keeps no views: per shipped shard it records the
ball's vertex set (at most ``|V|`` members, the
``repro_pool_recorded_members`` gauge) and the core edges, so the
``max_resident`` bound, which caps the in-process runner's views, holds
there trivially.  A ball that swallows the whole graph is read as the
source graph itself (no view copy in the parent); the parent does hold
the one-shard index's core graph, a copy of the graph's vertices and
edges.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import PartitionError
from ..graph.labeled_graph import Edge, Label, LabeledGraph, Vertex, normalize_edge
from ..graph.pattern import Pattern
from ..index.compact import projected_index_nbytes
from ..index.delta import EdgeAdded, EdgeRemoved, IndexMaintainer, VertexRemoved
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
from .sharded_index import ShardedIndex, within_hops


class WorkerPoolError(OSError):
    """A resident worker died or its pipe broke mid-run.

    Subclasses :class:`OSError`, the one failure the miner's pool
    fallback catches (``except OSError`` -> serial re-evaluation), so a
    failed spawn and a failed batch degrade the same way.
    """


def shard_owners(shard_id: int, shards: int, workers: int) -> Tuple[int, ...]:
    """The workers that hold shard ``shard_id``'s view, out of ``shards``.

    Every worker ``w`` with ``w % min(shards, workers) == shard_id %
    workers``: with at least as many shards as workers that is the one
    worker ``shard_id % workers``; with fewer, shard ``s`` is replicated
    on workers ``s, s + shards, ...``, so no worker idles (one shard:
    every worker).
    """
    span = min(shards, workers)
    home = shard_id % workers
    return tuple(worker for worker in range(workers) if worker % span == home)


# ----------------------------------------------------------------------
# what crosses the pipe: patches
# ----------------------------------------------------------------------
@dataclass
class ShardPatch:
    """One update of a shard's resident view: its halo view and core edges.

    The fields are applied in order (:meth:`ResidentView.apply`): edges
    out, vertices out, vertices in, edges in.  A vertex that goes out
    takes its remaining view edges with it, and every added edge finds
    both endpoints.  A vertex that was deleted from the graph and added
    back (perhaps under another label) goes out and comes back in.  The
    first patch of a shard is the whole view (:func:`shard_patch`); later
    ones are derived from the graph's deltas (:class:`ShippedShard`).
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


def shard_patch(
    shard_id: int,
    view: LabeledGraph,
    core: AbstractSet[Edge],
    old_members: AbstractSet[Vertex] = frozenset(),
    old_core: AbstractSet[Edge] = frozenset(),
) -> ShardPatch:
    """The patch that replaces a resident view wholesale with ``view``.

    Every vertex of the old view (``old_members``) goes out, taking its
    edges with it, and all of ``view`` comes in; the core set goes from
    ``old_core`` to ``core``.  Against an empty view (the defaults) this
    is a shard's first shipment.
    """
    labels = view.labels()
    edges: Set[Edge] = set()
    for vertex in labels:
        edges.update(normalize_edge(vertex, w) for w in view.neighbors(vertex))
    return ShardPatch(
        shard_id=shard_id,
        edges_out=(),
        vertices_out=tuple(old_members),
        vertices_in=tuple(labels.items()),
        edges_in=tuple(edges),
        core_out=tuple(old_core),
        core_in=tuple(core),
    )


def _within(graph: LabeledGraph, targets: LabeledGraph, vertex, depth: int) -> bool:
    """True when ``vertex`` lies within ``depth`` hops of a vertex of ``targets``."""
    if vertex in targets:
        return True
    if vertex not in graph:
        return False
    seen = {vertex}
    frontier = [vertex]
    for _ in range(depth):
        next_frontier = []
        for v in frontier:
            for w in graph.neighbors(v):
                if w in seen:
                    continue
                if w in targets:
                    return True
                seen.add(w)
                next_frontier.append(w)
        frontier = next_frontier
    return False


class ShippedShard:
    """The parent's record of one shipped shard, and the patches that follow.

    The record keeps what the shard's worker holds, as sets: ``members``,
    the vertex set of the halo view last shipped (the ball of radius
    ``D`` around the shard's vertex set ``S``), and ``core``, its core
    edges.  The view itself is the subgraph of the source graph that
    ``members`` induces, so nothing else needs keeping.  Two cursors
    follow what changed since the last shipment: one on the source
    graph's delta log and one on the shard's core graph, whose vertex
    set is ``S`` and whose edges are the core edges (rebalance moves
    change it in place).

    :meth:`update` derives the next patch from those deltas.  A vertex
    can enter or leave the ball only if, in the current graph, it lies
    within ``D`` hops of a *touched* vertex: an endpoint of an added or
    removed edge, an added or removed vertex, or a vertex that entered
    or left ``S``.  (A path of at most ``D`` hops to ``S`` that appeared
    or broke runs through such a vertex.)  Each of these candidates is
    re-tested with a radius-``D`` search for ``S``.  When no touched
    vertex lies in the old ball, only the vertices that entered or left
    ``S`` need to be, so a shard far from the deltas costs one set
    check.  An edge between members that stay changes only where a
    delta touched it, and a vertex that enters brings its current edges
    to members.  So the parent's work is local to the deltas, and the
    patched view is again the induced subgraph on the new ball: exact.

    Fallback: a new record, a record closed by :meth:`close` (its runner
    re-bound to another index object or depth, or shut down), and a gap
    on either cursor replace the view wholesale (:func:`shard_patch`),
    computed by :meth:`ShardedIndex.expanded_shard`.  Close a record
    when its runner drops it: an open source cursor keeps the graph's
    delta log alive.
    """

    __slots__ = ("shard_id", "members", "core", "_source", "_core_cursor")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.members: Set[Vertex] = set()
        self.core: Set[Edge] = set()
        self._source = None
        self._core_cursor = None

    def _replace(self, sharded: ShardedIndex, depth: int) -> ShardPatch:
        """Re-ship the whole view, computed by ``expanded_shard``."""
        self.close()
        shard = sharded.shards[self.shard_id]
        view = sharded.expanded_shard(self.shard_id, depth)
        core = set(shard.core_edge_set)
        patch = shard_patch(self.shard_id, view, core, self.members, self.core)
        self.members = set(view.labels())
        self.core = core
        self._source = sharded.graph.cursor()
        self._core_cursor = shard.graph.cursor()
        return patch

    def close(self) -> None:
        """Close the cursors; the next update replaces the view wholesale."""
        for cursor in (self._source, self._core_cursor):
            if cursor is not None:
                cursor.close()
        self._source = self._core_cursor = None

    def update(
        self, sharded: ShardedIndex, depth: int
    ) -> Tuple[Optional[ShardPatch], bool]:
        """The patch since the last shipment (``None`` when nothing
        changed), and whether it replaces the view wholesale."""
        deltas = None if self._source is None else self._source.read()
        core_deltas = None if deltas is None else self._core_cursor.read()
        if core_deltas is None:
            return self._replace(sharded, depth), True
        if not deltas and not core_deltas:
            return None, False
        graph = sharded.graph
        shard = sharded.shards[self.shard_id]
        touched: Set[Vertex] = set()
        removed: Set[Vertex] = set()
        # Touched pair -> whether the edge was there at the last shipment.
        edges: Dict[Edge, bool] = {}
        for delta in deltas:
            if isinstance(delta, (EdgeAdded, EdgeRemoved)):
                touched.add(delta.u)
                touched.add(delta.v)
                pair = normalize_edge(delta.u, delta.v)
                if pair not in edges:
                    edges[pair] = isinstance(delta, EdgeRemoved)
            else:
                touched.add(delta.vertex)
                if isinstance(delta, VertexRemoved):
                    removed.add(delta.vertex)
        members = self.members
        core_touched: Set[Edge] = set()
        moved: Set[Vertex] = set()  # vertices that entered or left S
        for delta in core_deltas:
            if isinstance(delta, (EdgeAdded, EdgeRemoved)):
                core_touched.add(normalize_edge(delta.u, delta.v))
            else:
                moved.add(delta.vertex)
        # A path to S that appeared or broke through no vertex of the old
        # ball runs to a vertex that entered or left S.
        if touched.isdisjoint(members):
            touched.clear()
        touched |= moved
        present = [vertex for vertex in touched if vertex in graph]
        leaving: Set[Vertex] = set()
        entering: Set[Vertex] = set()
        for vertex in touched | within_hops(graph, present, depth):
            inside = _within(graph, shard.graph, vertex, depth)
            if vertex in members:
                if inside and vertex not in removed:
                    continue
                leaving.add(vertex)
            if inside:
                entering.add(vertex)
        members -= leaving
        members |= entering
        # Members that stayed hold the touched edges they had; every
        # other member arrives with all of its edges to members.
        edges_out: List[Edge] = []
        edges_in: Set[Edge] = set()
        for pair, before in edges.items():
            a, b = pair
            if a not in members or b not in members:
                continue
            wanted = graph.has_edge(a, b)
            held = before and a not in entering and b not in entering
            if held and not wanted:
                edges_out.append(pair)
            elif wanted and not held:
                edges_in.add(pair)
        for vertex in entering:
            edges_in.update(
                normalize_edge(vertex, w)
                for w in graph.neighbors(vertex)
                if w in members
            )
        now = shard.core_edge_set
        core_out = tuple(e for e in core_touched if e in self.core and e not in now)
        core_in = tuple(e for e in core_touched if e in now and e not in self.core)
        self.core.difference_update(core_out)
        self.core.update(core_in)
        patch = ShardPatch(
            shard_id=self.shard_id,
            edges_out=tuple(edges_out),
            vertices_out=tuple(leaving),
            vertices_in=tuple((vertex, graph.label_of(vertex)) for vertex in entering),
            edges_in=tuple(edges_in),
            core_out=core_out,
            core_in=core_in,
        )
        return (patch if len(patch) else None), False


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
        """Run one task against this view (a lazy ``part`` task's scan on demand)."""
        source = None
        if (
            config["measure"] == "mni"
            and not config["lazy"]
            and config["use_index"]
            and task[4] is None
        ):
            source = self._occurrence_set(task[1])
        payload = evaluate_task(task, lambda: self.view, self.core, config, source)
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
                if isinstance(result, NodeImages):
                    result = dict(result)  # scan every node before sending
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
#: Buckets of ``repro_pool_patch_elements``: a derived patch is a handful
#: of elements, a shard's first shipment its whole view.
PATCH_ELEMENT_BUCKETS = (4, 16, 64, 256, 1024, 4096, 16384)


def _deal_key(pattern: Pattern) -> int:
    """A key of ``pattern``'s signature that is the same in every run
    (sorted reprs, not ``hash()``, whose string hashes vary per run)."""
    labels, edges = pattern.graph.signature()
    text = repr((sorted(map(repr, labels)), sorted(map(repr, edges))))
    return zlib.crc32(text.encode())


class ShardWorkerPool:
    """Long-lived shard-owning worker processes, one message per batch each.

    Shards are placed on workers by :func:`shard_owners`: every task for
    a shard runs on a worker that holds its resident view.  A shard held
    by several workers (fewer shards than workers) gets each of its
    patches on all of them, and its tasks are dealt among them by a
    stable key of the pattern's signature (:func:`_deal_key`), so a
    pattern re-evaluated batch after batch keeps its occurrence set on
    one holder.
    :meth:`run` sends each worker one message per batch (the patches its
    shards need, then its tasks in order) and reads its reply, so
    outcomes are position-stable and byte-identical however the OS
    schedules the processes.  The pool keeps one :class:`ShippedShard`
    record per shipped shard, which derives the shard's next patch from
    the deltas since its last shipment.  It follows one :class:`ShardedIndex` at
    one depth at a time (:meth:`bind`), and :meth:`run` patches the
    shards a batch's tasks use.  Each patch that crosses the pipe is
    observed in the ``repro_pool_patch_elements`` histogram.
    Infrastructure failures raise :class:`WorkerPoolError` (an
    ``OSError``), which callers answer by shutting the pool down and
    falling back to serial, results unchanged.
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
        self._shipped: Dict[int, ShippedShard] = {}
        # The shard count the records' holders are placed by.
        self._placed: Optional[int] = None
        # (worker, patch) pairs that empty the views of dropped records
        # (:meth:`bind`).
        self._emptied: List[Tuple[int, ShardPatch]] = []
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
        registry.histogram("repro_pool_patch_elements", PATCH_ELEMENT_BUCKETS)
        registry.gauge("repro_pool_recorded_members")
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

    # -- index binding ---------------------------------------------------
    def bind(self, sharded: ShardedIndex, depth: int) -> None:
        """Follow ``sharded``'s views at ``depth``.

        A new index object (a maintainer rebuilt or re-partitioned it) or
        a new depth may change any view, so every shipped shard's record
        is closed and its next use replaces the view wholesale.  The
        records of shard ids the new index lacks, or that the new shard
        count places on other workers, are dropped, and the next message
        to every worker that held one empties its view there.
        """
        if sharded is self._bound and depth == self._depth:
            return
        shards = sharded.num_shards
        for shard_id, record in list(self._shipped.items()):
            record.close()
            holders = shard_owners(shard_id, self._placed, self.workers)
            if shard_id < shards and holders == shard_owners(
                shard_id, shards, self.workers
            ):
                continue
            del self._shipped[shard_id]
            emptied = shard_patch(
                shard_id, LabeledGraph(), (), record.members, record.core
            )
            self._emptied.extend((worker, emptied) for worker in holders)
        self._bound = sharded
        self._depth = depth
        self._placed = shards

    # -- plumbing ------------------------------------------------------
    def _send(self, worker: int, message) -> None:
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerPoolError(
                f"shard worker {worker} is gone (send failed: {exc})"
            ) from exc

    def _update(
        self, sharded: ShardedIndex, shard_id: int, holders: Tuple[int, ...]
    ) -> Optional[ShardPatch]:
        """The patch that brings ``shard_id``'s resident views current, if any.

        The patch goes to every worker in ``holders``.  A whole view (a
        shard's first shipment, or a replacement after a gap or a
        re-bind) counts as a shipped slice per holder; a patch its record
        derives from the deltas since the last shipment as a patched one.
        """
        assert self._depth is not None
        record = self._shipped.get(shard_id)
        if record is None:
            record = self._shipped[shard_id] = ShippedShard(shard_id)
        patch, whole = record.update(sharded, self._depth)
        if patch is None:
            return None
        name = "slices_shipped" if whole else "slices_patched"
        setattr(self, name, getattr(self, name) + len(holders))
        _metrics.counter(f"repro_pool_{name}").inc(len(holders))
        elements = _metrics.histogram(
            "repro_pool_patch_elements", PATCH_ELEMENT_BUCKETS
        )
        for _ in holders:
            elements.observe(len(patch))
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
        holders = {
            shard_id: shard_owners(shard_id, sharded.num_shards, self.workers)
            for shard_id in sorted({task[2] for task in tasks})
        }
        positions: Dict[int, List[int]] = {}
        for position, task in enumerate(tasks):
            owners = holders[task[2]]
            if len(owners) > 1:
                worker = owners[_deal_key(task[1]) % len(owners)]
            else:
                worker = owners[0]
            positions.setdefault(worker, []).append(position)
        patches: Dict[int, List[ShardPatch]] = {worker: [] for worker in positions}
        for worker, patch in self._emptied:
            patches.setdefault(worker, []).append(patch)
        self._emptied = []
        for shard_id, owners in holders.items():
            patch = self._update(sharded, shard_id, owners)
            if patch is not None:
                for worker in owners:
                    patches.setdefault(worker, []).append(patch)
        _metrics.gauge("repro_pool_recorded_members").set(
            sum(len(record.members) for record in self._shipped.values())
        )
        depth_histogram = _metrics.histogram("repro_pool_queue_depth")
        for worker, shipped in patches.items():
            owned = positions.setdefault(worker, [])
            depth_histogram.observe(len(owned))
            self._send(worker, ("run", shipped, [tasks[p] for p in owned]))
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
        for record in self._shipped.values():
            record.close()
        self._bound = None
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


class InProcessRunner:
    """The pool's view machinery in the calling process: the serial runner.

    One :class:`ResidentView` per shard, kept current by the shard's
    :class:`ShippedShard` record as a pool worker's view is, so a steady
    stream computes no view and re-evaluated eager-MNI patterns read
    kept sets.  :meth:`run` has the pool's signature but runs each task
    only when the merge reaches it, so a lazy ``part`` task's on-demand
    :class:`~repro.partition.evaluate.NodeImages` keeps the merge's
    node-major early exits.

    ``max_resident`` (``None`` = unbounded) caps how many shards hold
    views: one more drops the least recently used shard's view and
    closes its record, and its next use ships it whole.  A re-bind
    (another index object or depth) drops every view.
    ``resident_weight`` / ``peak_resident_weight`` sum
    :func:`~repro.index.compact.projected_index_nbytes` over the held
    views and ``evictions`` counts the bound's drops; the registry
    mirrors them as ``repro_pager_*``.
    """

    def __init__(
        self,
        *,
        measure: str,
        lazy: bool,
        lazy_cap: Optional[int],
        use_index: bool,
        max_resident: Optional[int] = None,
    ) -> None:
        if max_resident is not None and max_resident < 1:
            raise PartitionError(f"max_resident must be >= 1, got {max_resident}")
        self._config = dict(
            measure=measure, lazy=lazy, lazy_cap=lazy_cap, use_index=use_index
        )
        self.max_resident = max_resident
        # shard id -> [record, view, weight]; least recently used first
        self._held: "OrderedDict[int, list]" = OrderedDict()
        self._bound: Optional[ShardedIndex] = None
        self._depth: Optional[int] = None
        self.resident_weight = 0
        self.peak_resident_weight = 0
        self.evictions = 0

    def run(
        self, sharded: ShardedIndex, tasks: Sequence[ShardTask], depth: int
    ) -> Iterator:
        """Evaluate ``tasks`` against ``sharded``'s views at ``depth``, lazily."""
        if sharded is not self._bound or depth != self._depth:
            self._drop(list(self._held))
            self._bound, self._depth = sharded, depth
        return self._evaluate(sharded, tasks)

    def _evaluate(self, sharded: ShardedIndex, tasks: Sequence[ShardTask]):
        current: Set[int] = set()  # shards brought current in this batch
        for task in tasks:
            yield self._view(sharded, task[2], current).evaluate(task, self._config)

    def _view(self, sharded: ShardedIndex, shard_id: int, current: Set[int]):
        held = self._held.get(shard_id)
        if held is None:
            held = self._held[shard_id] = [ShippedShard(shard_id), ResidentView(), 0]
        else:
            self._held.move_to_end(shard_id)
        record, view, weight = held
        if shard_id not in current:
            current.add(shard_id)
            patch, _whole = record.update(sharded, self._depth)
            if patch is not None:
                view.apply(patch, self._config["use_index"])
                held[2] = projected_index_nbytes(
                    view.view.num_vertices,
                    view.view.num_edges,
                    len(view.view.label_alphabet()),
                )
                self._weigh(held[2] - weight)
        if self.max_resident is not None and len(self._held) > self.max_resident:
            evicted = next(iter(self._held))
            current.discard(evicted)
            self._drop([evicted])
            self.evictions += 1
            _metrics.counter("repro_pager_evictions").inc()
        return view

    def _drop(self, shard_ids) -> None:
        """Drop these shards' views and close their records."""
        for shard_id in shard_ids:
            record, _view, weight = self._held.pop(shard_id)
            record.close()
            self._weigh(-weight)

    def _weigh(self, change: int) -> None:
        self.resident_weight += change
        self.peak_resident_weight = max(self.peak_resident_weight, self.resident_weight)
        _metrics.gauge("repro_pager_resident_weight").set(self.resident_weight)
        _metrics.gauge("repro_pager_peak_resident_weight").set_max(
            self.peak_resident_weight
        )

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Drop every view and close every record (the pool's signature)."""
        self._drop(list(self._held))
        self._bound = None


def pooled_outcomes(
    patterns: Sequence[Pattern],
    sharded: ShardedIndex,
    runner: Union[ShardWorkerPool, InProcessRunner],
    *,
    measure: str,
    lazy: bool,
    lazy_cap: Optional[int],
    max_occurrences: Optional[int],
    depth: int,
    flat_evaluate: Callable[[Pattern], Tuple[float, int]],
    histogram: Optional[Dict] = None,
    prune_below: Optional[float] = None,
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
    ``runner`` gets the batch's tasks and the depth in one ``run`` call:
    a :class:`ShardWorkerPool`, or an :class:`InProcessRunner`, which
    evaluates each task as the merge reaches it.  Either way every task
    goes through :func:`~repro.partition.evaluate.evaluate_task` against
    a :class:`ResidentView` and every partial through the same merges,
    so outcomes are byte-identical however the tasks execute.  In
    process, a lazy fanout's partials are on-demand
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
