"""ShardedIndex — the index layer over a partitioned data graph.

This is the architectural seam the ROADMAP's sharding item asked for: a
:class:`ShardedIndex` splits one :class:`LabeledGraph` into k edge-disjoint
:class:`~repro.partition.shard.GraphShard` cells (via a configurable
:func:`~repro.partition.partitioner.partition_edges` method), replicates
boundary vertices into per-shard halos, and exposes the merged global
views evaluation needs:

* a **global label histogram** — merged over shard vertex sets with
  replicated boundary vertices counted once, so it is identical to the
  unpartitioned graph's histogram (the miner's label-frequency prune
  bound stays exact);
* a **label-pair directory** — canonical label pair → the shard ids whose
  *core* edges realize it.  A pattern can only have occurrences anchored
  in shards sharing its footprint, so the directory prunes whole shards
  per candidate;
* per-shard :class:`~repro.index.GraphIndex` instances (built lazily,
  cached on each shard's core graph, and delta-patched through a
  per-shard :class:`~repro.index.delta.IndexMaintainer` — the PR 2
  splice machinery applied shard-by-shard);
* **halo-expanded shard views** — the induced subgraph within ``depth``
  hops of a shard's vertices, cached per (shard, depth).  Depth
  ``n - 2`` is exactly what makes per-shard enumeration of an n-node
  connected pattern exhaustive for occurrences using a core edge (see
  :mod:`repro.partition.evaluate`).  ``max_resident`` bounds how many
  shards keep cached views: past it the least recently used shard's
  views are dropped and recomputed on their next use.

Like :class:`~repro.index.GraphIndex`, a ShardedIndex is a snapshot of
one graph version — but no longer a *static* one: it implements the
:class:`~repro.index.maintainable.MaintainableIndex` protocol, absorbing
typed graph deltas in O(delta) through :meth:`apply_delta` instead of
forcing a re-partition + rebuild.  Each delta is routed to its owning
shard by the partition's persisted assignment function
(:class:`~repro.partition.partitioner.EdgeRouter`), halo replicas are
patched in every incident shard, and the merged histogram, label-pair
directory, and cached halo expansions are updated (or, for expansions
whose ball a delta touched, invalidated) incrementally.
:class:`~repro.partition.maintainer.ShardedIndexMaintainer` drives this
from a cursor on the graph's delta log; un-maintained callers keep the
old behavior — :meth:`is_current` reports staleness and the miner
re-partitions per session exactly as before.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from ..errors import PartitionError
from ..graph.labeled_graph import (
    Edge,
    Label,
    LabeledGraph,
    Vertex,
    normalize_edge,
)
from ..index.compact import projected_index_nbytes
from ..index.graph_index import GraphIndex, _label_pair_key
from ..index.maintainable import MaintainableIndex
from ..obs import metrics as _metrics
from .partitioner import EdgeRouter, Partition, partition_edges
from .shard import GraphShard

LabelPair = Tuple[Label, Label]


def within_hops(graph: LabeledGraph, seeds, depth: int) -> Set[Vertex]:
    """The vertices of ``graph`` within ``depth`` hops of the ``seeds``."""
    frontier = set(seeds)
    keep = set(frontier)
    for _ in range(depth):
        if not frontier:
            break
        frontier = {
            neighbor
            for vertex in frontier
            for neighbor in graph.neighbors(vertex)
            if neighbor not in keep
        }
        keep |= frontier
    return keep


class ShardedIndex(MaintainableIndex):
    """k edge-disjoint shards of one data graph, plus merged global views.

    Build with :meth:`build` (partitioning included) or directly from a
    pre-computed :class:`~repro.partition.partitioner.Partition`.  The
    source graph is retained: halo expansion and global-exactness
    guarantees both need it, and a one-shard index's halo view is the
    source graph itself.

    ``max_resident`` (``None`` = unbounded) caps how many shards keep
    halo views in the view cache (:meth:`expanded_shard`).
    ``resident_weight`` / ``peak_resident_weight`` account the cached
    views by :func:`repro.index.compact.projected_index_nbytes`, the
    analytic byte cost of an index over each view (a whole-graph alias
    shares the source graph's storage and weighs 0); ``evictions`` and
    ``recomputes`` count the shards the bound dropped and the views
    computed.  The registry mirrors them as ``repro_pager_*``.
    """

    __slots__ = (
        "graph",
        "partition",
        "version",
        "shards",
        "_pair_shards",
        "_pair_counts",
        "_edge_counts",
        "_owners",
        "_histogram",
        "_router",
        "_maintainers",
        "_expanded",
        "max_resident",
        "resident_weight",
        "peak_resident_weight",
        "evictions",
        "recomputes",
    )

    def __init__(
        self,
        graph: LabeledGraph,
        partition: Partition,
        max_resident: Optional[int] = None,
    ) -> None:
        if max_resident is not None and max_resident < 1:
            raise PartitionError(f"max_resident must be >= 1, got {max_resident}")
        self.graph = graph
        self.partition = partition
        self.version = graph.mutation_version()
        # shard id -> depth -> cached view; least recently used shard first
        self._expanded: "OrderedDict[int, Dict[int, LabeledGraph]]" = OrderedDict()
        self._router: Optional[EdgeRouter] = None
        self._maintainers: Dict[int, object] = {}
        self.max_resident = max_resident
        self.resident_weight = 0
        self.peak_resident_weight = 0
        self.evictions = 0
        self.recomputes = 0
        registry = _metrics.get_registry()
        for name in ("evictions", "recomputes"):
            registry.counter(f"repro_pager_{name}")
        for name in ("resident_weight", "peak_resident_weight"):
            registry.gauge(f"repro_pager_{name}")

        members: List[Dict[Vertex, Label]] = [{} for _ in range(partition.num_shards)]
        core_edges: List[List] = [[] for _ in range(partition.num_shards)]
        owners: Dict[Vertex, Set[int]] = {}
        edge_counts: Dict[Vertex, Dict[int, int]] = {}
        for edge in graph.edges():
            owner = partition.assignment.get(edge)
            if owner is None:
                raise PartitionError(
                    f"edge {edge!r} is not covered by the partition "
                    "(was the graph mutated after partitioning?)"
                )
            core_edges[owner].append(edge)
            for vertex in edge:
                members[owner][vertex] = graph.label_of(vertex)
                owners.setdefault(vertex, set()).add(owner)
                counts = edge_counts.setdefault(vertex, {})
                counts[owner] = counts.get(owner, 0) + 1
        for vertex, owner in partition.vertex_assignment.items():
            members[owner][vertex] = graph.label_of(vertex)
            owners.setdefault(vertex, set()).add(owner)
        self._owners = owners
        self._edge_counts = edge_counts

        pair_counts: Dict[LabelPair, Dict[int, int]] = {}
        shards: List[GraphShard] = []
        for shard_id in range(partition.num_shards):
            shard_graph = LabeledGraph(
                name=f"{graph.name or 'graph'}[shard {shard_id}]"
            )
            for vertex in sorted(members[shard_id], key=repr):
                shard_graph.add_vertex(vertex, members[shard_id][vertex])
            for u, v in core_edges[shard_id]:
                shard_graph.add_edge(u, v)
                pair = _label_pair_key(graph.label_of(u), graph.label_of(v))
                counts = pair_counts.setdefault(pair, {})
                counts[shard_id] = counts.get(shard_id, 0) + 1
            halo = frozenset(
                vertex for vertex in members[shard_id] if len(owners[vertex]) > 1
            )
            shards.append(
                GraphShard(
                    shard_id=shard_id,
                    graph=shard_graph,
                    core_edges=tuple(sorted(core_edges[shard_id], key=repr)),
                    halo_vertices=halo,
                )
            )
        self.shards = tuple(shards)
        self._pair_counts = pair_counts
        self._pair_shards = {
            pair: tuple(sorted(ids)) for pair, ids in pair_counts.items()
        }
        self._histogram: Dict[Label, int] = dict(graph.label_histogram())

    # ------------------------------------------------------------------
    # factory / freshness
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: LabeledGraph,
        num_shards: int,
        method: str = "hash",
        max_resident: Optional[int] = None,
    ) -> "ShardedIndex":
        """Partition ``graph`` and build the sharded index in one call."""
        return cls(graph, partition_edges(graph, num_shards, method), max_resident)

    def rebuilt(self) -> "ShardedIndex":
        """Re-partition + re-index the graph's current state from scratch,
        preserving the shard count, partition method, view-cache bound and
        peak resident weight."""
        result = ShardedIndex.build(
            self.graph, self.num_shards, self.partition.method, self.max_resident
        )
        result.peak_resident_weight = self.peak_resident_weight
        return result

    def router(self) -> EdgeRouter:
        """The partition's online assignment function (delta routing).

        Built lazily from the index's own maintained state — never from
        the live source graph, which may have drifted ahead mid-replay —
        and kept current by the delta handlers; a loaded partition gets
        its persisted router installed by ``repro.partition.io``.
        """
        if self._router is None:
            self._router = EdgeRouter.for_sharded(self)
        return self._router

    # ------------------------------------------------------------------
    # delta maintenance (the MaintainableIndex protocol)
    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> bool:
        """Patch the sharded index in place for one typed graph delta.

        Routing rules (each delta touches O(delta) maintained state plus
        the invalidation scan over cached expansions):

        * ``VertexAdded`` — the isolated vertex is routed to its stable
          bucket shard, recorded in ``vertex_assignment``, added to that
          shard's graph, and counted in the merged histogram;
        * ``EdgeAdded`` — the edge is routed by :meth:`router` (sticky
          pairs / affinity / hash, per the partition method), becomes a
          core edge of its owner shard, both endpoints are replicated
          into the owner shard (halos re-derived from the owner sets),
          stale isolated assignments are retired, and the label-pair
          directory gains the owner;
        * ``EdgeRemoved`` — the inverse: the core edge leaves its owner
          shard, endpoints whose last edge there vanished leave the
          shard (or, having lost their last edge anywhere, are
          re-assigned as isolated vertices), and emptied directory
          entries are deleted exactly as a rebuild would never create
          them;
        * ``VertexRemoved`` — sound only once isolated (the publisher
          emits the incident ``EdgeRemoved`` deltas first): the vertex
          leaves its assigned shard and the histogram.

        Cached halo expansions whose ball a delta could touch are
        invalidated (membership-changed shards, views containing a
        touched vertex, and whole-graph aliases); untouched views — and
        their cached per-view indexes — survive, which is what makes
        localized streams cheap.  The index version advances to the
        delta's version; apply deltas contiguously
        (:class:`~repro.partition.maintainer.ShardedIndexMaintainer`
        enforces this).  Returns ``False`` for unknown delta kinds.
        """
        from ..index.delta import EdgeAdded, EdgeRemoved, VertexAdded, VertexRemoved

        # Materialize the router from the *pre-delta* state: building it
        # lazily mid-splice (after an attach/detach already moved shard
        # state) would double- or under-count the moved edge in its loads.
        self.router()
        if isinstance(delta, VertexAdded):
            self._apply_vertex_added(delta.vertex, delta.label)
        elif isinstance(delta, EdgeAdded):
            self._apply_edge_added(delta.u, delta.v, delta.label_u, delta.label_v)
        elif isinstance(delta, EdgeRemoved):
            self._apply_edge_removed(delta.u, delta.v, delta.label_u, delta.label_v)
        elif isinstance(delta, VertexRemoved):
            self._apply_vertex_removed(delta.vertex, delta.label)
        else:
            return False
        self.version = delta.version
        return True

    # -- membership / halo helpers -------------------------------------
    def _add_member(self, shard_id: int, vertex: Vertex, label: Label) -> None:
        shard = self.shards[shard_id]
        if not shard.graph.has_vertex(vertex):
            shard.graph.add_vertex(vertex, label)
        self._owners.setdefault(vertex, set()).add(shard_id)

    def _drop_member(self, shard_id: int, vertex: Vertex) -> None:
        shard = self.shards[shard_id]
        if shard.graph.has_vertex(vertex):
            shard.graph.remove_vertex(vertex)
        shard.halo_vertices.discard(vertex)
        owners = self._owners.get(vertex)
        if owners is not None:
            owners.discard(shard_id)
            if not owners:
                del self._owners[vertex]

    def _refresh_halo(self, vertex: Vertex) -> None:
        """Re-derive the boundary status of one vertex in every incident shard."""
        owners = self._owners.get(vertex, ())
        boundary = len(owners) > 1
        for shard_id in owners:
            halo = self.shards[shard_id].halo_vertices
            if boundary:
                halo.add(vertex)
            else:
                halo.discard(vertex)

    # -- core-edge attach/detach (shared by deltas and rebalancing) ----
    def _attach_edge(self, edge: Edge, lu: Label, lv: Label, shard_id: int) -> None:
        u, v = edge
        self.partition.assignment[edge] = shard_id
        for w, lw in ((u, lu), (v, lv)):
            counts = self._edge_counts.setdefault(w, {})
            counts[shard_id] = counts.get(shard_id, 0) + 1
            self._add_member(shard_id, w, lw)
        shard = self.shards[shard_id]
        shard.graph.add_edge(u, v)
        shard._add_core_edge(edge)
        pair = _label_pair_key(lu, lv)
        pair_counts = self._pair_counts.setdefault(pair, {})
        if shard_id not in pair_counts:
            pair_counts[shard_id] = 0
            self._pair_shards[pair] = tuple(sorted(pair_counts))
        pair_counts[shard_id] += 1
        self.router().edge_assigned(u, v, lu, lv, shard_id)

    def _detach_edge(self, edge: Edge, lu: Label, lv: Label, shard_id: int) -> None:
        """Remove a core edge from its shard (membership handled by callers)."""
        u, v = edge
        shard = self.shards[shard_id]
        shard.graph.remove_edge(u, v)
        shard._remove_core_edge(edge)
        pair = _label_pair_key(lu, lv)
        pair_counts = self._pair_counts[pair]
        pair_counts[shard_id] -= 1
        if pair_counts[shard_id] == 0:
            del pair_counts[shard_id]
            if pair_counts:
                self._pair_shards[pair] = tuple(sorted(pair_counts))
            else:
                # A rebuild never materializes empty directory entries.
                del self._pair_counts[pair]
                del self._pair_shards[pair]
        for w in (u, v):
            counts = self._edge_counts[w]
            counts[shard_id] -= 1
            if counts[shard_id] == 0:
                del counts[shard_id]
            if not counts:
                del self._edge_counts[w]
        self.router().edge_removed(shard_id)

    def _invalidate_expansions(self, shard_ids: Set[int], vertices) -> None:
        """Drop cached halo expansions a delta could have changed.

        A view survives only when its base shard's membership is
        untouched, it is not a whole-graph alias, and no touched vertex
        lies inside it — in which case neither its vertex ball nor its
        induced edges can have moved (a touched edge with both endpoints
        outside a ball cannot shorten any path into it).
        """
        if not self._expanded:
            return
        graph = self.graph
        for shard_id in list(self._expanded):
            views = self._expanded[shard_id]
            dead = [
                depth
                for depth, view in views.items()
                if shard_id in shard_ids
                or view is graph
                or any(view.has_vertex(vertex) for vertex in vertices)
            ]
            for depth in dead:
                self._weigh(views.pop(depth), -1)
            if not views:
                del self._expanded[shard_id]

    # -- per-kind handlers ---------------------------------------------
    def _apply_vertex_added(self, vertex: Vertex, label: Label) -> None:
        shard_id = self.router().route_vertex(vertex)
        self.partition.vertex_assignment[vertex] = shard_id
        self._add_member(shard_id, vertex, label)
        self._histogram[label] = self._histogram.get(label, 0) + 1
        self._invalidate_expansions({shard_id}, (vertex,))

    def _apply_edge_added(self, u: Vertex, v: Vertex, lu: Label, lv: Label) -> None:
        edge = normalize_edge(u, v)
        if edge in self.partition.assignment:
            raise PartitionError(
                f"EdgeAdded({edge!r}) patched twice; deltas must replay "
                "the mutation stream contiguously"
            )
        shard_id = self.router().route_edge(u, v, lu, lv)
        touched = {shard_id}
        for w in (u, v):
            stale = self.partition.vertex_assignment.pop(w, None)
            if stale is not None and stale != shard_id:
                # The endpoint is no longer isolated; its only reason to
                # live in the stale shard is gone.
                self._drop_member(stale, w)
                touched.add(stale)
        self._attach_edge(edge, lu, lv, shard_id)
        self._refresh_halo(u)
        self._refresh_halo(v)
        self._invalidate_expansions(touched, (u, v))

    def _apply_edge_removed(self, u: Vertex, v: Vertex, lu: Label, lv: Label) -> None:
        edge = normalize_edge(u, v)
        shard_id = self.partition.assignment.pop(edge, None)
        if shard_id is None:
            raise PartitionError(
                f"EdgeRemoved({edge!r}) for an edge the partition does not "
                "cover; deltas must replay the mutation stream contiguously"
            )
        self._detach_edge(edge, lu, lv, shard_id)
        touched = {shard_id}
        for w, lw in ((u, lu), (v, lv)):
            counts = self._edge_counts.get(w)
            if counts is None:
                # Last edge anywhere: w is isolated again; give it the
                # stable-bucket home a from-scratch partition would.
                if w not in self.partition.vertex_assignment:
                    home = self.router().route_vertex(w)
                    self.partition.vertex_assignment[w] = home
                    if home != shard_id:
                        self._drop_member(shard_id, w)
                        touched.add(home)
                    self._add_member(home, w, lw)
            elif (
                counts.get(shard_id, 0) == 0
                and self.partition.vertex_assignment.get(w) != shard_id
            ):
                self._drop_member(shard_id, w)
            self._refresh_halo(w)
        self._invalidate_expansions(touched, (u, v))

    def _apply_vertex_removed(self, vertex: Vertex, label: Label) -> None:
        if vertex in self._edge_counts:
            raise PartitionError(
                f"VertexRemoved({vertex!r}) patched while the vertex still "
                "has core edges; the publisher must emit the incident "
                "EdgeRemoved deltas first"
            )
        shard_id = self.partition.vertex_assignment.pop(vertex, None)
        if shard_id is None:
            raise PartitionError(
                f"VertexRemoved({vertex!r}) for a vertex the partition does "
                "not cover; deltas must replay the mutation stream contiguously"
            )
        self._drop_member(shard_id, vertex)
        self._histogram[label] -= 1
        if self._histogram[label] == 0:
            del self._histogram[label]
        self._invalidate_expansions({shard_id}, (vertex,))

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------
    def rebalance(self, max_load_factor: float = 1.5) -> int:
        """Move core edges off overflowing shards; returns edges moved.

        A shard overflows when its core-edge count exceeds
        ``ceil(max_load_factor * |E| / k)``.  Overflowing shards shed
        their canonically-last core edges onto the open shard with the
        most endpoint affinity (fewest new replicas), load and id as
        tie-breaks — deterministic, and touching **only** the shards
        involved (per-shard indexes and expansions elsewhere survive).
        The graph itself is never mutated, so the index version is
        unchanged and exactness is preserved for any resulting partition.
        """
        if max_load_factor < 1.0:
            raise PartitionError(
                f"max_load_factor must be >= 1.0, got {max_load_factor}"
            )
        if self.num_shards == 1:
            return 0
        # As in apply_delta: the router must exist before the first move
        # splices shard state, or its reconstructed loads double-count.
        self.router()
        loads = [shard.num_core_edges for shard in self.shards]
        total = sum(loads)
        if total == 0:
            return 0
        capacity = max(1, math.ceil(max_load_factor * total / self.num_shards))
        moved = 0
        for src in range(self.num_shards):
            while loads[src] > capacity:
                targets = [
                    s
                    for s in range(self.num_shards)
                    if s != src and loads[s] < capacity
                ]
                if not targets:  # pragma: no cover - capacity covers total
                    break
                edge = self.shards[src].core_edges[-1]
                u, v = edge
                shard_graph = self.shards[src].graph
                lu, lv = shard_graph.label_of(u), shard_graph.label_of(v)
                owners_u = self._owners.get(u, ())
                owners_v = self._owners.get(v, ())
                dst = min(
                    targets,
                    key=lambda s: (
                        -((s in owners_u) + (s in owners_v)),
                        loads[s],
                        s,
                    ),
                )
                self._move_edge(edge, lu, lv, src, dst)
                loads[src] -= 1
                loads[dst] += 1
                moved += 1
        return moved

    def _move_edge(self, edge: Edge, lu: Label, lv: Label, src: int, dst: int) -> None:
        """Reassign one core edge from shard ``src`` to shard ``dst``."""
        u, v = edge
        # Attach first so neither endpoint transiently loses its last
        # membership reason.
        self._attach_edge(edge, lu, lv, dst)
        self._detach_edge(edge, lu, lv, src)
        for w in (u, v):
            counts = self._edge_counts.get(w, {})
            if (
                counts.get(src, 0) == 0
                and self.partition.vertex_assignment.get(w) != src
            ):
                self._drop_member(src, w)
            self._refresh_halo(w)
        self._invalidate_expansions({src, dst}, (u, v))

    # ------------------------------------------------------------------
    # merged global views
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    def label_histogram(self) -> Dict[Label, int]:
        """Global vertex count per label (boundary vertices counted once).

        Maintained incrementally under deltas — equal to the source
        graph's histogram at the index version, which keeps every
        histogram-derived prune bound exact under sharding.  Do not
        mutate the returned dict.
        """
        return self._histogram

    def shards_for_pair(self, lu: Label, lv: Label) -> Tuple[int, ...]:
        """Shard ids whose core edges realize the unordered label pair."""
        return self._pair_shards.get(_label_pair_key(lu, lv), ())

    def label_pair_directory(self) -> Dict[LabelPair, Tuple[int, ...]]:
        """Canonical label pair -> shard ids (do not mutate)."""
        return self._pair_shards

    def shard_index(self, shard_id: int) -> GraphIndex:
        """The (cached) :class:`GraphIndex` of one shard's core graph.

        Each shard graph rides its own
        :class:`~repro.index.delta.IndexMaintainer` (attached lazily on
        first use), so shard-graph mutations made by :meth:`apply_delta`
        are absorbed by the existing O(delta) splice machinery instead of
        triggering per-shard rebuilds.
        """
        maintainer = self._maintainers.get(shard_id)
        if maintainer is None:
            from ..index.delta import IndexMaintainer

            maintainer = IndexMaintainer(self.shards[shard_id].graph)
            self._maintainers[shard_id] = maintainer
        return maintainer.index()  # type: ignore[union-attr]

    def boundary_vertices(self) -> Set[Vertex]:
        """All vertices replicated into more than one shard."""
        boundary: Set[Vertex] = set()
        for shard in self.shards:
            boundary |= shard.halo_vertices
        return boundary

    def replication_factor(self) -> float:
        """``sum_i |V_i| / |V|`` — 1.0 means no vertex is replicated.

        ``|V|`` is the member count at the index version (every graph
        vertex lives in exactly the shards owning one of its edges, or
        its isolated-assignment shard), so the ratio stays meaningful
        mid-maintenance even while the source graph has drifted ahead.
        """
        total = sum(shard.num_vertices for shard in self.shards)
        return total / max(1, len(self._owners))

    # ------------------------------------------------------------------
    # halo-expanded views
    # ------------------------------------------------------------------
    def expanded_shard(self, shard_id: int, depth: int) -> LabeledGraph:
        """The induced subgraph within ``depth`` hops of a shard's vertices.

        Depth 0 is the induced subgraph on the shard's own vertex set
        (which may pick up non-core edges between boundary vertices —
        exactly the cross-shard edges halo-aware evaluation must see).
        Views are cached per (shard, depth); when the ball swallows the
        whole graph the source graph itself is returned, so its cached
        global index is reused instead of duplicated.  Delta maintenance
        invalidates exactly the views a delta could have changed.  With
        ``max_resident`` set, caching a view for one shard more than the
        bound drops every view of the least recently used shard; the
        next access recomputes them, so the result never depends on the
        eviction order.
        """
        views = self._expanded.get(shard_id)
        if views is not None:
            self._expanded.move_to_end(shard_id)
            view = views.get(depth)
            if view is not None:
                return view
        view = self._compute_expansion(shard_id, depth)
        self._expanded.setdefault(shard_id, {})[depth] = view
        self.recomputes += 1
        _metrics.counter("repro_pager_recomputes").inc()
        self._weigh(view, 1)
        if self.max_resident is not None:
            while len(self._expanded) > self.max_resident:
                _, evicted = self._expanded.popitem(last=False)
                for old in evicted.values():
                    self._weigh(old, -1)
                self.evictions += 1
                _metrics.counter("repro_pager_evictions").inc()
        return view

    def _weigh(self, view: LabeledGraph, sign: int) -> None:
        """Add (``sign=1``) or remove (``-1``) one cached view's weight."""
        if view is not self.graph:
            self.resident_weight += sign * projected_index_nbytes(
                view.num_vertices, view.num_edges, len(view.label_alphabet())
            )
        if self.resident_weight > self.peak_resident_weight:
            self.peak_resident_weight = self.resident_weight
        _metrics.gauge("repro_pager_resident_weight").set(self.resident_weight)
        _metrics.gauge("repro_pager_peak_resident_weight").set_max(
            self.peak_resident_weight
        )

    def _compute_expansion(self, shard_id: int, depth: int) -> LabeledGraph:
        """Compute one halo-expanded view from scratch (no cache lookup).

        When the source graph carries a current index, the BFS
        runs over the CSR rows with interned ids (one list index per
        neighbor instead of a hash probe per visit) and the kept set is
        decoded once at the end.
        """
        cached_index = self.graph.cached_index()
        if (
            depth > 0
            and isinstance(cached_index, GraphIndex)
            and cached_index.is_current()
        ):
            ci = cached_index
            vint_of = ci.table._vint_of
            rows = ci._rows
            seen = bytearray(len(ci.table.vertex_of))
            frontier_ints = []
            for vertex in self.shards[shard_id].graph.vertices():
                vi = vint_of[vertex]
                seen[vi] = 1
                frontier_ints.append(vi)
            kept_ints = list(frontier_ints)
            for _ in range(depth):
                if not frontier_ints:
                    break
                next_frontier = []
                for vi in frontier_ints:
                    row = rows[vi]
                    for j in range(1 + 2 * row[0], len(row)):
                        w = row[j]
                        if not seen[w]:
                            seen[w] = 1
                            next_frontier.append(w)
                frontier_ints = next_frontier
                kept_ints.extend(next_frontier)
            decode = ci.table.vertex_of
            keep = {decode[vi] for vi in kept_ints}
        else:
            keep = within_hops(
                self.graph, self.shards[shard_id].graph.vertices(), depth
            )
        if len(keep) == self.graph.num_vertices:
            expanded = self.graph
        else:
            expanded = self.graph.subgraph(keep)
            expanded.name = f"{self.graph.name or 'graph'}[shard {shard_id}+{depth}]"
        return expanded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedIndex shards={self.num_shards} "
            f"method={self.partition.method!r} |V|={self.graph.num_vertices} "
            f"|E|={self.graph.num_edges} "
            f"replication={self.replication_factor():.2f} v{self.version}>"
        )
