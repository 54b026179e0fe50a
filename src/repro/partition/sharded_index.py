"""ShardedIndex — the index layer over a partitioned data graph.

This is the architectural seam the ROADMAP's sharding item asked for: a
:class:`ShardedIndex` splits one :class:`LabeledGraph` into k edge-disjoint
:class:`~repro.partition.shard.GraphShard` cells (via a configurable
:func:`~repro.partition.partitioner.partition_edges` method), replicates
boundary vertices into per-shard halos, and exposes the merged global
views evaluation needs:

* a **label-pair directory** — canonical label pair → the shard ids whose
  *core* edges realize it.  A pattern can only have occurrences anchored
  in shards sharing its footprint, so the directory prunes whole shards
  per candidate;
* **halo-expanded shard views** — the induced subgraph within ``depth``
  hops of a shard's vertices, computed afresh on each call (the index
  keeps no views: the runners of :mod:`repro.partition.workers` hold
  them and keep them current by delta).  Depth ``n - 2`` is exactly what
  makes per-shard enumeration of an n-node connected pattern exhaustive
  for occurrences using a core edge (see :mod:`repro.partition.evaluate`).

Each shard fact is kept once.  A shard's graph is its record: its edges
are the shard's core edges and a vertex's degree there is its core-edge
count in that shard.  Beside the shard graphs the index keeps each
vertex's owner shards (halos and the boundary are read off them when
asked), the label-pair directory's per-shard edge counts, the
partition's assignment and the router.  The miner's label-frequency
prune reads its histogram from the flat graph index, not from here.

Like :class:`~repro.index.GraphIndex`, a ShardedIndex is a snapshot of
one graph version — but no longer a *static* one: it implements the
:class:`~repro.index.maintainable.MaintainableIndex` protocol, absorbing
typed graph deltas in O(delta) through :meth:`apply_delta` instead of
forcing a re-partition + rebuild.  Each delta is routed to its owning
shard by the partition's persisted assignment function
(:class:`~repro.partition.partitioner.EdgeRouter`), boundary replicas
are patched in every incident shard, and the label-pair directory is
updated incrementally.
:class:`~repro.partition.maintainer.ShardedIndexMaintainer` drives this
from a cursor on the graph's delta log; un-maintained callers keep the
old behavior — :meth:`is_current` reports staleness and the miner
re-partitions per session exactly as before.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..errors import PartitionError
from ..graph.labeled_graph import (
    Edge,
    Label,
    LabeledGraph,
    Vertex,
    normalize_edge,
)
from ..index.graph_index import _label_pair_key
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
    guarantees both need it, and a ball that swallows the whole graph is
    returned as the source graph itself.  ``recomputes`` counts the
    views :meth:`expanded_shard` computed (``repro_pager_recomputes``).
    """

    __slots__ = (
        "graph",
        "partition",
        "version",
        "shards",
        "_pair_shards",
        "_pair_counts",
        "_owners",
        "_router",
        "recomputes",
    )

    def __init__(self, graph: LabeledGraph, partition: Partition) -> None:
        self.graph = graph
        self.partition = partition
        self.version = graph.mutation_version()
        self._router: Optional[EdgeRouter] = None
        self.recomputes = 0
        # Every sharded session builds an index: it registers the view
        # metrics its runner moves (repro.partition.workers) beside its own.
        registry = _metrics.get_registry()
        for name in ("evictions", "recomputes"):
            registry.counter(f"repro_pager_{name}")
        for name in ("resident_weight", "peak_resident_weight"):
            registry.gauge(f"repro_pager_{name}")

        members: List[Dict[Vertex, Label]] = [{} for _ in range(partition.num_shards)]
        core_edges: List[List] = [[] for _ in range(partition.num_shards)]
        owners: Dict[Vertex, Set[int]] = {}
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
        for vertex, owner in partition.vertex_assignment.items():
            members[owner][vertex] = graph.label_of(vertex)
            owners.setdefault(vertex, set()).add(owner)
        self._owners = owners

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
            shards.append(GraphShard(shard_id, shard_graph))
        self.shards = tuple(shards)
        self._pair_counts = pair_counts
        self._pair_shards = {
            pair: tuple(sorted(ids)) for pair, ids in pair_counts.items()
        }

    # ------------------------------------------------------------------
    # factory / freshness
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, graph: LabeledGraph, num_shards: int, method: str = "hash"
    ) -> "ShardedIndex":
        """Partition ``graph`` and build the sharded index in one call."""
        return cls(graph, partition_edges(graph, num_shards, method))

    def rebuilt(self) -> "ShardedIndex":
        """Re-partition + re-index the graph's current state from scratch,
        preserving the shard count and partition method."""
        return ShardedIndex.build(self.graph, self.num_shards, self.partition.method)

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

        Routing rules (each delta touches O(delta) maintained state):

        * ``VertexAdded`` — the isolated vertex is routed to its stable
          bucket shard, recorded in ``vertex_assignment``, and added to
          that shard's graph;
        * ``EdgeAdded`` — the edge is routed by :meth:`router` (sticky
          pairs / affinity / hash, per the partition method), becomes a
          core edge of its owner shard, both endpoints are replicated
          into the owner shard under their own labels, stale isolated
          assignments are retired, and the label-pair directory gains
          the owner;
        * ``EdgeRemoved`` — the inverse: the core edge leaves its owner
          shard, endpoints whose last edge there vanished leave the
          shard (or, having lost their last edge anywhere, are
          re-assigned as isolated vertices), and emptied directory
          entries are deleted exactly as a rebuild would never create
          them;
        * ``VertexRemoved`` — sound only once isolated (the publisher
          emits the incident ``EdgeRemoved`` deltas first): the vertex
          leaves its assigned shard.

        The index version advances to the delta's version; apply deltas contiguously
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

    # -- membership helpers --------------------------------------------
    def _add_member(self, shard_id: int, vertex: Vertex, label: Label) -> None:
        shard = self.shards[shard_id]
        if not shard.graph.has_vertex(vertex):
            shard.graph.add_vertex(vertex, label)
        self._owners.setdefault(vertex, set()).add(shard_id)

    def _drop_member(self, shard_id: int, vertex: Vertex) -> None:
        shard = self.shards[shard_id]
        if shard.graph.has_vertex(vertex):
            shard.graph.remove_vertex(vertex)
        owners = self._owners.get(vertex)
        if owners is not None:
            owners.discard(shard_id)
            if not owners:
                del self._owners[vertex]

    def _has_core_edges(self, vertex: Vertex) -> bool:
        """True when ``vertex`` is an endpoint of a core edge of any shard."""
        return any(
            self.shards[shard_id].graph.degree(vertex)
            for shard_id in self._owners.get(vertex, ())
        )

    # -- core-edge attach/detach (shared by deltas and rebalancing) ----
    def _attach_edge(self, edge: Edge, lu: Label, lv: Label, shard_id: int) -> None:
        """Make ``edge`` a core edge of ``shard_id``; ``lu``, ``lv`` label
        its endpoints in the edge's (canonical) order."""
        u, v = edge
        self.partition.assignment[edge] = shard_id
        self._add_member(shard_id, u, lu)
        self._add_member(shard_id, v, lv)
        self.shards[shard_id].graph.add_edge(u, v)
        pair = _label_pair_key(lu, lv)
        pair_counts = self._pair_counts.setdefault(pair, {})
        if shard_id not in pair_counts:
            pair_counts[shard_id] = 0
            self._pair_shards[pair] = tuple(sorted(pair_counts))
        pair_counts[shard_id] += 1
        self.router().edge_assigned(u, v, lu, lv, shard_id)

    def _detach_edge(self, edge: Edge, lu: Label, lv: Label, shard_id: int) -> None:
        """Remove a core edge from its shard (membership handled by callers)."""
        self.shards[shard_id].graph.remove_edge(*edge)
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
        self.router().edge_removed(shard_id)

    # -- per-kind handlers ---------------------------------------------
    def _apply_vertex_added(self, vertex: Vertex, label: Label) -> None:
        shard_id = self.router().route_vertex(vertex)
        self.partition.vertex_assignment[vertex] = shard_id
        self._add_member(shard_id, vertex, label)

    def _apply_edge_added(self, u: Vertex, v: Vertex, lu: Label, lv: Label) -> None:
        edge = normalize_edge(u, v)
        if edge in self.partition.assignment:
            raise PartitionError(
                f"EdgeAdded({edge!r}) patched twice; deltas must replay "
                "the mutation stream contiguously"
            )
        shard_id = self.router().route_edge(u, v, lu, lv)
        for w in (u, v):
            stale = self.partition.vertex_assignment.pop(w, None)
            if stale is not None and stale != shard_id:
                # The endpoint is no longer isolated; its only reason to
                # live in the stale shard is gone.
                self._drop_member(stale, w)
        if edge != (u, v):
            lu, lv = lv, lu  # pair each label with its endpoint in the edge
        self._attach_edge(edge, lu, lv, shard_id)

    def _apply_edge_removed(self, u: Vertex, v: Vertex, lu: Label, lv: Label) -> None:
        edge = normalize_edge(u, v)
        shard_id = self.partition.assignment.pop(edge, None)
        if shard_id is None:
            raise PartitionError(
                f"EdgeRemoved({edge!r}) for an edge the partition does not "
                "cover; deltas must replay the mutation stream contiguously"
            )
        self._detach_edge(edge, lu, lv, shard_id)
        for w, lw in ((u, lu), (v, lv)):
            if not self._has_core_edges(w):
                # Last edge anywhere: w is isolated again; give it the
                # stable-bucket home a from-scratch partition would.
                if w not in self.partition.vertex_assignment:
                    home = self.router().route_vertex(w)
                    self.partition.vertex_assignment[w] = home
                    if home != shard_id:
                        self._drop_member(shard_id, w)
                    self._add_member(home, w, lw)
            elif (
                self.shards[shard_id].graph.degree(w) == 0
                and self.partition.vertex_assignment.get(w) != shard_id
            ):
                self._drop_member(shard_id, w)

    def _apply_vertex_removed(self, vertex: Vertex, label: Label) -> None:
        if self._has_core_edges(vertex):
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
        involved.
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
            if loads[src] <= capacity:
                continue
            shard_graph = self.shards[src].graph
            # Nothing moves into src while it sheds, so one canonical
            # listing of its core edges serves the whole loop.
            pending = shard_graph.edges()
            while loads[src] > capacity:
                targets = [
                    s
                    for s in range(self.num_shards)
                    if s != src and loads[s] < capacity
                ]
                if not targets:  # pragma: no cover - capacity covers total
                    break
                edge = pending.pop()
                u, v = edge
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
            if (
                self.shards[src].graph.degree(w) == 0
                and self.partition.vertex_assignment.get(w) != src
            ):
                self._drop_member(src, w)

    # ------------------------------------------------------------------
    # merged global views
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    def shards_for_pair(self, lu: Label, lv: Label) -> Tuple[int, ...]:
        """Shard ids whose core edges realize the unordered label pair."""
        return self._pair_shards.get(_label_pair_key(lu, lv), ())

    def label_pair_directory(self) -> Dict[LabelPair, Tuple[int, ...]]:
        """Canonical label pair -> shard ids (do not mutate)."""
        return self._pair_shards

    def halo_vertices(self, shard_id: int) -> Set[Vertex]:
        """Shard ``shard_id``'s vertices that other shards replicate too."""
        owners = self._owners
        return {
            vertex for vertex in self.shards[shard_id].graph if len(owners[vertex]) > 1
        }

    def boundary_vertices(self) -> Set[Vertex]:
        """All vertices replicated into more than one shard."""
        return {vertex for vertex, owners in self._owners.items() if len(owners) > 1}

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
        Every call computes the view afresh and counts it in
        ``recomputes``; when the ball swallows the whole graph the source
        graph itself is returned instead of a copy.
        """
        self.recomputes += 1
        _metrics.counter("repro_pager_recomputes").inc()
        keep = within_hops(self.graph, self.shards[shard_id].graph.vertices(), depth)
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
