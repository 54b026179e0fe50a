"""Edge partitioners: split a data graph into k edge-disjoint shards.

The partition layer's contract is simple and the rest of the subsystem
depends on nothing else:

* every data edge is assigned to **exactly one** shard (edge-disjoint
  cover — the per-shard core edge sets reconstruct ``E`` exactly);
* every isolated vertex is assigned to exactly one shard (so a saved
  partition loses nothing);
* assignments are **deterministic** — same graph, same method, same shard
  count, same partition, in every process (the parallel miner rebuilds
  the shard layout inside worker processes and the two must agree).

Three methods are provided:

``hash``
    CRC32 of the canonical edge key, modulo the shard count.  No locality,
    perfectly deterministic, O(|E|); the reference method.
``label``
    Group edges by their canonical label-pair footprint and bin-pack the
    groups (largest first) onto the least-loaded shard.  Label-pair
    locality means a pattern's relevant shards (the ones sharing its
    footprint) stay few, which is what the sharded evaluator prunes on.
``edgecut``
    Greedy replication minimizer: edges are placed, in canonical order,
    on the shard already holding the most of their endpoints (load-aware
    tie-breaking, soft capacity cap).  Minimizing re-placed endpoints
    minimizes boundary-vertex replication — the halo the evaluator pays
    for.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import PartitionError
from ..graph.labeled_graph import Edge, Label, LabeledGraph, Vertex, normalize_edge
from ..index.graph_index import _label_pair_key

#: The partition methods accepted everywhere a method name is taken
#: (library, CLI ``--partition``, saved manifests).
PARTITION_METHODS: Tuple[str, ...] = ("hash", "label", "edgecut")


def _stable_bucket(item: object, buckets: int) -> int:
    """Deterministic bucket for ``item`` (CRC32 of its repr — not ``hash()``,
    which is salted per process for strings)."""
    return zlib.crc32(repr(item).encode("utf-8")) % buckets


@dataclass(frozen=True)
class Partition:
    """An edge-disjoint assignment of one graph's edges to ``num_shards`` shards.

    ``assignment`` maps every canonical edge to its shard id;
    ``vertex_assignment`` maps every *isolated* vertex (degree 0 — no edge
    carries it into a shard) to a shard so partitions cover the whole
    graph.  Built by :func:`partition_edges`; consumed by
    :class:`~repro.partition.sharded_index.ShardedIndex`.
    """

    num_shards: int
    method: str
    assignment: Dict[Edge, int] = field(repr=False)
    vertex_assignment: Dict[Vertex, int] = field(repr=False, default_factory=dict)

    def shard_of(self, u: Vertex, v: Vertex) -> int:
        """The shard owning the edge ``(u, v)``."""
        edge = normalize_edge(u, v)
        if edge not in self.assignment:
            raise PartitionError(f"edge {edge!r} is not covered by this partition")
        return self.assignment[edge]

    def edges_of(self, shard_id: int) -> List[Edge]:
        """The core edges of one shard, in canonical order."""
        return sorted(
            (edge for edge, owner in self.assignment.items() if owner == shard_id),
            key=repr,
        )

    def shard_sizes(self) -> List[int]:
        """Core-edge count per shard (length ``num_shards``)."""
        sizes = [0] * self.num_shards
        for owner in self.assignment.values():
            sizes[owner] += 1
        return sizes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Partition method={self.method!r} shards={self.num_shards} "
            f"|E|={len(self.assignment)}>"
        )


def _hash_assignment(edges: List[Edge], num_shards: int) -> Dict[Edge, int]:
    return {edge: _stable_bucket(edge, num_shards) for edge in edges}


def _label_assignment(
    graph: LabeledGraph, edges: List[Edge], num_shards: int
) -> Dict[Edge, int]:
    groups: Dict[Tuple, List[Edge]] = {}
    for edge in edges:
        pair = _label_pair_key(graph.label_of(edge[0]), graph.label_of(edge[1]))
        groups.setdefault(pair, []).append(edge)
    # Pairs are placed whole, largest first, preferring the shard whose
    # already-placed pairs share a label (a grown pattern's footprint only
    # ever adds label-adjacent pairs, so label affinity is footprint
    # affinity: the candidate's relevant-shard set stays small — the
    # sharded evaluator's best case), with a soft capacity (25% slack over
    # the perfect split) keeping shards balanced.  All tie-breaks are
    # deterministic: size desc, then pair repr, then lowest shard id.
    capacity = max(1, -(-len(edges) * 5 // (4 * num_shards)))
    loads = [0] * num_shards
    label_sets: List[set] = [set() for _ in range(num_shards)]
    assignment: Dict[Edge, int] = {}
    for pair in sorted(groups, key=lambda p: (-len(groups[p]), repr(p))):
        open_shards = [s for s in range(num_shards) if loads[s] < capacity]
        if not open_shards:  # pragma: no cover - capacity covers |E|
            open_shards = list(range(num_shards))
        labels = set(pair)
        shard = min(
            open_shards,
            key=lambda s: (-len(label_sets[s] & labels), loads[s], s),
        )
        for edge in groups[pair]:
            assignment[edge] = shard
        loads[shard] += len(groups[pair])
        label_sets[shard] |= labels
    return assignment


def _edgecut_assignment(edges: List[Edge], num_shards: int) -> Dict[Edge, int]:
    # Soft capacity keeps the greedy affinity rule from collapsing a
    # connected graph onto one shard; 5% slack over the perfect split.
    capacity = max(1, -(-len(edges) * 21 // (20 * num_shards)))
    loads = [0] * num_shards
    homes: List[set] = [set() for _ in range(num_shards)]
    assignment: Dict[Edge, int] = {}
    for u, v in edges:
        open_shards = [s for s in range(num_shards) if loads[s] < capacity]
        if not open_shards:  # pragma: no cover - capacity covers |E|
            open_shards = list(range(num_shards))
        shard = min(
            open_shards,
            key=lambda s: (-((u in homes[s]) + (v in homes[s])), loads[s], s),
        )
        assignment[(u, v)] = shard
        loads[shard] += 1
        homes[shard].add(u)
        homes[shard].add(v)
    return assignment


def partition_edges(
    graph: LabeledGraph, num_shards: int, method: str = "hash"
) -> Partition:
    """Partition ``graph``'s edges into ``num_shards`` edge-disjoint shards.

    Every edge lands in exactly one shard and every isolated vertex is
    assigned to a shard; shards may be empty when the graph is smaller
    than the requested shard count.  The assignment is deterministic for
    a given (graph, method, num_shards) triple.

    Raises
    ------
    PartitionError
        For a non-positive shard count or an unknown method.
    """
    if num_shards < 1:
        raise PartitionError(f"num_shards must be >= 1, got {num_shards}")
    if method not in PARTITION_METHODS:
        raise PartitionError(
            f"unknown partition method {method!r}; "
            f"available: {', '.join(PARTITION_METHODS)}"
        )
    edges = graph.edges()
    if method == "hash":
        assignment = _hash_assignment(edges, num_shards)
    elif method == "label":
        assignment = _label_assignment(graph, edges, num_shards)
    else:
        assignment = _edgecut_assignment(edges, num_shards)
    vertex_assignment = {
        vertex: _stable_bucket(vertex, num_shards)
        for vertex in graph.vertices()
        if graph.degree(vertex) == 0
    }
    return Partition(
        num_shards=num_shards,
        method=method,
        assignment=assignment,
        vertex_assignment=vertex_assignment,
    )


class EdgeRouter:
    """Online continuation of an edge partitioner: route *new* edges to shards.

    :func:`partition_edges` places a static edge set; under an update
    stream new edges keep arriving and each must be assigned to a shard
    without re-partitioning.  A router extends each method's placement
    discipline one edge at a time:

    ``hash``
        the same CRC32 bucket as the static partitioner — a routed edge
        lands exactly where a from-scratch partition would put it;
    ``label``
        **sticky pairs**: a pair that already has a home shard keeps it
        (the whole-pair invariant the static bin-packing establishes); a
        brand-new pair is placed by the same label-affinity rule, against
        the router's live loads and a soft capacity recomputed from the
        current edge total;
    ``edgecut``
        the same endpoint-home affinity rule, against live homes/loads.

    Routing is deterministic given the router's state, and the state is
    reconstructible from a live :class:`~repro.partition.sharded_index.ShardedIndex`
    (:meth:`for_sharded`) or a persisted manifest (:meth:`from_state` /
    :meth:`state_dict`) — so freshly built, delta-patched, and
    loaded-from-disk partitions all route future deltas identically.
    Isolated vertices route through :meth:`route_vertex`, matching the
    static partitioner's stable bucket.
    """

    __slots__ = (
        "method",
        "num_shards",
        "loads",
        "_pair_shard",
        "_label_sets",
        "_homes",
    )

    def __init__(self, method: str, num_shards: int) -> None:
        if method not in PARTITION_METHODS:
            raise PartitionError(
                f"unknown partition method {method!r}; "
                f"available: {', '.join(PARTITION_METHODS)}"
            )
        if num_shards < 1:
            raise PartitionError(f"num_shards must be >= 1, got {num_shards}")
        self.method = method
        self.num_shards = num_shards
        #: Core-edge count per shard (maintained, O(1) to read).
        self.loads: List[int] = [0] * num_shards
        # label method: canonical pair -> its sticky home shard.
        self._pair_shard: Dict[Tuple[Label, Label], int] = {}
        # label method: labels whose pairs live on each shard (affinity).
        self._label_sets: List[Set[Label]] = [set() for _ in range(num_shards)]
        # edgecut method: vertices already present on each shard (affinity).
        self._homes: List[Set[Vertex]] = [set() for _ in range(num_shards)]

    # ------------------------------------------------------------------
    # construction from existing state
    # ------------------------------------------------------------------
    @classmethod
    def for_sharded(cls, sharded) -> "EdgeRouter":
        """Reconstruct a router from a :class:`ShardedIndex`'s maintained state.

        Reads only the sharded index's own structures (never the live
        source graph, which may have drifted ahead of the index version),
        so reconstruction is sound mid-maintenance.
        """
        router = cls(sharded.partition.method, sharded.num_shards)
        for shard in sharded.shards:
            router.loads[shard.shard_id] = shard.num_core_edges
            graph = shard.graph
            for vertex in graph.vertices():
                router._homes[shard.shard_id].add(vertex)
            for u, v in graph.edges():
                pair = _label_pair_key(graph.label_of(u), graph.label_of(v))
                router._pair_shard.setdefault(pair, shard.shard_id)
                router._label_sets[shard.shard_id].update(pair)
        for vertex, shard_id in sharded.partition.vertex_assignment.items():
            router._homes[shard_id].add(vertex)
        return router

    @classmethod
    def from_state(
        cls,
        method: str,
        num_shards: int,
        state: Dict,
        homes: Optional[Iterable[Tuple[Vertex, int]]] = None,
    ) -> "EdgeRouter":
        """Rebuild a router from :meth:`state_dict` output (+ shard membership).

        Raises
        ------
        PartitionError
            For a persisted shard id outside ``range(num_shards)``.
        """
        router = cls(method, num_shards)
        loads = state.get("loads")
        if isinstance(loads, list) and len(loads) == num_shards:
            router.loads = [int(load) for load in loads]
        for lu, lv, shard_id in state.get("pair_shards", ()):
            if not isinstance(shard_id, int) or not 0 <= shard_id < num_shards:
                raise PartitionError(
                    f"router state maps pair ({lu!r}, {lv!r}) to shard "
                    f"{shard_id!r}, outside the {num_shards} declared shards"
                )
            pair = _label_pair_key(lu, lv)
            router._pair_shard[pair] = shard_id
            router._label_sets[shard_id].update(pair)
        if homes is not None:
            for vertex, shard_id in homes:
                router._homes[shard_id].add(vertex)
        return router

    def state_dict(self) -> Dict:
        """JSON-serializable routing state (see ``repro.partition.io``).

        Homes are *not* included — they are shard membership, which the
        shard files already persist; :meth:`from_state` takes them
        separately.
        """
        return {
            "loads": list(self.loads),
            "pair_shards": sorted(
                ([lu, lv, shard] for (lu, lv), shard in self._pair_shard.items()),
                key=repr,
            ),
        }

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _open_shards(self, slack_num: int, slack_den: int) -> List[int]:
        """Shards under the soft capacity for the *next* edge (never empty)."""
        total = sum(self.loads) + 1
        capacity = max(1, -(-total * slack_num // (slack_den * self.num_shards)))
        open_shards = [s for s in range(self.num_shards) if self.loads[s] < capacity]
        return open_shards or list(range(self.num_shards))

    def route_edge(self, u: Vertex, v: Vertex, lu: Label, lv: Label) -> int:
        """The shard a newly inserted edge ``(u, v)`` should own."""
        if self.num_shards == 1:
            return 0
        if self.method == "hash":
            return _stable_bucket(normalize_edge(u, v), self.num_shards)
        if self.method == "label":
            pair = _label_pair_key(lu, lv)
            sticky = self._pair_shard.get(pair)
            if sticky is not None:
                return sticky
            labels = set(pair)
            return min(
                self._open_shards(5, 4),
                key=lambda s: (-len(self._label_sets[s] & labels), self.loads[s], s),
            )
        return min(
            self._open_shards(21, 20),
            key=lambda s: (
                -((u in self._homes[s]) + (v in self._homes[s])),
                self.loads[s],
                s,
            ),
        )

    def route_vertex(self, vertex: Vertex) -> int:
        """The shard a newly inserted *isolated* vertex should live in."""
        return _stable_bucket(vertex, self.num_shards)

    # ------------------------------------------------------------------
    # bookkeeping mirrors of applied deltas
    # ------------------------------------------------------------------
    def edge_assigned(self, u: Vertex, v: Vertex, lu: Label, lv: Label, shard: int):
        """Record that the edge now lives on ``shard`` (routed or moved)."""
        self.loads[shard] += 1
        self._homes[shard].add(u)
        self._homes[shard].add(v)
        pair = _label_pair_key(lu, lv)
        self._pair_shard.setdefault(pair, shard)
        self._label_sets[shard].update(pair)

    def edge_removed(self, shard: int) -> None:
        """Record that one of ``shard``'s core edges left the graph.

        Sticky pairs, label sets, and homes are affinity hints, not
        invariants — they deliberately survive removals so a re-inserted
        edge goes back where its footprint lives.
        """
        self.loads[shard] -= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<EdgeRouter method={self.method!r} shards={self.num_shards} "
            f"loads={self.loads}>"
        )
