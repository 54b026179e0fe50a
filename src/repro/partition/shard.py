"""One shard of a partitioned data graph.

A :class:`GraphShard` materializes the core subgraph of one partition
cell: its assigned (core) edges, their endpoints, and any isolated
vertices the partitioner routed here.  Its ``graph`` is the one record
of the shard: the edge set of ``graph`` *is* the core-edge set
(``graph.edges()`` lists it in canonical order), and a vertex's core
edges here are ``graph.degree(vertex)``.  Vertices whose incident edges
span several shards are **boundary vertices**; each incident shard
replicates them — that replicated set is the shard's **halo**, which
:meth:`~repro.partition.sharded_index.ShardedIndex.halo_vertices`
derives from the index's vertex owners.  The invariant the test suite
pins: a boundary vertex appears in *every* shard owning one of its
edges, exactly once per shard.

Shards are mutable in exactly one controlled way: the owning
:class:`~repro.partition.sharded_index.ShardedIndex` patches the shard
graph while absorbing graph deltas (or rebalancing).  Everyone else
treats a shard as read-only.
"""

from __future__ import annotations

from ..graph.labeled_graph import LabeledGraph


class GraphShard:
    """The core subgraph of one partition cell.

    Built by :class:`~repro.partition.sharded_index.ShardedIndex`; the
    ``graph`` attribute is a self-contained :class:`LabeledGraph` (core
    edges, their endpoints, assigned isolated vertices) suitable for
    per-shard indexing and serialization.
    """

    __slots__ = ("shard_id", "graph")

    def __init__(self, shard_id: int, graph: LabeledGraph) -> None:
        self.shard_id = shard_id
        self.graph = graph

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_core_edges(self) -> int:
        return self.graph.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GraphShard {self.shard_id} |V|={self.num_vertices} "
            f"core|E|={self.num_core_edges}>"
        )
