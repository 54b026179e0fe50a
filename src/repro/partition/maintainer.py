"""Delta maintenance and rebalancing for partitioned graphs.

:class:`ShardedIndexMaintainer` is the partition layer's twin of
:class:`~repro.index.delta.IndexMaintainer`: it reads the source
graph's delta log through a cursor and keeps a
:class:`~repro.partition.sharded_index.ShardedIndex` current by routing
each delta to its owning shard(s) in O(delta) — the refresh ladder is
the shared :class:`~repro.index.maintainable.DeltaMaintainer` core, so
the flat and sharded maintainers cannot drift apart.  A rebuild here
means a full **re-partition** (``ShardedIndex.rebuilt``), which is
exactly what the maintainer exists to avoid: it triggers only when the
cursor reads a gap (detached, or a burst past the log's bound).

On top of plain maintenance sits the **rebalancing policy**
(:class:`RebalancePolicy`): delta routing keeps partitions *valid*, but
a skewed stream can overload one shard or inflate boundary replication.
After each refresh the maintainer checks the policy's triggers:

* **per-shard load** — any shard holding more than ``max_load_factor``
  times the ideal ``|E| / k`` core edges sheds its excess onto open
  shards (:meth:`ShardedIndex.rebalance` — only the shards involved are
  touched, everything else keeps its cached state);
* **replication factor** — if boundary replication exceeds
  ``max_replication``, local moves are no longer worth it and the
  maintainer falls back to one full re-partition.

Exactness is unconditional: every partition the maintainer produces is
edge-disjoint with correct halos, and sharded evaluation is exact for
*any* such partition, so policy choices affect wall-clock and memory —
never results.

:func:`absorb_graph` is the offline companion (CLI
``repro partition --rebalance``): diff a loaded partition's graph
against a newer snapshot and replay the difference as ordinary
mutations, which the attached maintainer absorbs as deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import PartitionError
from ..graph.labeled_graph import LabeledGraph
from ..index.maintainable import DeltaMaintainer
from ..obs import metrics as _metrics
from ..obs.logs import get_logger
from .sharded_index import ShardedIndex

_LOG = get_logger("partition.maintainer")


@dataclass(frozen=True)
class RebalancePolicy:
    """When (and how hard) to re-balance a delta-maintained partition.

    ``max_load_factor``
        A shard may hold at most this multiple of the ideal ``|E| / k``
        core-edge load before shedding edges (must be >= 1.0; larger
        values tolerate more skew before moving anything).
    ``max_replication``
        Replication-factor ceiling; exceeding it triggers the full
        re-partition fallback instead of local moves (``None`` disables
        the fallback).
    """

    max_load_factor: float = 1.5
    max_replication: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_load_factor < 1.0:
            raise PartitionError(
                f"max_load_factor must be >= 1.0, got {self.max_load_factor}"
            )
        if self.max_replication is not None and self.max_replication < 1.0:
            raise PartitionError(
                f"max_replication must be >= 1.0, got {self.max_replication}"
            )


class ShardedIndexMaintainer(DeltaMaintainer):
    """Keep one graph's :class:`ShardedIndex` current by patching, not re-partitioning.

    Attach with ``ShardedIndexMaintainer(graph, num_shards, method)`` (or
    wrap an existing index — e.g. one loaded from disk — via
    ``sharded=``); mutate the graph freely, then call :meth:`sharded` to
    get an index current for the graph's present version.  The deltas
    its cursor reads patch in O(delta) per update; a gap falls back to a
    single full re-partition, as in the flat maintainer
    (``patches_applied`` / ``rebuilds`` / ``deltas_coalesced``).

    Pass a :class:`RebalancePolicy` to have every refresh also check the
    load / replication triggers; ``edges_moved``, ``rebalances``, and
    ``full_repartitions`` count what the policy did.
    """

    obs_subsystem = "sharded_index"

    __slots__ = ("policy", "rebalances", "edges_moved", "full_repartitions")

    def __init__(
        self,
        graph: Optional[LabeledGraph] = None,
        num_shards: int = 2,
        method: str = "hash",
        *,
        policy: Optional[RebalancePolicy] = None,
        sharded: Optional[ShardedIndex] = None,
    ) -> None:
        if sharded is None:
            if graph is None:
                raise PartitionError(
                    "ShardedIndexMaintainer needs a graph (to partition) "
                    "or an existing sharded index to maintain"
                )
            sharded = ShardedIndex.build(graph, num_shards, method)
        elif graph is not None and sharded.graph is not graph:
            raise PartitionError(
                "the sharded index to maintain must index the given graph"
            )
        self.policy = policy
        self.rebalances = 0
        self.edges_moved = 0
        self.full_repartitions = 0
        registry = _metrics.get_registry()
        for name in ("rebalances", "edges_moved", "full_repartitions"):
            registry.counter(f"repro_sharded_index_{name}")
        super().__init__(sharded.graph, sharded)

    def sharded(self) -> ShardedIndex:
        """The maintained index, brought current (policy applied, if any).

        A refresh or policy trigger that *replaces* the index (a full
        re-partition) goes through :meth:`ShardedIndex.rebuilt`, which
        carries the view-cache bound ``max_resident`` over.
        """
        result: ShardedIndex = self.refresh()  # type: ignore[assignment]
        if self.policy is not None:
            result = self._apply_policy(result)
        return result

    def _apply_policy(self, sharded: ShardedIndex) -> ShardedIndex:
        policy = self.policy
        assert policy is not None
        if (
            policy.max_replication is not None
            and sharded.num_shards > 1
            and sharded.replication_factor() > policy.max_replication
        ):
            # Replication has drifted past the point where local moves
            # pay off: one full re-partition resets it.
            _LOG.warning(
                "replication factor %.2f exceeded the %.2f ceiling; "
                "serving one full re-partition",
                sharded.replication_factor(),
                policy.max_replication,
            )
            sharded = sharded.rebuilt()
            self._index = sharded
            self.full_repartitions += 1
            _metrics.counter("repro_sharded_index_full_repartitions").inc()
            return sharded
        moved = sharded.rebalance(policy.max_load_factor)
        if moved:
            self.rebalances += 1
            self.edges_moved += moved
            _metrics.counter("repro_sharded_index_rebalances").inc()
            _metrics.counter("repro_sharded_index_edges_moved").inc(moved)
        return sharded


def absorb_graph(current: LabeledGraph, target: LabeledGraph) -> int:
    """Mutate ``current`` (in place) until it equals ``target``; returns ops.

    The offline delta source for ``repro partition --rebalance``: the
    difference between a loaded partition's reconstructed graph and a
    newer on-disk snapshot is replayed as ordinary mutations — added
    vertices, added edges, removed edges, removed vertices, in that
    order, each deterministic — so an attached
    :class:`ShardedIndexMaintainer` absorbs the drift as typed deltas.

    Raises
    ------
    PartitionError
        When a shared vertex changed label (not expressible as graph
        deltas; re-partition from scratch instead).
    """
    applied = 0
    for vertex in target.vertices():
        label = target.label_of(vertex)
        if current.has_vertex(vertex):
            if current.label_of(vertex) != label:
                raise PartitionError(
                    f"vertex {vertex!r} changed label "
                    f"({current.label_of(vertex)!r} -> {label!r}); "
                    "re-partition from scratch instead of rebalancing"
                )
            continue
        current.add_vertex(vertex, label)
        applied += 1
    for u, v in target.edges():
        if not current.has_edge(u, v):
            current.add_edge(u, v)
            applied += 1
    for u, v in current.edges():
        if not target.has_edge(u, v):
            current.remove_edge(u, v)
            applied += 1
    for vertex in current.vertices():
        if not target.has_vertex(vertex):
            current.remove_vertex(vertex)  # incident edges already removed
            applied += 1
    return applied
