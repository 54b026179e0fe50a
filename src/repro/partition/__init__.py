"""Partitioned data-graph subsystem: sharded indexing and halo-aware evaluation.

Splits one :class:`~repro.graph.labeled_graph.LabeledGraph` into k
edge-disjoint shards (:mod:`repro.partition.partitioner`), replicates
boundary vertices into per-shard halos (:mod:`repro.partition.shard`),
builds one :class:`~repro.index.GraphIndex` per shard behind a merged
global directory (:mod:`repro.partition.sharded_index`), and evaluates
the paper's support measures exactly by merging per-shard anchored
occurrences or node images.  One evaluator does that:
:func:`~repro.partition.workers.pooled_outcomes` plans each batch into
shard tasks, runs them in process or on the shard-resident worker pool
through one task function, and merges the partials with the helpers of
:mod:`repro.partition.evaluate`.  Shard directories round-trip through
:mod:`repro.partition.io`.  Under update streams the partition is
delta-maintained rather than rebuilt: :mod:`repro.partition.maintainer`
routes each graph delta to its owning shard(s) in O(delta) and
re-balances overflowing shards.  Pooled mining keeps one long-lived
worker per shard (:mod:`repro.partition.workers`).  See the
"Partitioning", "Dynamic partitions", and "Shard-resident workers"
sections of ``docs/architecture.md`` for the invariants and routing
rules.
"""

from .evaluate import (
    merge_lazy_partials,
    merge_shard_items,
    pattern_shardable,
    plan_candidate,
    relevant_shards,
    required_depth,
    support_from_shard_items,
)
from .io import load_partition, save_partition
from .maintainer import RebalancePolicy, ShardedIndexMaintainer, absorb_graph
from .partitioner import PARTITION_METHODS, EdgeRouter, Partition, partition_edges
from .shard import GraphShard
from .sharded_index import ShardedIndex
from .workers import ShardWorkerPool, WorkerPoolError, pooled_outcomes

__all__ = [
    "PARTITION_METHODS",
    "Partition",
    "partition_edges",
    "EdgeRouter",
    "GraphShard",
    "ShardedIndex",
    "ShardedIndexMaintainer",
    "RebalancePolicy",
    "absorb_graph",
    "save_partition",
    "load_partition",
    "ShardWorkerPool",
    "WorkerPoolError",
    "pooled_outcomes",
    "required_depth",
    "pattern_shardable",
    "plan_candidate",
    "relevant_shards",
    "merge_shard_items",
    "merge_lazy_partials",
    "support_from_shard_items",
]
