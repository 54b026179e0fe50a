"""tab10 — partitioned (sharded) mining vs the flat single-graph miner.

Five experiments share this module:

* **tab10a** — partitioner quality: per-method shard balance, boundary
  vertex count, and replication factor on the clustered medium dataset
  (the greedy ``edgecut`` minimizer must beat ``hash`` on replication);
* **tab10b** — exactness: sharded mining (k = 4, every partitioner) is
  byte-identical to the flat miner on the same dataset — the acceptance
  property the randomized suite (``tests/test_partition_equivalence.py``)
  pins on small graphs, re-asserted here at medium scale;
* **tab10c** — the speedup gate: ``shards=4, workers=4`` must beat the
  single-shard single-worker miner by **>= 1.5x** on the medium dataset.
  Footprint-affine ``label`` partitioning makes nearly every candidate a
  single-relevant-shard ("solo") pool task whose worker returns just
  ``(support, num_occurrences)``, so enumeration *and* measure
  computation parallelize with near-zero IPC.  Skipped below 4 CPUs,
  where the 4-worker fan-out has nowhere to run;
* **tab10d** — the dynamic-partition gate: over a deletion-heavy mixed
  update stream (shared with tab9c via ``stream_workloads``), the
  delta-maintained sharded miner — one partition kept current in
  O(delta) per update, per-shard state patched, untouched expansions
  cached — must beat re-partitioning + re-mining per batch by
  **>= 1.3x**, with byte-identical per-batch results;
* **tab10f** — the bounded-view-cache gate: mining a large-diameter
  corridor graph with ``max_resident=1`` must be byte-identical to the
  all-resident run while its deterministic peak resident view weight
  (``ShardedIndex.peak_resident_weight``, the projected index footprint
  in bytes of every non-alias cached view) stays strictly below the
  all-resident peak.

Results must be identical in every configuration; wall time is the
experiment.
"""

from __future__ import annotations

import os
import time

import pytest
from stream_workloads import (
    STREAM_SPEC,
    apply_batch,
    batches,
    churn_stream,
    two_region_base,
)

from repro.analysis.report import format_table
from repro.datasets.synthetic import (
    planted_pattern_graph,
    preferential_attachment_graph,
)
from repro.graph.builders import path_pattern, star_pattern
from repro.mining.dynamic import DynamicMiner
from repro.mining.miner import mine_frequent_patterns
from repro.mining.spec import MiningSpec
from repro.partition import PARTITION_METHODS, ShardedIndex


#: Equivalence-scale search (tab10a/b — fast enough for the CI smoke).
MINE_SPEC = MiningSpec(
    measure="mni", min_support=4, max_pattern_nodes=4, max_pattern_edges=4
)
#: Gate-scale search (tab10c — deep enough to amortize pool startup).
GATE_SPEC = MiningSpec(
    measure="mni", min_support=4, max_pattern_nodes=5, max_pattern_edges=5
)


@pytest.fixture(scope="module")
def partition_workload():
    """The clustered *medium* dataset for the sharding experiments.

    Four label-disjoint regions stitched by single edges: three welded
    planted-pattern communities (heavy occurrence overlap — expensive
    enumeration) plus a preferential-attachment region (hubs).  Distinct
    regional alphabets give the label-pair directory real pruning power:
    nearly every candidate's footprint lives in one region, so its
    relevant shards (under ``label`` / ``edgecut`` partitioning) stay
    few and its halo-expanded views stay region-sized.
    """
    regions = [
        planted_pattern_graph(
            star_pattern("A", ["B", "C"]),
            num_copies=70,
            overlap_fraction=0.55,
            background_vertices=50,
            background_edge_probability=0.05,
            seed=11,
            name="partition-medium",
        ),
        planted_pattern_graph(
            path_pattern(["D", "E", "D", "F"]),
            num_copies=56,
            overlap_fraction=0.45,
            seed=23,
        ),
        planted_pattern_graph(
            star_pattern("G", ["H", "H"]),
            num_copies=59,
            overlap_fraction=0.6,
            background_vertices=30,
            background_edge_probability=0.05,
            seed=37,
        ),
        preferential_attachment_graph(
            119, 2, alphabet=("J", "K", "L"), seed=53, label_skew=0.25
        ),
    ]
    graph = regions[0]
    anchors = [0]
    offset = 0
    for region in regions[1:]:
        offset = graph.num_vertices + offset + 1000
        for vertex in region.vertices():
            graph.add_vertex(vertex + offset, region.label_of(vertex))
        for u, v in region.edges():
            graph.add_edge(u + offset, v + offset)
        anchors.append(offset)
    for first, second in zip(anchors, anchors[1:]):
        graph.add_edge(first, second)  # sparse stitches between regions
    return graph


def _best_of_interleaved(first, second, repeats=3):
    """Min wall-clock of each callable over alternating runs (tab4c style)."""
    best_first = best_second = float("inf")
    result_first = result_second = None
    for _ in range(repeats):
        start = time.perf_counter()
        result_first = first()
        best_first = min(best_first, time.perf_counter() - start)
        start = time.perf_counter()
        result_second = second()
        best_second = min(best_second, time.perf_counter() - start)
    return best_first, result_first, best_second, result_second


def test_tab10a_partitioner_quality(partition_workload, emit):
    rows = []
    replication = {}
    for method in PARTITION_METHODS:
        sharded = ShardedIndex.build(partition_workload, 4, method)
        sizes = sharded.partition.shard_sizes()
        replication[method] = sharded.replication_factor()
        rows.append(
            [
                method,
                f"{min(sizes)}..{max(sizes)}",
                len(sharded.boundary_vertices()),
                f"{replication[method]:.3f}",
            ]
        )
        assert sum(sizes) == partition_workload.num_edges
    emit(
        format_table(
            ["method", "core edges/shard", "boundary", "replication"],
            rows,
            title="tab10a: partitioner quality on the medium dataset (k = 4)",
        )
    )
    # The greedy replication minimizer must actually minimize replication.
    assert replication["edgecut"] < replication["hash"]


def test_tab10b_sharded_mining_identical(partition_workload, emit):
    flat = mine_frequent_patterns(partition_workload, spec=MINE_SPEC)
    for method in PARTITION_METHODS:
        sharded = mine_frequent_patterns(
            partition_workload,
            spec=MINE_SPEC.replace(shards=4, partition_method=method),
        )
        assert sharded.certificates() == flat.certificates()
        assert [fp.support for fp in sharded.frequent] == [
            fp.support for fp in flat.frequent
        ]
        assert sharded.stats.as_dict() == flat.stats.as_dict()
    emit(
        f"tab10b: sharded(k=4, {', '.join(PARTITION_METHODS)}) == flat on "
        f"{flat.num_frequent} frequent patterns"
    )


def test_tab10c_sharded_parallel_speedup(partition_workload, benchmark, emit):
    """Acceptance gate: shards=4 + workers=4 >= 1.5x over flat serial.

    Timed as interleaved min-of-3 pairs (tab4c discipline) so shared-
    runner contention degrades both pipelines instead of flipping the
    ratio.  Requires real cores: with fewer than 4 CPUs the 4-worker
    fan-out has nowhere to run in parallel, so the gate is skipped
    rather than measuring scheduler noise (single-CPU calibration: the
    whole sharded+pooled pipeline costs only ~1.4x flat wall-clock, so
    4 cores leave ~2x headroom over the gate).
    """
    if (os.cpu_count() or 1) < 4:
        pytest.skip("parallel speedup gate needs >= 4 CPUs")

    def flat_run():
        return mine_frequent_patterns(partition_workload, spec=GATE_SPEC)

    def sharded_run():
        return mine_frequent_patterns(
            partition_workload,
            spec=GATE_SPEC.replace(shards=4, workers=4, partition_method="label"),
        )

    flat_run()  # warm the cached GraphIndex before timing
    t_flat, flat_result, t_sharded, sharded_result = _best_of_interleaved(
        flat_run, sharded_run
    )

    assert sharded_result.certificates() == flat_result.certificates()
    assert sharded_result.stats.as_dict() == flat_result.stats.as_dict()
    speedup = t_flat / max(t_sharded, 1e-9)
    emit(
        format_table(
            ["pipeline", "time ms", "frequent"],
            [
                [
                    "flat (1 shard, 1 worker)",
                    f"{t_flat*1e3:.1f}",
                    flat_result.num_frequent,
                ],
                [
                    "sharded (4 shards, 4 workers)",
                    f"{t_sharded*1e3:.1f}",
                    sharded_result.num_frequent,
                ],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            title="tab10c: sharded parallel mining vs flat serial (medium dataset)",
        )
    )
    assert speedup >= 1.5, f"sharded mining only {speedup:.2f}x over flat serial"

    benchmark(sharded_run)


def test_tab10_benchmark_flat_mining(partition_workload, benchmark):
    benchmark(lambda: mine_frequent_patterns(partition_workload, spec=MINE_SPEC))


# ----------------------------------------------------------------------
# tab10d — delta-maintained sharded streaming vs re-partition per batch
# (search parameters: stream_workloads.STREAM_SPEC, shared with tab9b/c)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_stream_workload():
    """The shared deletion-heavy mixed stream over the two-region graph."""
    return churn_stream(two_region_base())


def test_tab10d_sharded_delta_stream_vs_repartition_per_batch(
    sharded_stream_workload, benchmark, emit
):
    """Acceptance gate: dynamic partitions beat re-partition-per-batch >= 1.3x.

    The delta pipeline maintains **one** partition across the whole
    stream: every update is routed to its owning shard(s) in O(delta),
    halos are patched in place, and only the footprint-affected
    candidates re-evaluate (over expansions whose caches survive in the
    untouched shards).  The reference pipeline re-partitions the graph
    and re-mines every batch — the pre-dynamic-partitions behavior.
    Same interleaved min-of-3 discipline as tab9b/tab9c; per-batch
    results must be identical.
    """
    base, updates = sharded_stream_workload
    update_batches = batches(updates, 6)
    spec = STREAM_SPEC.replace(shards=2, partition_method="label")

    def delta_run():
        graph = base.copy()
        miner = DynamicMiner(graph, spec=spec)
        try:
            keys = [miner.refresh().certificates()]
            for batch in update_batches:
                apply_batch(graph, batch)
                keys.append(miner.refresh().certificates())
        finally:
            miner.detach()
        return keys

    def repartition_run():
        graph = base.copy()
        mined = mine_frequent_patterns(graph, spec=spec)
        keys = [mined.certificates()]
        for batch in update_batches:
            apply_batch(graph, batch)
            mined = mine_frequent_patterns(graph, spec=spec)
            keys.append(mined.certificates())
        return keys

    best_delta = best_repartition = float("inf")
    delta_keys = repartition_keys = None
    for _ in range(3):
        start = time.perf_counter()
        repartition_keys = repartition_run()
        best_repartition = min(best_repartition, time.perf_counter() - start)
        start = time.perf_counter()
        delta_keys = delta_run()
        best_delta = min(best_delta, time.perf_counter() - start)

    assert delta_keys == repartition_keys  # identical after every batch
    speedup = best_repartition / max(best_delta, 1e-9)
    deletions = sum(1 for update in updates if update[0] in ("de", "dv"))
    emit(
        format_table(
            ["pipeline", "time ms", "batches", "deletions", "final frequent"],
            [
                [
                    "re-partition per batch",
                    f"{best_repartition * 1e3:.1f}",
                    len(update_batches),
                    deletions,
                    len(repartition_keys[-1]),
                ],
                [
                    "delta-maintained shards",
                    f"{best_delta * 1e3:.1f}",
                    len(update_batches),
                    deletions,
                    len(delta_keys[-1]),
                ],
                ["speedup", f"{speedup:.2f}x", "", "", ""],
            ],
            title=(
                "tab10d: delta-maintained sharded streaming vs "
                "re-partition-per-batch"
            ),
        )
    )
    assert speedup >= 1.3, (
        f"dynamic partitions only {speedup:.2f}x over re-partition-per-batch"
    )

    benchmark(delta_run)


# ----------------------------------------------------------------------
# tab10f — the max_resident bound on the halo view cache bounds resident memory
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def corridor_workload():
    """A large-diameter corridor: welded communities strung on a path.

    ``edgecut`` partitioning keeps each shard a contiguous stretch of
    the corridor, so its radius-2 halo ball stays a fraction of the
    graph — the regime where dropping cold shard views actually frees
    memory (small-diameter graphs collapse every ball to a whole-graph
    alias view, which weighs nothing).
    """
    from repro.graph.labeled_graph import LabeledGraph

    graph = LabeledGraph(name="corridor")
    n = 240
    for i in range(n):
        graph.add_vertex(i, "ABC"[i % 3])
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    for i in range(0, n - 8, 8):
        graph.add_edge(i, i + 5)  # short chords: local density, long diameter
    return graph


def test_tab10f_out_of_core_memory(corridor_workload, emit):
    """Acceptance gate: max_resident=1 evicts, matches, and uses less memory."""
    from repro.mining.miner import FrequentSubgraphMiner

    spec = MINE_SPEC.replace(partition_method="edgecut")
    runs = {}
    for max_resident in (1, 4):
        miner = FrequentSubgraphMiner(
            corridor_workload, spec=spec.replace(shards=4, max_resident=max_resident)
        )
        result = miner.mine()
        runs[max_resident] = (result, miner._sharded)

    flat = mine_frequent_patterns(corridor_workload, spec=MINE_SPEC)
    for max_resident, (result, _) in runs.items():
        assert result.certificates() == flat.certificates(), max_resident
        assert result.stats.as_dict() == flat.stats.as_dict(), max_resident

    bounded, all_resident = runs[1][1], runs[4][1]
    emit(
        format_table(
            ["run", "peak resident weight", "evictions", "recomputes"],
            [
                [
                    "all-resident (max_resident=4)",
                    all_resident.peak_resident_weight,
                    all_resident.evictions,
                    all_resident.recomputes,
                ],
                [
                    "bounded (max_resident=1)",
                    bounded.peak_resident_weight,
                    bounded.evictions,
                    bounded.recomputes,
                ],
            ],
            title="tab10f: bounded halo view cache (corridor graph, k=4)",
        )
    )
    assert bounded.evictions > 0
    assert bounded.peak_resident_weight < all_resident.peak_resident_weight, (
        f"bounded peak {bounded.peak_resident_weight} not below "
        f"all-resident peak {all_resident.peak_resident_weight}"
    )


def test_tab10d_benchmark_repartition_per_batch(sharded_stream_workload, benchmark):
    base, updates = sharded_stream_workload
    update_batches = batches(updates, 6)

    def repartition_run():
        graph = base.copy()
        results = [
            mine_frequent_patterns(
                graph, spec=STREAM_SPEC.replace(shards=2, partition_method="label")
            )
        ]
        for batch in update_batches:
            apply_batch(graph, batch)
            results.append(
                mine_frequent_patterns(
                    graph, spec=STREAM_SPEC.replace(shards=2, partition_method="label")
                )
            )
        return results

    benchmark(repartition_run)
