"""Randomized equivalence: sharded evaluation == unsharded, byte for byte.

The partition layer (repro.partition) reroutes support evaluation through
per-shard enumeration of halo-expanded shard views.  Every rerouted path
must produce results *identical* to the flat single-graph path — support
values, occurrence counts, frequent-pattern certificates, mining
statistics — for every shard count, every partitioner, eager and lazy,
with and without the acceleration index, serial and pooled.  This suite
pins that on ~30 seeded random graphs spanning sparse/dense and
label-poor/label-rich regimes (style and scope mirror
``tests/test_index_equivalence.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.synthetic import (
    planted_pattern_graph,
    preferential_attachment_graph,
    random_labeled_graph,
)
from repro.datasets.zoo import zoo_graph, zoo_names
from repro.errors import PartitionError
from repro.graph.builders import path_pattern, star_pattern, triangle_pattern
from repro.isomorphism.matcher import find_occurrences
from repro.measures.lazy_mni import lazy_mni_support
from repro.mining.dynamic import DynamicMiner, mine_stream, pattern_footprint
from repro.mining.miner import mine_frequent_patterns
from repro.mining.parallel import evaluate_support
from repro.mining.spec import MiningSpec
from repro.partition import (
    InProcessRunner,
    PARTITION_METHODS,
    ShardedIndex,
    merge_shard_items,
    pooled_outcomes,
    relevant_shards,
    required_depth,
)
from repro.partition import evaluate as evaluate_module
from repro.partition.evaluate import anchored_occurrence_items, shard_exclusive


PATTERNS = [
    path_pattern(["A", "B"]),
    path_pattern(["A", "B", "A"]),
    path_pattern(["B", "A", "C"]),
    star_pattern("A", ["B", "B"]),
    triangle_pattern("A"),
]

#: ~30 seeded random graphs: (generator-kind, seed, size, density-ish knob).
GRAPH_SPECS = (
    [("er", seed, 14, 0.25) for seed in range(8)]
    + [("er", seed, 20, 0.15) for seed in range(8, 15)]
    + [("er", seed, 16, 0.35) for seed in range(15, 20)]
    + [("ba", seed, 20, 2) for seed in range(20, 26)]
    + [("planted", seed, 8, 0.5) for seed in range(26, 31)]
)

MINE_SPEC = MiningSpec(
    measure="mni", min_support=2, max_pattern_nodes=4, max_pattern_edges=4
)


def build_graph(spec):
    kind, seed, size, knob = spec
    if kind == "er":
        alphabet = ("A", "B", "C") if seed % 2 else ("A", "B", "C", "D")
        return random_labeled_graph(size, knob, alphabet=alphabet, seed=seed)
    if kind == "ba":
        return preferential_attachment_graph(
            size, knob, alphabet=("A", "B", "C", "D"), seed=seed, label_skew=0.3
        )
    return planted_pattern_graph(
        star_pattern("A", ["B", "C"]),
        num_copies=size,
        overlap_fraction=knob,
        background_vertices=4,
        background_edge_probability=0.3,
        seed=seed,
    )


def assert_mining_identical(sharded_result, flat_result):
    """Byte identity of everything a mining run reports."""
    assert sharded_result.certificates() == flat_result.certificates()
    assert [fp.support for fp in sharded_result.frequent] == [
        fp.support for fp in flat_result.frequent
    ]
    assert [fp.num_occurrences for fp in sharded_result.frequent] == [
        fp.num_occurrences for fp in flat_result.frequent
    ]
    assert sharded_result.stats.as_dict() == flat_result.stats.as_dict()


@pytest.fixture(params=GRAPH_SPECS, ids=lambda spec: f"{spec[0]}-s{spec[1]}")
def graph(request):
    return build_graph(request.param)


class TestShardedMiningEquivalence:
    def test_mining_identical_across_all_graphs(self, graph):
        """Every seeded graph, eager MNI, three shards."""
        flat = mine_frequent_patterns(graph, spec=MINE_SPEC)
        sharded = mine_frequent_patterns(graph, spec=MINE_SPEC.replace(shards=3))
        assert_mining_identical(sharded, flat)


@pytest.mark.parametrize("method", PARTITION_METHODS)
@pytest.mark.parametrize("shards", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 9, 22, 27])
def test_mining_identical_per_partitioner(seed, shards, method):
    """k in {2, 3, 4} x all three partitioners (the acceptance matrix)."""
    graph = build_graph(GRAPH_SPECS[seed])
    flat = mine_frequent_patterns(graph, spec=MINE_SPEC)
    sharded = mine_frequent_patterns(
        graph, spec=MINE_SPEC.replace(shards=shards, partition_method=method)
    )
    assert_mining_identical(sharded, flat)


@pytest.mark.parametrize("measure", ["mni", "mi", "mis"])
@pytest.mark.parametrize("seed", [4, 12, 28])
def test_measures_mine_identically(seed, measure):
    graph = build_graph(GRAPH_SPECS[seed])
    spec = MINE_SPEC.replace(measure=measure)
    flat = mine_frequent_patterns(graph, spec=spec)
    sharded = mine_frequent_patterns(
        graph, spec=spec.replace(shards=3, partition_method="label")
    )
    assert_mining_identical(sharded, flat)


@pytest.mark.parametrize("method", ["hash", "edgecut"])
@pytest.mark.parametrize("seed", [0, 6, 10, 17, 21, 24, 29])
def test_lazy_mining_identical(seed, method):
    graph = build_graph(GRAPH_SPECS[seed])
    spec = MINE_SPEC.replace(lazy=True)
    flat = mine_frequent_patterns(graph, spec=spec)
    sharded = mine_frequent_patterns(
        graph, spec=spec.replace(shards=4, partition_method=method)
    )
    assert_mining_identical(sharded, flat)


@pytest.mark.parametrize("seed", [2, 13, 25])
def test_brute_force_sharded_identical(seed):
    """index=False stays the reference path shard-by-shard too."""
    graph = build_graph(GRAPH_SPECS[seed])
    spec = MINE_SPEC.replace(use_index=False)
    flat = mine_frequent_patterns(graph, spec=spec)
    sharded = mine_frequent_patterns(graph, spec=spec.replace(shards=2))
    assert_mining_identical(sharded, flat)


@pytest.mark.parametrize("seed", [5, 16, 23])
def test_pooled_sharded_identical(seed):
    """shards=k composed with workers=N matches the flat serial run."""
    graph = build_graph(GRAPH_SPECS[seed])
    flat = mine_frequent_patterns(graph, spec=MINE_SPEC)
    pooled = mine_frequent_patterns(graph, spec=MINE_SPEC.replace(shards=3, workers=2))
    assert_mining_identical(pooled, flat)


@pytest.mark.parametrize("seed", [7, 18])
def test_pooled_lazy_sharded_identical(seed):
    """The lazy fanout branch (per-node image partials merged in the parent).

    hash partitioning spreads footprints across shards, so multi-shard
    candidates actually exercise the workers' per-node image scans
    (``evaluate_task`` part tasks) + merge_lazy_partials rather than
    collapsing to solo tasks.
    """
    graph = build_graph(GRAPH_SPECS[seed])
    spec = MINE_SPEC.replace(lazy=True)
    flat = mine_frequent_patterns(graph, spec=spec)
    pooled = mine_frequent_patterns(
        graph, spec=spec.replace(shards=3, workers=2, partition_method="hash")
    )
    assert_mining_identical(pooled, flat)


@pytest.mark.parametrize("seed", [6, 20])
def test_max_occurrences_sharded_deterministic(seed):
    """max_occurrences + shards: truncation is deterministic and pool-stable.

    The truncated subset may legitimately differ from the flat
    enumeration prefix (documented), but serial sharded, repeated serial
    sharded, and pooled sharded runs must all agree exactly.
    """
    graph = build_graph(GRAPH_SPECS[seed])
    spec = MINE_SPEC.replace(max_occurrences=5)
    first = mine_frequent_patterns(graph, spec=spec.replace(shards=3))
    again = mine_frequent_patterns(graph, spec=spec.replace(shards=3))
    pooled = mine_frequent_patterns(graph, spec=spec.replace(shards=3, workers=2))
    assert_mining_identical(again, first)
    assert_mining_identical(pooled, first)


@pytest.mark.parametrize("seed", [3, 11, 19])
def test_single_shard_session_is_the_flat_path(seed):
    """shards=1 must not even build a ShardedIndex — today's path, untouched."""
    from repro.mining.miner import FrequentSubgraphMiner

    graph = build_graph(GRAPH_SPECS[seed])
    miner = FrequentSubgraphMiner(graph, spec=MINE_SPEC)
    assert miner._sharded is None
    assert_mining_identical(
        mine_frequent_patterns(graph, spec=MINE_SPEC.replace(shards=1)),
        miner.mine(),
    )


#: Every execution strategy the miner offers besides the default
#: (indexed, flat, serial) one; each must reproduce it byte for byte.
ZOO_STRATEGIES = {
    "brute": {"use_index": False},
    "sharded": {"shards": 3},
    "sharded-pooled": {"shards": 3, "workers": 2},
}
#: A DynamicMiner's first refresh runs the same lattice walk as the
#: static miner, so under the default and every strategy above it must
#: report the same result *and* the same stats.
ZOO_DYNAMIC_STRATEGIES = {
    "dynamic": {},
    **{f"dynamic-{name}": kwargs for name, kwargs in ZOO_STRATEGIES.items()},
}
ZOO_SPEC = MiningSpec(min_support=2, max_pattern_nodes=3, max_pattern_edges=3)


@pytest.mark.parametrize(
    "strategy", sorted(ZOO_STRATEGIES) + sorted(ZOO_DYNAMIC_STRATEGIES)
)
@pytest.mark.parametrize("name", zoo_names())
def test_zoo_strategies_identical(name, strategy):
    """The hand-built zoo graphs under every strategy, byte for byte."""
    graph = zoo_graph(name)
    default = mine_frequent_patterns(graph, spec=ZOO_SPEC)
    assert default.num_frequent > 0
    if strategy in ZOO_DYNAMIC_STRATEGIES:
        spec = ZOO_SPEC.replace(**ZOO_DYNAMIC_STRATEGIES[strategy])
        with DynamicMiner(graph, spec=spec) as miner:
            other = miner.refresh()
    else:
        other = mine_frequent_patterns(
            graph, spec=ZOO_SPEC.replace(**ZOO_STRATEGIES[strategy])
        )
    assert_mining_identical(other, default)


@pytest.mark.parametrize("measure", ["mi", "mis"])
def test_zoo_other_measures_identical(measure):
    graph = zoo_graph("disjoint_triangles")
    spec = ZOO_SPEC.replace(measure=measure, min_support=3)
    default = mine_frequent_patterns(graph, spec=spec)
    assert default.num_frequent == 3  # edge, wedge, triangle
    for strategy in ZOO_STRATEGIES.values():
        other = mine_frequent_patterns(graph, spec=spec.replace(**strategy))
        assert_mining_identical(other, default)


#: No test graph has a ``Z`` label, so no shard is relevant to this
#: pattern: its sharded outcome is the empty merge.
UNANCHORED = path_pattern(["A", "Z"])


def sharded_outcomes(patterns, sharded, measure, **common):
    """Serial sharded supports: ``pooled_outcomes`` on a fresh in-process runner.

    The views are at depth 2, a 4-node session's, deeper than some of
    ``PATTERNS`` need.
    """

    def flat(pattern):
        raise AssertionError(f"{pattern} unexpectedly took the flat path")

    runner = InProcessRunner(
        measure=measure,
        lazy=common["lazy"],
        lazy_cap=common["lazy_cap"],
        use_index=True,
    )
    try:
        return pooled_outcomes(
            patterns,
            sharded,
            runner,
            measure=measure,
            depth=2,
            flat_evaluate=flat,
            **common,
        )
    finally:
        runner.shutdown()


class TestShardedSupportEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 9, 18, 20, 26])
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_occurrence_sets_identical(self, seed, method):
        graph = build_graph(GRAPH_SPECS[seed])
        sharded = ShardedIndex.build(graph, 3, method)
        for pattern in PATTERNS:
            flat = find_occurrences(pattern, graph)
            footprint = pattern_footprint(pattern)
            merged = merge_shard_items(
                [
                    anchored_occurrence_items(
                        pattern,
                        sharded.expanded_shard(shard_id, required_depth(pattern)),
                        sharded.shards[shard_id].core_edge_set,
                        exclusive=shard_exclusive(footprint, sharded, shard_id),
                    )
                    for shard_id in relevant_shards(footprint, sharded)
                ]
            )
            assert {occ.mapping_items for occ in merged} == {
                occ.mapping_items for occ in flat
            }
            assert len(merged) == len(flat)

    @pytest.mark.parametrize("seed", [1, 8, 15, 21, 28])
    @pytest.mark.parametrize("measure", ["mni", "mi", "mis"])
    def test_support_values_identical(self, seed, measure):
        graph = build_graph(GRAPH_SPECS[seed])
        sharded = ShardedIndex.build(graph, 4, "hash")
        common = dict(
            lazy=False,
            lazy_cap=2,
            max_occurrences=None,
            histogram=graph.label_histogram(),
            prune_below=None,
        )
        patterns = PATTERNS + [UNANCHORED]
        assert relevant_shards(pattern_footprint(UNANCHORED), sharded) == []
        assert sharded_outcomes(patterns, sharded, measure, **common) == [
            evaluate_support(pattern, graph, measure, index_arg=None, **common)
            for pattern in patterns
        ]

    @pytest.mark.parametrize("seed", [2, 14, 24])
    def test_prune_decisions_identical(self, seed):
        graph = build_graph(GRAPH_SPECS[seed])
        sharded = ShardedIndex.build(graph, 3, "edgecut")
        histogram = sharded.label_histogram()
        for threshold in (2.0, 4.0, 100.0):
            common = dict(
                lazy=False,
                lazy_cap=2,
                max_occurrences=None,
                histogram=histogram,
                prune_below=threshold,
            )
            assert sharded_outcomes(PATTERNS, sharded, "mni", **common) == [
                evaluate_support(pattern, graph, "mni", index_arg=None, **common)
                for pattern in PATTERNS
            ]

    @pytest.mark.parametrize("seed", [4, 10, 16, 27])
    def test_lazy_capped_values_identical(self, seed):
        graph = build_graph(GRAPH_SPECS[seed])
        sharded = ShardedIndex.build(graph, 3, "hash")
        patterns = PATTERNS[:3] + [UNANCHORED]
        for cap in (1, 2, 4, None):
            outcomes = sharded_outcomes(
                patterns,
                sharded,
                "mni",
                lazy=True,
                lazy_cap=cap,
                max_occurrences=None,
            )
            assert outcomes == [
                (float(lazy_mni_support(pattern, graph, cap=cap)), -1)
                for pattern in patterns
            ]

    def test_session_depth_must_cover_patterns(self):
        """One view per shard is exact only at a depth every pattern fits."""
        sharded = ShardedIndex.build(build_graph(GRAPH_SPECS[0]), 3, "hash")
        common = dict(
            measure="mni",
            lazy=False,
            lazy_cap=2,
            max_occurrences=None,
            flat_evaluate=None,
        )
        three_nodes = [path_pattern(["A", "B", "A"])]
        with pytest.raises(PartitionError, match="needs halo depth 1"):
            pooled_outcomes(three_nodes, sharded, None, depth=0, **common)


def test_serial_sharded_lazy_keeps_node_major_early_exits(monkeypatch):
    """Serial sharded lazy MNI reads per-node images on demand.

    The in-process runner's lazy partials are scanned node by node as
    ``merge_lazy_partials`` reaches them, stopping at the first shard
    that caps a node and at the first node with no image.  A shard-major
    runner (every node of every relevant shard scanned up front) gives
    the same answer with many more ``valid_images`` calls on this fixed
    hash-partitioned fixture; 1158 is what the node-major serial ladder
    made before the evaluators were merged.
    """
    calls = [0]
    real = evaluate_module.valid_images

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate_module, "valid_images", counting)
    graph = build_graph(GRAPH_SPECS[18])
    spec = MINE_SPEC.replace(lazy=True, shards=3, partition_method="hash")
    result = mine_frequent_patterns(graph, spec=spec)
    assert 0 < calls[0] <= 1158
    flat = mine_frequent_patterns(graph, spec=spec.replace(shards=1))
    assert_mining_identical(result, flat)


# ----------------------------------------------------------------------
# dynamic partitions: delta-maintained ShardedIndex under mixed churn
# ----------------------------------------------------------------------


def result_key(result):
    """The byte-identity certificate: (certificate, support, occurrences)."""
    return [
        (fp.certificate, fp.support, fp.num_occurrences)
        for fp in sorted(result.frequent, key=lambda fp: fp.certificate)
    ]


def churn_randomly(graph, rng, steps, alphabet, tag):
    """Mixed mutations: insertions, edge removals, vertex removals."""
    applied = 0
    serial = 0
    while applied < steps:
        roll = rng.random()
        if roll < 0.25:
            graph.add_vertex(f"{tag}-{serial}", rng.choice(alphabet))
            serial += 1
            applied += 1
        elif roll < 0.5 and graph.num_edges > 3:
            graph.remove_edge(*rng.choice(graph.edges()))
            applied += 1
        elif roll < 0.6 and graph.num_vertices > 6:
            graph.remove_vertex(rng.choice(graph.vertices()))
            applied += 1
        else:
            u, v = rng.sample(graph.vertices(), 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                applied += 1


class TestDynamicShardedEquivalence:
    """Patched ShardedIndex == freshly partitioned + rebuilt, per churn batch.

    The acceptance criterion of the dynamic-partitions PR: after any
    validated update stream the delta-maintained sharded miner must
    produce byte-identical results (certificates, supports, occurrence
    counts) to a from-scratch partition + rebuild of the current graph —
    and to the flat miner, by the PR 3 exactness argument.
    """

    @pytest.mark.parametrize("method", PARTITION_METHODS)
    @pytest.mark.parametrize("seed", [0, 9, 21])
    def test_mixed_churn_matches_fresh_partition(self, seed, method):
        graph = build_graph(GRAPH_SPECS[seed])
        rng = random.Random(seed * 131 + 17)
        miner = DynamicMiner(
            graph, spec=MINE_SPEC.replace(shards=3, partition_method=method)
        )
        try:
            assert result_key(miner.refresh()) == result_key(
                mine_frequent_patterns(graph.copy(), spec=MINE_SPEC)
            )
            for batch in range(3):
                churn_randomly(
                    graph, rng, steps=5, alphabet="ABCD", tag=f"{method}{seed}b{batch}"
                )
                patched = result_key(miner.refresh())
                fresh = result_key(
                    mine_frequent_patterns(
                        graph.copy(),
                        spec=MINE_SPEC.replace(shards=3, partition_method=method),
                    )
                )
                flat = result_key(mine_frequent_patterns(graph.copy(), spec=MINE_SPEC))
                assert patched == fresh == flat
        finally:
            miner.detach()

    @pytest.mark.parametrize("measure", ["mni", "mi", "mis"])
    def test_measure_generality_under_sharded_churn(self, measure):
        spec = MINE_SPEC.replace(measure=measure)
        graph = build_graph(GRAPH_SPECS[28])
        rng = random.Random(53)
        miner = DynamicMiner(
            graph, spec=spec.replace(shards=2, partition_method="hash")
        )
        try:
            miner.refresh()
            for batch in range(3):
                churn_randomly(graph, rng, steps=4, alphabet="ABC", tag=f"m{batch}")
                patched = result_key(miner.refresh())
                fresh = result_key(
                    mine_frequent_patterns(
                        graph.copy(),
                        spec=spec.replace(shards=2, partition_method="hash"),
                    )
                )
                assert patched == fresh
        finally:
            miner.detach()

    def test_lazy_mni_under_sharded_churn(self):
        spec = MINE_SPEC.replace(lazy=True)
        graph = build_graph(GRAPH_SPECS[12])
        rng = random.Random(29)
        miner = DynamicMiner(
            graph, spec=spec.replace(shards=3, partition_method="edgecut")
        )
        try:
            miner.refresh()
            for batch in range(3):
                churn_randomly(graph, rng, steps=4, alphabet="ABC", tag=f"z{batch}")
                patched = result_key(miner.refresh())
                fresh = result_key(
                    mine_frequent_patterns(
                        graph.copy(),
                        spec=spec.replace(shards=3, partition_method="edgecut"),
                    )
                )
                flat = result_key(mine_frequent_patterns(graph.copy(), spec=spec))
                assert patched == fresh == flat
        finally:
            miner.detach()

    def test_delta_savings_survive_sharding(self):
        """Footprint reuse/skip still fires when evaluation is sharded."""
        graph = build_graph(GRAPH_SPECS[26])  # planted: two label regions
        miner = DynamicMiner(
            graph, spec=MINE_SPEC.replace(shards=2, partition_method="label")
        )
        try:
            initial = miner.refresh()
            anchor = sorted(graph.vertices_with_label("A"), key=repr)[0]
            graph.add_vertex("fresh-b", "B")
            graph.add_edge(anchor, "fresh-b")
            refreshed = miner.refresh()
            assert (
                refreshed.stats.patterns_reused
                + refreshed.stats.patterns_skipped_unaffected
                > 0
            )
            assert refreshed.stats.patterns_evaluated <= (
                initial.stats.patterns_evaluated
            )
            assert result_key(refreshed) == result_key(
                mine_frequent_patterns(graph.copy(), spec=MINE_SPEC)
            )
        finally:
            miner.detach()


class TestShardedWindowStreams:
    """Sliding-window expiry rides the same delta-routing machinery."""

    def _chain_updates(self, graph, count):
        anchor = graph.vertices()[0]
        updates = []
        for i in range(count):
            updates.append(("v", f"w-{i}", "AB"[i % 2]))
            updates.append(("e", f"w-{i - 1}" if i else anchor, f"w-{i}"))
        return updates

    @pytest.mark.parametrize("method", ["hash", "label"])
    def test_window_stream_sharded_modes_agree(self, method):
        updates = None
        keys = {}
        for mode in ("delta", "rebuild"):
            graph = build_graph(GRAPH_SPECS[2])
            updates = updates or self._chain_updates(graph, 8)
            steps = list(
                mine_stream(
                    graph,
                    updates,
                    spec=MINE_SPEC.replace(
                        batch_size=3,
                        window=4,
                        mode=mode,
                        shards=2,
                        partition_method=method,
                    ),
                )
            )
            keys[mode] = [
                (result_key(step.result), step.edges_expired) for step in steps
            ]
            assert graph.delta_log() is None
        assert keys["delta"] == keys["rebuild"]

    def test_sharded_stream_matches_unsharded_stream(self):
        updates = None
        keys = {}
        for shards in (1, 3):
            graph = build_graph(GRAPH_SPECS[13])
            updates = updates or self._chain_updates(graph, 9) + [
                ("de", "w-1", "w-2"),
                ("dv", "w-2"),
                ("v", "w-2", "A"),
                ("e", "w-1", "w-2"),
            ]
            steps = list(
                mine_stream(
                    graph,
                    updates,
                    spec=MINE_SPEC.replace(
                        batch_size=4, shards=shards, partition_method="edgecut"
                    ),
                )
            )
            keys[shards] = [result_key(step.result) for step in steps]
        assert keys[1] == keys[3]
