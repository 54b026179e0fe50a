"""Unit tests for the MiningSpec request API: the one way into mining."""

import gc
import json
import warnings
from dataclasses import fields

import pytest

from repro.cli import build_parser, spec_from_args
from repro.errors import MeasureError, MiningError
from repro.graph.builders import path_graph
from repro.mining.dynamic import DynamicMiner, mine_stream
from repro.mining.miner import FrequentSubgraphMiner, mine_frequent_patterns
from repro.mining.spec import _MINING_FIELD_TYPES, DEFAULT_SPEC, MiningSpec
from repro.service.protocol import result_bytes


def sample_graph():
    return path_graph(["a", "b", "a", "b", "a"])


class TestValidation:
    def test_defaults_are_valid(self):
        spec = MiningSpec()
        assert spec.measure == "mni"
        assert spec.min_support == 2.0

    def test_rejects_unknown_measure(self):
        with pytest.raises(MeasureError):
            MiningSpec(measure="nonsense")

    def test_rejects_nonpositive_support(self):
        with pytest.raises(MiningError, match="min_support must be positive"):
            MiningSpec(min_support=0)

    def test_lazy_requires_mni(self):
        with pytest.raises(MiningError, match="lazy"):
            MiningSpec(measure="mis", min_support=1, lazy=True)

    def test_partition_method_checked_only_when_sharded(self):
        # shards == 1 never partitions, so the method is irrelevant.
        MiningSpec(partition_method="hash")
        with pytest.raises(MiningError):
            MiningSpec(shards=2, partition_method="bogus")

    def test_max_resident_requires_shards(self):
        with pytest.raises(MiningError, match="max_resident"):
            MiningSpec(max_resident=2)

    def test_bounds(self):
        with pytest.raises(MiningError):
            MiningSpec(max_pattern_nodes=1)
        with pytest.raises(MiningError):
            MiningSpec(max_pattern_edges=0)
        with pytest.raises(MiningError):
            MiningSpec(max_occurrences=0)
        with pytest.raises(MiningError):
            MiningSpec(workers=0)
        with pytest.raises(MiningError):
            MiningSpec(window=0)
        with pytest.raises(MiningError):
            MiningSpec(batch_size=0)
        with pytest.raises(MiningError):
            MiningSpec(mode="sideways")

    def test_has_exactly_the_fifteen_declared_fields(self):
        names = [f.name for f in fields(MiningSpec)]
        assert len(names) == 15
        assert list(_MINING_FIELD_TYPES) == names  # every field type-checked

    @pytest.mark.parametrize(
        "field, value",
        [
            ("measure", 3),
            ("min_support", "3"),
            ("min_support", True),
            ("min_support", None),
            ("max_pattern_nodes", None),
            ("max_pattern_nodes", 3.0),
            ("max_pattern_edges", "4"),
            ("max_occurrences", 2.5),
            ("allow_non_anti_monotonic", 1),
            ("lazy", "yes"),
            ("use_index", None),
            ("workers", 2.5),
            ("workers", True),
            ("shards", True),
            ("partition_method", None),
            ("max_resident", "1"),
            ("window", 1.5),
            ("batch_size", False),
            ("mode", ["delta"]),
        ],
    )
    def test_wrong_field_type_is_a_mining_error(self, field, value):
        with pytest.raises(MiningError, match=field):
            MiningSpec(**{field: value})

    def test_optional_fields_accept_none(self):
        spec = MiningSpec(max_occurrences=None, max_resident=None, window=None)
        assert spec == DEFAULT_SPEC

    def test_min_support_normalised_to_float(self):
        spec = MiningSpec(min_support=3)
        assert type(spec.min_support) is float
        assert spec == MiningSpec(min_support=3.0)
        assert spec.cache_key() == MiningSpec(min_support=3.0).cache_key()
        assert spec.to_json() == MiningSpec(min_support=3.0).to_json()

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_SPEC.min_support = 99  # type: ignore[misc]


class TestSerialization:
    def test_json_round_trip(self):
        spec = MiningSpec(
            measure="mis",
            min_support=3,
            max_pattern_nodes=4,
            shards=2,
            partition_method="label",
            window=10,
        )
        assert MiningSpec.from_json(spec.to_json()) == spec

    def test_to_json_is_canonical(self):
        # Field order and separators are fixed — equal specs, equal bytes.
        a = MiningSpec(min_support=2, shards=2, partition_method="label")
        b = MiningSpec(partition_method="label", shards=2, min_support=2)
        assert a.to_json() == b.to_json()

    def test_cache_key_ignores_strategy_fields(self):
        # Strategy knobs (index, shards, workers...) never change the
        # result set, so they must not fragment the cache.
        base = MiningSpec()
        assert base.cache_key() == MiningSpec(shards=2, workers=1).cache_key()
        assert base.cache_key() == MiningSpec(use_index=False).cache_key()
        assert base.cache_key() != MiningSpec(min_support=3).cache_key()
        assert base.cache_key() != MiningSpec(lazy=True).cache_key()

    def test_replace(self):
        spec = DEFAULT_SPEC.replace(min_support=5)
        assert spec.min_support == 5
        assert DEFAULT_SPEC.min_support == 2.0


class TestFromKwargs:
    def test_aliases(self):
        spec = MiningSpec.from_kwargs(max_nodes=4, max_edges=5, partition="label")
        assert spec.max_pattern_nodes == 4
        assert spec.max_pattern_edges == 5
        assert spec.partition_method == "label"

    def test_unknown_key_rejected(self):
        with pytest.raises(MiningError, match="unknown"):
            MiningSpec.from_kwargs(min_supprot=2)

    def test_alias_conflict_rejected(self):
        with pytest.raises(MiningError):
            MiningSpec.from_kwargs(max_nodes=4, max_pattern_nodes=5)


class TestCliDefaultsSingleSource:
    """The CLI must not re-declare (and drift from) library defaults."""

    def test_mine_defaults_equal_default_spec(self):
        args = build_parser().parse_args(["mine", "g.lg"])
        assert spec_from_args(args) == DEFAULT_SPEC

    def test_mine_stream_defaults_equal_default_spec(self):
        args = build_parser().parse_args(["mine-stream", "g.lg", "u.lg"])
        assert spec_from_args(args, stream=True) == DEFAULT_SPEC

    def test_serve_defaults_equal_default_spec(self):
        args = build_parser().parse_args(["serve", "g.lg"])
        assert spec_from_args(args, stream=True) == DEFAULT_SPEC

    def test_every_spec_flag_reaches_the_spec(self):
        args = build_parser().parse_args(
            [
                "mine-stream",
                "g.lg",
                "u.lg",
                "--measure",
                "mis",
                "--min-support",
                "1",
                "--max-nodes",
                "3",
                "--max-edges",
                "4",
                "--shards",
                "2",
                "--partition",
                "label",
                "--workers",
                "2",
                "--batch-size",
                "3",
                "--window",
                "7",
                "--mode",
                "rebuild",
            ]
        )
        spec = spec_from_args(args, stream=True)
        assert spec == MiningSpec(
            measure="mis",
            min_support=1,
            max_pattern_nodes=3,
            max_pattern_edges=4,
            shards=2,
            partition_method="label",
            workers=2,
            batch_size=3,
            window=7,
            mode="rebuild",
        )


class TestDynamicMinerTeardown:
    def test_abandoned_miner_releases_graph_subscription(self):
        # No detach(), no refresh() — the finalizer must still unhook the
        # observer so an abandoned miner doesn't make the graph grow a
        # delta log forever.
        graph = sample_graph()
        miner = DynamicMiner(graph, spec=MiningSpec(min_support=2))
        assert graph.delta_log() is not None
        del miner
        gc.collect()
        assert graph.delta_log() is None

    def test_abandoned_pooled_miner_releases_resources(self):
        graph = path_graph(["a", "b", "a", "b", "a", "b"])
        miner = DynamicMiner(
            graph, spec=MiningSpec(min_support=2, shards=2, workers=2)
        )
        miner.refresh()  # the pool is created lazily, on first use
        pool = miner._resources.pool
        assert pool is not None
        del miner
        gc.collect()
        assert graph.delta_log() is None
        assert pool._closed

    def test_close_is_idempotent_and_context_managed(self):
        graph = sample_graph()
        with DynamicMiner(graph, spec=MiningSpec(min_support=2)) as miner:
            miner.refresh()
        assert graph.delta_log() is None
        miner.close()  # second release is a no-op
        assert graph.delta_log() is None


def test_spec_json_shape_is_pure_data():
    # from_json must accept exactly what to_json emits (dict of
    # JSON-native scalars), making specs wire-safe for the protocol.
    payload = json.loads(MiningSpec(window=5).to_json())
    assert isinstance(payload, dict)
    for value in payload.values():
        assert value is None or isinstance(value, (bool, int, float, str))


ENTRY_POINTS = {
    "mine_frequent_patterns": lambda g, **kw: mine_frequent_patterns(g, **kw),
    "FrequentSubgraphMiner": lambda g, **kw: FrequentSubgraphMiner(g, **kw),
    "DynamicMiner": lambda g, **kw: DynamicMiner(g, **kw).close(),
    "mine_stream": lambda g, **kw: list(mine_stream(g, [], **kw)),
}


class TestSpecIsTheOnlyWayIn:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_bare_legacy_kwarg_is_a_type_error(self, entry):
        with pytest.raises(TypeError, match="min_support"):
            ENTRY_POINTS[entry](sample_graph(), min_support=2)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_spec_value_rejected(self, entry):
        with pytest.raises(MiningError, match="spec must be a MiningSpec"):
            ENTRY_POINTS[entry](sample_graph(), spec={"min_support": 2})

    def test_resident_workers_is_not_a_field(self):
        with pytest.raises(MiningError, match="resident_workers"):
            MiningSpec.from_kwargs(resident_workers=False)

    def test_no_spec_means_the_defaults(self):
        data = sample_graph()
        assert result_bytes(mine_frequent_patterns(data)) == result_bytes(
            mine_frequent_patterns(data, spec=DEFAULT_SPEC)
        )
        assert FrequentSubgraphMiner(data).spec is DEFAULT_SPEC

    def test_spec_path_is_silent(self):
        spec = MiningSpec(min_support=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine_frequent_patterns(sample_graph(), spec=spec)
            list(mine_stream(sample_graph(), [("v", 99, "a")], spec=spec))
            with DynamicMiner(sample_graph(), spec=spec) as miner:
                miner.refresh()
