"""Tests for the observability layer: metrics, spans, logging, profiling.

The regression class at the bottom pins ``DOCUMENTED_METRICS`` — every
documented instrument name must appear in a registry snapshot after an
end-to-end sharded / pooled / paged ``mine-stream`` run, so renaming or
dropping a metric is a visible, deliberate act.
"""

import io
import json
import logging
import threading

import pytest

from repro.graph.builders import path_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.index.delta import IndexMaintainer
from repro.mining.dynamic import DynamicMiner, mine_stream
from repro.mining.miner import mine_frequent_patterns
from repro.mining.spec import MiningSpec
from repro.obs import logs as logs_mod
from repro.obs import metrics as metrics_mod
from repro.obs import trace as trace_mod
from repro.obs.metrics import DOCUMENTED_METRICS, MetricsRegistry
from repro.obs.profile import coverage, format_profile
from repro.service import GraphService


MINE_SPEC = MiningSpec(
    measure="mni", min_support=2, max_pattern_nodes=4, max_pattern_edges=4
)


@pytest.fixture
def fresh_registry():
    """Swap in an empty registry so counts are exact, restore after."""
    registry = MetricsRegistry()
    previous = metrics_mod.set_registry(registry)
    yield registry
    metrics_mod.set_registry(previous)


@pytest.fixture
def tracing():
    """Enable span collection for one test, leaving no residue."""
    trace_mod.clear_traces()
    trace_mod.enable()
    yield
    trace_mod.disable()
    trace_mod.clear_traces()


def mining_graph() -> LabeledGraph:
    graph = LabeledGraph(name="obs-fixture")
    for i in range(24):
        graph.add_vertex(i, "AB"[i % 2])
    for i in range(23):
        graph.add_edge(i, i + 1)
    for i in range(0, 18, 6):
        graph.add_edge(i, i + 5)
    return graph


def result_key(result):
    return [
        (fp.certificate, fp.support, fp.num_occurrences) for fp in result.frequent
    ]


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_monotonic(self, fresh_registry):
        counter = fresh_registry.counter("repro_test_things")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_same_name_same_instrument(self, fresh_registry):
        assert fresh_registry.counter("repro_test_a") is fresh_registry.counter(
            "repro_test_a"
        )

    def test_kind_conflict_raises(self, fresh_registry):
        fresh_registry.counter("repro_test_a")
        with pytest.raises(TypeError):
            fresh_registry.gauge("repro_test_a")

    def test_gauge_moves_both_ways_and_ratchets(self, fresh_registry):
        gauge = fresh_registry.gauge("repro_test_weight")
        gauge.set(10)
        gauge.dec(3)
        assert gauge.value == 7
        gauge.set_max(5)
        assert gauge.value == 7  # never lowered
        gauge.set_max(11)
        assert gauge.value == 11

    def test_histogram_snapshot_shape(self, fresh_registry):
        histogram = fresh_registry.histogram("repro_test_depth")
        for value in (1, 3, 3, 300):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 307
        assert snap["max"] == 300
        assert snap["le_1"] == 1
        assert snap["le_4"] == 2
        assert snap["inf"] == 1

    def test_snapshot_is_flat_and_sorted(self, fresh_registry):
        fresh_registry.counter("repro_test_b").inc()
        fresh_registry.gauge("repro_test_a").set(2)
        fresh_registry.histogram("repro_test_c").observe(1)
        snap = fresh_registry.snapshot()
        assert list(snap) == ["repro_test_a", "repro_test_b", "repro_test_c"]
        assert snap["repro_test_a"] == 2
        assert snap["repro_test_b"] == 1
        assert isinstance(snap["repro_test_c"], dict)

    def test_threaded_increments_lose_nothing(self, fresh_registry):
        counter = fresh_registry.counter("repro_test_contended")
        rounds, workers = 2000, 8

        def hammer():
            for _ in range(rounds):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == rounds * workers

    def test_set_registry_swaps_module_shorthands(self):
        registry = MetricsRegistry()
        previous = metrics_mod.set_registry(registry)
        try:
            metrics_mod.counter("repro_test_routed").inc()
            assert registry.counter("repro_test_routed").value == 1
            assert "repro_test_routed" not in previous.names()
        finally:
            metrics_mod.set_registry(previous)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_is_shared_null_span(self):
        assert not trace_mod.enabled()
        first = trace_mod.span("anything", key="value")
        assert first is trace_mod.NULL_SPAN
        with first as entered:
            entered.set(more=1)
        assert trace_mod.last_trace_id() is None or isinstance(
            trace_mod.last_trace_id(), str
        )

    def test_nesting_parentage_and_attrs(self, tracing):
        with trace_mod.span("outer", kind="root") as outer:
            with trace_mod.span("inner", step=1) as inner:
                inner.set(result=7)
            assert trace_mod.current_trace_id() == outer.trace_id
        records = trace_mod.get_trace(outer.trace_id)
        assert records is not None
        by_name = {record.name: record for record in records}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].trace_id == by_name["outer"].trace_id
        assert by_name["inner"].attrs == {"step": 1, "result": 7}
        assert by_name["outer"].attrs == {"kind": "root"}
        assert by_name["outer"].wall >= by_name["inner"].wall >= 0.0
        assert trace_mod.last_trace_id() == outer.trace_id

    def test_exception_is_recorded_and_stack_unwound(self, tracing):
        with pytest.raises(RuntimeError):
            with trace_mod.span("doomed") as doomed:
                raise RuntimeError("boom")
        assert trace_mod.current_trace_id() is None
        records = trace_mod.get_trace(doomed.trace_id)
        assert records[0].attrs["error"] == "RuntimeError"

    def test_sibling_spans_share_a_trace(self, tracing):
        with trace_mod.span("root") as root:
            with trace_mod.span("first"):
                pass
            with trace_mod.span("second"):
                pass
        records = trace_mod.get_trace(root.trace_id)
        assert len(records) == 3
        assert len({record.trace_id for record in records}) == 1
        assert len({record.span_id for record in records}) == 3

    def test_traced_decorator(self, tracing):
        @trace_mod.traced("wrapped")
        def work(x):
            return x + 1

        assert work(1) == 2
        last = trace_mod.get_trace(trace_mod.last_trace_id())
        assert last[0].name == "wrapped"

    def test_store_evicts_whole_oldest_traces(self):
        store = trace_mod.TraceStore(max_traces=2)
        for tid in ("t1", "t2", "t3"):
            store.add(
                trace_mod.SpanRecord(
                    trace_id=tid,
                    span_id=f"s-{tid}",
                    parent_id=None,
                    name="root",
                    start=0.0,
                    wall=0.0,
                    cpu=0.0,
                )
            )
        assert store.get("t1") is None
        assert store.get("t2") is not None
        assert store.get("t3") is not None


# ----------------------------------------------------------------------
# NDJSON export
# ----------------------------------------------------------------------
class TestNdjsonExport:
    def test_round_trip_through_file_object(self, tracing):
        with trace_mod.span("mine", level=1) as root:
            with trace_mod.span("evaluate"):
                pass
        buffer = io.StringIO()
        written = trace_mod.export_ndjson(buffer, trace_id=root.trace_id)
        lines = [line for line in buffer.getvalue().splitlines() if line]
        assert written == len(lines) == 2
        payloads = [json.loads(line) for line in lines]
        records = trace_mod.get_trace(root.trace_id)
        assert payloads == [record.payload() for record in records]

    def test_export_to_path_covers_all_traces(self, tracing, tmp_path):
        with trace_mod.span("one"):
            pass
        with trace_mod.span("two"):
            pass
        target = tmp_path / "spans.ndjson"
        written = trace_mod.export_ndjson(str(target))
        payloads = [
            json.loads(line)
            for line in target.read_text().splitlines()
            if line
        ]
        assert written == len(payloads) == 2
        assert {payload["name"] for payload in payloads} == {"one", "two"}
        assert len({payload["trace_id"] for payload in payloads}) == 2


# ----------------------------------------------------------------------
# logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_hierarchy_and_null_handler(self):
        root = logs_mod.get_logger()
        assert root.name == "repro"
        assert any(
            isinstance(handler, logging.NullHandler) for handler in root.handlers
        )
        assert logs_mod.get_logger("mining.miner").name == "repro.mining.miner"
        assert logs_mod.get_logger("repro.obs").name == "repro.obs"

    def test_configure_logging_is_idempotent(self):
        root = logs_mod.get_logger()
        before = list(root.handlers)
        try:
            logs_mod.configure_logging("warning")
            logs_mod.configure_logging("debug")
            ours = [
                handler
                for handler in root.handlers
                if getattr(handler, "_repro_cli_handler", False)
            ]
            assert len(ours) == 1
            assert ours[0].level == logging.DEBUG
            with pytest.raises(ValueError):
                logs_mod.configure_logging("loud")
        finally:
            for handler in list(root.handlers):
                if handler not in before:
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)

    def test_rebuild_demotion_logs_warning_with_reason(
        self, fresh_registry, caplog
    ):
        graph = path_graph(["a", "b", "a", "b"])
        maintainer = IndexMaintainer(graph)
        for vertex in range(10, 80):  # a burst past the log's bound of 64
            graph.add_vertex(vertex, "a")
        with caplog.at_level(logging.WARNING, logger="repro"):
            maintainer.index()
        assert maintainer.rebuilds == 1
        assert any("patch-limit" in record.message for record in caplog.records)
        snap = fresh_registry.snapshot()
        assert snap["repro_index_rebuilds"] == 1
        assert snap["repro_index_rebuilds_patch_limit"] == 1
        assert snap["repro_index_deltas_coalesced"] == 70


# ----------------------------------------------------------------------
# instrumented mining
# ----------------------------------------------------------------------
class TestInstrumentedMining:
    def test_disabled_tracing_results_identical(self, fresh_registry):
        graph_off = mining_graph()
        graph_on = mining_graph()
        assert not trace_mod.enabled()
        off = mine_frequent_patterns(graph_off, spec=MINE_SPEC)
        trace_mod.enable()
        try:
            on = mine_frequent_patterns(graph_on, spec=MINE_SPEC)
        finally:
            trace_mod.disable()
            trace_mod.clear_traces()
        assert result_key(off) == result_key(on)

    def test_session_flush_matches_stats(self, fresh_registry):
        result = mine_frequent_patterns(mining_graph(), spec=MINE_SPEC)
        snap = fresh_registry.snapshot()
        assert snap["repro_miner_sessions"] == 1
        assert snap["repro_miner_levels"] >= 1
        for name, value in result.stats.as_dict().items():
            assert snap[f"repro_miner_{name}"] == value
        assert snap["repro_miner_extensions_reused"] == 0  # static: no memo
        matcher_calls = (
            snap["repro_match_vf2_calls"] + snap["repro_match_anchored_searches"]
        )
        assert matcher_calls > 0

    def test_warm_refresh_counts_extensions_reused(self, fresh_registry):
        graph = mining_graph()
        with DynamicMiner(graph, spec=MINE_SPEC) as miner:
            first = miner.refresh()
            assert first.stats.extensions_reused == 0  # the memo starts empty
            assert fresh_registry.snapshot()["repro_miner_extensions_reused"] == 0
            graph.remove_edge(0, 5)  # an A-B edge; A-B edges remain
            warm = miner.refresh()
        assert warm.stats.extensions_reused > 0
        snap = fresh_registry.snapshot()
        assert snap["repro_miner_sessions"] == 2
        assert snap["repro_miner_extensions_reused"] == warm.stats.extensions_reused

    def test_profile_coverage_and_rendering(self, fresh_registry, tracing):
        mine_frequent_patterns(mining_graph(), spec=MINE_SPEC)
        records = trace_mod.get_trace(trace_mod.last_trace_id())
        assert records is not None
        names = {record.name for record in records}
        assert {"mine", "seeds", "level", "evaluate", "extend"} <= names
        # The acceptance gate: the phase rows explain >= 90% of the run.
        assert coverage(records) >= 0.90
        rendered = format_profile(records)
        assert "mining profile" in rendered
        assert "level 1" in rendered
        assert "span coverage:" in rendered
        assert "mine (total)" in rendered

    def test_format_profile_without_trace(self):
        assert "no trace recorded" in format_profile(None)
        assert "no trace recorded" in format_profile([])


# ----------------------------------------------------------------------
# the service surface
# ----------------------------------------------------------------------
class TestServiceMetrics:
    def test_stats_rebased_on_registry(self, fresh_registry):
        graph = path_graph(["a", "b", "a", "b", "a"])
        with GraphService(graph) as service:
            service.mine()  # miss
            service.mine()  # hit
            stats = service.stats()
            snap = service.metrics_snapshot()
        # Cache counters live in the registry only; stats keeps no aliases.
        assert set(stats) == {"version", "pinned_versions", "maintained"}
        assert snap["repro_cache_hits"] == 1
        assert snap["repro_cache_misses"] == 1
        assert snap["repro_cache_entries"] == 1
        assert snap["repro_service_mine_requests"] == 2
        assert snap["repro_snapshots_pins"] >= 2

    def test_batches_and_publishes_counted(self, fresh_registry):
        graph = path_graph(["a", "b", "a"])
        with GraphService(graph) as service:
            service.apply_updates([("v", 10, "a"), ("e", 10, 1)])
            service.apply_updates([("v", 11, "b"), ("e", 11, 10)])
            snap = service.metrics_snapshot()
        assert snap["repro_service_batches_applied"] == 2
        assert snap["repro_snapshots_publishes"] == 2


# ----------------------------------------------------------------------
# the documented-names regression
# ----------------------------------------------------------------------
class TestDocumentedMetrics:
    def test_end_to_end_stream_registers_every_documented_name(
        self, fresh_registry
    ):
        """Sharded + pooled + paged mine-stream registers the full surface."""
        graph = mining_graph()
        updates = [
            ("v", 100, "A"),
            ("e", 100, 0),
            ("e", 100, 3),
            ("de", 2, 3),
            ("v", 101, "B"),
            ("e", 101, 5),
            ("e", 100, 101),
            ("de", 0, 1),
        ]
        steps = list(
            mine_stream(
                graph,
                updates,
                spec=MINE_SPEC.replace(
                    batch_size=3, mode="delta", shards=3, workers=2, max_resident=1
                ),
            )
        )
        assert steps  # the stream ran
        # The flat maintainer's names come from any flat delta session.
        flat_graph = mining_graph()
        list(
            mine_stream(
                flat_graph,
                updates[:2],
                spec=MINE_SPEC.replace(batch_size=2, mode="delta"),
            )
        )
        snap = fresh_registry.snapshot()
        missing = [name for name in DOCUMENTED_METRICS if name not in snap]
        assert not missing, f"undocumented-in-snapshot metrics: {missing}"

    def test_core_counters_move(self, fresh_registry):
        """Beyond existing: the load-bearing counters actually count."""
        graph = mining_graph()
        updates = [
            ("v", 100, "A"),
            ("e", 100, 0),
            ("de", 2, 3),
            ("e", 2, 3),
            ("de", 6, 7),
            ("e", 6, 7),
        ]
        list(
            mine_stream(
                graph,
                updates,
                spec=MINE_SPEC.replace(
                    batch_size=2, mode="delta", shards=3, workers=2, max_resident=1
                ),
            )
        )
        snap = fresh_registry.snapshot()
        assert snap["repro_miner_sessions"] >= 2
        assert snap["repro_pool_tasks_dispatched"] > 0
        assert snap["repro_pool_slices_shipped"] > 0
        # Delta-dirtied slices travel as patches.
        assert snap["repro_pool_slices_patched"] > 0
        assert snap["repro_pager_recomputes"] > 0
        assert snap["repro_pager_evictions"] > 0
        # Counts the workers carry back on their replies: patterns
        # re-evaluated on a view get a kept occurrence set at their
        # second evaluation there and are read from it afterwards.
        assert snap["repro_pool_sets_built"] > 0
        assert snap["repro_pool_tasks_from_sets"] > 0
        assert snap["repro_sharded_index_patches_applied"] > 0
        assert snap["repro_snapshots_publishes"] >= 2
        assert snap["repro_cache_entries"] >= 1
        assert snap["repro_pool_queue_depth"]["count"] > 0
        # One observation per patch that crossed the pipe: each shard's
        # whole first shipment, then the small patches derived from the
        # deltas.
        elements = snap["repro_pool_patch_elements"]
        assert elements["count"] == (
            snap["repro_pool_slices_shipped"] + snap["repro_pool_slices_patched"]
        )
        assert elements["le_4"] > 0  # a derived patch of a few elements
        # The parent records the shipped views as vertex sets.
        assert snap["repro_pool_recorded_members"] >= graph.num_vertices
