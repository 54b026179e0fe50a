"""The program's layers, where the tracer hooks them, and their metrics.

Layer names follow the span taxonomy of ``ROADMAP.md`` (``index.patch``,
``match.vf2``, ``measure.<name>``, ``shard.merge``, ``pool.ipc``,
``service.apply`` ...), so spans added inside the program later line up
with these.  Every entry point is a public function or method, or the
one private method that delimits the service writer's busy time.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Dict, List, Tuple

from tracer import Tracer
from workloads import READER_THREAD, Window

#: Modules imported before patching, so every binding of a wrapped
#: function exists when the tracer scans for it.
MODULES = (
    "repro.graph.io", "repro.graph.canonical", "repro.index.graph_index",
    "repro.index.compact", "repro.index.delta", "repro.isomorphism.vf2",
    "repro.isomorphism.anchored", "repro.isomorphism.matcher",
    "repro.hypergraph.construction", "repro.measures.base",
    "repro.measures.lazy_mni", "repro.mining.extension", "repro.mining.miner",
    "repro.mining.dynamic", "repro.mining.parallel", "repro.mining.standing",
    "repro.partition.evaluate", "repro.partition.sharded_index",
    "repro.partition.maintainer", "repro.partition.workers",
    "repro.service.protocol", "repro.service.service", "repro.service.server",
    "repro.service.snapshots", "repro.service.subscriptions",
)

#: (layer, module, function) — module-level functions, patched wherever bound.
FUNCTIONS = (
    ("graph.load", "repro.graph.io", "load_graph"),
    ("match.vf2", "repro.isomorphism.vf2", "find_subgraph_isomorphisms"),
    ("match.vf2", "repro.isomorphism.vf2", "collect_subgraph_isomorphism_items"),
    ("match.anchored", "repro.isomorphism.anchored", "valid_images"),
    ("match.anchored", "repro.isomorphism.anchored", "find_anchored_isomorphisms"),
    ("match.anchored", "repro.isomorphism.anchored", "has_occurrence_with"),
    ("measure.lazy_mni", "repro.measures.lazy_mni", "lazy_mni_support"),
    ("mining.canonical", "repro.graph.canonical", "canonical_certificate"),
    ("mining.extend", "repro.mining.extension", "all_extensions"),
    ("shard.merge", "repro.partition.evaluate", "merge_shard_items"),
    ("shard.merge", "repro.partition.evaluate", "merge_lazy_partials"),
    ("pool.ipc", "repro.partition.workers", "pooled_outcomes"),
    ("protocol.encode", "repro.service.protocol", "result_payload"),
    ("protocol.encode", "repro.service.protocol", "answer_payload"),
)

#: (layer, module, class, method) — patched on the class and overriding subclasses.
METHODS = (
    ("index.build", "repro.index.graph_index", "GraphIndex", "__init__"),
    ("index.patch", "repro.index.graph_index", "GraphIndex", "apply_delta"),
    ("match.anchored", "repro.isomorphism.anchored", "AnchoredSearch", "iter_from"),
    ("match.anchored", "repro.isomorphism.anchored", "AnchoredSearch", "has_witness"),
    ("hypergraph.build", "repro.hypergraph.construction", "HypergraphBundle", "build"),
    ("mining.search", "repro.mining.miner", "FrequentSubgraphMiner", "mine"),
    ("shard.route", "repro.partition.sharded_index", "ShardedIndex", "apply_delta"),
    ("service.apply", "repro.mining.dynamic", "StreamApplier", "apply_batch"),
    ("service.publish", "repro.service.snapshots", "SnapshotRegistry", "publish"),
    ("subs.dispatch", "repro.service.subscriptions", "SubscriptionRegistry", "dispatch"),
    ("protocol.encode", "repro.service.server", "ClientSession", "send"),
)

#: Layers reported as self seconds per op of the traced window.
#: ``measure.mi`` runs only on ``cold_mine``, which is not a contract
#: workload, so it is printed in the report lines instead.
TIMED = (
    "index.build", "index.patch", "match.vf2", "match.anchored",
    "hypergraph.build", "measure.mni", "measure.lazy_mni",
    "mining.canonical", "mining.extend", "mining.refresh", "mining.search",
    "shard.route", "shard.merge", "pool.ipc", "service.apply",
    "service.publish", "subs.dispatch", "protocol.encode",
)
#: Layers whose outermost calls are also reported, per op.
COUNTED = ("index.build", "match.vf2", "match.anchored", "mining.canonical")

#: Layers the traced window must reach on each workload (calls > 0), and
#: layers it must leave idle (0 s).  A refactor that moves a call out of
#: a wrapped entry point fails here instead of silently reading zero.
BUSY = {
    "cold_mine": ("index.build", "match.vf2", "hypergraph.build", "measure.mi",
                  "mining.canonical", "mining.extend", "mining.search"),
    "serve_mixed": ("index.build", "index.patch", "match.vf2", "match.anchored",
                    "hypergraph.build", "measure.lazy_mni", "measure.mni",
                    "mining.canonical", "mining.extend", "mining.refresh",
                    "mining.search", "service.apply", "service.publish",
                    "subs.dispatch", "protocol.encode", "service.batch"),
    "sharded_stream": ("index.patch", "shard.route", "shard.merge", "pool.ipc",
                       "measure.mni", "mining.extend", "mining.refresh",
                       "service.apply", "service.publish", "protocol.encode",
                       "service.batch"),
}
IDLE = {
    "cold_mine": ("match.anchored", "measure.lazy_mni", "mining.refresh",
                  "shard.route", "pool.ipc", "service.apply", "subs.dispatch"),
    "serve_mixed": ("shard.route", "pool.ipc"),
    "sharded_stream": ("match.anchored", "measure.lazy_mni"),
}
#: Search and measure layers; their self time is most of a cold mine.
SEARCH_AND_MEASURE = ("index.build", "match.vf2", "hypergraph.build", "measure.mi",
                      "mining.canonical", "mining.extend", "mining.search")

#: (name, unit) of every per-layer metric, in output order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    (("graph.load_s", "s/call"),)
    + tuple((f"{layer}_s", "s/op") for layer in TIMED)
    + tuple((f"{layer}.calls", "count/op") for layer in COUNTED)
    + (
        ("measure.calls", "count/op"),
        ("index.patches", "count/op"),
        ("index.rebuilds", "count/op"),
        ("index.bytes", "bytes"),
        ("mining.frequent_ratio", "ratio"),
        ("mining.reuse_ratio", "ratio"),
        ("pool.tasks", "count/op"),
        ("pool.reship_ratio", "ratio"),
        ("pool.serial_fallbacks", "count"),
        ("pager.peak_bytes", "bytes"),
        ("snapshots.cow_splits", "count/op"),
        ("service.writer_wait_ms", "ms"),
        ("cache.hit_ratio", "ratio"),
        ("subs.skip_ratio", "ratio"),
        ("subs.events_dropped", "count"),
        ("loadgen.late_p50_ms", "ms"),
        ("loadgen.late_max_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
        ("run.failed_frac", "ratio"),
    )
)


class LayerProbe:
    """Installs the tracer on every layer and turns its totals into metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.writer_busy: Dict[int, float] = {}  # version -> _apply_batch seconds
        self.refresh_counts = [0, 0]  # reused + skipped, candidates
        self._last_refresh: Dict[int, int] = {}
        for name in MODULES:
            importlib.import_module(name)

    def _on_refresh(self, args, result, seconds) -> None:
        miner = id(args[0])
        if self._last_refresh.get(miner) == id(result):
            return  # an unchanged graph returns the previous result
        self._last_refresh[miner] = id(result)
        stats = result.stats
        spared = stats.patterns_reused + stats.patterns_skipped_unaffected
        self.refresh_counts[0] += spared
        self.refresh_counts[1] += spared + stats.patterns_evaluated

    def _on_batch(self, args, result, seconds) -> None:
        self.writer_busy[result.version] = seconds

    def install(self) -> None:
        tracer = self.tracer
        for layer, module, name in FUNCTIONS:
            tracer.patch_function(module, name, layer)
        tracer.patch_function(
            "repro.measures.base", "compute_support", lambda args: f"measure.{args[0]}"
        )
        for layer, module, cls, name in METHODS:
            tracer.patch_method(module, cls, name, layer)
        tracer.patch_method(
            "repro.mining.dynamic", "DynamicMiner", "refresh", "mining.refresh",
            on_exit=self._on_refresh,
        )
        tracer.patch_method(
            "repro.service.service", "GraphService", "_apply_batch", "service.batch",
            on_exit=self._on_batch,
        )

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def reset(self) -> None:
        self.tracer.reset()
        self.writer_busy.clear()
        self.refresh_counts = [0, 0]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    probe: LayerProbe,
    workload: str,
    setup_totals: Tuple[Dict[str, float], Dict[str, int]],
    window: Window,
    untraced: Window,
    registry_before: Dict[str, object],
    registry_after: Dict[str, object],
    failed_frac: float,
) -> Tuple[Dict[str, float], List[str], List[str]]:
    """Per-layer metrics of the traced window, the self-check, and a report.

    Returns ``(metrics, problems, report_lines)``; ``problems`` lists every
    self-check the window failed.
    """
    self_s, calls = probe.tracer.totals()
    ops = max(1, len(window.ops))

    def delta(name: str) -> float:
        return float(registry_after.get(name, 0)) - float(registry_before.get(name, 0))

    setup_self, setup_calls = setup_totals
    metrics: Dict[str, float] = {
        "graph.load_s": _ratio(
            setup_self.get("graph.load", 0.0) + self_s.get("graph.load", 0.0),
            setup_calls.get("graph.load", 0) + calls.get("graph.load", 0),
        )
    }
    for layer in TIMED:
        metrics[f"{layer}_s"] = self_s.get(layer, 0.0) / ops
    for layer in COUNTED:
        metrics[f"{layer}.calls"] = calls.get(layer, 0) / ops
    measure_calls = sum(n for layer, n in calls.items() if layer.startswith("measure."))
    busy = [
        (latency - probe.writer_busy[version]) * 1e3
        for latency, version in zip(window.ops, window.op_versions)
        if version in probe.writer_busy
    ]
    hits, misses = delta("repro_cache_hits"), delta("repro_cache_misses")
    skipped = delta("repro_subs_dispatch_skipped")
    untraced_p50 = statistics.median(untraced.ops) if untraced.ops else 0.0
    metrics.update({
        "measure.calls": measure_calls / ops,
        "index.patches": delta("repro_index_patches_applied") / ops,
        "index.rebuilds": delta("repro_index_rebuilds") / ops,
        "index.bytes": float(registry_after.get("repro_index_bytes", 0)),
        "mining.frequent_ratio": _ratio(
            delta("repro_miner_patterns_frequent") - delta("repro_miner_patterns_reused"),
            delta("repro_miner_patterns_evaluated"),
        ),
        "mining.reuse_ratio": _ratio(*probe.refresh_counts),
        "pool.tasks": delta("repro_pool_tasks_dispatched") / ops,
        "pool.reship_ratio": _ratio(
            delta("repro_pool_slices_reshipped"), delta("repro_pool_slices_shipped")
        ),
        "pool.serial_fallbacks": float(registry_after.get("repro_pool_serial_fallbacks", 0)),
        "pager.peak_bytes": float(
            registry_after.get("repro_pager_peak_resident_weight", 0)
        ),
        "snapshots.cow_splits": delta("repro_snapshots_cow_splits") / ops,
        "service.writer_wait_ms": statistics.median(busy) if busy else 0.0,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "subs.skip_ratio": _ratio(skipped, skipped + delta("repro_subs_evaluations")),
        "subs.events_dropped": float(registry_after.get("repro_subs_events_dropped", 0)),
        "loadgen.late_p50_ms": statistics.median(window.late) * 1e3 if window.late else 0.0,
        "loadgen.late_max_ms": max(window.late) * 1e3 if window.late else 0.0,
        "trace.overhead_frac": _ratio(statistics.median(window.ops), untraced_p50) - 1.0
        if untraced_p50 else 0.0,
        "run.failed_frac": failed_frac,
    })

    problems = [f"wrapped entry point missing: {name}" for name in probe.tracer.missing]
    for layer in BUSY[workload]:
        if not calls.get(layer):
            problems.append(f"layer {layer} was never called on {workload}")
    for layer in IDLE[workload]:
        if self_s.get(layer, 0.0) > 0.0:
            problems.append(f"layer {layer} ran on {workload}, which should leave it idle")
    if not setup_calls.get("graph.load") and not calls.get("graph.load"):
        problems.append("graph.load was never called")

    op_seconds = sum(window.ops)
    report = [
        f"traced window: {len(window.ops)} ops, {window.seconds:.2f} s; "
        f"op p50 {statistics.median(window.ops) * 1e3:.1f} ms traced vs "
        f"{untraced_p50 * 1e3:.1f} ms untraced",
        # Not contract metrics: the contract workloads never spill or
        # rehydrate (their halo views alias the whole graph).
        f"pager: {delta('repro_pager_spills'):.0f} spills, "
        f"{delta('repro_pager_rehydrations'):.0f} rehydrations, "
        f"{delta('repro_pager_recomputes'):.0f} recomputes",
        "calls: " + ", ".join(f"{layer} {n}" for layer, n in sorted(calls.items()) if n),
    ]
    if workload == "cold_mine":
        share = _ratio(sum(self_s.get(layer, 0.0) for layer in SEARCH_AND_MEASURE), op_seconds)
        report.append(f"measure.mi_s {self_s.get('measure.mi', 0.0) / ops:.4f} s/op")
        report.append(f"search + measure layers: {share:.1%} of cold-mine wall time")
        if share < 0.5:
            problems.append(f"search + measure layers are only {share:.1%} of a cold mine")
    if workload == "serve_mixed":
        reader_self, _ = probe.tracer.totals(READER_THREAD)
        probes = reader_self.get("match.anchored", 0.0) + reader_self.get("measure.lazy_mni", 0.0)
        eager = sum(s for layer, s in reader_self.items()
                    if layer.startswith("measure.") and layer != "measure.lazy_mni")
        report.append(
            f"reader thread: anchored probes {probes:.3f} s vs eager measures {eager:.3f} s"
        )
        if probes <= eager:
            problems.append("the read path is not anchored-probe heavy")
    if workload == "sharded_stream":
        local = self_s.get("match.vf2", 0.0) + sum(
            s for layer, s in self_s.items() if layer.startswith("measure.")
        )
        ipc = self_s.get("pool.ipc", 0.0)
        report.append(
            f"this process: enumeration + measures {local:.3f} s vs pool round trips {ipc:.3f} s"
        )
        if local >= ipc:
            problems.append("enumeration and measures did not move into the pool workers")
    for thread in probe.tracer.thread_names():
        thread_self, _ = probe.tracer.totals(thread)
        top = sorted(thread_self.items(), key=lambda item: -item[1])[:6]
        if top:
            report.append(
                f"  {thread}: " + ", ".join(f"{layer} {seconds:.3f}s" for layer, seconds in top)
            )
    return metrics, problems, report

