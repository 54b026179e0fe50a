"""tab9 (ablation) — maintaining the answer under updates vs recomputing it.

Three ablations share this module:

* **tab9b** — delta-maintained dynamic mining
  (:mod:`repro.mining.dynamic`) vs full re-mining per batch over an
  insertion stream: patching the `GraphIndex` in O(delta) and re-evaluating
  only footprint-affected patterns avoids paying the whole search again
  for every batch.  The speedup gate here is an acceptance criterion —
  the delta path must beat rebuild-per-batch on the medium stream;
* **tab9c** — the same discipline over a **deletion-heavy mixed stream**:
  removals patch the index (splice-out) and shrink supports, so the
  delta path must keep beating rebuild-per-batch when most updates are
  deletions — the gate that pins the O(delta) deletion support;
* **tab9d** — standing-query change notification
  (:mod:`repro.service.subscriptions`) vs re-mining and diffing per
  batch: a threshold subscription's footprint-routed dispatch must emit
  the *identical* event stream a remine+diff client would compute, while
  beating it on wall time — the acceptance gate for the subscription
  subsystem.

Results must be identical in all ablations; wall time and enumeration /
evaluation counts are the ablation.
"""

from __future__ import annotations

import time

import pytest
from stream_workloads import (
    STREAM_SPEC,
    apply_batch,
    batches,
    churn_stream,
    insertion_stream,
    two_region_base,
)

from repro.analysis.report import format_table
from repro.mining.dynamic import DynamicMiner
from repro.mining.miner import mine_frequent_patterns
from repro.mining.standing import StandingSpec, answer_from_result, diff_answer
from repro.service import ResultCache
from repro.service.subscriptions import SubscriptionRegistry


# ----------------------------------------------------------------------
# tab9b — delta-maintained dynamic mining vs full re-mine per batch
# (search parameters: stream_workloads.STREAM_SPEC, shared with tab10d)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stream_workload():
    """A medium insertion stream over the shared two-region graph.

    The stream only ever touches the sparse D/E region growing as a
    tree, so the delta path re-evaluates a small, cheap
    footprint-affected slice per batch while rebuild-per-batch
    re-enumerates the whole welded bulk every time (generators shared
    with ``bench_partition.py`` via ``stream_workloads``).
    """
    base = two_region_base()
    return base, insertion_stream(base)


def test_tab9b_delta_stream_vs_rebuild_per_batch(stream_workload, benchmark, emit):
    """Acceptance gate: the delta path beats rebuild-per-batch on a medium stream.

    Timed as interleaved min-of-3 pairs (same discipline as the tab4c
    speedup gate) so shared-runner contention degrades both pipelines
    instead of flipping their ratio.  Per-batch results must be identical.
    """
    base, updates = stream_workload
    update_batches = batches(updates, 6)

    def delta_run():
        graph = base.copy()
        miner = DynamicMiner(graph, spec=STREAM_SPEC)
        keys = [miner.refresh().certificates()]
        for batch in update_batches:
            apply_batch(graph, batch)
            keys.append(miner.refresh().certificates())
        return keys

    def rebuild_run():
        graph = base.copy()
        keys = [mine_frequent_patterns(graph, spec=STREAM_SPEC).certificates()]
        for batch in update_batches:
            apply_batch(graph, batch)
            keys.append(mine_frequent_patterns(graph, spec=STREAM_SPEC).certificates())
        return keys

    best_delta = best_rebuild = float("inf")
    delta_keys = rebuild_keys = None
    for _ in range(3):
        start = time.perf_counter()
        rebuild_keys = rebuild_run()
        best_rebuild = min(best_rebuild, time.perf_counter() - start)
        start = time.perf_counter()
        delta_keys = delta_run()
        best_delta = min(best_delta, time.perf_counter() - start)

    assert delta_keys == rebuild_keys  # identical after every batch
    speedup = best_rebuild / max(best_delta, 1e-9)
    emit(
        format_table(
            ["pipeline", "time ms", "batches", "final frequent"],
            [
                [
                    "rebuild per batch",
                    f"{best_rebuild*1e3:.1f}",
                    len(update_batches),
                    len(rebuild_keys[-1]),
                ],
                [
                    "delta-maintained",
                    f"{best_delta*1e3:.1f}",
                    len(update_batches),
                    len(delta_keys[-1]),
                ],
                ["speedup", f"{speedup:.2f}x", "", ""],
            ],
            title="tab9b: delta-maintained dynamic mining vs rebuild-per-batch",
        )
    )
    assert speedup >= 1.3, f"delta path only {speedup:.2f}x over rebuild-per-batch"

    benchmark(delta_run)


def test_tab9d_standing_query_vs_remine_and_diff(stream_workload, benchmark, emit):
    """Acceptance gate: standing-query notification beats remine+diff.

    A client that wants answer *changes* per batch can either hold a
    threshold subscription (footprint-routed dispatch, incremental
    re-evaluation) or re-mine after every batch and diff consecutive
    answers itself.  Both must produce the identical typed event stream
    — same certificates, types, versions, and sequence numbers — and the
    subscription path must win on wall time.  Interleaved min-of-3, as
    in the other gates.
    """
    base, updates = stream_workload
    update_batches = batches(updates, 6)
    spec = StandingSpec(
        kind="threshold",
        measure=STREAM_SPEC.measure,
        min_support=STREAM_SPEC.min_support,
        max_pattern_nodes=STREAM_SPEC.max_pattern_nodes,
        max_pattern_edges=STREAM_SPEC.max_pattern_edges,
    )

    def standing_run():
        graph = base.copy()
        registry = SubscriptionRegistry(graph, ResultCache())
        try:
            sub = registry.register(spec, version=0)
            stream = []
            for version, batch in enumerate(update_batches, start=1):
                apply_batch(graph, batch)
                registry.dispatch(version)
                stream.extend(sub.poll())
            return stream
        finally:
            registry.close()

    def remine_run():
        graph = base.copy()
        answer = answer_from_result(mine_frequent_patterns(graph, spec=STREAM_SPEC))
        stream = []
        seq = 0
        for version, batch in enumerate(update_batches, start=1):
            apply_batch(graph, batch)
            new = answer_from_result(mine_frequent_patterns(graph, spec=STREAM_SPEC))
            events, seq = diff_answer(answer, new, version=version, seq_start=seq)
            stream.extend(events)
            answer = new
        return stream

    best_standing = best_remine = float("inf")
    standing_stream = remine_stream = None
    for _ in range(3):
        start = time.perf_counter()
        remine_stream = remine_run()
        best_remine = min(best_remine, time.perf_counter() - start)
        start = time.perf_counter()
        standing_stream = standing_run()
        best_standing = min(best_standing, time.perf_counter() - start)

    assert standing_stream == remine_stream  # identical typed event streams
    speedup = best_remine / max(best_standing, 1e-9)
    emit(
        format_table(
            ["pipeline", "time ms", "batches", "events"],
            [
                [
                    "remine + diff per batch",
                    f"{best_remine * 1e3:.1f}",
                    len(update_batches),
                    len(remine_stream),
                ],
                [
                    "standing subscription",
                    f"{best_standing * 1e3:.1f}",
                    len(update_batches),
                    len(standing_stream),
                ],
                ["speedup", f"{speedup:.2f}x", "", ""],
            ],
            title="tab9d: standing-query notification vs remine+diff per batch",
        )
    )
    assert speedup >= 1.3, f"standing path only {speedup:.2f}x over remine+diff"

    benchmark(standing_run)


def test_tab9b_benchmark_rebuild_per_batch(stream_workload, benchmark):
    base, updates = stream_workload
    update_batches = batches(updates, 6)

    def rebuild_run():
        graph = base.copy()
        results = [mine_frequent_patterns(graph, spec=STREAM_SPEC)]
        for batch in update_batches:
            apply_batch(graph, batch)
            results.append(mine_frequent_patterns(graph, spec=STREAM_SPEC))
        return results

    benchmark(rebuild_run)


# ----------------------------------------------------------------------
# tab9c — deletion-heavy mixed stream: delta maintenance vs rebuild
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def churn_workload(stream_workload):
    """A deletion-heavy mixed stream over the tab9b two-region graph.

    Reuses the stream workload's base (expensive welded A/B/C bulk plus a
    sparse D/E growth region) but the updates now churn: growth then
    twice as many deletions, all confined to the sparse region — see
    ``stream_workloads.churn_stream`` (shared with the tab10d gate).
    """
    base, _ = stream_workload
    return churn_stream(base)


def test_tab9c_deletion_stream_vs_rebuild_per_batch(churn_workload, benchmark, emit):
    """Acceptance gate: O(delta) deletions beat rebuild-per-batch.

    Same interleaved min-of-3 discipline as tab9b; per-batch results must
    be identical between the delta-maintained miner and a full re-mine.
    """
    base, updates = churn_workload
    update_batches = batches(updates, 6)

    def delta_run():
        graph = base.copy()
        miner = DynamicMiner(graph, spec=STREAM_SPEC)
        keys = [miner.refresh().certificates()]
        for batch in update_batches:
            apply_batch(graph, batch)
            keys.append(miner.refresh().certificates())
        return keys

    def rebuild_run():
        graph = base.copy()
        keys = [mine_frequent_patterns(graph, spec=STREAM_SPEC).certificates()]
        for batch in update_batches:
            apply_batch(graph, batch)
            keys.append(mine_frequent_patterns(graph, spec=STREAM_SPEC).certificates())
        return keys

    best_delta = best_rebuild = float("inf")
    delta_keys = rebuild_keys = None
    for _ in range(3):
        start = time.perf_counter()
        rebuild_keys = rebuild_run()
        best_rebuild = min(best_rebuild, time.perf_counter() - start)
        start = time.perf_counter()
        delta_keys = delta_run()
        best_delta = min(best_delta, time.perf_counter() - start)

    assert delta_keys == rebuild_keys  # identical after every batch
    speedup = best_rebuild / max(best_delta, 1e-9)
    deletions = sum(1 for update in updates if update[0] in ("de", "dv"))
    emit(
        format_table(
            ["pipeline", "time ms", "batches", "deletions", "final frequent"],
            [
                [
                    "rebuild per batch",
                    f"{best_rebuild * 1e3:.1f}",
                    len(update_batches),
                    deletions,
                    len(rebuild_keys[-1]),
                ],
                [
                    "delta-maintained",
                    f"{best_delta * 1e3:.1f}",
                    len(update_batches),
                    deletions,
                    len(delta_keys[-1]),
                ],
                ["speedup", f"{speedup:.2f}x", "", "", ""],
            ],
            title="tab9c: delta maintenance vs rebuild on a deletion-heavy stream",
        )
    )
    assert speedup >= 1.3, f"delta path only {speedup:.2f}x over rebuild-per-batch"

    benchmark(delta_run)
