"""tab7 (ablation) — additive component-decomposed solving vs monolithic.

DESIGN.md calls out decomposition as the ablation for the NP-hard solvers:
connected components of the occurrence hypergraph are independent
subproblems, so solving per component and summing must (a) give identical
values and (b) be no slower — usually far faster — on fragmented
workloads.  The additive side is the measure entry point ``mvc_support_of``
(which splits by component); the monolithic side is the whole-graph kernel
``minimum_vertex_cover``.  This regenerates the ablation table.
"""

from __future__ import annotations

import time


from repro.analysis.report import format_table
from repro.datasets.synthetic import planted_pattern_graph
from repro.graph.builders import triangle_pattern
from repro.hypergraph.construction import HypergraphBundle
from repro.hypergraph.hypergraph import component_statistics
from repro.measures.mvc import minimum_vertex_cover, mvc_support_of

PATTERN = triangle_pattern("A", "B", "C")


def _workload(overlap: float, copies: int = 14):
    graph = planted_pattern_graph(
        PATTERN, num_copies=copies, overlap_fraction=overlap, seed=41
    )
    return HypergraphBundle.build(PATTERN, graph).occurrence_hg


def test_tab7_decomposition_ablation(benchmark, emit):
    rows = []
    for overlap in (0.0, 0.4, 0.8):
        hypergraph = _workload(overlap)
        stats = component_statistics(hypergraph)

        start = time.perf_counter()
        monolithic = len(minimum_vertex_cover(hypergraph))
        t_mono = time.perf_counter() - start

        start = time.perf_counter()
        additive = mvc_support_of(hypergraph)
        t_add = time.perf_counter() - start

        assert additive == monolithic  # additivity is exact
        rows.append(
            [
                f"{overlap:.1f}",
                hypergraph.num_edges,
                stats["components"],
                stats["largest_edges"],
                monolithic,
                f"{t_mono*1e3:.2f}",
                f"{t_add*1e3:.2f}",
            ]
        )
    emit(
        format_table(
            [
                "overlap",
                "edges",
                "components",
                "largest",
                "MVC",
                "monolithic ms",
                "additive ms",
            ],
            rows,
            title="tab7: additive decomposition ablation (values identical)",
        )
    )

    hypergraph = _workload(0.4)
    benchmark(lambda: mvc_support_of(hypergraph))


def test_tab7_benchmark_component_split(benchmark):
    hypergraph = _workload(0.4)
    benchmark(lambda: hypergraph.components())


def test_tab7_benchmark_monolithic(benchmark):
    hypergraph = _workload(0.4)
    benchmark(lambda: minimum_vertex_cover(hypergraph))
