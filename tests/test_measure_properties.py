"""Property-based (seeded-random) checks of the paper's measure theorems.

Three families, each exercised over seeded random workloads:

* the Section 4.4 **bounding chain**
  ``sigma_MIS = sigma_MIES <= nu_MIES = nu_MVC <= sigma_MVC <= sigma_MI
  <= sigma_MNI`` plus the MNI upper bounds (occurrence count and the
  rarest-pattern-label frequency used by the miner's pre-enumeration
  prune);
* **anti-monotonicity** spot checks: extending a pattern by one edge can
  never increase any anti-monotonic measure's support;
* the Section 4.5 **containment theorems**: harmful and structural
  overlap each imply simple overlap (and neither implies the other in
  general — witnessed by the paper's figures, spot-checked here).
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import planted_pattern_graph, random_labeled_graph
from repro.graph.builders import path_pattern, star_pattern
from repro.hypergraph.overlap import (
    harmful_overlap,
    overlap_statistics,
    simple_overlap,
    structural_overlap,
)
from repro.isomorphism.matcher import find_occurrences
from repro.measures.base import compute_support
from repro.measures.bounds import verify_bounding_chain
from repro.measures.lazy_mni import lazy_mni_support
from repro.mining.extension import (
    adjacent_label_pairs,
    all_extensions,
    single_edge_patterns,
)
from repro.mining.miner import mine_frequent_patterns
from repro.mining.parallel import label_frequency_bound
from repro.mining.spec import MiningSpec


CHAIN_PATTERNS = [
    path_pattern(["A", "B"]),
    path_pattern(["A", "B", "A"]),
    star_pattern("B", ["A", "A"]),
]

ANTI_MONOTONIC_MEASURES = ("mni", "mi", "mvc", "mis")


def random_graph(seed: int):
    alphabet = ("A", "B", "C") if seed % 2 else ("A", "B")
    return random_labeled_graph(12 + seed % 5, 0.3, alphabet=alphabet, seed=seed)


class TestBoundingChain:
    @pytest.mark.parametrize("seed", range(12))
    def test_chain_holds_on_random_graphs(self, seed):
        graph = random_graph(seed)
        for pattern in CHAIN_PATTERNS:
            if not find_occurrences(pattern, graph, limit=1):
                continue
            report = verify_bounding_chain(pattern, graph, include_mcp=False)
            assert report.holds, report.violations

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_mni_upper_bounds(self, seed):
        graph = random_graph(seed)
        histogram = graph.label_histogram()
        for pattern in CHAIN_PATTERNS:
            occurrences = find_occurrences(pattern, graph)
            mni = compute_support("mni", pattern, graph)
            assert mni <= len(occurrences)
            # The label-frequency bound that justifies the miner's
            # pre-enumeration prune (GraMi trick).
            assert mni <= label_frequency_bound(pattern, histogram)

    @pytest.mark.parametrize("seed", range(20, 26))
    def test_lazy_mni_equals_eager_mni(self, seed):
        graph = random_graph(seed)
        for pattern in CHAIN_PATTERNS:
            assert lazy_mni_support(pattern, graph) == compute_support(
                "mni", pattern, graph
            )


class TestAntiMonotonicity:
    @pytest.mark.parametrize("seed", range(8))
    def test_one_edge_extension_never_gains_support(self, seed):
        graph = random_graph(seed)
        label_pairs = adjacent_label_pairs(graph)
        for parent in single_edge_patterns(graph)[:2]:
            parent_supports = {
                m: compute_support(m, parent, graph) for m in ANTI_MONOTONIC_MEASURES
            }
            extensions = list(
                all_extensions(parent, label_pairs, max_nodes=3, max_edges=3)
            )[:4]
            for child in extensions:
                for measure in ANTI_MONOTONIC_MEASURES:
                    child_support = compute_support(measure, child, graph)
                    assert child_support <= parent_supports[measure] + 1e-9, (
                        f"{measure} grew from {parent_supports[measure]} to "
                        f"{child_support} under one-edge extension (seed {seed})"
                    )

    @pytest.mark.parametrize("measure", ANTI_MONOTONIC_MEASURES)
    def test_mined_pattern_supports_dominated_by_subpattern_level(self, measure):
        graph = planted_pattern_graph(
            star_pattern("A", ["B", "B"]),
            num_copies=8,
            overlap_fraction=0.5,
            seed=9,
        )
        result = mine_frequent_patterns(
            graph,
            spec=MiningSpec(
                measure=measure, min_support=2, max_pattern_nodes=4, max_pattern_edges=4
            ),
        )
        best_by_size = {}
        for fp in result.frequent:
            best_by_size.setdefault(fp.num_edges, []).append(fp.support)
        sizes = sorted(best_by_size)
        for smaller, larger in zip(sizes, sizes[1:]):
            # Every (k+1)-edge frequent pattern extends SOME k-edge one, so
            # the (k+1)-level maximum cannot exceed the k-level maximum.
            assert max(best_by_size[larger]) <= max(best_by_size[smaller]) + 1e-9


class TestOverlapContainment:
    @pytest.mark.parametrize("seed", range(10))
    def test_ho_and_so_imply_simple_overlap(self, seed):
        graph = random_graph(seed)
        pattern = path_pattern(["A", "B", "A"])
        occurrences = find_occurrences(pattern, graph, limit=25)
        for i, first in enumerate(occurrences):
            for second in occurrences[i + 1:]:
                if harmful_overlap(pattern, first, second):
                    assert simple_overlap(first, second)
                if structural_overlap(pattern, first, second):
                    assert simple_overlap(first, second)

    @pytest.mark.parametrize("seed", range(10, 16))
    def test_statistics_respect_containment(self, seed):
        graph = random_graph(seed)
        pattern = star_pattern("A", ["B", "B"])
        occurrences = find_occurrences(pattern, graph, limit=25)
        # "brute" asserts the containment theorems pair-by-pair internally.
        stats = overlap_statistics(pattern, occurrences, method="brute")
        assert stats.harmful_pairs <= stats.simple_pairs
        assert stats.structural_pairs <= stats.simple_pairs
        assert overlap_statistics(pattern, occurrences) == stats


class TestFractionalThresholds:
    """Regression for the old ``int(-(-min_support // 1))`` float ceil."""

    @pytest.mark.parametrize("min_support", [1.5, 2.5, 3.0001])
    def test_lazy_fractional_threshold_matches_eager(self, min_support):
        graph = planted_pattern_graph(
            path_pattern(["A", "B", "A"]),
            num_copies=7,
            overlap_fraction=0.4,
            seed=31,
        )
        eager = mine_frequent_patterns(
            graph,
            spec=MiningSpec(
                measure="mni", min_support=min_support, max_pattern_nodes=4
            ),
        )
        lazy = mine_frequent_patterns(
            graph,
            spec=MiningSpec(
                measure="mni", min_support=min_support, max_pattern_nodes=4, lazy=True
            ),
        )
        assert lazy.certificates() == eager.certificates()

    def test_lazy_cap_is_true_ceiling(self):
        import math

        from repro.mining.miner import _lazy_cap

        for threshold in (0.4, 1.0, 2.5, 3.0, 7.2):
            assert _lazy_cap(threshold) == max(1, math.ceil(threshold))
