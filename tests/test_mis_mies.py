"""Unit tests for MIS, MIES, and the Theorem 4.1 equivalence."""

import random
from itertools import combinations

import pytest

from repro.datasets.paper_figures import load_figure
from repro.errors import BudgetExceededError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.construction import HypergraphBundle
from repro.hypergraph.overlap import OverlapGraph, instance_overlap_graph
from repro.measures.base import compute_support
from repro.measures.mies import (
    is_independent_edge_set,
    maximum_independent_edge_set,
    mies_support_of,
)
from repro.measures.mis import (
    greedy_independent_set,
    maximum_independent_set,
    mis_support_of,
)


def path_overlap_graph() -> OverlapGraph:
    """P4 as an overlap graph: 0-1-2-3; MIS = 2."""
    return OverlapGraph(
        nodes=[0, 1, 2, 3],
        adjacency={0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}},
    )


class TestMIS:
    def test_path_graph_mis(self):
        assert mis_support_of(path_overlap_graph()) == 2

    def test_complete_overlap_graph_mis_is_1(self):
        nodes = [0, 1, 2, 3]
        adjacency = {n: set(nodes) - {n} for n in nodes}
        graph = OverlapGraph(nodes=nodes, adjacency=adjacency)
        assert mis_support_of(graph) == 1

    def test_empty_overlap_graph(self):
        graph = OverlapGraph(nodes=[], adjacency={})
        assert mis_support_of(graph) == 0

    def test_isolated_vertices_all_selected(self):
        graph = OverlapGraph(nodes=[0, 1, 2], adjacency={0: set(), 1: set(), 2: set()})
        assert mis_support_of(graph) == 3

    def test_greedy_seed_is_independent(self):
        graph = path_overlap_graph()
        seed = greedy_independent_set(graph)
        for u in seed:
            assert not (graph.adjacency[u] & seed)

    def test_result_is_independent(self, fig6):
        bundle = HypergraphBundle.build(fig6.pattern, fig6.data_graph)
        graph = instance_overlap_graph(bundle.instances)
        chosen = maximum_independent_set(graph)
        for u in chosen:
            assert not (graph.adjacency[u] & chosen)

    def test_budget_guard(self):
        # A 9-cycle forces branching beyond one node.
        nodes = list(range(9))
        adjacency = {n: {(n - 1) % 9, (n + 1) % 9} for n in nodes}
        graph = OverlapGraph(nodes=nodes, adjacency=adjacency)
        with pytest.raises(BudgetExceededError):
            maximum_independent_set(graph, budget=1)

    def test_cycle_mis(self):
        nodes = list(range(5))
        adjacency = {n: {(n - 1) % 5, (n + 1) % 5} for n in nodes}
        graph = OverlapGraph(nodes=nodes, adjacency=adjacency)
        assert mis_support_of(graph) == 2


class TestMIES:
    def test_fig6_value(self, fig6):
        bundle = HypergraphBundle.build(fig6.pattern, fig6.data_graph)
        assert mies_support_of(bundle.instance_hg) == 2

    def test_disjoint_edges_all_chosen(self):
        h = Hypergraph.from_edge_sets([[1, 2], [3, 4], [5, 6]])
        assert mies_support_of(h) == 3

    def test_sunflower_only_one(self):
        h = Hypergraph.from_edge_sets([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
        assert mies_support_of(h) == 1

    def test_result_is_independent(self, fig6):
        bundle = HypergraphBundle.build(fig6.pattern, fig6.data_graph)
        chosen = maximum_independent_edge_set(bundle.instance_hg)
        assert is_independent_edge_set(bundle.instance_hg, chosen)

    def test_empty_hypergraph(self):
        assert mies_support_of(Hypergraph()) == 0

    def test_budget_guard(self):
        # The edges of a 9-cycle: their intersection graph is a 9-cycle,
        # which forces the MIS kernel to branch beyond one node.
        h = Hypergraph.from_edge_sets([[n, (n + 1) % 9] for n in range(9)])
        with pytest.raises(BudgetExceededError):
            maximum_independent_edge_set(h, budget=1)


def random_component_hypergraph(seed: int) -> Hypergraph:
    """Several components over disjoint vertex pools, each k-uniform, k = 2-4."""
    rng = random.Random(seed)
    h = Hypergraph()
    for c in range(rng.randint(2, 4)):
        k = rng.randint(2, 4)
        pool = [(c, v) for v in range(k + rng.randint(1, 4))]
        for e in range(rng.randint(1, 4)):
            h.add_edge((c, e), rng.sample(pool, k))
    return h


def exhaustive_mies(h: Hypergraph) -> int:
    """The largest pairwise-disjoint edge subset, by trying every subset."""
    edges = [edge.vertices for edge in h.edges()]
    for size in range(len(edges), 0, -1):
        for subset in combinations(edges, size):
            if sum(map(len, subset)) == len(frozenset().union(*subset)):
                return size
    return 0


class TestMIESExactness:
    @pytest.mark.parametrize("seed", range(25))
    def test_entry_point_kernel_and_exhaustive_search_agree(self, seed):
        h = random_component_hypergraph(seed)
        assert len(h.components()) >= 2
        chosen = maximum_independent_edge_set(h)
        assert is_independent_edge_set(h, chosen)
        assert mies_support_of(h) == len(chosen) == exhaustive_mies(h)


class TestTheorem41Equivalence:
    """sigma_MIES == sigma_MIS on every figure example (Theorem 4.1)."""

    @pytest.mark.parametrize("figure_id", [f"fig{i}" for i in range(1, 11)])
    def test_equality_on_figures(self, figure_id):
        fig = load_figure(figure_id)
        bundle = HypergraphBundle.build(fig.pattern, fig.data_graph)
        mies = mies_support_of(bundle.instance_hg)
        mis = mis_support_of(instance_overlap_graph(bundle.instances))
        assert mies == mis

    def test_occurrence_view_agrees(self, fig2):
        bundle = HypergraphBundle.build(fig2.pattern, fig2.data_graph)
        # Duplicate occurrence edges always intersect, so occurrence-level
        # MIES equals instance-level MIES.
        assert mies_support_of(bundle.occurrence_hg) == mies_support_of(
            bundle.instance_hg
        )

    def test_registry_entries_agree(self, fig6):
        assert compute_support("mis", fig6.pattern, fig6.data_graph) == 2.0
        assert compute_support("mies", fig6.pattern, fig6.data_graph) == 2.0
        assert compute_support(
            "mis_occurrence", fig6.pattern, fig6.data_graph
        ) == 2.0
        assert compute_support(
            "mies_occurrence", fig6.pattern, fig6.data_graph
        ) == 2.0
