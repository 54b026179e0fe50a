"""Unit tests for the MCP baseline and the LP relaxations (Section 4.3)."""

import random

import pytest

from repro.datasets.paper_figures import load_figure
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.construction import HypergraphBundle
from repro.hypergraph.overlap import OverlapGraph, instance_overlap_graph
from repro.measures.base import compute_support
from repro.measures.mcp import (
    greedy_clique_partition,
    mcp_support_of,
    minimum_clique_partition,
)
from repro.measures.mis import mis_support_of
from repro.measures.mvc import mvc_support_of
from repro.measures.mies import mies_support_of
from repro.measures.relaxations import (
    fractional_solutions,
    lp_mies_support_of,
    lp_mvc_support_of,
)


def path_overlap_graph() -> OverlapGraph:
    return OverlapGraph(
        nodes=[0, 1, 2, 3],
        adjacency={0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}},
    )


class TestMCP:
    def test_p4_needs_two_cliques(self):
        assert mcp_support_of(path_overlap_graph()) == 2

    def test_complete_graph_is_one_clique(self):
        nodes = [0, 1, 2]
        adjacency = {n: set(nodes) - {n} for n in nodes}
        assert mcp_support_of(OverlapGraph(nodes=nodes, adjacency=adjacency)) == 1

    def test_edgeless_graph_needs_n(self):
        graph = OverlapGraph(nodes=[0, 1, 2], adjacency={0: set(), 1: set(), 2: set()})
        assert mcp_support_of(graph) == 3

    def test_empty_graph(self):
        assert mcp_support_of(OverlapGraph(nodes=[], adjacency={})) == 0

    def test_partition_is_valid(self):
        graph = path_overlap_graph()
        partition = minimum_clique_partition(graph)
        covered = sorted(v for part in partition for v in part)
        assert covered == graph.nodes
        for part in partition:
            members = sorted(part)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    assert graph.has_edge(u, v)

    def test_greedy_partition_valid_and_not_smaller(self):
        graph = path_overlap_graph()
        greedy = greedy_clique_partition(graph)
        exact = minimum_clique_partition(graph)
        assert len(greedy) >= len(exact)

    def test_mcp_upper_bounds_mis(self):
        for figure_id in ("fig2", "fig6", "fig8"):
            fig = load_figure(figure_id)
            bundle = HypergraphBundle.build(fig.pattern, fig.data_graph)
            overlap = instance_overlap_graph(bundle.instances)
            assert mis_support_of(overlap) <= mcp_support_of(overlap)

    def test_registry_entry(self, fig6):
        assert compute_support("mcp", fig6.pattern, fig6.data_graph) >= 2.0

    def test_stops_at_the_mis_floor(self):
        # The greedy partition of P4 has sigma_MIS = 2 cliques, so it is
        # optimal; the search returns it without expanding a node.
        assert len(minimum_clique_partition(path_overlap_graph(), budget=1)) == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_partition_on_random_graphs(self, seed):
        rng = random.Random(seed)
        nodes = list(range(7))
        adjacency = {n: set() for n in nodes}
        for u in nodes:
            for v in nodes[u + 1 :]:
                if rng.random() < 0.5:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        graph = OverlapGraph(nodes=nodes, adjacency=adjacency)
        assert mcp_support_of(graph) == exhaustive_clique_partition(graph)
        assert len(minimum_clique_partition(graph)) == mcp_support_of(graph)


def exhaustive_clique_partition(graph: OverlapGraph) -> int:
    """The fewest cliques covering ``graph``: a search over every set partition,
    cut only where it cannot beat the best found (no greedy, no floor)."""
    best = len(graph.nodes)

    def place(index, cliques):
        nonlocal best
        if len(cliques) >= best:
            return
        if index == len(graph.nodes):
            best = len(cliques)
            return
        vertex = graph.nodes[index]
        for clique in cliques:
            if clique <= graph.adjacency[vertex]:
                clique.add(vertex)
                place(index + 1, cliques)
                clique.discard(vertex)
        place(index + 1, cliques + [{vertex}])

    place(0, [])
    return best


class TestRelaxations:
    def fig6_hypergraph(self):
        return Hypergraph.from_edge_sets(
            [[1, 5], [1, 6], [1, 7], [1, 8], [2, 8], [3, 8], [4, 8]]
        )

    def test_duality_equality(self):
        h = self.fig6_hypergraph()
        assert lp_mvc_support_of(h) == pytest.approx(lp_mies_support_of(h), abs=1e-6)

    def test_relaxation_sandwich(self):
        h = self.fig6_hypergraph()
        nu = lp_mvc_support_of(h)
        assert mies_support_of(h) <= nu + 1e-9
        assert nu <= mvc_support_of(h) + 1e-9

    def test_fractional_triangle_gap(self):
        # 2-uniform triangle: integral cover 2, fractional 1.5.
        h = Hypergraph.from_edge_sets([[1, 2], [2, 3], [1, 3]])
        assert mvc_support_of(h) == 2
        assert lp_mvc_support_of(h) == pytest.approx(1.5)
        assert mies_support_of(h) == 1

    def test_empty_hypergraph_relaxations(self):
        assert lp_mvc_support_of(Hypergraph()) == 0.0
        assert lp_mies_support_of(Hypergraph()) == 0.0

    def test_backends_agree(self):
        h = self.fig6_hypergraph()
        pytest.importorskip("scipy")
        assert lp_mvc_support_of(h, backend="scipy") == pytest.approx(
            lp_mvc_support_of(h, backend="simplex"), abs=1e-6
        )
        assert lp_mies_support_of(h, backend="scipy") == pytest.approx(
            lp_mies_support_of(h, backend="simplex"), abs=1e-6
        )

    def test_fractional_solutions_feasible(self):
        h = self.fig6_hypergraph()
        cover, packing = fractional_solutions(h)
        # Cover feasibility: every edge weight >= 1.
        for edge in h.edges():
            assert sum(cover[v] for v in edge.vertices) >= 1 - 1e-6
        # Packing feasibility: every vertex load <= 1.
        for vertex in h.vertices():
            load = sum(packing[e.label] for e in h.edges_containing(vertex))
            assert load <= 1 + 1e-6

    def test_registry_entries(self, fig6):
        nu_mvc = compute_support("lp_mvc", fig6.pattern, fig6.data_graph)
        nu_mies = compute_support("lp_mies", fig6.pattern, fig6.data_graph)
        assert nu_mvc == pytest.approx(nu_mies, abs=1e-6)
        assert nu_mvc == pytest.approx(2.0, abs=1e-6)
