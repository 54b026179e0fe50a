"""MCP — minimum-clique-partition support (Calders et al., related work).

MCP partitions the overlap graph's vertices into the fewest cliques; the
partition size is an anti-monotonic support measure that upper-bounds MIS
(each clique contributes at most one independent vertex).  It is included
as the paper's principal overlap-graph-based *baseline variant*
(Section 5) so the benchmark harness can profile the full family.

Minimum clique partition of ``O`` equals proper coloring of the complement
of ``O``; :func:`minimum_clique_partition` (the kernel) solves it by
branch-and-bound graph coloring with a greedy incumbent, budget-guarded like
the other NP-hard solvers, and stops as soon as the incumbent reaches the
``sigma_MIS`` floor.  :func:`mcp_support_of` (the entry point) runs the
kernel once per connected component and sums.
"""

from __future__ import annotations

from typing import List, Set

from ..errors import BudgetExceededError
from ..hypergraph.construction import HypergraphBundle
from ..hypergraph.overlap import OverlapGraph, instance_overlap_graph
from .base import register_measure
from .mis import mis_support_of


def greedy_clique_partition(graph: OverlapGraph) -> List[Set[int]]:
    """Greedy partition: repeatedly grow a clique from the lowest-id vertex."""
    remaining = set(graph.nodes)
    cliques: List[Set[int]] = []
    while remaining:
        seed = min(remaining)
        clique = {seed}
        candidates = graph.adjacency[seed] & remaining
        while candidates:
            extension = min(candidates)
            clique.add(extension)
            candidates &= graph.adjacency[extension]
        remaining -= clique
        cliques.append(clique)
    return cliques


def minimum_clique_partition(
    graph: OverlapGraph, budget: int = 500_000
) -> List[Set[int]]:
    """Exact minimum clique partition via B&B coloring of the complement.

    Vertices are assigned to clique slots in order; a vertex may join an
    existing clique only if adjacent (in the overlap graph) to all its
    members, or open a new clique.  Prune when the slot count reaches the
    incumbent; stop once the incumbent has ``sigma_MIS`` cliques, the floor
    (each clique holds at most one vertex of an independent set).

    Raises
    ------
    BudgetExceededError
        After expanding ``budget`` search nodes.
    """
    nodes = sorted(graph.nodes, key=lambda n: -graph.degree(n))
    incumbent = greedy_clique_partition(graph)
    floor = mis_support_of(graph, budget=budget)
    nodes_expanded = 0

    def branch(index: int, cliques: List[Set[int]]) -> None:
        nonlocal incumbent, nodes_expanded
        if len(incumbent) == floor:
            return
        nodes_expanded += 1
        if nodes_expanded > budget:
            raise BudgetExceededError(budget)
        if len(cliques) >= len(incumbent):
            return
        if index == len(nodes):
            incumbent = [set(c) for c in cliques]
            return
        vertex = nodes[index]
        neighbors = graph.adjacency[vertex]
        for clique in cliques:
            if clique <= neighbors:
                clique.add(vertex)
                branch(index + 1, cliques)
                clique.discard(vertex)
        cliques.append({vertex})
        branch(index + 1, cliques)
        cliques.pop()

    branch(0, [])
    return incumbent


def mcp_support_of(graph: OverlapGraph, budget: int = 500_000) -> int:
    """``sigma_MCP`` of an overlap graph: minimum clique partition size,
    summed over connected components (``budget`` bounds each one's search)."""
    return sum(
        len(minimum_clique_partition(component, budget=budget))
        for component in graph.components()
    )


@register_measure(
    name="mcp",
    display_name="MCP (min clique partition)",
    anti_monotonic=True,
    complexity="NP-hard (B&B)",
    description=(
        "Minimum clique partition of the instance overlap graph "
        "(Calders et al. baseline); >= MIS."
    ),
)
def mcp_support(bundle: HypergraphBundle) -> float:
    """``sigma_MCP(P, G)`` on the instance overlap graph."""
    graph = instance_overlap_graph(bundle.instances)
    return float(mcp_support_of(graph))
