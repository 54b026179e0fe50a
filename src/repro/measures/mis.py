"""MIS — maximum-independent-set support on the overlap graph (Vanetik et al.;
Definitions 2.2.5–2.2.7).

``sigma_MIS(P, G)`` is the size of a maximum independent set in the
occurrence (or instance) overlap graph.  It is the intuitive "number of
independent appearances" but NP-hard.

:func:`maximum_independent_set` is the one exact independent-set kernel:
a branch-and-bound over the graph it is given, with

* degree-based branching (branch on a max-degree vertex: exclude / include);
* a greedy-clique-cover upper bound for pruning;
* a work budget.

:func:`mis_support_of` is the entry point: it runs the kernel once per
connected component of the overlap graph and sums (``budget`` bounds each
component's search).  MIES (:mod:`repro.measures.mies`) runs on the same
kernel, over the edge-intersection graph of a hypergraph.

By Theorem 4.1, MIS of the instance overlap graph equals MIES of the
instance hypergraph; on occurrences the two views agree too, because the
occurrence overlap graph *is* the occurrence hypergraph's edge-intersection
graph.  The registered ``mis`` and ``mis_occurrence`` measures are
therefore computed as MIES (2-uniform components go through polynomial
blossom matching).  The overlap-graph path serves the measures with no
hypergraph twin — ``mis_structural`` and ``mis_harmful`` on the sparser
overlap graphs of Section 4.5 — plus the CLI ``overlap`` command and
transaction mining.
"""

from __future__ import annotations

from typing import Dict, Set

from ..errors import BudgetExceededError
from ..hypergraph.construction import HypergraphBundle
from ..hypergraph.overlap import OverlapGraph, occurrence_overlap_graph
from .base import register_measure


def greedy_independent_set(graph: OverlapGraph) -> Set[int]:
    """Min-degree greedy independent set (lower bound / incumbent seed)."""
    adjacency = {node: set(neighbors) for node, neighbors in graph.adjacency.items()}
    alive = set(graph.nodes)
    independent: Set[int] = set()
    while alive:
        node = min(alive, key=lambda n: (len(adjacency[n] & alive), n))
        independent.add(node)
        alive.discard(node)
        alive -= adjacency[node]
    return independent


def clique_cover_upper_bound(adjacency: Dict[int, Set[int]], alive: Set[int]) -> int:
    """Greedy clique cover of the live subgraph; its size upper-bounds MIS.

    An independent set takes at most one vertex per clique.
    """
    remaining = set(alive)
    cliques = 0
    while remaining:
        seed = min(remaining)
        clique = {seed}
        candidates = adjacency[seed] & remaining
        while candidates:
            extension = min(candidates)
            clique.add(extension)
            candidates &= adjacency[extension]
        remaining -= clique
        cliques += 1
    return cliques


def maximum_independent_set(
    graph: OverlapGraph, budget: int = 2_000_000
) -> Set[int]:
    """Exact maximum independent set of an overlap graph (branch & bound).

    Raises
    ------
    BudgetExceededError
        After expanding ``budget`` search nodes.
    """
    adjacency = {node: set(neighbors) for node, neighbors in graph.adjacency.items()}
    incumbent = greedy_independent_set(graph)
    nodes_expanded = 0

    def branch(alive: Set[int], current: Set[int]) -> None:
        nonlocal incumbent, nodes_expanded
        nodes_expanded += 1
        if nodes_expanded > budget:
            raise BudgetExceededError(budget)
        if not alive:
            if len(current) > len(incumbent):
                incumbent = set(current)
            return
        if len(current) + clique_cover_upper_bound(adjacency, alive) <= len(incumbent):
            return
        # Isolated live vertices always join the independent set.
        isolated = {n for n in alive if not (adjacency[n] & alive)}
        if isolated:
            branch(alive - isolated, current | isolated)
            return
        pivot = max(alive, key=lambda n: (len(adjacency[n] & alive), -n))
        # Branch 1: include the pivot (drop its neighborhood).
        branch(alive - {pivot} - adjacency[pivot], current | {pivot})
        # Branch 2: exclude the pivot.
        branch(alive - {pivot}, current)

    branch(set(graph.nodes), set())
    return incumbent


def mis_support_of(graph: OverlapGraph, budget: int = 2_000_000) -> int:
    """``sigma_MIS`` of an overlap graph, summed over its connected components.

    ``budget`` bounds each component's search.
    """
    return sum(
        len(maximum_independent_set(component, budget=budget))
        for component in graph.components()
    )


@register_measure(
    name="mis",
    display_name="MIS (max independent set)",
    anti_monotonic=True,
    complexity="NP-hard (B&B)",
    description=(
        "Maximum independent set of the instance overlap graph "
        "(Vanetik et al.)."
    ),
)
def mis_support(bundle: HypergraphBundle) -> float:
    """``sigma_MIS(P, G)`` on the instance overlap graph, as MIES (Theorem 4.1)."""
    from .mies import mies_support_of  # mies runs on this module's kernel

    return float(mies_support_of(bundle.instance_hg))


@register_measure(
    name="mis_occurrence",
    display_name="MIS on occurrences",
    anti_monotonic=True,
    complexity="NP-hard (B&B)",
    description="Maximum independent set of the occurrence overlap graph.",
)
def mis_occurrence_support(bundle: HypergraphBundle) -> float:
    """``sigma_MIS`` on the occurrence overlap graph, as MIES of the occurrence
    hypergraph (the overlap graph is its edge-intersection graph)."""
    from .mies import mies_support_of

    return float(mies_support_of(bundle.occurrence_hg))


@register_measure(
    name="mis_structural",
    display_name="MIS under structural overlap",
    anti_monotonic=False,
    complexity="NP-hard (B&B)",
    description=(
        "MIS on the sparser overlap graph built from structural overlap "
        "(Section 4.5 variant)."
    ),
)
def mis_structural_support(bundle: HypergraphBundle) -> float:
    """MIS where only structurally-overlapping occurrences conflict."""
    graph = occurrence_overlap_graph(
        bundle.pattern, bundle.occurrences, kind="structural"
    )
    return float(mis_support_of(graph))


@register_measure(
    name="mis_harmful",
    display_name="MIS under harmful overlap",
    anti_monotonic=False,
    complexity="NP-hard (B&B)",
    description=(
        "MIS on the sparser overlap graph built from harmful overlap "
        "(Fiedler & Borgelt variant)."
    ),
)
def mis_harmful_support(bundle: HypergraphBundle) -> float:
    """MIS where only harmfully-overlapping occurrences conflict."""
    graph = occurrence_overlap_graph(bundle.pattern, bundle.occurrences, kind="harmful")
    return float(mis_support_of(graph))
