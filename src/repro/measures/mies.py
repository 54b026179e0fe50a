"""MIES — maximum independent edge set of the hypergraph (Definition 4.2.1).

An independent edge set is a family of pairwise-disjoint hyperedges; MIES is
the maximum size of such a family (hypergraph matching / set packing).
Theorem 4.1 proves ``sigma_MIES = sigma_MIS`` on the instance hypergraph:
independent edges are exactly independent nodes of the edge-intersection
graph.  That is how the overlap-graph lineage of measures embeds into the
hypergraph framework, and it is how MIES is solved — there is no separate
set-packing search:

* :func:`maximum_independent_edge_set` (the kernel) runs the MIS
  branch-and-bound (:func:`repro.measures.mis.maximum_independent_set`) on
  the edge-intersection graph of the hypergraph it is given;
* :func:`mies_support_of` (the entry point) sums over the hypergraph's
  connected components; a 2-uniform component is a graph matching, solved
  in polynomial time by Edmonds' blossom algorithm.

The registered ``mis`` and ``mis_occurrence`` measures call
:func:`mies_support_of` as well.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set

from ..graph.matching import maximum_matching_size
from ..hypergraph.hypergraph import Hypergraph, HVertex, EdgeLabel
from ..hypergraph.construction import HypergraphBundle
from ..hypergraph.overlap import intersection_graph
from .base import register_measure
from .mis import maximum_independent_set


def maximum_independent_edge_set(
    hypergraph: Hypergraph, budget: int = 2_000_000
) -> List[EdgeLabel]:
    """Exact maximum independent edge set: MIS of the edge-intersection graph.

    Edges with one vertex set (automorphic occurrences) intersect and have
    the same neighbours, so only the first of them enters the graph.
    Returns the chosen edge labels in edge order.

    Raises
    ------
    BudgetExceededError
        After expanding ``budget`` search nodes.
    """
    edges = hypergraph.edges()
    first: Dict[FrozenSet[HVertex], int] = {}
    for position, edge in enumerate(edges):
        first.setdefault(edge.vertices, position)
    graph = intersection_graph((i, vertices) for vertices, i in first.items())
    chosen = maximum_independent_set(graph, budget=budget)
    return [edges[i].label for i in sorted(chosen)]


def mies_support_of(hypergraph: Hypergraph, budget: int = 2_000_000) -> int:
    """``sigma_MIES`` of a hypergraph, summed over its connected components.

    ``budget`` bounds each component's search.  For a 2-uniform component
    (single-edge patterns) an independent edge set is a graph matching, so
    its value comes from Edmonds' blossom algorithm instead.
    """
    total = 0
    for component in hypergraph.components():
        if component.uniformity() == 2:
            pairs = [tuple(sorted(e.vertices, key=repr)) for e in component.edges()]
            total += maximum_matching_size(pairs)
        else:
            total += len(maximum_independent_edge_set(component, budget=budget))
    return total


def is_independent_edge_set(
    hypergraph: Hypergraph, labels: Sequence[EdgeLabel]
) -> bool:
    """Check pairwise disjointness of the edges named by ``labels``."""
    used: Set[HVertex] = set()
    for label in labels:
        vertices = hypergraph.edge(label).vertices
        if vertices & used:
            return False
        used |= vertices
    return True


@register_measure(
    name="mies",
    display_name="MIES (max independent edge set)",
    anti_monotonic=True,
    complexity="NP-hard (B&B)",
    description=(
        "Maximum independent edge set of the instance hypergraph; equals "
        "MIS by Theorem 4.1."
    ),
)
def mies_support(bundle: HypergraphBundle) -> float:
    """``sigma_MIES(P, G)`` on the instance hypergraph."""
    return float(mies_support_of(bundle.instance_hg))


@register_measure(
    name="mies_occurrence",
    display_name="MIES on occurrences",
    anti_monotonic=True,
    complexity="NP-hard (B&B)",
    description="Maximum independent edge set of the occurrence hypergraph.",
)
def mies_occurrence_support(bundle: HypergraphBundle) -> float:
    """``sigma_MIES`` on the occurrence hypergraph (same value; duplicated
    edges from automorphic occurrences always intersect)."""
    return float(mies_support_of(bundle.occurrence_hg))
