"""MVC — minimum-vertex-cover support (Section 3.3).

``sigma_MVC(P, G)`` is the size of a minimum vertex cover of the occurrence
(or instance) hypergraph.  It is anti-monotonic (Theorem 3.5), bounded by
MI (Theorem 3.6), and NP-hard in general; on a k-uniform hypergraph the
greedy matching algorithm gives a k-approximation, and the LP relaxation
rounds to a k-approximation as well (Section 4.3).

Three solvers:

* :func:`minimum_vertex_cover` — exact branch-and-bound with a matching
  lower bound and greedy upper bound (budget-guarded), over the whole
  hypergraph it is given; the entry point :func:`mvc_support_of` runs it
  once per connected component and sums;
* :func:`greedy_vertex_cover` — the classic maximal-matching k-approximation;
* :func:`lp_rounded_vertex_cover` — solve the LP relaxation and keep every
  vertex with ``x(v) >= 1/k``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import BudgetExceededError, LPError
from ..hypergraph.hypergraph import Hypergraph, HVertex
from ..hypergraph.construction import HypergraphBundle
from ..lp.model import LinearProgram, solve
from .base import register_measure


def _edge_sets(hypergraph: Hypergraph) -> List[FrozenSet[HVertex]]:
    return [edge.vertices for edge in hypergraph.edges()]


def greedy_vertex_cover(hypergraph: Hypergraph) -> Set[HVertex]:
    """Maximal-matching k-approximation (factor ``k`` on k-uniform input).

    Repeatedly pick an uncovered edge and add *all* its vertices.  Any
    optimal cover contains at least one vertex of each picked (pairwise
    disjoint) edge, so the result is at most ``k * OPT``.
    """
    cover: Set[HVertex] = set()
    for edge in hypergraph.edges():
        if not (edge.vertices & cover):
            cover |= edge.vertices
    return cover


def matching_lower_bound(edges: Sequence[FrozenSet[HVertex]]) -> int:
    """A greedy maximal set of pairwise-disjoint edges; its size lower-bounds
    the vertex cover (each disjoint edge needs its own cover vertex)."""
    used: Set[HVertex] = set()
    count = 0
    for edge in edges:
        if not (edge & used):
            used |= edge
            count += 1
    return count


def _graph_vertex_cover(
    edges: List[FrozenSet[HVertex]], budget: int
) -> Set[HVertex]:
    """Exact vertex cover for the 2-uniform (ordinary graph) case.

    Pipeline: Nemhauser–Trotter LP persistency (variables at 1 are in some
    optimal cover, variables at 0 are not), then branch-and-bound on the
    half-integral core with vertex branching (take ``v`` / take ``N(v)``)
    and pendant reduction.
    """
    adjacency: Dict[HVertex, Set[HVertex]] = {}
    for edge in edges:
        u, v = tuple(edge)
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    forced: Set[HVertex] = set()
    core = set(adjacency)
    try:
        program = LinearProgram(sense="min")
        names = {vtx: f"x{i}" for i, vtx in enumerate(sorted(adjacency, key=repr))}
        for vtx in names:
            program.add_variable(names[vtx], objective=1.0)
        for edge in edges:
            u, v = tuple(edge)
            program.add_ge_constraint({names[u]: 1.0, names[v]: 1.0}, 1.0)
        solution = solve(program)
        forced = {vtx for vtx in names if solution[names[vtx]] > 0.5 + 1e-6}
        excluded = {vtx for vtx in names if solution[names[vtx]] < 0.5 - 1e-6}
        core = set(adjacency) - forced - excluded
    except LPError:
        pass  # fall through to plain branch-and-bound on everything

    core_adjacency = {
        v: {w for w in adjacency[v] if w in core} for v in core
    }

    nodes_expanded = 0
    best: Optional[Set[HVertex]] = None

    def branch(live: Dict[HVertex, Set[HVertex]], current: Set[HVertex]) -> None:
        nonlocal best, nodes_expanded
        nodes_expanded += 1
        if nodes_expanded > budget:
            raise BudgetExceededError(budget)
        # Reductions: drop isolated vertices; resolve pendants.
        live = {v: set(nbrs) for v, nbrs in live.items() if nbrs}
        changed = True
        while changed:
            changed = False
            for v in list(live):
                if v not in live:
                    continue
                nbrs = live[v]
                if not nbrs:
                    del live[v]
                    changed = True
                elif len(nbrs) == 1:
                    # Pendant: taking the neighbor is always at least as good.
                    (w,) = tuple(nbrs)
                    current = current | {w}
                    for x in live.get(w, set()):
                        live[x].discard(w)
                    live.pop(w, None)
                    live.pop(v, None)
                    changed = True
        if not live:
            if best is None or len(current) < len(best):
                best = set(current)
            return
        # Matching lower bound on the remaining graph.
        seen: Set[HVertex] = set()
        matching = 0
        for v in sorted(live, key=repr):
            if v in seen:
                continue
            for w in live[v]:
                if w not in seen:
                    seen.add(v)
                    seen.add(w)
                    matching += 1
                    break
        if best is not None and len(current) + matching >= len(best):
            return
        pivot = max(live, key=lambda v: (len(live[v]), repr(v)))
        neighbors = set(live[pivot])
        # Branch 1: pivot joins the cover.
        reduced = {
            v: (nbrs - {pivot}) for v, nbrs in live.items() if v != pivot
        }
        branch(reduced, current | {pivot})
        # Branch 2: pivot stays out, so all its neighbors join.
        removed = neighbors | {pivot}
        reduced = {
            v: (nbrs - removed) for v, nbrs in live.items() if v not in removed
        }
        branch(reduced, current | neighbors)

    branch(core_adjacency, set())
    assert best is not None
    return forced | best


def minimum_vertex_cover(
    hypergraph: Hypergraph, budget: int = 2_000_000
) -> Set[HVertex]:
    """Exact minimum vertex cover of a hypergraph via branch-and-bound.

    2-uniform hypergraphs (the single-edge patterns every mining run seeds
    with) go through a dedicated graph solver with Nemhauser–Trotter LP
    preprocessing and vertex branching.  General hypergraphs branch on an
    uncovered edge (fewest vertices first) and try including each of its
    vertices; at least one must be in any cover, so the search is complete.
    Pruning: ``|current| + matching_lower_bound`` against the incumbent.

    Raises
    ------
    BudgetExceededError
        After expanding ``budget`` search nodes.
    """
    all_edges = _edge_sets(hypergraph)
    if not all_edges:
        return set()
    if all(len(edge) == 2 for edge in all_edges):
        return _graph_vertex_cover(all_edges, budget)

    incumbent = set(greedy_vertex_cover(hypergraph))
    nodes_expanded = 0

    def branch(remaining: List[FrozenSet[HVertex]], current: Set[HVertex]) -> None:
        nonlocal incumbent, nodes_expanded
        nodes_expanded += 1
        if nodes_expanded > budget:
            raise BudgetExceededError(budget)
        uncovered = [edge for edge in remaining if not (edge & current)]
        if not uncovered:
            if len(current) < len(incumbent):
                incumbent = set(current)
            return
        if len(current) + matching_lower_bound(uncovered) >= len(incumbent):
            return
        # Branch on the smallest uncovered edge: fewest children.
        pivot = min(uncovered, key=lambda edge: (len(edge), sorted(map(repr, edge))))
        for vertex in sorted(pivot, key=repr):
            branch(uncovered, current | {vertex})

    branch(all_edges, set())
    return incumbent


def mvc_support_of(hypergraph: Hypergraph, budget: int = 2_000_000) -> int:
    """``sigma_MVC`` of a hypergraph: the minimum vertex cover size, summed
    over connected components (``budget`` bounds each one's search)."""
    return sum(
        len(minimum_vertex_cover(component, budget=budget))
        for component in hypergraph.components()
    )


def lp_relaxed_cover(
    hypergraph: Hypergraph, backend: str = "auto"
) -> Tuple[float, Dict[HVertex, float]]:
    """Solve the LP relaxation of vertex cover (Eq. 4.3 relaxed).

    Returns ``(nu_MVC, fractional assignment)``.
    """
    program = LinearProgram(sense="min")
    names: Dict[HVertex, str] = {}
    for i, vertex in enumerate(hypergraph.vertices()):
        names[vertex] = f"x{i}"
        program.add_variable(names[vertex], objective=1.0, lower=0.0, upper=1.0)
    for edge in hypergraph.edges():
        program.add_ge_constraint({names[v]: 1.0 for v in edge.vertices}, 1.0)
    solution = solve(program, backend=backend)
    assignment = {vertex: solution[names[vertex]] for vertex in hypergraph.vertices()}
    return solution.value, assignment


def lp_rounded_vertex_cover(
    hypergraph: Hypergraph, backend: str = "auto"
) -> Set[HVertex]:
    """Round the LP relaxation: keep vertices with ``x(v) >= 1/k``.

    Every edge has some vertex with ``x >= 1/k`` (the k values sum to at
    least 1), so the rounded set is a cover; its size is at most
    ``k * nu_MVC <= k * sigma_MVC``.
    """
    if hypergraph.num_edges == 0:
        return set()
    k = max(len(edge) for edge in hypergraph.edges())
    _, assignment = lp_relaxed_cover(hypergraph, backend=backend)
    threshold = 1.0 / k - 1e-9
    return {vertex for vertex, x in assignment.items() if x >= threshold}


def is_vertex_cover(hypergraph: Hypergraph, cover: Set[HVertex]) -> bool:
    """Check the covering property (every edge intersects ``cover``)."""
    return all(edge.vertices & cover for edge in hypergraph.edges())


@register_measure(
    name="mvc",
    display_name="MVC (minimum vertex cover)",
    anti_monotonic=True,
    complexity="NP-hard (B&B)",
    description="Minimum vertex cover of the occurrence hypergraph (this paper, Section 3.3).",
)
def mvc_support(bundle: HypergraphBundle) -> float:
    """``sigma_MVC(P, G)`` on the occurrence hypergraph."""
    return float(mvc_support_of(bundle.occurrence_hg))


@register_measure(
    name="mvc_greedy",
    display_name="MVC greedy k-approx",
    anti_monotonic=False,
    complexity="O(m k)",
    description="Maximal-matching k-approximation of MVC (upper bound, not a measure).",
)
def mvc_greedy_support(bundle: HypergraphBundle) -> float:
    """Size of the greedy k-approximate vertex cover."""
    return float(len(greedy_vertex_cover(bundle.occurrence_hg)))
