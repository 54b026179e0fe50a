"""Overlap semantics: simple, harmful, and structural overlap + overlap graphs.

Three notions of "two occurrences overlap" appear in the paper:

* **simple (vertex) overlap** — Def. 2.2.3: the image vertex sets intersect;
* **harmful overlap** — Def. 4.5.1 (Fiedler & Borgelt): some pattern node has
  *both* of its images inside the intersection;
* **structural overlap** — Def. 4.5.2 (new in this paper): some transitive
  node pair ``(v, w)`` satisfies ``f1(v) == f2(w)`` inside the intersection.

Both HO and SO imply simple overlap; neither implies the other (Figs. 9/10).
The overlap graph (Def. 2.2.5) can be built under any of the three
semantics; the MIS measure on a sparser (SO/HO) overlap graph is a variant
measure the paper suggests in Section 4.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..graph.automorphism import transitive_pairs
from ..graph.labeled_graph import Vertex
from ..graph.pattern import Pattern
from ..isomorphism.matcher import Instance, Occurrence

OVERLAP_KINDS = ("simple", "edge", "harmful", "structural")


def simple_overlap(first: Occurrence, second: Occurrence) -> bool:
    """Vertex overlap of two occurrences (Def. 2.2.3)."""
    return bool(first.vertex_set & second.vertex_set)


def edge_overlap(pattern: Pattern, first: Occurrence, second: Occurrence) -> bool:
    """Edge overlap of two occurrences (Def. 2.2.4)."""
    return bool(first.edge_set(pattern) & second.edge_set(pattern))


def harmful_overlap(pattern: Pattern, first: Occurrence, second: Occurrence) -> bool:
    """Harmful overlap (Def. 4.5.1).

    True when some pattern node ``v`` has both images ``f1(v)`` and
    ``f2(v)`` inside ``f1(V_P) ∩ f2(V_P)``.
    """
    intersection = first.vertex_set & second.vertex_set
    if not intersection:
        return False
    first_map = first.mapping
    second_map = second.mapping
    return any(
        first_map[v] in intersection and second_map[v] in intersection
        for v in pattern.nodes()
    )


def structural_overlap(
    pattern: Pattern,
    first: Occurrence,
    second: Occurrence,
    pairs: Optional[Set[Tuple[Vertex, Vertex]]] = None,
) -> bool:
    """Structural overlap (Def. 4.5.2).

    True when some pair ``(v, w)`` transitive in a connected subpattern of
    ``P`` satisfies ``f1(v) == f2(w)`` (the shared image automatically lies
    in the intersection).  Pass ``pairs`` (from
    :func:`repro.graph.automorphism.transitive_pairs`) to amortize the
    automorphism work across many occurrence pairs.
    """
    intersection = first.vertex_set & second.vertex_set
    if not intersection:
        return False
    if pairs is None:
        pairs = transitive_pairs(pattern)
    first_map = first.mapping
    second_map = second.mapping
    return any(
        first_map[v] == second_map[w] and first_map[v] in intersection
        for v, w in pairs
    )


def overlaps(
    kind: str,
    pattern: Pattern,
    first: Occurrence,
    second: Occurrence,
    pairs: Optional[Set[Tuple[Vertex, Vertex]]] = None,
) -> bool:
    """Dispatch on overlap ``kind`` in :data:`OVERLAP_KINDS`."""
    if kind == "simple":
        return simple_overlap(first, second)
    if kind == "edge":
        return edge_overlap(pattern, first, second)
    if kind == "harmful":
        return harmful_overlap(pattern, first, second)
    if kind == "structural":
        return structural_overlap(pattern, first, second, pairs=pairs)
    raise ValueError(f"unknown overlap kind {kind!r}; expected one of {OVERLAP_KINDS}")


@dataclass
class OverlapGraph:
    """The occurrence/instance overlap graph (Def. 2.2.5).

    Plain undirected graph: ``nodes`` are occurrence/instance indices,
    ``adjacency`` maps each node to the set of overlapping nodes.
    """

    nodes: List[int]
    adjacency: Dict[int, Set[int]]
    kind: str = "simple"

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(neighbors) for neighbors in self.adjacency.values()) // 2

    def neighbors(self, node: int) -> Set[int]:
        return self.adjacency[node]

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency.get(u, ())

    def density(self) -> float:
        """Edges / possible edges (0 for graphs with < 2 nodes)."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    def components(self) -> List["OverlapGraph"]:
        """Split into connected components, each an overlap graph of its own.

        An independent set or a clique partition never links two
        components, so MIS and MCP are sums over components; the measure
        entry points (``mis_support_of``, ``mcp_support_of``) solve this
        way.  Components come in order of their first node.
        """
        seen: Set[int] = set()
        components: List[OverlapGraph] = []
        for start in self.nodes:
            if start in seen:
                continue
            seen.add(start)
            members, stack = [start], [start]
            while stack:
                for neighbor in self.adjacency[stack.pop()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        members.append(neighbor)
                        stack.append(neighbor)
            members.sort()
            adjacency = {node: set(self.adjacency[node]) for node in members}
            components.append(OverlapGraph(members, adjacency, kind=self.kind))
        return components

    def complement_adjacency(self) -> Dict[int, Set[int]]:
        """Adjacency of the complement graph (used by clique-based solvers)."""
        node_set = set(self.nodes)
        return {node: node_set - self.adjacency[node] - {node} for node in self.nodes}


def _candidate_pairs_from_incidence(
    incidence: Dict[Vertex, List[int]]
) -> Set[Tuple[int, int]]:
    """All index pairs co-incident on at least one key, as sorted tuples."""
    candidate_pairs: Set[Tuple[int, int]] = set()
    for members in incidence.values():
        members_sorted = sorted(members)
        for i in range(len(members_sorted)):
            for j in range(i + 1, len(members_sorted)):
                candidate_pairs.add((members_sorted[i], members_sorted[j]))
    return candidate_pairs


def occurrence_overlap_graph(
    pattern: Pattern,
    occurrences: Sequence[Occurrence],
    kind: str = "simple",
) -> OverlapGraph:
    """Build the occurrence overlap graph under the chosen semantics.

    Construction is incidence-driven: an inverted index (data vertex ->
    occurrences, or data edge -> occurrences for ``edge``) yields the
    candidate pairs directly.  For ``simple`` and ``edge`` semantics the
    co-incident pairs *are* the overlapping pairs — no pairwise test runs
    at all; HO/SO run their pairwise tests only over vertex-sharing
    candidate pairs (both semantics imply a shared vertex).
    """
    if kind not in OVERLAP_KINDS:
        raise ValueError(
            f"unknown overlap kind {kind!r}; expected one of {OVERLAP_KINDS}"
        )
    adjacency: Dict[int, Set[int]] = {occ.index: set() for occ in occurrences}
    by_index = {occ.index: occ for occ in occurrences}

    incidence: Dict[Vertex, List[int]] = {}
    if kind == "edge":
        for occ in occurrences:
            for edge in occ.edge_set(pattern):
                incidence.setdefault(edge, []).append(occ.index)
    else:
        for occ in occurrences:
            for vertex in occ.vertex_set:
                incidence.setdefault(vertex, []).append(occ.index)
    candidate_pairs = _candidate_pairs_from_incidence(incidence)

    if kind in ("simple", "edge"):
        # Sharing an incidence key is exactly the overlap condition.
        for a, b in candidate_pairs:
            adjacency[a].add(b)
            adjacency[b].add(a)
        return OverlapGraph(nodes=sorted(adjacency), adjacency=adjacency, kind=kind)

    pairs = transitive_pairs(pattern) if kind == "structural" else None
    for a, b in sorted(candidate_pairs):
        if overlaps(kind, pattern, by_index[a], by_index[b], pairs=pairs):
            adjacency[a].add(b)
            adjacency[b].add(a)
    return OverlapGraph(nodes=sorted(adjacency), adjacency=adjacency, kind=kind)


def intersection_graph(
    keyed_sets: Iterable[Tuple[int, Iterable[Vertex]]],
) -> OverlapGraph:
    """One node per key, an edge wherever two keys' sets share a member.

    Keyed by instance index this is the instance overlap graph; keyed by
    edge position it is a hypergraph's edge-intersection graph, whose
    independent sets are exactly the independent edge sets (Theorem 4.1).
    """
    adjacency: Dict[int, Set[int]] = {}
    incidence: Dict[Vertex, List[int]] = {}
    for key, members in keyed_sets:
        adjacency[key] = set()
        for member in members:
            incidence.setdefault(member, []).append(key)
    for a, b in _candidate_pairs_from_incidence(incidence):
        adjacency[a].add(b)
        adjacency[b].add(a)
    return OverlapGraph(nodes=sorted(adjacency), adjacency=adjacency, kind="simple")


def instance_overlap_graph(instances: Sequence[Instance]) -> OverlapGraph:
    """Instance overlap graph under simple-vertex-overlap semantics."""
    return intersection_graph((inst.index, inst.vertex_set) for inst in instances)


@dataclass(frozen=True)
class OverlapStatistics:
    """Counts of overlapping occurrence pairs under each semantics."""

    num_occurrences: int
    simple_pairs: int
    harmful_pairs: int
    structural_pairs: int

    @property
    def total_pairs(self) -> int:
        n = self.num_occurrences
        return n * (n - 1) // 2


def overlap_statistics(
    pattern: Pattern, occurrences: Sequence[Occurrence], method: str = "indexed"
) -> OverlapStatistics:
    """Count overlapping pairs under all three semantics.

    With ``method="indexed"`` (default) candidate pairs come from the
    vertex-incidence index: pairs sharing a vertex are exactly the simple
    overlaps, and only those pairs are tested for HO/SO (both semantics
    imply a shared image vertex — the Section 4.5 containment theorems).
    ``method="brute"`` is the quadratic reference pass, which additionally
    *asserts* those containment theorems pair by pair; the property test
    suite checks both methods agree on random workloads.
    """
    items = list(occurrences)
    pairs = transitive_pairs(pattern)
    if method == "indexed":
        # Incidence is keyed by list *position*, not occurrence index:
        # caller-built occurrence lists may carry duplicate indices, and
        # the counts must match the position-based brute pass exactly.
        incidence: Dict[Vertex, List[int]] = {}
        for position, occ in enumerate(items):
            for vertex in occ.vertex_set:
                incidence.setdefault(vertex, []).append(position)
        candidate_pairs = _candidate_pairs_from_incidence(incidence)
        harmful_count = structural_count = 0
        for a, b in candidate_pairs:
            first, second = items[a], items[b]
            harmful_count += harmful_overlap(pattern, first, second)
            structural_count += structural_overlap(pattern, first, second, pairs=pairs)
        return OverlapStatistics(
            num_occurrences=len(items),
            simple_pairs=len(candidate_pairs),
            harmful_pairs=harmful_count,
            structural_pairs=structural_count,
        )
    if method != "brute":
        raise ValueError(f"unknown method {method!r}; expected 'indexed' or 'brute'")
    simple_count = harmful_count = structural_count = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            first, second = items[i], items[j]
            is_simple = simple_overlap(first, second)
            is_harmful = harmful_overlap(pattern, first, second)
            is_structural = structural_overlap(pattern, first, second, pairs=pairs)
            if is_harmful and not is_simple:
                raise AssertionError("harmful overlap without simple overlap")
            if is_structural and not is_simple:
                raise AssertionError("structural overlap without simple overlap")
            simple_count += is_simple
            harmful_count += is_harmful
            structural_count += is_structural
    return OverlapStatistics(
        num_occurrences=len(items),
        simple_pairs=simple_count,
        harmful_pairs=harmful_count,
        structural_pairs=structural_count,
    )
