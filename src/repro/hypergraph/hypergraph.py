"""Hypergraphs (paper Definition 3.1.1) and their dual (Definition 3.1.2).

A hypergraph ``H = (V, E)`` has vertices ``V`` and edges that are non-empty
subsets of ``V``.  Edges carry **labels** (``f1``, ``S3``, ...) because the
paper's occurrence hypergraph distinguishes edges with identical vertex sets
coming from different occurrences (Fig. 2: six labeled edges over one vertex
set ``{1, 2, 3}``).

The dual ``H* = (E, X)`` swaps roles: its vertices are the edge labels of
``H`` and it has one edge ``X_v`` per vertex ``v`` of ``H`` collecting all
``H``-edges containing ``v``.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import HypergraphError

HVertex = Hashable
EdgeLabel = Hashable


class Hyperedge:
    """One labeled hyperedge: an identifier plus a vertex set."""

    __slots__ = ("label", "vertices")

    def __init__(self, label: EdgeLabel, vertices: Iterable[HVertex]) -> None:
        vertex_set = frozenset(vertices)
        if not vertex_set:
            raise HypergraphError(f"hyperedge {label!r} must be non-empty")
        self.label = label
        self.vertices: FrozenSet[HVertex] = vertex_set

    def __contains__(self, vertex: HVertex) -> bool:
        return vertex in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hyperedge):
            return NotImplemented
        return self.label == other.label and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.label, self.vertices))

    def __repr__(self) -> str:
        members = ", ".join(sorted(map(repr, self.vertices)))
        return f"<Hyperedge {self.label!r} {{{members}}}>"


class Hypergraph:
    """A labeled-edge hypergraph.

    Edges are stored in insertion order; all iteration is deterministic.

    Examples
    --------
    >>> h = Hypergraph()
    >>> h.add_edge("e1", [1, 2, 3])
    >>> h.add_edge("e2", [3, 4])
    >>> h.num_vertices, h.num_edges
    (4, 2)
    """

    __slots__ = ("_edges", "_edge_index", "_incidence", "name")

    def __init__(self, name: str = "") -> None:
        self._edges: List[Hyperedge] = []
        self._edge_index: Dict[EdgeLabel, int] = {}
        self._incidence: Dict[HVertex, Set[EdgeLabel]] = {}
        self.name = name

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(self, label: EdgeLabel, vertices: Iterable[HVertex]) -> None:
        """Add a labeled hyperedge; labels must be unique."""
        if label in self._edge_index:
            raise HypergraphError(f"duplicate hyperedge label {label!r}")
        edge = Hyperedge(label, vertices)
        self._edge_index[label] = len(self._edges)
        self._edges.append(edge)
        for vertex in edge.vertices:
            self._incidence.setdefault(vertex, set()).add(label)

    @classmethod
    def from_edge_sets(
        cls, edge_sets: Sequence[Iterable[HVertex]], prefix: str = "e", name: str = ""
    ) -> "Hypergraph":
        """Build from plain vertex sets, auto-labeling ``e1, e2, ...``."""
        hypergraph = cls(name=name)
        for i, vertices in enumerate(edge_sets, start=1):
            hypergraph.add_edge(f"{prefix}{i}", vertices)
        return hypergraph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._incidence)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> List[HVertex]:
        return sorted(self._incidence, key=repr)

    def edges(self) -> List[Hyperedge]:
        return list(self._edges)

    def edge_labels(self) -> List[EdgeLabel]:
        return [edge.label for edge in self._edges]

    def edge(self, label: EdgeLabel) -> Hyperedge:
        if label not in self._edge_index:
            raise HypergraphError(f"no hyperedge labeled {label!r}")
        return self._edges[self._edge_index[label]]

    def has_vertex(self, vertex: HVertex) -> bool:
        return vertex in self._incidence

    def edges_containing(self, vertex: HVertex) -> List[Hyperedge]:
        """All edges incident to ``vertex`` (the dual edge ``X_vertex``)."""
        labels = self._incidence.get(vertex)
        if labels is None:
            raise HypergraphError(f"vertex {vertex!r} is not in the hypergraph")
        return [self._edges[self._edge_index[lbl]] for lbl in sorted(labels, key=repr)]

    def vertex_degree(self, vertex: HVertex) -> int:
        """Number of edges containing ``vertex``."""
        if vertex not in self._incidence:
            raise HypergraphError(f"vertex {vertex!r} is not in the hypergraph")
        return len(self._incidence[vertex])

    def max_vertex_degree(self) -> int:
        """The largest number of edges sharing one vertex (0 when empty)."""
        if not self._incidence:
            return 0
        return max(len(labels) for labels in self._incidence.values())

    # ------------------------------------------------------------------
    # structural properties
    # ------------------------------------------------------------------
    def is_uniform(self) -> bool:
        """True when all edges have the same cardinality.

        Occurrence/instance hypergraphs are always uniform because every
        edge is the image of the same pattern node set (Section 4.4).
        """
        sizes = {len(edge) for edge in self._edges}
        return len(sizes) <= 1

    def uniformity(self) -> Optional[int]:
        """The common edge size ``k`` for a k-uniform hypergraph, else None."""
        sizes = {len(edge) for edge in self._edges}
        if len(sizes) == 1:
            return next(iter(sizes))
        return None

    def is_simple(self) -> bool:
        """True when no edge's vertex set is a subset of another's

        (Definition 3.1.1's *simple hypergraph*; edge labels are ignored,
        but two edges with identical vertex sets violate simplicity).
        """
        edges = self._edges
        for i, first in enumerate(edges):
            for j, second in enumerate(edges):
                if i != j and first.vertices <= second.vertices:
                    return False
        return True

    def overlapping_edge_pairs(self) -> List[Tuple[EdgeLabel, EdgeLabel]]:
        """All unordered pairs of distinct edges sharing >= 1 vertex."""
        pairs: Set[Tuple[EdgeLabel, EdgeLabel]] = set()
        for labels in self._incidence.values():
            members = sorted(labels, key=repr)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pairs.add((members[i], members[j]))
        return sorted(pairs, key=repr)

    def components(self) -> List["Hypergraph"]:
        """Split into connected components: additiveness, as the paper's
        conclusions name it, made concrete.

        Two edges are connected when they share a vertex; a component is a
        maximal connected edge set with its incident vertices.  Every
        vertex comes from an edge, so the components partition both edges
        and vertices.  Components cannot share cover vertices or packing
        edges, so the hard hypergraph measures are sums over components:

            sigma_MVC(H)  = sum over components C of sigma_MVC(C)
            sigma_MIES(H) = sum over components C of sigma_MIES(C)

        and each component's search is exponentially smaller than the
        whole.  The measure entry points (``mvc_support_of``,
        ``mies_support_of``) solve this way.  Components come in order of
        their first edge; edges keep their insertion order within each.
        """
        edges = self._edges
        parent = list(range(len(edges)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # Union-find over edge positions, joined through shared vertices.
        for labels in self._incidence.values():
            positions = [self._edge_index[label] for label in labels]
            root = find(positions[0])
            for position in positions[1:]:
                other = find(position)
                if other != root:
                    parent[other] = root

        groups: Dict[int, List[Hyperedge]] = {}
        for i, edge in enumerate(edges):
            groups.setdefault(find(i), []).append(edge)
        components: List[Hypergraph] = []
        for members in groups.values():
            component = Hypergraph(name=f"{self.name}|c{len(components)}")
            for edge in members:
                component.add_edge(edge.label, edge.vertices)
            components.append(component)
        return components

    def restrict_vertices(self, keep: Iterable[HVertex]) -> "Hypergraph":
        """Sub-hypergraph keeping only ``keep`` vertices; drops emptied edges."""
        keep_set = set(keep)
        restricted = Hypergraph(name=f"{self.name}|restricted" if self.name else "")
        for edge in self._edges:
            remaining = edge.vertices & keep_set
            if remaining:
                restricted.add_edge(edge.label, remaining)
        return restricted

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"<Hypergraph{name} |V|={self.num_vertices} |E|={self.num_edges}>"


def component_statistics(hypergraph: Hypergraph) -> Dict[str, float]:
    """Decomposition profile: how much smaller do the subproblems get?"""
    sizes = sorted((c.num_edges for c in hypergraph.components()), reverse=True)
    if not sizes:
        return {
            "components": 0,
            "largest_edges": 0,
            "mean_edges": 0.0,
            "reduction": 1.0,
        }
    return {
        "components": len(sizes),
        "largest_edges": sizes[0],
        "mean_edges": sum(sizes) / len(sizes),
        # Fraction of the monolithic problem size the largest piece retains.
        "reduction": sizes[0] / hypergraph.num_edges,
    }


class DualHypergraph:
    """The dual ``H* = (E, X)`` of a hypergraph ``H`` (Definition 3.1.2).

    Vertices of the dual are the edge labels of ``H``; for every vertex
    ``v`` of ``H`` the dual has an edge ``X_v`` containing the labels of all
    ``H``-edges incident to ``v``.
    """

    __slots__ = ("primal", "_dual",)

    def __init__(self, primal: Hypergraph) -> None:
        self.primal = primal
        self._dual = Hypergraph(name=f"dual({primal.name})" if primal.name else "dual")
        for vertex in primal.vertices():
            incident = [edge.label for edge in primal.edges_containing(vertex)]
            self._dual.add_edge(("X", vertex), incident)

    @property
    def hypergraph(self) -> Hypergraph:
        """The dual, as an ordinary hypergraph over edge labels."""
        return self._dual

    def dual_edge(self, vertex: HVertex) -> Hyperedge:
        """``X_v``: the dual edge for a primal vertex ``v``."""
        return self._dual.edge(("X", vertex))

    def vertices(self) -> List[EdgeLabel]:
        """The dual's vertices = the primal's edge labels."""
        return self._dual.vertices()

    def __repr__(self) -> str:
        return f"<DualHypergraph of {self.primal!r}>"


def dual_hypergraph(primal: Hypergraph) -> DualHypergraph:
    """Construct the dual hypergraph of ``primal``."""
    return DualHypergraph(primal)
