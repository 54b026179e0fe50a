"""Undirected vertex-labeled graphs (paper Definition 2.1.1).

A :class:`LabeledGraph` is the data-graph substrate every other subsystem is
built on: the subgraph-isomorphism engine enumerates occurrences in it, the
hypergraph framework is constructed from those occurrences, and the miner
grows patterns against it.

The implementation keeps an adjacency map (``dict[vertex, set[vertex]]``),
a label map, and per-label vertex indexes so candidate filtering during
subgraph matching is O(1) per lookup.  Vertices are arbitrary hashable,
orderable ids (ints and strings in practice).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..errors import EdgeNotFoundError, GraphError, SelfLoopError, VertexNotFoundError

Vertex = Hashable
Label = Hashable
Edge = Tuple[Vertex, Vertex]


def normalize_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (sorted) form of an undirected edge.

    Sorting is by ``repr`` when the two endpoints are not mutually orderable
    (mixed-type vertex ids), so the canonical form is always well defined.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class LabeledGraph:
    """An undirected labeled graph ``G = (V, E, lambda)``.

    Parameters
    ----------
    vertices:
        Optional iterable of ``(vertex, label)`` pairs to add up front.
    edges:
        Optional iterable of ``(u, v)`` pairs; endpoints must already be in
        ``vertices`` (or added before the edge).

    Examples
    --------
    >>> g = LabeledGraph()
    >>> g.add_vertex(1, "A"); g.add_vertex(2, "B")
    >>> g.add_edge(1, 2)
    >>> g.num_vertices, g.num_edges
    (2, 1)
    >>> g.label_of(1)
    'A'
    """

    __slots__ = (
        "_adj",
        "_labels",
        "_by_label",
        "_num_edges",
        "_version",
        "_index",
        "_log",
        "_vertices_cache",
        "_edges_cache",
        "name",
        "__weakref__",
    )

    def __init__(
        self,
        vertices: Optional[Iterable[Tuple[Vertex, Label]]] = None,
        edges: Optional[Iterable[Edge]] = None,
        name: str = "",
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._labels: Dict[Vertex, Label] = {}
        self._by_label: Dict[Label, Set[Vertex]] = {}
        self._num_edges = 0
        self._version = 0
        self._index: Optional[object] = None
        self._log: Optional[object] = None
        self._vertices_cache: Optional[Tuple[int, List[Vertex]]] = None
        self._edges_cache: Optional[Tuple[int, List[Edge]]] = None
        self.name = name
        if vertices is not None:
            for vertex, label in vertices:
                self.add_vertex(vertex, label)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex, label: Label) -> None:
        """Add ``vertex`` with ``label``; re-adding must keep the same label."""
        if vertex in self._labels:
            if self._labels[vertex] != label:
                raise GraphError(
                    f"vertex {vertex!r} already has label "
                    f"{self._labels[vertex]!r}, cannot relabel to {label!r}"
                )
            return
        self._adj[vertex] = set()
        self._labels[vertex] = label
        self._by_label.setdefault(label, set()).add(vertex)
        self._version += 1
        if self._log is not None:
            from ..index.delta import VertexAdded

            self._log.append(
                VertexAdded(version=self._version, vertex=vertex, label=label)
            )

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``.  Idempotent for existing edges."""
        if u == v:
            raise SelfLoopError(u)
        if u not in self._adj:
            raise VertexNotFoundError(u)
        if v not in self._adj:
            raise VertexNotFoundError(v)
        if v in self._adj[u]:
            return
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._version += 1
        if self._log is not None:
            from ..index.delta import EdgeAdded

            self._log.append(
                EdgeAdded(
                    version=self._version,
                    u=u,
                    v=v,
                    label_u=self._labels[u],
                    label_v=self._labels[v],
                )
            )

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._version += 1
        if self._log is not None:
            from ..index.delta import EdgeRemoved

            self._log.append(
                EdgeRemoved(
                    version=self._version,
                    u=u,
                    v=v,
                    label_u=self._labels[u],
                    label_v=self._labels[v],
                )
            )

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all its incident edges."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        for neighbor in list(self._adj[vertex]):
            self.remove_edge(vertex, neighbor)
        label = self._labels.pop(vertex)
        self._by_label[label].discard(vertex)
        if not self._by_label[label]:
            del self._by_label[label]
        del self._adj[vertex]
        self._version += 1
        if self._log is not None:
            from ..index.delta import VertexRemoved

            self._log.append(
                VertexRemoved(version=self._version, vertex=vertex, label=label)
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> List[Vertex]:
        """All vertex ids in a deterministic (sorted-by-repr) order.

        The sorted order is cached against the mutation version (``repr``
        sorting is a hot cost for pattern-sized graphs churned by the
        miner); a fresh copy is returned so callers may mutate it.
        """
        cached = self._vertices_cache
        if cached is None or cached[0] != self._version:
            cached = (self._version, sorted(self._adj, key=repr))
            self._vertices_cache = cached
        return list(cached[1])

    def edges(self) -> List[Edge]:
        """All edges, each once, in canonical form and deterministic order.

        Cached against the mutation version, like :meth:`vertices`.
        """
        cached = self._edges_cache
        if cached is None or cached[0] != self._version:
            seen = set()
            for u in self._adj:
                for v in self._adj[u]:
                    seen.add(normalize_edge(u, v))
            cached = (self._version, sorted(seen, key=repr))
            self._edges_cache = cached
        return list(cached[1])

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """The (live) neighbor set of ``vertex``; do not mutate it."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return self._adj[vertex]

    def degree(self, vertex: Vertex) -> int:
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return len(self._adj[vertex])

    def label_of(self, vertex: Vertex) -> Label:
        if vertex not in self._labels:
            raise VertexNotFoundError(vertex)
        return self._labels[vertex]

    def labels(self) -> Dict[Vertex, Label]:
        """A copy of the vertex -> label map."""
        return dict(self._labels)

    def label_alphabet(self) -> List[Label]:
        """Distinct labels present, deterministically ordered."""
        return sorted(self._by_label, key=repr)

    def vertices_with_label(self, label: Label) -> Set[Vertex]:
        """Vertices carrying ``label`` (empty set when the label is absent)."""
        return set(self._by_label.get(label, ()))

    def label_histogram(self) -> Dict[Label, int]:
        """Number of vertices per label."""
        return {label: len(vs) for label, vs in self._by_label.items()}

    def neighbors_with_label(self, vertex: Vertex, label: Label) -> Set[Vertex]:
        """Neighbors of ``vertex`` that carry ``label``.

        Intersects from the smaller side: a hub vertex with a rare label
        filter scans the label class, not the whole adjacency set.
        Indexed callers should prefer
        :meth:`repro.index.graph_index.GraphIndex.neighbors_with_label`,
        whose per-label lists are pre-sorted in canonical order.
        """
        adjacency = self._adj.get(vertex)
        if adjacency is None:
            raise VertexNotFoundError(vertex)
        labeled = self._by_label.get(label)
        if labeled is None:
            return set()
        if len(labeled) < len(adjacency):
            return labeled & adjacency
        labels = self._labels
        return {w for w in adjacency if labels[w] == label}

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[Vertex]) -> "LabeledGraph":
        """The vertex-induced subgraph on ``vertices``."""
        keep = set(vertices)
        for vertex in keep:
            if vertex not in self._adj:
                raise VertexNotFoundError(vertex)
        sub = LabeledGraph(name=f"{self.name}[induced]" if self.name else "")
        for vertex in keep:
            sub.add_vertex(vertex, self._labels[vertex])
        for vertex in keep:
            for neighbor in self._adj[vertex]:
                if neighbor in keep:
                    sub.add_edge(vertex, neighbor)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "LabeledGraph":
        """The subgraph made of exactly ``edges`` and their endpoints."""
        sub = LabeledGraph(name=f"{self.name}[edges]" if self.name else "")
        for u, v in edges:
            if not self.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
            sub.add_vertex(u, self._labels[u])
            sub.add_vertex(v, self._labels[v])
            sub.add_edge(u, v)
        return sub

    def copy(self) -> "LabeledGraph":
        """An independent deep copy of this graph."""
        clone = LabeledGraph(name=self.name)
        for vertex, label in self._labels.items():
            clone.add_vertex(vertex, label)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    def relabeled(self, mapping: Dict[Vertex, Vertex]) -> "LabeledGraph":
        """A copy with vertex ids renamed through ``mapping`` (must be injective)."""
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabeling map is not injective")
        clone = LabeledGraph(name=self.name)
        for vertex, label in self._labels.items():
            clone.add_vertex(mapping.get(vertex, vertex), label)
        for u, v in self.edges():
            clone.add_edge(mapping.get(u, u), mapping.get(v, v))
        return clone

    def connected_components(self) -> List[Set[Vertex]]:
        """Connected components as vertex sets, deterministically ordered."""
        seen: Set[Vertex] = set()
        components: List[Set[Vertex]] = []
        for start in self.vertices():
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                vertex = stack.pop()
                for neighbor in self._adj[vertex]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            seen |= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True when the graph is non-empty and has one component."""
        if not self._adj:
            return False
        return len(self.connected_components()) == 1

    def degree_sequence(self) -> List[int]:
        """Sorted non-increasing degree sequence."""
        return sorted((len(nbrs) for nbrs in self._adj.values()), reverse=True)

    def is_subgraph_of(self, other: "LabeledGraph") -> bool:
        """True when this graph is literally contained in ``other``

        (same vertex ids, same labels, edge subset) — Definition 2.1.2.
        """
        for vertex, label in self._labels.items():
            if not other.has_vertex(vertex) or other.label_of(vertex) != label:
                return False
        return all(other.has_edge(u, v) for u, v in self.edges())

    # ------------------------------------------------------------------
    # acceleration-index hooks (see repro.index.graph_index)
    # ------------------------------------------------------------------
    def mutation_version(self) -> int:
        """Monotone counter bumped on every structural mutation.

        The acceleration index snapshots this value at build time and uses
        it to detect staleness, so cached indexes never serve a mutated
        graph.
        """
        return self._version

    def cached_index(self) -> Optional[object]:
        """The index cached by :func:`repro.index.get_index` (opaque here)."""
        return self._index

    def cache_index(self, index: Optional[object]) -> None:
        """Attach (or clear, with ``None``) the cached acceleration index."""
        self._index = index

    # ------------------------------------------------------------------
    # delta log (see repro.index.delta)
    # ------------------------------------------------------------------
    def cursor(self, version: Optional[int] = None):
        """Open a :class:`~repro.index.delta.DeltaCursor` on this graph's log.

        While any cursor is open, each structural mutation
        (``add_vertex`` / ``add_edge`` / ``remove_edge`` /
        ``remove_vertex``) that changes the graph appends exactly one
        typed delta from :mod:`repro.index.delta`, carrying the
        post-mutation :meth:`mutation_version`, to the graph's one
        :class:`~repro.index.delta.DeltaLog`; idempotent no-ops (re-adding
        a vertex or edge) append nothing.  ``version`` is the version the
        reader is synced to (default: now); the cursor's first read is a
        gap when the log never held the deltas after it.
        """
        log = self._log
        if log is None:
            from ..index.delta import DeltaLog

            size = len(self._adj) + self._num_edges
            log = self._log = DeltaLog(self._version, size)
        return log.open(self, self._version if version is None else version)

    def delta_log(self) -> Optional[object]:
        """The log the mutators append to (opaque here), or ``None``.

        ``None`` exactly while no cursor is open on a live graph.
        """
        return self._log

    def set_delta_log(self, log: Optional[object]) -> None:
        """Install (or clear, with ``None``) the log the mutators append to."""
        self._log = log

    def __getstate__(self):
        # Cached indexes and delta logs are per-process state; drop them
        # so pickles stay small (process-pool workers rebuild on first
        # use, and a cursor in another process would go stale).
        return {
            "_adj": self._adj,
            "_labels": self._labels,
            "_by_label": self._by_label,
            "_num_edges": self._num_edges,
            "_version": self._version,
            "name": self.name,
        }

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._index = None
        self._log = None
        self._vertices_cache = None
        self._edges_cache = None

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertices())

    def __eq__(self, other: object) -> bool:
        """Structural equality on the same vertex ids (not isomorphism)."""
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self._labels == other._labels
            and self._num_edges == other._num_edges
            and all(self._adj[v] == other._adj[v] for v in self._adj)
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("LabeledGraph is mutable and unhashable; use signature()")

    def signature(self) -> Tuple[FrozenSet[Tuple[Vertex, Label]], FrozenSet[Edge]]:
        """A hashable structural snapshot (vertex/label pairs + edge set)."""
        return (
            frozenset(self._labels.items()),
            frozenset(normalize_edge(u, v) for u, v in self.edges()),
        )

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (
            f"<LabeledGraph{name} |V|={self.num_vertices} "
            f"|E|={self.num_edges} labels={len(self._by_label)}>"
        )
