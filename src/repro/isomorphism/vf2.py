"""Backtracking (sub)graph-isomorphism engine.

This is the matcher behind every occurrence enumeration in the library
(Definitions 2.1.5–2.1.9).  It is a VF2-flavored depth-first search with:

* a static matching order that starts from the rarest-label pattern node and
  grows along pattern connectivity (so partial maps are always connected when
  the pattern is connected);
* label and degree feasibility filters;
* full adjacency consistency checks against already-mapped nodes.

When a :class:`~repro.index.GraphIndex` is available (the default — see the
``index`` parameter) the search runs over the index's interned ids and
additionally uses:

* pre-sorted inverted lists and per-vertex label-filtered CSR segments
  for candidate domains (no per-call set copies or ``repr`` sorts);
* intersection over *all* mapped pattern neighbors, anchored at the one
  with the smallest compatible adjacency segment;
* neighbor-label signature dominance filtering (a data vertex must carry,
  per label, at least as many neighbors as the pattern node requires).

With ``index=False`` (and for induced matching) the brute-force reference
engine runs instead.  Both explore candidates in the same canonical order
and the extra filters only cut subtrees that cannot complete, so indexed
and brute-force enumeration yield byte-identical occurrence sequences
(asserted by ``tests/test_index_equivalence.py``).

Two entry points:

* :func:`find_subgraph_isomorphisms` — injective label/edge-preserving maps
  from a pattern into a data graph (the paper's *occurrences*);
* :func:`find_isomorphisms` — bijections between two graphs (used for
  automorphism groups and instance-level isomorphism tests).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from ..graph.labeled_graph import Label, LabeledGraph, Vertex
from ..graph.pattern import Pattern
from ..index.graph_index import GraphIndex, IndexArg, resolve_index
from ..obs import metrics as _metrics

Mapping = Dict[Vertex, Vertex]


def _matching_order(pattern: Pattern, data: Optional[LabeledGraph]) -> List[Vertex]:
    """A static node order: rarest label first, then connectivity-first growth.

    When the pattern is disconnected the order simply chains components.
    """
    graph = pattern.graph
    if data is not None:
        histogram = data.label_histogram()
        rarity = {
            node: histogram.get(graph.label_of(node), 0) for node in graph.vertices()
        }
    else:
        rarity = {node: 0 for node in graph.vertices()}

    remaining: Set[Vertex] = set(graph.vertices())
    ordered: Set[Vertex] = set()
    order: List[Vertex] = []
    while remaining:
        # Prefer a node adjacent to the already-ordered prefix; tie-break on
        # label rarity in the data graph, then high degree, then repr.
        adjacent = {
            node
            for node in remaining
            if any(nbr in ordered for nbr in graph.neighbors(node))
        }
        pool = adjacent if adjacent else remaining
        chosen = min(
            pool,
            key=lambda node: (rarity[node], -graph.degree(node), repr(node)),
        )
        order.append(chosen)
        ordered.add(chosen)
        remaining.discard(chosen)
    return order


def _node_requirements(pattern: Pattern) -> Dict[Vertex, Dict[Label, int]]:
    """Per pattern node: multiset of its neighbors' labels.

    Used with :meth:`GraphIndex.dominates` — pattern neighbors with one
    label must map injectively into same-label data neighbors, so a data
    vertex whose signature does not dominate the requirement can never
    host the node.
    """
    graph = pattern.graph
    requirements: Dict[Vertex, Dict[Label, int]] = {}
    for node in graph.vertices():
        counts: Dict[Label, int] = {}
        for neighbor in graph.neighbors(node):
            label = graph.label_of(neighbor)
            counts[label] = counts.get(label, 0) + 1
        requirements[node] = counts
    return requirements


class _IndexedPlan:
    """Static search plan over interned ids for one (pattern, data) pair.

    Precomputes, per depth of the matching order: the pattern node's
    interned label, the depths of its already-mapped pattern neighbors,
    its degree requirement, and its neighbor-label signature requirement
    as ``(lint, count)`` pairs.  Shared by the indexed collector and
    generator drivers (and mirrored by the anchored engine) so the
    engines can never diverge on domain computation.

    ``empty`` is set when some pattern label has no live data vertex —
    every domain at that depth would be empty, so the search has no
    results.
    """

    __slots__ = ("order", "lints", "prior", "min_deg", "reqs", "empty")

    def __init__(self, pattern: Pattern, ci: GraphIndex, order: List[Vertex]) -> None:
        pattern_graph = pattern.graph
        lint_of = ci.table._lint_of
        inv = ci._inv
        self.order = order
        self.empty = False
        lints: List[int] = []
        for node in order:
            li = lint_of.get(pattern_graph.label_of(node))
            if li is None or li not in inv:
                self.empty = True
            lints.append(-1 if li is None else li)
        self.lints = lints
        position = {node: depth for depth, node in enumerate(order)}
        self.prior: List[tuple] = []
        self.min_deg: List[int] = []
        self.reqs: List[Optional[tuple]] = []
        if self.empty:
            return
        requirements = _node_requirements(pattern)
        for depth, node in enumerate(order):
            neighbors = pattern_graph.neighbors(node)
            prior = tuple(
                position[n] for n in neighbors if position[n] < depth
            )
            self.prior.append(prior)
            self.min_deg.append(len(neighbors))
            if len(prior) < len(neighbors):
                # Signature requirements only help while some pattern
                # neighbor is still unmapped: once every neighbor is
                # mapped and adjacent, the vertex trivially dominates
                # its requirement.  Requirement labels all label order
                # nodes, so their lints exist when the plan is non-empty.
                self.reqs.append(
                    tuple(
                        (lint_of[label], count)
                        for label, count in requirements[node].items()
                    )
                )
            else:
                self.reqs.append(None)


def _indexed_domain(ci: GraphIndex, plan: _IndexedPlan, depth: int, images):
    """Candidate domain at ``depth``: ``(row, start, stop, other_sets)``.

    The domain is the smallest label-filtered CSR segment among the
    mapped pattern neighbors' images (ties resolved to the earliest
    anchor), with the other anchors' segments returned as membership
    sets; with no anchors it is the inverted list.  Iterating
    ``row[start:stop]`` filtered by ``other_sets`` visits candidates in
    canonical order.  The collector inlines this logic; this helper is
    the readable reference and serves the generator.
    """
    li = plan.lints[depth]
    anchors = plan.prior[depth]
    if not anchors:
        arr = ci._inv[li]
        return arr, 0, len(arr), None
    row, start, stop = ci._segment(images[anchors[0]], li)
    if len(anchors) == 1:
        return row, start, stop, None
    best = anchors[0]
    best_len = stop - start
    for anchor in anchors[1:]:
        other_row, other_start, other_stop = ci._segment(images[anchor], li)
        if other_stop - other_start < best_len:
            row, start, stop = other_row, other_start, other_stop
            best_len = other_stop - other_start
            best = anchor
    other_sets = [
        ci._segment_set(images[anchor], li)
        for anchor in anchors
        if anchor != best
    ]
    return row, start, stop, other_sets


def _collect_items_indexed(
    pattern: Pattern,
    data: LabeledGraph,
    ci: GraphIndex,
    limit: Optional[int],
):
    """Indexed collector engine: int-id search, decoded results.

    The recursion inlines the CSR directory scans (segment lookup and
    signature-requirement counting) rather than calling the index
    helpers — this loop runs once per candidate expansion and the call
    overhead dominated the win otherwise.  Two extra prunes are free
    here and byte-identity-safe (monotone filters only shrink doomed
    subtrees): when every pattern neighbor is already mapped the degree
    and requirement checks are implied by segment membership and are
    skipped, and requirement verdicts are memoized per (depth, vint)
    since they are branch-independent.
    """
    order = _matching_order(pattern, data)
    plan = _IndexedPlan(pattern, ci, order)
    if plan.empty:
        return []
    depth_count = len(order)
    position = {node: depth for depth, node in enumerate(order)}
    item_nodes = sorted(order, key=repr)
    item_pos = [position[node] for node in item_nodes]
    decode = ci.table.vertex_of
    deg = ci._deg
    rows = ci._rows
    inv = ci._inv
    seg_set = ci._segment_set
    lints = plan.lints
    priors = plan.prior
    min_degrees = plan.min_deg
    requirement_items = plan.reqs
    vertex_count = len(decode)
    used = bytearray(vertex_count)
    req_memo = [
        bytearray(vertex_count) if requirement_items[d] is not None else None
        for d in range(depth_count)
    ]
    images = [0] * depth_count
    results: List[tuple] = []

    def rec(depth: int) -> bool:
        if depth == depth_count:
            results.append(
                tuple(zip(item_nodes, [decode[images[p]] for p in item_pos]))
            )
            return limit is None or len(results) < limit
        li = lints[depth]
        anchors = priors[depth]
        others = None
        if not anchors:
            seg = inv[li]
            start = 0
            stop = len(seg)
        else:
            seg = rows[images[anchors[0]]]
            body = 1 + 2 * seg[0]
            cnt = 0
            j = 1
            while j < body:
                gl = seg[j]
                if gl >= li:
                    if gl == li:
                        cnt = seg[j + 1]
                    break
                body += seg[j + 1]
                j += 2
            start = body
            stop = body + cnt
            if len(anchors) > 1:
                # Smallest segment wins (strict <, earliest anchor on
                # ties); the rest probe as memoized frozensets.
                best = 0
                best_len = cnt
                sets = [None] * len(anchors)
                for a in range(1, len(anchors)):
                    members = seg_set(images[anchors[a]], li)
                    sets[a] = members
                    if len(members) < best_len:
                        best = a
                        best_len = len(members)
                if best:
                    seg = rows[images[anchors[best]]]
                    body = 1 + 2 * seg[0]
                    cnt = 0
                    j = 1
                    while j < body:
                        gl = seg[j]
                        if gl >= li:
                            if gl == li:
                                cnt = seg[j + 1]
                            break
                        body += seg[j + 1]
                        j += 2
                    start = body
                    stop = body + cnt
                    sets[best] = None
                    sets[0] = seg_set(images[anchors[0]], li)
                others = [s for s in sets if s is not None]
        requirement = requirement_items[depth]
        if requirement is None:
            # All pattern neighbors mapped: adjacency to each mapped
            # image (segment + set membership) implies the degree bound.
            for i in range(start, stop):
                w = seg[i]
                if used[w]:
                    continue
                if others is not None:
                    ok = True
                    for members in others:
                        if w not in members:
                            ok = False
                            break
                    if not ok:
                        continue
                images[depth] = w
                used[w] = 1
                keep_going = rec(depth + 1)
                used[w] = 0
                if not keep_going:
                    return False
        else:
            memo = req_memo[depth]
            min_degree = min_degrees[depth]
            for i in range(start, stop):
                w = seg[i]
                if used[w] or deg[w] < min_degree:
                    continue
                state = memo[w]
                if state == 2:
                    continue
                if state == 0:
                    wrow = rows[w]
                    dir_end = 1 + 2 * wrow[0]
                    ok = True
                    for req_li, count in requirement:
                        c = 0
                        j = 1
                        while j < dir_end:
                            gl = wrow[j]
                            if gl >= req_li:
                                if gl == req_li:
                                    c = wrow[j + 1]
                                break
                            j += 2
                        if c < count:
                            ok = False
                            break
                    if not ok:
                        memo[w] = 2
                        continue
                    memo[w] = 1
                if others is not None:
                    ok = True
                    for members in others:
                        if w not in members:
                            ok = False
                            break
                    if not ok:
                        continue
                images[depth] = w
                used[w] = 1
                keep_going = rec(depth + 1)
                used[w] = 0
                if not keep_going:
                    return False
        return True

    rec(0)
    return results


def _iter_mappings_indexed(
    pattern: Pattern,
    data: LabeledGraph,
    ci: GraphIndex,
    limit: Optional[int],
) -> Iterator[Mapping]:
    """Indexed generator engine (non-induced matching only).

    Shares the collector's pruning structure: requirement verdicts are
    memoized per (depth, vint), and the degree/requirement checks are
    skipped entirely when every pattern neighbor is already mapped
    (segment membership implies them — monotone filters, so
    byte-identity-safe).
    """
    order = _matching_order(pattern, data)
    plan = _IndexedPlan(pattern, ci, order)
    if plan.empty:
        return
    depth_count = len(order)
    decode = ci.table.vertex_of
    deg = ci._deg
    seg_len = ci._segment_len
    min_degrees = plan.min_deg
    requirement_items = plan.reqs
    vertex_count = len(decode)
    used = bytearray(vertex_count)
    req_memo = [
        bytearray(vertex_count) if requirement_items[d] is not None else None
        for d in range(depth_count)
    ]
    images = [0] * depth_count
    yielded = 0

    def backtrack(depth: int) -> Iterator[Mapping]:
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if depth == depth_count:
            yielded += 1
            yield {
                order[d]: decode[images[d]] for d in range(depth_count)
            }
            return
        row, start, stop, other_sets = _indexed_domain(ci, plan, depth, images)
        requirement = requirement_items[depth]
        min_degree = min_degrees[depth]
        memo = req_memo[depth]
        for i in range(start, stop):
            w = row[i]
            if used[w]:
                continue
            if requirement is not None:
                if deg[w] < min_degree:
                    continue
                state = memo[w]
                if state == 2:
                    continue
                if state == 0:
                    ok = True
                    for req_lint, count in requirement:
                        if seg_len(w, req_lint) < count:
                            ok = False
                            break
                    memo[w] = 1 if ok else 2
                    if not ok:
                        continue
            if other_sets is not None:
                ok = True
                for members in other_sets:
                    if w not in members:
                        ok = False
                        break
                if not ok:
                    continue
            images[depth] = w
            used[w] = 1
            yield from backtrack(depth + 1)
            used[w] = 0
            if limit is not None and yielded >= limit:
                return

    yield from backtrack(0)


def _candidate_data_vertices(
    pattern: Pattern,
    data: LabeledGraph,
    node: Vertex,
    mapping: Mapping,
) -> Iterable[Vertex]:
    """Data vertices that could host ``node`` given the partial ``mapping``.

    If ``node`` has a mapped pattern neighbor, candidates come from that
    neighbor's image's adjacency (cheap); otherwise from the label's
    vertex set.  Either way they are sorted into canonical order.
    """
    label = pattern.label_of(node)
    mapped_neighbors = [n for n in pattern.graph.neighbors(node) if n in mapping]
    if mapped_neighbors:
        anchor = mapping[mapped_neighbors[0]]
        candidates: Set[Vertex] = data.neighbors_with_label(anchor, label)
    else:
        candidates = data.vertices_with_label(label)
    return sorted(candidates, key=repr)


def _is_feasible(
    pattern: Pattern,
    data: LabeledGraph,
    node: Vertex,
    vertex: Vertex,
    mapping: Mapping,
    used: Set[Vertex],
    induced: bool,
) -> bool:
    """Check injectivity, degree, and adjacency consistency for node→vertex."""
    if vertex in used:
        return False
    if data.degree(vertex) < pattern.graph.degree(node):
        return False
    data_neighbors = data.neighbors(vertex)
    for pattern_neighbor in pattern.graph.neighbors(node):
        image = mapping.get(pattern_neighbor)
        if image is not None and image not in data_neighbors:
            return False
    if induced:
        # For induced matching, non-adjacent pattern nodes must map to
        # non-adjacent data vertices.
        for other_node, other_vertex in mapping.items():
            if other_node in pattern.graph.neighbors(node):
                continue
            if other_vertex in data_neighbors:
                return False
    return True


def find_subgraph_isomorphisms(
    pattern: Pattern,
    data: LabeledGraph,
    induced: bool = False,
    limit: Optional[int] = None,
    index: IndexArg = None,
) -> Iterator[Mapping]:
    """Yield every occurrence of ``pattern`` in ``data``.

    An occurrence is an injective map ``f: V_P -> V_G`` that preserves labels
    and edges (Def. 2.1.8).  With ``induced=True`` non-edges must also be
    preserved (rarely needed; the paper uses non-induced semantics).

    Parameters
    ----------
    limit:
        Stop after yielding this many occurrences (None = unlimited).
    index:
        ``None`` (default) uses the data graph's cached
        :class:`~repro.index.GraphIndex` (built on first use); ``False``
        forces the brute-force reference path; a ``GraphIndex`` instance
        is used when it is current for this data graph, and silently
        replaced by a fresh cached index otherwise (staleness safety
        net).  All modes yield identical occurrence sequences.  Induced
        matching ignores the index and always runs the brute-force
        engine.

    Yields
    ------
    dict mapping pattern node -> data vertex, a fresh dict per occurrence.
    """
    _metrics.counter("repro_match_vf2_calls").inc()
    if pattern.num_nodes > data.num_vertices:
        return
    if not induced:
        resolved = resolve_index(data, index)
        if resolved is not None:
            yield from _iter_mappings_indexed(pattern, data, resolved, limit)
            return
    # The brute-force reference engine; induced matching always runs
    # here, since the int-id engine does not check non-edges.
    order = _matching_order(pattern, data)
    mapping: Mapping = {}
    used: Set[Vertex] = set()
    yielded = 0

    def backtrack(depth: int) -> Iterator[Mapping]:
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if depth == len(order):
            yielded += 1
            yield dict(mapping)
            return
        node = order[depth]
        for vertex in _candidate_data_vertices(pattern, data, node, mapping):
            if not _is_feasible(pattern, data, node, vertex, mapping, used, induced):
                continue
            mapping[node] = vertex
            used.add(vertex)
            yield from backtrack(depth + 1)
            del mapping[node]
            used.discard(vertex)
            if limit is not None and yielded >= limit:
                return

    yield from backtrack(0)


def collect_subgraph_isomorphism_items(
    pattern: Pattern,
    data: LabeledGraph,
    limit: Optional[int] = None,
    index: IndexArg = None,
):
    """All (non-induced) occurrences as sorted ``(node, vertex)`` item tuples.

    This is the hot-path twin of :func:`find_subgraph_isomorphisms`: the
    same search in the same exploration order, but collecting into a list
    with per-depth static precomputation (anchor neighbors, prior-neighbor
    adjacency checks, degree requirements, and on the indexed engine
    signature requirements) instead of resuming a generator chain per
    node.  Items come back pre-sorted in the canonical ``repr`` node
    order — exactly what :meth:`Occurrence.from_mapping` would produce —
    so occurrence construction skips its per-occurrence sort.

    The equivalence suite pins this against the generator engine in both
    indexed and brute modes.
    """
    _metrics.counter("repro_match_vf2_calls").inc()
    if pattern.num_nodes > data.num_vertices:
        return []
    if limit is not None and limit <= 0:
        return []  # mirror the generator engine: limit=0 yields nothing
    resolved = resolve_index(data, index)
    if resolved is not None:
        return _collect_items_indexed(pattern, data, resolved, limit)
    order = _matching_order(pattern, data)
    pattern_graph = pattern.graph

    depth_count = len(order)
    position = {node: depth for depth, node in enumerate(order)}
    item_nodes = sorted(order, key=repr)
    labels = [pattern_graph.label_of(node) for node in order]
    # Static per-depth structure: pattern neighbors mapped before this
    # depth (the only ones adjacency checks can bind against), and the
    # degree each candidate must meet.
    prior_neighbors: List[List[Vertex]] = []
    min_degrees: List[int] = []
    for depth, node in enumerate(order):
        neighbors = pattern_graph.neighbors(node)
        prior_neighbors.append([n for n in neighbors if position[n] < depth])
        min_degrees.append(len(neighbors))

    degree = data.degree
    data_neighbors = data.neighbors
    results: List[tuple] = []
    mapping: Mapping = {}
    used: Set[Vertex] = set()
    image_of = mapping.__getitem__

    def rec(depth: int) -> bool:
        """Explore one depth; False aborts the whole search (limit hit)."""
        if depth == depth_count:
            results.append(tuple(zip(item_nodes, map(image_of, item_nodes))))
            return limit is None or len(results) < limit
        node = order[depth]
        label = labels[depth]
        anchors = prior_neighbors[depth]
        if anchors:
            pool = data.neighbors_with_label(mapping[anchors[0]], label)
        else:
            pool = data.vertices_with_label(label)
        min_degree = min_degrees[depth]
        # Candidates come from the first anchor's adjacency; the other
        # anchors are checked per candidate.
        check_neighbors = anchors[1:]
        for vertex in sorted(pool, key=repr):
            if vertex in used:
                continue
            if degree(vertex) < min_degree:
                continue
            if check_neighbors:
                nbrs = data_neighbors(vertex)
                ok = True
                for prior in check_neighbors:
                    if mapping[prior] not in nbrs:
                        ok = False
                        break
                if not ok:
                    continue
            mapping[node] = vertex
            used.add(vertex)
            keep_going = rec(depth + 1)
            del mapping[node]
            used.discard(vertex)
            if not keep_going:
                return False
        return True

    rec(0)
    return results


def count_subgraph_isomorphisms(
    pattern: Pattern, data: LabeledGraph, index: IndexArg = None
) -> int:
    """The number of occurrences of ``pattern`` in ``data``."""
    return sum(1 for _ in find_subgraph_isomorphisms(pattern, data, index=index))


def has_subgraph_isomorphism(
    pattern: Pattern, data: LabeledGraph, index: IndexArg = None
) -> bool:
    """True when ``pattern`` occurs at least once in ``data``."""
    return (
        next(find_subgraph_isomorphisms(pattern, data, limit=1, index=index), None)
        is not None
    )


def find_isomorphisms(
    first: LabeledGraph, second: LabeledGraph, limit: Optional[int] = None
) -> Iterator[Mapping]:
    """Yield every isomorphism between two graphs (Def. 2.1.5).

    An isomorphism must be a bijection that preserves labels, edges, and
    non-edges; this is subgraph isomorphism plus equal sizes plus induced
    matching.  Isomorphism checks are mostly run on tiny pattern-sized
    graphs, so the brute-force path is used (no index build).
    """
    if first.num_vertices != second.num_vertices:
        return
    if first.num_edges != second.num_edges:
        return
    if first.label_histogram() != second.label_histogram():
        return
    if first.degree_sequence() != second.degree_sequence():
        return
    yield from find_subgraph_isomorphisms(
        Pattern(first), second, induced=True, limit=limit, index=False
    )


def are_isomorphic(first: LabeledGraph, second: LabeledGraph) -> bool:
    """True when the two labeled graphs are isomorphic."""
    return next(find_isomorphisms(first, second, limit=1), None) is not None
