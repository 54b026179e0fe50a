"""Backtracking (sub)graph-isomorphism engine.

This is the matcher behind every occurrence enumeration in the library
(Definitions 2.1.5–2.1.9) and behind the anchored probes of
:mod:`repro.isomorphism.anchored`.  It is a VF2-flavored depth-first
search with:

* a static matching order that starts from the rarest-label pattern node and
  grows along pattern connectivity (so partial maps are always connected when
  the pattern is connected);
* label and degree feasibility filters;
* full adjacency consistency checks against already-mapped nodes.

There is one plan, one int-id kernel and one brute-force reference:

* :class:`_Plan` — the static search plan over interned ids.  Anchored
  pattern nodes (none for plain enumeration) take depths ``0..k-1``,
  followed by the rest of the matching order, so every mapped-neighbor
  reference is a plain depth.  The plan also owns the per-depth memos
  of requirement verdicts, so they survive a burst of anchored probes.
* :func:`_search` — the int-id kernel, used whenever a
  :class:`~repro.index.GraphIndex` is available (the default — see the
  ``index`` parameter).  It extends pre-filled anchor images over
  pre-sorted inverted lists and per-vertex label-filtered CSR segments,
  intersects the segments of *all* mapped pattern neighbors, and drops
  candidates whose neighbor-label signature cannot host the pattern
  node (a data vertex must carry, per label, at least as many neighbors
  as the pattern node requires).  Each complete assignment is decoded
  to ``(node, vertex)`` items over the nodes the caller asks for, and
  an optional leaf-keep predicate can reject it.
* :func:`_extend` — the brute-force reference, a lazy generator over
  the data graph's adjacency sets, serving ``index=False`` and induced
  matching.

Both explore candidates in the same canonical order and the kernel's
extra filters only cut subtrees that cannot complete, so indexed and
brute-force enumeration yield byte-identical occurrence sequences
(asserted by ``tests/test_index_equivalence.py``).

Entry points:

* :func:`find_subgraph_isomorphisms` — injective label/edge-preserving maps
  from a pattern into a data graph (the paper's *occurrences*);
* :func:`collect_subgraph_isomorphism_items` — the same occurrences as
  sorted item tuples, the form occurrence objects are built from;
* :func:`find_isomorphisms` — bijections between two graphs (used for
  automorphism groups and instance-level isomorphism tests).
"""

from __future__ import annotations

from itertools import islice
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graph.labeled_graph import Label, LabeledGraph, Vertex
from ..graph.pattern import Pattern
from ..index.graph_index import GraphIndex, IndexArg, resolve_index
from ..obs import metrics as _metrics

Mapping = Dict[Vertex, Vertex]
#: One occurrence as ``(node, vertex)`` pairs in ``repr`` order of the nodes.
Items = Tuple[Tuple[Vertex, Vertex], ...]


def _matching_order(
    pattern: Pattern, data: Optional[LabeledGraph], start: Sequence[Vertex] = ()
) -> List[Vertex]:
    """A static node order: rarest label first, then connectivity-first growth.

    ``start`` pins a prefix (an anchored plan's anchor nodes), so the
    growth continues from it and every later node of a connected pattern
    has a mapped neighbor.  When the pattern is disconnected the order
    simply chains components.
    """
    graph = pattern.graph
    if data is not None:
        histogram = data.label_histogram()
        rarity = {
            node: histogram.get(graph.label_of(node), 0) for node in graph.vertices()
        }
    else:
        rarity = {node: 0 for node in graph.vertices()}

    order: List[Vertex] = list(start)
    ordered: Set[Vertex] = set(order)
    remaining: Set[Vertex] = set(graph.vertices()) - ordered
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

    Pattern neighbors with one label must map injectively into same-label
    data neighbors, so a data vertex whose neighbor-label counts do not
    cover the requirement can never host the node.
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


class _Plan:
    """Static search plan over interned ids for one (pattern, index, anchors).

    ``order`` puts the ``k`` anchored pattern nodes first, then the rest
    of the matching order in its own relative order; ``depth_of`` inverts
    it.  Per depth the plan holds the pattern node's interned label, the
    depths of its already-mapped pattern neighbors (``prior``), its
    degree, and its neighbor-label signature requirement as
    ``(lint, count)`` pairs.
    Below ``k`` the requirement is the kernel's anchor check; from ``k``
    on it is ``None`` once every pattern neighbor is mapped, since
    adjacency to each mapped image then implies it.

    Requirement verdicts depend only on (depth, vint), so ``memo`` keeps
    them per depth (0 = unknown, 1 = pass, 2 = fail) for the plan's
    lifetime.  ``empty`` is set when some pattern label has no live data
    vertex — every search over the plan then has no results.
    """

    __slots__ = (
        "order",
        "depth_of",
        "k",
        "lints",
        "prior",
        "min_deg",
        "reqs",
        "memo",
        "empty",
    )

    def __init__(
        self,
        pattern: Pattern,
        ci: GraphIndex,
        order: List[Vertex],
        anchor_nodes: Tuple[Vertex, ...] = (),
    ) -> None:
        pattern_graph = pattern.graph
        lint_of = ci.table._lint_of
        inv = ci._inv
        order = list(anchor_nodes) + [n for n in order if n not in anchor_nodes]
        self.order = order
        self.depth_of = depth_of = {node: depth for depth, node in enumerate(order)}
        self.k = k = len(anchor_nodes)
        self.empty = False
        lints: List[int] = []
        for node in order:
            li = lint_of.get(pattern_graph.label_of(node))
            if li is None or li not in inv:
                self.empty = True
            lints.append(-1 if li is None else li)
        self.lints = lints
        self.prior: List[tuple] = []
        self.min_deg: List[int] = []
        self.reqs: List[Optional[tuple]] = []
        self.memo: List[Optional[bytearray]] = []
        if self.empty:
            return
        requirements = _node_requirements(pattern)
        for depth, node in enumerate(order):
            neighbors = pattern_graph.neighbors(node)
            prior = tuple(depth_of[n] for n in neighbors if depth_of[n] < depth)
            self.prior.append(prior)
            self.min_deg.append(len(neighbors))
            if depth < k or len(prior) < len(neighbors):
                # Requirement labels all label order nodes, so their
                # lints exist when the plan is non-empty.
                self.reqs.append(
                    tuple(
                        (lint_of[label], count)
                        for label, count in requirements[node].items()
                    )
                )
            else:
                self.reqs.append(None)
        size = len(ci.table.vertex_of)
        self.memo = [None if req is None else bytearray(size) for req in self.reqs]


class _PlanCache:
    """One pattern's anchored plans over one maintained index, kept across patches.

    A caller that searches the same pattern again and again over an
    index that is patched in place between searches (a maintained
    occurrence set) keeps its plans here, keyed by the anchor-node
    tuple, under these rules:

    * the plans belong to one index object: a rebuilt index (a new
      object, with a new intern table) drops them all (a caller that
      lost track of the patches starts a new cache);
    * a requirement verdict depends only on the vertex's degree and
      neighbor-label signature, which a patch changes only at the
      vertices it touches (the endpoints of an added or removed edge, an
      added or removed vertex), so :meth:`touch` resets exactly those
      memo entries, at every depth;
    * vertices the patches intern grow the memos and the ``used``
      scratch buffer with zeroed (unknown) entries;
    * a plan built empty (some pattern label had no live data vertex) is
      rebuilt at its next use, and a plan one of whose labels has since
      lost its last vertex answers nothing.
    """

    __slots__ = ("pattern", "index", "plans", "scratch")

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.index: Optional[GraphIndex] = None
        self.plans: Dict[Tuple[Vertex, ...], _Plan] = {}
        self.scratch = bytearray()

    def touch(self, ci: GraphIndex, vertices: Iterable[Vertex]) -> None:
        """Forget the requirement verdicts of ``vertices``: a patch moved them."""
        if ci is not self.index:
            return  # the plans go at the next search anyway
        vint_of = ci.table._vint_of
        vints = [vint_of[v] for v in vertices if v in vint_of]
        for plan in self.plans.values():
            for memo in plan.memo:
                if memo is None:
                    continue
                size = len(memo)
                for vi in vints:
                    if vi < size:
                        memo[vi] = 0

    def search(
        self,
        ci: GraphIndex,
        data: LabeledGraph,
        anchors: Tuple[Vertex, ...],
        anchor_vints: Sequence[int],
        nodes: Sequence[Vertex],
    ) -> List[Items]:
        """Every occurrence mapping ``anchors`` onto ``anchor_vints``, as items.

        The anchor images must be distinct, label-matched, and adjacent
        wherever their pattern nodes are (the kernel checks adjacency only
        from the first non-anchor depth on).  Items are decoded over
        ``nodes``.
        """
        if ci is not self.index:
            self.index = ci
            self.plans = {}
        plan = self.plans.get(anchors)
        if plan is None or plan.empty:
            order = _matching_order(self.pattern, data, anchors)
            plan = self.plans[anchors] = _Plan(self.pattern, ci, order, anchors)
            if plan.empty:
                return []
        inv = ci._inv
        if any(li not in inv for li in plan.lints):
            return []
        size = len(ci.table.vertex_of)
        for memo in plan.memo:
            if memo is not None and len(memo) < size:
                memo.extend(bytes(size - len(memo)))
        if len(self.scratch) < size:
            self.scratch.extend(bytes(size - len(self.scratch)))
        images = [0] * len(plan.order)
        images[: plan.k] = anchor_vints
        return _search(ci, plan, images, self.scratch, None, nodes)


def _search(
    ci: GraphIndex,
    plan: _Plan,
    images: List[int],
    used: bytearray,
    limit: Optional[int],
    nodes: Sequence[Vertex] = (),
    make: Callable = tuple,
    keep: Optional[Callable] = None,
) -> list:
    """The int-id kernel: extend ``images[:plan.k]`` to complete assignments.

    ``images`` holds one vint per plan depth, the first ``plan.k``
    pre-filled with label-matched, distinct anchor images.  The anchor
    check runs first: an anchor whose degree or neighbor-label signature
    cannot host its pattern node has no extension.  ``used`` is a zeroed
    bytearray over the index's vints and is zeroed again on return, so
    callers may reuse it.  Each complete assignment is decoded as
    ``make`` over the ``(node, vertex)`` pairs of ``nodes`` — pattern
    nodes in the order the caller wants them, or none when only the
    count matters: ``tuple`` gives item tuples, ``dict`` mappings.
    Leaves failing the leaf-keep predicate ``keep`` are dropped; the
    search stops after ``limit`` kept ones.  The plan must not be empty.

    The recursion inlines the CSR directory scans (segment lookup and
    signature-requirement counting) rather than calling the index
    helpers — this loop runs once per candidate expansion and the call
    overhead dominated otherwise.  Two prunes are byte-identity-safe
    (monotone filters only shrink doomed subtrees): when every pattern
    neighbor is already mapped the degree and requirement checks are
    implied by segment membership and are skipped, and requirement
    verdicts are memoized on the plan.
    """
    depth_count = len(plan.order)
    deg = ci._deg
    rows = ci._rows
    inv = ci._inv
    seg_set = ci._segment_set
    lints = plan.lints
    priors = plan.prior
    min_degrees = plan.min_deg
    requirement_items = plan.reqs
    req_memo = plan.memo
    if nodes:
        # Anchored probes decode nothing, and a lazy-MNI burst runs
        # thousands of them, so they skip this set-up.
        decode = ci.table.vertex_of.__getitem__
        image_at = images.__getitem__
        positions = tuple(map(plan.depth_of.__getitem__, nodes))
    results: list = []

    def rec(depth: int) -> bool:
        """Explore one depth; False aborts the whole search (limit hit)."""
        if depth == depth_count:
            leaf = ()
            if nodes:
                leaf = make(zip(nodes, map(decode, map(image_at, positions))))
            if keep is not None and not keep(leaf):
                return True
            results.append(leaf)
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
                # ties); the rest probe as memoized frozensets.  Every
                # segment is in canonical order, so which one is iterated
                # never changes the candidate order.
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

    k = plan.k
    seg_len = ci._segment_len
    for depth in range(k):
        w = images[depth]
        memo = req_memo[depth]
        if memo[w] == 0:
            ok = deg[w] >= min_degrees[depth]
            for req_li, count in requirement_items[depth]:
                ok = ok and seg_len(w, req_li) >= count
            memo[w] = 1 if ok else 2
        if memo[w] == 2:
            return results
    for w in images[:k]:
        used[w] = 1
    try:
        rec(k)
    finally:
        for w in images[:k]:
            used[w] = 0
    return results


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


def _extend(
    pattern: Pattern,
    data: LabeledGraph,
    order: List[Vertex],
    anchors: Mapping,
    induced: bool,
) -> Iterator[Mapping]:
    """The brute-force reference: occurrences extending ``anchors``, lazily.

    ``anchors`` is a validated partial assignment (empty for plain
    enumeration); the other pattern nodes are assigned in ``order``.
    Each occurrence is a fresh dict holding the anchors first.  The
    generator stays lazy so that callers can stop at the first hit.
    """
    mapping: Mapping = dict(anchors)
    used: Set[Vertex] = set(mapping.values())
    free = [node for node in order if node not in mapping]
    depth_count = len(free)

    def backtrack(depth: int) -> Iterator[Mapping]:
        if depth == depth_count:
            yield dict(mapping)
            return
        node = free[depth]
        for vertex in _candidate_data_vertices(pattern, data, node, mapping):
            if not _is_feasible(pattern, data, node, vertex, mapping, used, induced):
                continue
            mapping[node] = vertex
            used.add(vertex)
            yield from backtrack(depth + 1)
            del mapping[node]
            used.discard(vertex)

    return backtrack(0)


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
        reference, since the kernel does not check non-edges.  On the
        index the search runs to ``limit`` before the first yield; the
        brute-force reference is lazy.

    Yields
    ------
    dict mapping pattern node -> data vertex, a fresh dict per occurrence,
    keyed in matching order.
    """
    _metrics.counter("repro_match_vf2_calls").inc()
    if pattern.num_nodes > data.num_vertices or (limit is not None and limit <= 0):
        return
    order = _matching_order(pattern, data)
    resolved = None if induced else resolve_index(data, index)
    if resolved is None:
        yield from islice(_extend(pattern, data, order, {}, induced), limit)
        return
    plan = _Plan(pattern, resolved, order)
    if plan.empty:
        return
    used = bytearray(len(resolved.table.vertex_of))
    yield from _search(resolved, plan, [0] * len(order), used, limit, order, dict)


def _collect_items(
    pattern: Pattern,
    data: LabeledGraph,
    limit: Optional[int],
    index: IndexArg,
    keep: Optional[Callable[[Items], bool]] = None,
) -> List[Items]:
    """Occurrences as sorted item tuples, filtered by ``keep`` at each leaf.

    ``limit`` counts *kept* occurrences, so a filtered search stops as
    soon as enough of them are confirmed instead of materializing every
    occurrence first.
    """
    _metrics.counter("repro_match_vf2_calls").inc()
    if pattern.num_nodes > data.num_vertices or (limit is not None and limit <= 0):
        return []
    order = _matching_order(pattern, data)
    item_nodes = sorted(order, key=repr)
    resolved = resolve_index(data, index)
    if resolved is None:
        found: Iterable[Items] = (
            tuple([(node, mapping[node]) for node in item_nodes])
            for mapping in _extend(pattern, data, order, {}, False)
        )
        if keep is not None:
            found = filter(keep, found)
        return list(islice(found, limit))
    plan = _Plan(pattern, resolved, order)
    if plan.empty:
        return []
    used = bytearray(len(resolved.table.vertex_of))
    images = [0] * len(order)
    return _search(resolved, plan, images, used, limit, item_nodes, tuple, keep)


def collect_subgraph_isomorphism_items(
    pattern: Pattern,
    data: LabeledGraph,
    limit: Optional[int] = None,
    index: IndexArg = None,
) -> List[Items]:
    """All (non-induced) occurrences as sorted ``(node, vertex)`` item tuples.

    The same occurrences in the same order as
    :func:`find_subgraph_isomorphisms`, collected into a list.  Items come
    back pre-sorted in the canonical ``repr`` node order — exactly what
    :meth:`Occurrence.from_mapping` would produce — so occurrence
    construction skips its per-occurrence sort.
    """
    return _collect_items(pattern, data, limit, index)


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
