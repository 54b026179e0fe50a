"""Anchored subgraph-isomorphism queries.

The lazy MNI evaluation strategy (GraMi, Elseidy et al. — the paper's
reference [4]) never enumerates all occurrences.  Instead it asks, per
pattern node ``v`` and data vertex ``u``: *does any occurrence map v to
u?*  Each such question is a subgraph-isomorphism search with one
assignment pinned in advance, which this module provides.

The search fixes the anchor before exploring and stops at the first
witness.  With an index (the default) candidate vertices for anchoring
come straight off the index's interned inverted lists, and every inner
anchored search runs over interned ids with label-filtered CSR segments
and signature filtering; with ``index=False`` the VF2 engine's brute-force
candidate and feasibility logic runs instead, in the same canonical order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..graph.labeled_graph import LabeledGraph, Vertex
from ..index.graph_index import GraphIndex, IndexArg, resolve_index
from ..obs import metrics as _metrics
from .vf2 import (
    Mapping,
    _candidate_data_vertices,
    _is_feasible,
    _matching_order,
    _node_requirements,
)
from ..graph.pattern import Pattern


class _AnchoredPlan:
    """Static int-id probe plan for one set of anchored pattern nodes.

    Mirrors :class:`repro.isomorphism.vf2._IndexedPlan`, except that the
    mapped pattern neighbors at each depth may also be anchors: prior
    references ``>= 0`` index the sub-order depth, references ``< 0``
    index the anchor tuple as ``-(i + 1)``.  Anchor images vary per
    probe, so the plan is cached per anchor *key set* and the vints are
    supplied at probe time.
    """

    __slots__ = (
        "anchor_nodes",
        "suborder",
        "lints",
        "prior",
        "min_deg",
        "reqs",
        "anchor_reqs",
        "empty",
        "req_memo",
        "anchor_req_memo",
    )

    def __init__(
        self,
        pattern: Pattern,
        ci: GraphIndex,
        order: List[Vertex],
        anchor_nodes: Tuple[Vertex, ...],
    ) -> None:
        pattern_graph = pattern.graph
        lint_of = ci.table._lint_of
        inv = ci._inv
        self.anchor_nodes = anchor_nodes
        anchor_index = {node: i for i, node in enumerate(anchor_nodes)}
        suborder = [node for node in order if node not in anchor_index]
        self.suborder = suborder
        self.empty = False
        lints: List[int] = []
        for node in suborder:
            li = lint_of.get(pattern_graph.label_of(node))
            if li is None or li not in inv:
                self.empty = True
            lints.append(-1 if li is None else li)
        self.lints = lints
        self.prior: List[tuple] = []
        self.min_deg: List[int] = []
        self.reqs: List[Optional[tuple]] = []
        self.anchor_reqs: List[tuple] = []
        # Requirement verdicts are branch- and probe-independent, so the
        # memo tables live on the plan and survive whole probe bursts
        # (lazy MNI asks about thousands of candidates per node).
        # 0 = unknown, 1 = pass, 2 = fail, indexed by vint.
        vertex_count = len(ci.table.vertex_of)
        self.anchor_req_memo = [bytearray(vertex_count) for _ in anchor_nodes]
        self.req_memo: List[Optional[bytearray]] = []
        if self.empty:
            return
        requirements = _node_requirements(pattern)

        def encode_requirement(node: Vertex) -> tuple:
            return tuple(
                (lint_of.get(label, -1), count)
                for label, count in requirements[node].items()
            )

        self.anchor_reqs = [encode_requirement(node) for node in anchor_nodes]
        position = {node: depth for depth, node in enumerate(suborder)}
        for depth, node in enumerate(suborder):
            neighbors = pattern_graph.neighbors(node)
            refs: List[int] = []
            for neighbor in neighbors:
                anchor_pos = anchor_index.get(neighbor)
                if anchor_pos is not None:
                    refs.append(-(anchor_pos + 1))
                elif position.get(neighbor, depth) < depth:
                    refs.append(position[neighbor])
            self.prior.append(tuple(refs))
            self.min_deg.append(len(neighbors))
            if len(refs) < len(neighbors):
                self.reqs.append(encode_requirement(node))
            else:
                self.reqs.append(None)
        self.req_memo = [
            bytearray(vertex_count) if req is not None else None
            for req in self.reqs
        ]


class AnchoredSearch:
    """Reusable anchored-search context for one (pattern, data) pair.

    Anchored probes come in bursts — lazy MNI asks "does any occurrence
    map v to u?" once per candidate data vertex — so the per-pattern setup
    (index resolution, matching order, node signature requirements) is
    computed once here and shared across every probe.  With an index the
    probes run entirely over interned ids (:class:`_AnchoredPlan`),
    decoding only yielded mappings.
    """

    __slots__ = (
        "pattern",
        "data",
        "resolved",
        "requirements",
        "order",
        "_plans",
        "_scratch",
    )

    def __init__(
        self, pattern: Pattern, data: LabeledGraph, index: IndexArg = None
    ) -> None:
        # One search context serves a burst of probes; counting contexts
        # (not probes) keeps the hot path free of instrumentation.
        _metrics.counter("repro_match_anchored_searches").inc()
        self.pattern = pattern
        self.data = data
        self.resolved = resolve_index(data, index)
        self.requirements = (
            _node_requirements(pattern) if self.resolved is not None else None
        )
        self.order = _matching_order(pattern, data)
        self._plans: Dict[FrozenSet[Vertex], _AnchoredPlan] = {}
        self._scratch: Optional[bytearray] = None

    # -- indexed probe machinery ---------------------------------------
    def _plan_for(self, anchor_nodes: Tuple[Vertex, ...]) -> _AnchoredPlan:
        key = frozenset(anchor_nodes)
        plan = self._plans.get(key)
        if plan is None:
            plan = _AnchoredPlan(self.pattern, self.resolved, self.order, anchor_nodes)
            self._plans[key] = plan
        return plan

    def _indexed_domain(self, plan: _AnchoredPlan, depth, images, anchor_vints):
        ci = self.resolved
        li = plan.lints[depth]
        refs = plan.prior[depth]
        if not refs:
            arr = ci._inv[li]
            return arr, 0, len(arr), None
        imgs = [
            images[r] if r >= 0 else anchor_vints[-r - 1] for r in refs
        ]
        row, start, stop = ci._segment(imgs[0], li)
        if len(imgs) == 1:
            return row, start, stop, None
        best = 0
        best_len = stop - start
        for i in range(1, len(imgs)):
            other_row, other_start, other_stop = ci._segment(imgs[i], li)
            if other_stop - other_start < best_len:
                row, start, stop = other_row, other_start, other_stop
                best_len = other_stop - other_start
                best = i
        other_sets = [
            ci._segment_set(img, li)
            for i, img in enumerate(imgs)
            if i != best
        ]
        return row, start, stop, other_sets

    def _witness_from_vint(self, node: Vertex, vint: int) -> bool:
        """True when some occurrence maps ``node`` to the vertex at ``vint``.

        The caller guarantees the anchor's label matches; degree and
        signature feasibility are checked here, then the plan's sub-order
        is explored depth-first over interned ids with an early exit at
        the first witness.
        """
        ci = self.resolved
        plan = self._plan_for((node,))
        if plan.empty:
            return False
        anchor_memo = plan.anchor_req_memo[0]
        state = anchor_memo[vint]
        if state == 2:
            return False
        if state == 0:
            ok = ci._deg[vint] >= self.pattern.graph.degree(node)
            if ok:
                seg_len = ci._segment_len
                for req_lint, count in plan.anchor_reqs[0]:
                    if req_lint < 0 or seg_len(vint, req_lint) < count:
                        ok = False
                        break
            if not ok:
                anchor_memo[vint] = 2
                return False
            anchor_memo[vint] = 1
        suborder_count = len(plan.suborder)
        if suborder_count == 0:
            return True
        decode = ci.table.vertex_of
        used = self._scratch
        if used is None or len(used) < len(decode):
            used = self._scratch = bytearray(len(decode))
        used[vint] = 1
        deg = ci._deg
        rows = ci._rows
        inv = ci._inv
        seg_set = ci._segment_set
        lints = plan.lints
        priors = plan.prior
        min_degrees = plan.min_deg
        requirement_items = plan.reqs
        req_memo = plan.req_memo
        images = [0] * suborder_count

        def rec(depth: int) -> bool:
            if depth == suborder_count:
                return True
            li = lints[depth]
            refs = priors[depth]
            others = None
            if not refs:
                seg = inv[li]
                start = 0
                stop = len(seg)
            else:
                imgs = [
                    images[r] if r >= 0 else vint for r in refs
                ]
                seg = rows[imgs[0]]
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
                if len(imgs) > 1:
                    best = 0
                    best_len = cnt
                    sets = [None] * len(imgs)
                    for a in range(1, len(imgs)):
                        members = seg_set(imgs[a], li)
                        sets[a] = members
                        if len(members) < best_len:
                            best = a
                            best_len = len(members)
                    if best:
                        seg = rows[imgs[best]]
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
                        sets[0] = seg_set(imgs[0], li)
                    others = [s for s in sets if s is not None]
            requirement = requirement_items[depth]
            if requirement is None:
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
                    found = rec(depth + 1)
                    used[w] = 0
                    if found:
                        return True
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
                    found = rec(depth + 1)
                    used[w] = 0
                    if found:
                        return True
            return False

        try:
            return rec(0)
        finally:
            used[vint] = 0

    def _iter_from_indexed(
        self, anchors: Mapping, limit: Optional[int]
    ) -> Iterator[Mapping]:
        """Int-id backtracking for validated anchors (decoded yields)."""
        ci = self.resolved
        anchor_nodes = tuple(anchors)
        plan = self._plan_for(anchor_nodes)
        if plan.empty:
            return
        vint_of = ci.table._vint_of
        anchor_vints = tuple(vint_of[anchors[node]] for node in plan.anchor_nodes)
        seg_len = ci._segment_len
        suborder = plan.suborder
        suborder_count = len(suborder)
        decode = ci.table.vertex_of
        deg = ci._deg
        min_degrees = plan.min_deg
        requirement_items = plan.reqs
        req_memo = plan.req_memo
        used = bytearray(len(decode))
        for vint in anchor_vints:
            used[vint] = 1
        images = [0] * suborder_count
        yielded = 0

        def backtrack(depth: int) -> Iterator[Mapping]:
            nonlocal yielded
            if limit is not None and yielded >= limit:
                return
            if depth == suborder_count:
                yielded += 1
                mapping = dict(anchors)
                for d in range(suborder_count):
                    mapping[suborder[d]] = decode[images[d]]
                yield mapping
                return
            row, start, stop, other_sets = self._indexed_domain(
                plan, depth, images, anchor_vints
            )
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

    def iter_from(
        self, anchors: Mapping, limit: Optional[int] = None
    ) -> Iterator[Mapping]:
        """Yield occurrences extending the partial assignment ``anchors``.

        ``anchors`` maps pattern nodes to data vertices; assignments must
        be label-consistent and injective or nothing is yielded.
        """
        pattern, data = self.pattern, self.data
        resolved, requirements = self.resolved, self.requirements
        # Validate the anchors up front (cheap rejections).
        if len(set(anchors.values())) != len(anchors):
            return
        for node, vertex in anchors.items():
            if not pattern.graph.has_vertex(node) or not data.has_vertex(vertex):
                return
            if pattern.label_of(node) != data.label_of(vertex):
                return
            if data.degree(vertex) < pattern.graph.degree(node):
                return
        # Anchored pattern edges must exist between anchored images.
        for u, v in pattern.edges():
            if u in anchors and v in anchors:
                if not data.has_edge(anchors[u], anchors[v]):
                    return
        if resolved is not None:
            # The signature filter applies to anchors too: an anchor whose
            # neighborhood cannot host its pattern neighbors has no witness.
            for node, vertex in anchors.items():
                if not resolved.dominates(vertex, requirements[node]):
                    return
            yield from self._iter_from_indexed(anchors, limit)
            return

        order = [node for node in self.order if node not in anchors]
        mapping: Dict[Vertex, Vertex] = dict(anchors)
        used: Set[Vertex] = set(anchors.values())
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
                if not _is_feasible(pattern, data, node, vertex, mapping, used, False):
                    continue
                mapping[node] = vertex
                used.add(vertex)
                yield from backtrack(depth + 1)
                del mapping[node]
                used.discard(vertex)
                if limit is not None and yielded >= limit:
                    return

        yield from backtrack(0)

    def has_witness(self, node: Vertex, vertex: Vertex) -> bool:
        """True when some occurrence maps pattern ``node`` to ``vertex``."""
        ci = self.resolved
        if ci is not None and self.pattern.graph.has_vertex(node):
            try:
                vint = ci._live_vint(vertex)
            except KeyError:
                return False
            li = ci.table._lint_of.get(self.pattern.label_of(node))
            if li is None or ci._lab[vint] != li:
                return False
            return self._witness_from_vint(node, vint)
        return next(self.iter_from({node: vertex}, limit=1), None) is not None


def find_anchored_isomorphisms(
    pattern: Pattern,
    data: LabeledGraph,
    anchors: Mapping,
    limit: Optional[int] = None,
    index: IndexArg = None,
) -> Iterator[Mapping]:
    """Yield occurrences extending the partial assignment ``anchors``.

    One-shot convenience over :class:`AnchoredSearch`; build the context
    yourself when probing the same pattern repeatedly.
    """
    yield from AnchoredSearch(pattern, data, index=index).iter_from(anchors, limit)


def has_occurrence_with(
    pattern: Pattern,
    data: LabeledGraph,
    node: Vertex,
    vertex: Vertex,
    index: IndexArg = None,
) -> bool:
    """True when some occurrence maps pattern ``node`` to data ``vertex``."""
    return AnchoredSearch(pattern, data, index=index).has_witness(node, vertex)


def valid_images(
    pattern: Pattern,
    data: LabeledGraph,
    node: Vertex,
    stop_after: Optional[int] = None,
    index: IndexArg = None,
) -> List[Vertex]:
    """Data vertices that host ``node`` in at least one occurrence.

    ``stop_after`` truncates the scan once that many images are confirmed —
    the heart of lazy MNI: deciding "support >= t" needs only t images per
    node, not the full occurrence set.  Candidates come straight from the
    index's interned inverted list (or a sorted set copy in brute mode);
    either way the scan order is the canonical one.  One shared
    :class:`AnchoredSearch` context serves every probe in the scan.
    """
    label = pattern.label_of(node)
    search = AnchoredSearch(pattern, data, index=index)
    ci = search.resolved
    if ci is not None:
        # Probe straight off the interned inverted list: the label match
        # is implied by list membership, so each candidate goes directly
        # to the int-id witness search and only images are decoded.
        li = ci.table._lint_of.get(label)
        arr = ci._inv.get(li) if li is not None else None
        if not arr:
            return []
        decode = ci.table.vertex_of
        witness = search._witness_from_vint
        images: List[Vertex] = []
        for vint in arr:
            if witness(node, vint):
                images.append(decode[vint])
                if stop_after is not None and len(images) >= stop_after:
                    break
        return images
    images: List[Vertex] = []
    for vertex in sorted(data.vertices_with_label(label), key=repr):
        if search.has_witness(node, vertex):
            images.append(vertex)
            if stop_after is not None and len(images) >= stop_after:
                break
    return images
