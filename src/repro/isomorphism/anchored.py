"""Anchored subgraph-isomorphism queries.

The lazy MNI evaluation strategy (GraMi, Elseidy et al. — the paper's
reference [4]) never enumerates all occurrences.  Instead it asks, per
pattern node ``v`` and data vertex ``u``: *does any occurrence map v to
u?*  Each such question is a subgraph-isomorphism search with one
assignment pinned in advance, which this module provides.

An anchored search is the VF2 engine's search with the anchors placed
first.  With an index (the default) each anchor set gets one
:class:`~repro.isomorphism.vf2._Plan` with the anchored nodes at depths
``0..k-1``; the anchors pass the plan's anchor check (degree and
neighbor-label signature), their images are pre-filled, and the int-id
kernel explores the rest, stopping at the first witness for a probe.
Probe candidates come straight off the index's interned inverted lists.
With ``index=False`` the brute-force reference generator extends the
anchors instead, in the same canonical order.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..graph.labeled_graph import LabeledGraph, Vertex
from ..graph.pattern import Pattern
from ..index.graph_index import IndexArg, resolve_index
from ..obs import metrics as _metrics
from .vf2 import Mapping, _extend, _matching_order, _Plan, _search


class AnchoredSearch:
    """Reusable anchored-search context for one (pattern, data) pair.

    Anchored probes come in bursts — lazy MNI asks "does any occurrence
    map v to u?" once per candidate data vertex — so the per-pattern setup
    (index resolution, one plan per anchor set with its requirement memos,
    the ``used`` scratch buffer) is computed once here and shared across
    every probe.  With an index the probes run entirely over interned
    ids, decoding only yielded mappings.  Both paths assign the other
    pattern nodes in a matching order grown from the anchors, so every
    later node of a connected pattern has a mapped neighbour to extend
    from.
    """

    __slots__ = ("pattern", "data", "resolved", "_plans", "_scratch")

    def __init__(
        self, pattern: Pattern, data: LabeledGraph, index: IndexArg = None
    ) -> None:
        # One search context serves a burst of probes; counting contexts
        # (not probes) keeps the hot path free of instrumentation.
        _metrics.counter("repro_match_anchored_searches").inc()
        self.pattern = pattern
        self.data = data
        self.resolved = resolve_index(data, index)
        self._plans: Dict[FrozenSet[Vertex], _Plan] = {}
        # The kernel's `used` buffer, zeroed between searches; like the
        # plans' memos it is sized for the resolved index.
        self._scratch = (
            bytearray(len(self.resolved.table.vertex_of))
            if self.resolved is not None
            else None
        )

    # -- indexed probe machinery ---------------------------------------
    def _plan_for(self, anchor_nodes: Tuple[Vertex, ...]) -> _Plan:
        key = frozenset(anchor_nodes)
        plan = self._plans.get(key)
        if plan is None:
            order = _matching_order(self.pattern, self.data, anchor_nodes)
            plan = _Plan(self.pattern, self.resolved, order, anchor_nodes)
            self._plans[key] = plan
        return plan

    def _probe(self, plan: _Plan, vint: int) -> bool:
        """True when some occurrence maps the plan's single anchor to ``vint``.

        The caller guarantees the anchor's label matches.
        """
        if plan.empty:
            return False
        images = [0] * len(plan.order)
        images[0] = vint
        return bool(_search(self.resolved, plan, images, self._scratch, 1))

    def iter_from(
        self, anchors: Mapping, limit: Optional[int] = None
    ) -> Iterator[Mapping]:
        """Yield occurrences extending the partial assignment ``anchors``.

        ``anchors`` maps pattern nodes to data vertices; assignments must
        be label-consistent and injective or nothing is yielded.  Each
        occurrence is a fresh dict holding ``anchors`` first.
        """
        pattern, data = self.pattern, self.data
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
        if limit is not None and limit <= 0:
            return
        ci = self.resolved
        if ci is None:
            order = _matching_order(pattern, data, tuple(anchors))
            yield from islice(_extend(pattern, data, order, anchors, False), limit)
            return
        plan = self._plan_for(tuple(anchors))
        if plan.empty:
            return
        k = plan.k
        vint_of = ci.table._vint_of
        images = [0] * len(plan.order)
        for depth in range(k):
            images[depth] = vint_of[anchors[plan.order[depth]]]
        rest = _search(ci, plan, images, self._scratch, limit, plan.order[k:], dict)
        for extension in rest:
            mapping = dict(anchors)
            mapping.update(extension)
            yield mapping

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
            return self._probe(self._plan_for((node,)), vint)
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
    node, not the full occurrence set; ``stop_after <= 0`` confirms none.
    Candidates come straight from the index's interned inverted list (or a
    sorted set copy in brute mode); either way the scan order is the
    canonical one.  One shared :class:`AnchoredSearch` context serves every
    probe in the scan.
    """
    if stop_after is not None and stop_after <= 0:
        return []
    label = pattern.label_of(node)
    search = AnchoredSearch(pattern, data, index=index)
    ci = search.resolved
    if ci is not None:
        # Probe straight off the interned inverted list: the label match
        # is implied by list membership, so each candidate goes directly
        # to the int-id probe and only images are decoded.
        li = ci.table._lint_of.get(label)
        arr = ci._inv.get(li) if li is not None else None
        if not arr:
            return []
        plan = search._plan_for((node,))
        decode = ci.table.vertex_of
        probe = search._probe
        images = (decode[vint] for vint in arr if probe(plan, vint))
    else:
        images = (
            vertex
            for vertex in sorted(data.vertices_with_label(label), key=repr)
            if search.has_witness(node, vertex)
        )
    return list(islice(images, stop_after))
