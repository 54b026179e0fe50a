"""Halo-aware support evaluation over a :class:`ShardedIndex`.

Per-shard enumeration is made **exhaustive** by one geometric fact: an
occurrence of a connected n-node pattern that uses a core edge ``(u, v)``
of shard ``s`` lies entirely within ``n - 2`` hops of ``{u, v}`` (the
worst case is a path with the anchoring edge at one end).  So enumerating
the pattern in :meth:`ShardedIndex.expanded_shard`\\ ``(s, D)`` — the
induced halo expansion of the shard — for any ``D >= n - 2`` finds
*every* occurrence anchored in ``s``, through the ordinary indexed VF2
engine.  A session therefore evaluates every pattern against one view
per shard, at ``D = max_pattern_nodes - 2``.  The deeper view changes no
answer: every occurrence found inside it is also a global occurrence
(the view is an induced subgraph), so the core-edge filter (or the
``exclusive`` flag, under which every occurrence found is anchored)
keeps exactly the anchored set, and a lazy scan's images lie between
the anchored image set and the global one.

Each shard keeps only the occurrences that actually use one of its core
edges (its *anchored* occurrences); an occurrence whose edges span
several shards is anchored in each of them and is deduplicated by its
canonical image key (the sorted ``(node, vertex)`` item tuple).  Because
the shards' core edges partition ``E``, the deduplicated union over
shards is exactly the global occurrence set — support values, occurrence
counts, and (after canonical re-sorting) the derived MNI domains and
overlap structures are **identical** to unsharded evaluation, which
``tests/test_partition_equivalence.py`` pins measure by measure.

This module holds the pieces of the one sharded evaluator: the planning
ladder (:func:`plan_candidate`: flat fallback, label-frequency prune, the
relevant shards), the one task function (:func:`evaluate_task`) that
both the shard-resident workers and the in-process runner call against a
halo-expanded view, and the merges (:func:`support_from_shard_items`,
:func:`merge_lazy_partials`).  The planner/merger that strings them
together is :func:`repro.partition.workers.pooled_outcomes`.

Shard pruning: a pattern's occurrences can only be anchored in shards
whose core label-pair directory intersects the pattern's footprint, so
the other shards are skipped outright.  Lazy (threshold-capped) MNI
unions per-shard anchored image scans instead of occurrence lists; the
scans are read node by node on demand (:class:`NodeImages`), so a shard
that confirms ``cap`` images for a node short-circuits the node, and a
node with no image ends the candidate.

Patterns the per-shard argument does not cover (disconnected, or
edge-free) fall back to flat evaluation on the source graph — exactness
over micro-optimization.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graph.labeled_graph import Edge, LabeledGraph, Vertex, normalize_edge
from ..graph.pattern import Pattern
from ..hypergraph.construction import HypergraphBundle
from ..index.delta import EdgeAdded, EdgeRemoved
from ..index.graph_index import IndexArg, get_index
from ..isomorphism.anchored import valid_images
from ..isomorphism.matcher import Occurrence
from ..isomorphism.vf2 import (
    _collect_items,
    _PlanCache,
    collect_subgraph_isomorphism_items,
)
from ..measures.base import compute_support
from ..mining.dynamic import pattern_footprint
from ..mining.parallel import LABEL_FREQUENCY_BOUNDED, label_frequency_bound
from .sharded_index import ShardedIndex

#: One occurrence as its canonical image key: the repr-sorted
#: ``(pattern node, data vertex)`` item tuple (see ``Occurrence.mapping_items``).
OccurrenceItems = Tuple[Tuple[Vertex, Vertex], ...]

#: One node's anchored image scan in one view: ``(images, hit-cap flag)``.
NodeScan = Tuple[Tuple[Vertex, ...], bool]

#: One planned shard task: ``(kind, pattern, shard_id, exclusive, limit)``
#: with ``kind`` in ``{"solo", "part"}`` — the planner
#: (:func:`repro.partition.workers.pooled_outcomes`) decides, the runner
#: only evaluates (:func:`evaluate_task`) against the shard's one view.
ShardTask = Tuple[str, Pattern, int, bool, Optional[int]]


def required_depth(pattern: Pattern) -> int:
    """Halo depth that makes per-shard enumeration of ``pattern`` exhaustive."""
    return max(0, pattern.num_nodes - 2)


def pattern_shardable(pattern: Pattern) -> bool:
    """True when the anchored-occurrence argument covers ``pattern``.

    It needs at least one pattern edge to anchor on and connectivity for
    the ``n - 2`` hop bound; anything else routes through the flat path.
    """
    return pattern.num_edges > 0 and pattern.graph.is_connected()


def relevant_shards(footprint: AbstractSet[Tuple], sharded: ShardedIndex) -> List[int]:
    """Shard ids that can anchor an occurrence of a pattern with ``footprint``.

    An anchored occurrence maps some pattern edge onto a shard core edge,
    so the shard's core label pairs must intersect the pattern's
    label-pair footprint (:func:`~repro.mining.dynamic.pattern_footprint`).
    """
    ids: Set[int] = set()
    for pair in footprint:
        ids.update(sharded.shards_for_pair(*pair))
    return sorted(ids)


def plan_candidate(
    pattern: Pattern,
    sharded: ShardedIndex,
    measure: str,
    *,
    lazy: bool,
    histogram: Optional[Dict] = None,
    prune_below: Optional[float] = None,
) -> Tuple[str, object]:
    """The per-candidate decision ladder shared by every sharded evaluator.

    Returns one of:

    * ``("flat", None)`` — a pattern the anchored argument does not
      cover; evaluate on the source graph;
    * ``("pruned", (bound, -1))`` — the global label-frequency bound
      already sits below the threshold (eager mode only), a finished
      outcome;
    * ``("shards", [(shard_id, exclusive), ...])`` — evaluate on these
      relevant shards and merge; ``exclusive`` is
      :func:`shard_exclusive` (always ``False`` for lazy scans, which
      never filter on core edges).  A one-shard index (a flat pooled
      session) lists its one shard, exclusive: the candidate becomes one
      ``solo`` task whose enumeration, and so its truncation, keeps the
      flat order.

    The pattern's label-pair footprint is computed once here and shared
    by the shard lookup and every exclusivity test.  The one planner
    (:func:`repro.partition.workers.pooled_outcomes`) calls it once per
    candidate, whether its tasks then run in process or on the
    shard-resident pool.
    """
    if not pattern_shardable(pattern):
        return "flat", None
    if (
        not lazy
        and prune_below is not None
        and histogram is not None
        and measure in LABEL_FREQUENCY_BOUNDED
    ):
        bound = label_frequency_bound(pattern, histogram)
        if bound < prune_below:
            return "pruned", (float(bound), -1)
    footprint = pattern_footprint(pattern)
    return "shards", [
        (shard_id, not lazy and shard_exclusive(footprint, sharded, shard_id))
        for shard_id in relevant_shards(footprint, sharded)
    ]


def shard_exclusive(
    footprint: AbstractSet[Tuple], sharded: ShardedIndex, shard_id: int
) -> bool:
    """True when ``shard_id`` exclusively owns a pattern's whole ``footprint``.

    Every data edge an occurrence could use is then a core edge of this
    shard, so the per-occurrence core-edge filter can be skipped (the
    common case under footprint-aligned ``label`` partitioning).  The
    parent computes this flag when planning shard-resident work, so a
    worker holding only its own slice makes the identical decision.
    """
    return all(sharded.shards_for_pair(*pair) == (shard_id,) for pair in footprint)


def anchored_occurrence_items(
    pattern: Pattern,
    expanded: LabeledGraph,
    core: frozenset,
    *,
    exclusive: bool,
    index: IndexArg = None,
    limit: Optional[int] = None,
) -> List[OccurrenceItems]:
    """Occurrences of ``pattern`` anchored on ``core`` edges, in one view.

    ``expanded`` is a shard's halo-expanded view and ``core`` its core
    edges; with ``exclusive`` (the shard owns the pattern's whole
    footprint, :func:`shard_exclusive`) every occurrence is anchored and
    the core-edge filter is skipped.  ``index=False`` keeps the brute
    reference path alive shard by shard.  Identical inputs — view
    content, core-edge set, ``exclusive`` flag, ``limit`` — produce
    identical item tuples wherever the enumeration runs (a resident
    worker's slice or the parent's index), because the VF2 engine
    explores candidates in canonical (content-determined) order.
    """
    if exclusive:
        return collect_subgraph_isomorphism_items(
            pattern, expanded, limit=limit, index=index
        )
    # Pattern nodes arrive repr-sorted inside each item tuple, so an edge
    # image can be read by position instead of building a dict per
    # occurrence.
    position = {node: i for i, node in enumerate(sorted(pattern.nodes(), key=repr))}
    edge_positions = [(position[a], position[b]) for a, b in pattern.edges()]

    def uses_core_edge(items: OccurrenceItems) -> bool:
        return any(
            normalize_edge(items[pa][1], items[pb][1]) in core
            for pa, pb in edge_positions
        )

    # The core-edge test runs at each leaf of the search, so a `limit`
    # stops it as soon as that many *anchored* occurrences are confirmed.
    return _collect_items(pattern, expanded, limit, index, keep=uses_core_edge)


class OccurrenceSet:
    """One pattern's occurrences in one resident view, patched by the view's deltas.

    The set holds *every* occurrence of ``pattern`` in the view, as item
    tuples, together with a vertex -> occurrences map and, per pattern
    node, an image -> multiplicity count (so MNI is a ``len`` per node).
    It reads the view's delta log through its own cursor and is synced
    at each use (:meth:`sync`):

    * an occurrence that used a removed edge or vertex is dropped,
      found through the vertex map;
    * an added edge still in the view is the anchor of k = 2 searches of
      the one VF2 kernel, one per pattern edge orientation whose labels
      match, over plans kept in a :class:`~repro.isomorphism.vf2._PlanCache`;
      every occurrence the current view gained uses such an edge;
    * a gap (a burst past the log's bound, or a closed cursor) refills
      the set by full enumeration.

    Because the set covers the whole view, a task whose shard owns the
    pattern's footprint (``exclusive``) reads its answer straight off the
    counts, and any other task keeps the occurrences that use a core
    edge (:meth:`anchored`).
    """

    __slots__ = (
        "pattern",
        "_nodes",
        "_edge_positions",
        "_orientations",
        "_cursor",
        "_plans",
        "_items",
        "_by_vertex",
        "_images",
    )

    def __init__(self, pattern: Pattern, view: LabeledGraph) -> None:
        self.pattern = pattern
        graph = pattern.graph
        self._nodes = sorted(graph.vertices(), key=repr)
        position = {node: i for i, node in enumerate(self._nodes)}
        self._edge_positions = [(position[a], position[b]) for a, b in graph.edges()]
        # (label of u, label of v) -> the pattern edges (a, b) to anchor
        # on a data edge (u, v), each orientation whose labels match.
        orientations: Dict[Tuple, List[Tuple[Vertex, Vertex]]] = {}
        for a, b in graph.edges():
            for x, y in ((a, b), (b, a)):
                key = (graph.label_of(x), graph.label_of(y))
                if (x, y) not in orientations.setdefault(key, []):
                    orientations[key].append((x, y))
        self._orientations = orientations
        self._plans = _PlanCache(pattern)
        self._cursor = view.cursor()
        self._fill(view)

    def __len__(self) -> int:
        return len(self._items)

    def mni(self) -> int:
        """MNI of the set: the fewest distinct images of any pattern node."""
        if not self._items:
            return 0
        return min(len(counts) for counts in self._images)

    def items(self) -> List[OccurrenceItems]:
        """Every occurrence in the view."""
        return list(self._items)

    def anchored(self, core: AbstractSet[Edge]) -> List[OccurrenceItems]:
        """The occurrences that use one of the ``core`` edges."""
        positions = self._edge_positions
        return [
            items
            for items in self._items
            if any(
                normalize_edge(items[pa][1], items[pb][1]) in core
                for pa, pb in positions
            )
        ]

    def close(self) -> None:
        """Stop reading the view's delta log."""
        self._cursor.close()

    # -- maintenance ---------------------------------------------------
    def _fill(self, view: LabeledGraph) -> None:
        self._items: Dict[OccurrenceItems, None] = {}
        self._by_vertex: Dict[Vertex, Set[OccurrenceItems]] = {}
        self._images: List[Dict[Vertex, int]] = [{} for _ in self._nodes]
        for items in collect_subgraph_isomorphism_items(self.pattern, view):
            self._add(items)

    def _add(self, items: OccurrenceItems) -> None:
        if items in self._items:
            return
        self._items[items] = None
        by_vertex = self._by_vertex
        for counts, (_node, vertex) in zip(self._images, items):
            counts[vertex] = counts.get(vertex, 0) + 1
            bucket = by_vertex.get(vertex)
            if bucket is None:
                by_vertex[vertex] = {items}
            else:
                bucket.add(items)

    def _discard(self, items: OccurrenceItems) -> None:
        del self._items[items]
        by_vertex = self._by_vertex
        for counts, (_node, vertex) in zip(self._images, items):
            left = counts[vertex] - 1
            if left:
                counts[vertex] = left
            else:
                del counts[vertex]
            bucket = by_vertex[vertex]
            bucket.discard(items)
            if not bucket:
                del by_vertex[vertex]

    def _uses(self, items: OccurrenceItems, u: Vertex, v: Vertex) -> bool:
        """True when the occurrence maps a pattern edge onto the edge ``(u, v)``."""
        for pa, pb in self._edge_positions:
            x, y = items[pa][1], items[pb][1]
            if (x == u and y == v) or (x == v and y == u):
                return True
        return False

    def sync(self, view: LabeledGraph) -> bool:
        """Bring the set current with ``view``; ``False`` when a gap refilled it."""
        deltas = self._cursor.read()
        if deltas is None:
            self._plans = _PlanCache(self.pattern)
            self._fill(view)
            return False
        if not deltas:
            return True
        by_vertex = self._by_vertex
        touched: Set[Vertex] = set()
        added: Dict[Edge, None] = {}
        for delta in deltas:
            if isinstance(delta, EdgeRemoved):
                u, v = delta.u, delta.v
                touched.update((u, v))
                first, second = by_vertex.get(u), by_vertex.get(v)
                if first and second:
                    bucket = first if len(first) <= len(second) else second
                    for items in [o for o in bucket if self._uses(o, u, v)]:
                        self._discard(items)
            elif isinstance(delta, EdgeAdded):
                touched.update((delta.u, delta.v))
                added[normalize_edge(delta.u, delta.v)] = None
            else:  # a vertex joined or left
                touched.add(delta.vertex)
                for items in list(by_vertex.get(delta.vertex, ())):
                    self._discard(items)
        index = get_index(view)
        self._plans.touch(index, touched)
        vint_of = index.table._vint_of
        for u, v in added:
            if not view.has_edge(u, v):
                continue
            anchors = self._orientations.get((view.label_of(u), view.label_of(v)))
            for a, b in anchors or ():
                for items in self._plans.search(
                    index, view, (a, b), (vint_of[u], vint_of[v]), self._nodes
                ):
                    self._add(items)
        return True


def merge_shard_items(
    item_lists: Sequence[Sequence[OccurrenceItems]],
) -> List[Occurrence]:
    """Deduplicate per-shard occurrence items into the global occurrence list.

    Cross-halo duplicates (occurrences anchored in several shards)
    collapse on the canonical image key; the merged list is re-sorted
    into canonical order and re-indexed, so every measure computed from
    it is a pure function of the global occurrence *set* — identical to
    unsharded evaluation.
    """
    non_empty = [items_list for items_list in item_lists if items_list]
    if len(non_empty) <= 1:
        # One contributing shard: occurrences are already distinct and in
        # canonical enumeration order — no dedup or re-sort to pay for.
        return [
            Occurrence(mapping_items=items, index=i)
            for i, items in enumerate(non_empty[0] if non_empty else ())
        ]
    seen: Set[OccurrenceItems] = set()
    for items_list in non_empty:
        seen.update(items_list)
    return [
        Occurrence(mapping_items=items, index=i)
        for i, items in enumerate(sorted(seen, key=repr))
    ]


def support_from_shard_items(
    pattern: Pattern,
    data: LabeledGraph,
    item_lists: Sequence[Sequence[OccurrenceItems]],
    measure: str,
    max_occurrences: Optional[int] = None,
) -> Tuple[float, int]:
    """Merge per-shard occurrence items and compute one measure exactly.

    The single merge + measure path of sharded evaluation: the planner
    merges every fanned-out candidate's per-shard items here, and a
    ``solo`` task finishes here against its own view.
    """
    merged = merge_shard_items(item_lists)
    if max_occurrences is not None:
        merged = merged[:max_occurrences]
    bundle = HypergraphBundle(pattern=pattern, data=data, occurrences=merged)
    support = compute_support(measure, pattern, data, bundle=bundle)
    return support, bundle.num_occurrences


def merge_lazy_partials(
    partials: Sequence[Mapping[Vertex, NodeScan]],
    cap: Optional[int],
) -> int:
    """Fold per-shard anchored image scans into the capped global MNI.

    Each partial maps pattern node -> (images found in that shard,
    hit-cap flag).  A capped shard already proves the node has >= ``cap``
    global images; otherwise the shard scan was exhaustive and the union
    over shards is the node's exact global image set.  Partials are read
    node by node, and the fold stops at the first shard that caps a node
    and at the first node with no image — so an on-demand
    :class:`NodeImages` partial never scans what the answer does not need.
    """
    best: Optional[int] = None
    nodes = partials[0].keys() if partials else ()
    for node in nodes:
        images: Set[Vertex] = set()
        capped = False
        for partial in partials:
            found, hit_cap = partial[node]
            if hit_cap:
                capped = True
                break
            images.update(found)
        count = cap if capped else len(images)
        if cap is not None:
            count = min(count, cap)
        if best is None or count < best:
            best = count
        if best == 0:
            return 0
    return best or 0




class NodeImages(Mapping):
    """One view's per-node anchored image scan (lazy MNI), read on demand.

    Maps pattern node -> (images found, hit-cap flag).  Each node is
    scanned in ``view`` on its first read, so :func:`merge_lazy_partials`
    pays only for the (node, shard) pairs it reaches.  Every image found
    in a halo-expanded view is a genuine global image (the view is a
    subgraph) and every anchored occurrence lies inside it, so the union
    of these scans over the relevant shards is the exact global image set
    per node.
    """

    def __init__(
        self,
        pattern: Pattern,
        view: LabeledGraph,
        cap: Optional[int],
        index: IndexArg = None,
    ) -> None:
        self._pattern = pattern
        self._view = view
        self._cap = cap
        self._index = index
        self._scans: Dict[Vertex, NodeScan] = {}

    def __getitem__(self, node: Vertex) -> NodeScan:
        scan = self._scans.get(node)
        if scan is None:
            found = valid_images(
                self._pattern,
                self._view,
                node,
                stop_after=self._cap,
                index=self._index,
            )
            scan = (tuple(found), self._cap is not None and len(found) >= self._cap)
            self._scans[node] = scan
        return scan

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._pattern.nodes())

    def __len__(self) -> int:
        return self._pattern.num_nodes


def evaluate_task(
    task: ShardTask,
    view: LabeledGraph,
    core: AbstractSet[Edge],
    config: Mapping[str, Any],
    source: Optional[OccurrenceSet] = None,
):
    """Evaluate one planned shard task against its halo-expanded view.

    The one task function of sharded evaluation: both runners of
    :func:`repro.partition.workers.pooled_outcomes` (the shard-resident
    worker and the in-process runner) call it with their
    :class:`~repro.partition.workers.ResidentView` of the shard, the halo
    view at the session depth.  ``view`` is that view's graph, ``core``
    the shard's core-edge set and ``config`` carries ``measure``,
    ``lazy``, ``lazy_cap`` and ``use_index``.

    ``part`` returns the raw partial for the planner to merge: the
    anchored occurrence item tuples, or in lazy mode an on-demand
    :class:`NodeImages` scan.  ``solo`` finishes the candidate against
    the view and returns ``(support, num_occurrences)``; measures are
    pure functions of the occurrence set, so the local view answers
    exactly what the global graph would.

    ``source`` is the pattern's :class:`OccurrenceSet` in the view, when
    its holder keeps one (eager MNI, no ``limit``, indexed): the
    occurrences are read from it instead of enumerated, and an
    ``exclusive`` ``solo`` task reads MNI off its image counts.
    """
    kind, pattern, _shard_id, exclusive, limit = task
    index_arg = None if config["use_index"] else False
    if config["lazy"]:
        cap = config["lazy_cap"]
        images = NodeImages(pattern, view, cap, index=index_arg)
        if kind == "part":
            return images
        return float(merge_lazy_partials([images], cap=cap)), -1
    if source is None:
        items = anchored_occurrence_items(
            pattern, view, core, exclusive=exclusive, index=index_arg, limit=limit
        )
    elif not exclusive:
        items = source.anchored(core)
    elif kind == "solo":
        return float(source.mni()), len(source)
    else:
        items = source.items()
    if kind == "part":
        return items
    return support_from_shard_items(
        pattern, view, [items], config["measure"], max_occurrences=limit
    )
