"""Halo-aware support evaluation over a :class:`ShardedIndex`.

Per-shard enumeration is made **exhaustive** by one geometric fact: an
occurrence of a connected n-node pattern that uses a core edge ``(u, v)``
of shard ``s`` lies entirely within ``n - 2`` hops of ``{u, v}`` (the
worst case is a path with the anchoring edge at one end).  So enumerating
the pattern in :meth:`ShardedIndex.expanded_shard`\\ ``(s, n - 2)`` — the
induced halo expansion of the shard — finds *every* occurrence anchored
in ``s``, through the ordinary indexed VF2 engine.

Each shard keeps only the occurrences that actually use one of its core
edges (its *anchored* occurrences); an occurrence whose edges span
several shards is anchored in each of them and is deduplicated by its
canonical image key (the sorted ``(node, vertex)`` item tuple).  Because
the shards' core edges partition ``E``, the deduplicated union over
shards is exactly the global occurrence set — support values, occurrence
counts, and (after canonical re-sorting) the derived MNI domains and
overlap structures are **identical** to unsharded evaluation, which
``tests/test_partition_equivalence.py`` pins measure by measure.

Shard pruning: a pattern's occurrences can only be anchored in shards
whose core label-pair directory intersects the pattern's footprint, so
the other shards are skipped outright.  Lazy (threshold-capped) MNI
unions per-shard anchored image scans instead of occurrence lists; a
shard that confirms ``cap`` images for a node short-circuits the scan.

Patterns the per-shard argument does not cover (disconnected, or
edge-free) fall back to flat evaluation on the source graph — exactness
over micro-optimization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graph.labeled_graph import LabeledGraph, Vertex, normalize_edge
from ..graph.pattern import Pattern
from ..hypergraph.construction import HypergraphBundle
from ..index.graph_index import IndexArg, _label_pair_key
from ..isomorphism.anchored import valid_images
from ..isomorphism.matcher import Occurrence
from ..isomorphism.vf2 import _collect_items, collect_subgraph_isomorphism_items
from ..measures.base import compute_support
from ..mining.parallel import LABEL_FREQUENCY_BOUNDED, label_frequency_bound
from .sharded_index import ShardedIndex

#: One occurrence as its canonical image key: the repr-sorted
#: ``(pattern node, data vertex)`` item tuple (see ``Occurrence.mapping_items``).
OccurrenceItems = Tuple[Tuple[Vertex, Vertex], ...]


def required_depth(pattern: Pattern) -> int:
    """Halo depth that makes per-shard enumeration of ``pattern`` exhaustive."""
    return max(0, pattern.num_nodes - 2)


def pattern_shardable(pattern: Pattern) -> bool:
    """True when the anchored-occurrence argument covers ``pattern``.

    It needs at least one pattern edge to anchor on and connectivity for
    the ``n - 2`` hop bound; anything else routes through the flat path.
    """
    return pattern.num_edges > 0 and pattern.graph.is_connected()


def pattern_label_pairs(pattern: Pattern) -> Set[Tuple]:
    """The canonical label pairs realized by ``pattern``'s edges."""
    graph = pattern.graph
    return {
        _label_pair_key(graph.label_of(u), graph.label_of(v))
        for u, v in graph.edges()
    }


def relevant_shards(pattern: Pattern, sharded: ShardedIndex) -> List[int]:
    """Shard ids that can anchor an occurrence of ``pattern``.

    An anchored occurrence maps some pattern edge onto a shard core edge,
    so the shard's core label pairs must intersect the pattern's
    label-pair footprint.
    """
    ids: Set[int] = set()
    for pair in pattern_label_pairs(pattern):
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

    * ``("flat", None)`` — single shard or a pattern the anchored
      argument does not cover; evaluate on the source graph;
    * ``("pruned", (bound, -1))`` — the global label-frequency bound
      already sits below the threshold (eager mode only), a finished
      outcome;
    * ``("shards", shard_ids)`` — evaluate on these relevant shards and
      merge.

    Both the serial path (:func:`sharded_evaluate_support`) and the
    process-pool planner consume this one function, so their decisions
    cannot drift apart.
    """
    if sharded.num_shards == 1 or not pattern_shardable(pattern):
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
    return "shards", relevant_shards(pattern, sharded)


def shard_exclusive(pattern: Pattern, sharded: ShardedIndex, shard_id: int) -> bool:
    """True when ``shard_id`` exclusively owns the pattern's whole footprint.

    Every data edge an occurrence could use is then a core edge of this
    shard, so the per-occurrence core-edge filter can be skipped (the
    common case under footprint-aligned ``label`` partitioning).  The
    parent computes this flag when planning shard-resident work, so a
    worker holding only its own slice makes the identical decision.
    """
    return all(
        sharded.shards_for_pair(*pair) == (shard_id,)
        for pair in pattern_label_pairs(pattern)
    )


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

    The view-level core of :func:`shard_occurrence_items`, shared verbatim
    by the shard-resident workers (which hold a shipped slice of the
    expanded view instead of a :class:`ShardedIndex`): identical inputs —
    view content, core-edge set, ``exclusive`` flag, ``limit`` — produce
    identical item tuples wherever the enumeration runs, because the VF2
    engine explores candidates in canonical (content-determined) order.
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


def shard_occurrence_items(
    pattern: Pattern,
    sharded: ShardedIndex,
    shard_id: int,
    index: IndexArg = None,
    limit: Optional[int] = None,
) -> List[OccurrenceItems]:
    """Occurrences of ``pattern`` anchored in one shard, as item tuples.

    Enumerates the halo-expanded shard view through the ordinary engine
    (``index=False`` keeps the brute reference path alive shard-by-shard)
    and keeps the occurrences using at least one core edge of the shard
    (:func:`anchored_occurrence_items`; when the shard exclusively owns
    the pattern's footprint the filter is skipped outright).
    """
    return anchored_occurrence_items(
        pattern,
        sharded.expanded_shard(shard_id, required_depth(pattern)),
        sharded.shards[shard_id].core_edge_set,
        exclusive=shard_exclusive(pattern, sharded, shard_id),
        index=index,
        limit=limit,
    )


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


def sharded_occurrences(
    pattern: Pattern,
    sharded: ShardedIndex,
    index: IndexArg = None,
    limit: Optional[int] = None,
) -> List[Occurrence]:
    """The global occurrence list of ``pattern``, via per-shard enumeration.

    With ``limit`` set, each shard stops after ``limit`` anchored
    occurrences and the merged list is truncated to ``limit`` — a
    deterministic safety valve, though not the same prefix the unsharded
    enumeration order would keep (equivalence holds for ``limit=None``).
    """
    item_lists = [
        shard_occurrence_items(pattern, sharded, shard_id, index=index, limit=limit)
        for shard_id in relevant_shards(pattern, sharded)
    ]
    merged = merge_shard_items(item_lists)
    if limit is not None:
        merged = merged[:limit]
    return merged


def support_from_shard_items(
    pattern: Pattern,
    data: LabeledGraph,
    item_lists: Sequence[Sequence[OccurrenceItems]],
    measure: str,
    max_occurrences: Optional[int] = None,
) -> Tuple[float, int]:
    """Merge per-shard occurrence items and compute one measure exactly.

    The single merge + measure path shared by the serial sharded
    evaluator and the process-pool outcome loop (the pool ships each
    shard's items back and merges here, in the parent), so the two modes
    cannot drift apart.
    """
    merged = merge_shard_items(item_lists)
    if max_occurrences is not None:
        merged = merged[:max_occurrences]
    bundle = HypergraphBundle(pattern=pattern, data=data, occurrences=merged)
    support = compute_support(measure, pattern, data, bundle=bundle)
    return support, bundle.num_occurrences


def merge_lazy_partials(
    partials: Sequence[Dict[Vertex, Tuple[Tuple[Vertex, ...], bool]]],
    cap: Optional[int],
) -> int:
    """Fold per-shard anchored image scans into the capped global MNI.

    Each partial maps pattern node -> (images found in that shard,
    hit-cap flag).  A capped shard already proves the node has >= ``cap``
    global images; otherwise the shard scan was exhaustive and the union
    over shards is the node's exact global image set.
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


def node_image_partial(
    pattern: Pattern,
    expanded: LabeledGraph,
    cap: Optional[int],
    index: IndexArg = None,
) -> Dict[Vertex, Tuple[Tuple[Vertex, ...], bool]]:
    """Per-node anchored image scan of one expanded view (lazy MNI).

    The view-level core of :func:`shard_node_images`, shared by the
    shard-resident workers: pattern node -> (images found, hit-cap flag).
    """
    partial: Dict[Vertex, Tuple[Tuple[Vertex, ...], bool]] = {}
    for node in pattern.nodes():
        found = valid_images(pattern, expanded, node, stop_after=cap, index=index)
        partial[node] = (
            tuple(found),
            cap is not None and len(found) >= cap,
        )
    return partial


def shard_node_images(
    pattern: Pattern,
    sharded: ShardedIndex,
    shard_id: int,
    cap: Optional[int],
    index: IndexArg = None,
) -> Dict[Vertex, Tuple[Tuple[Vertex, ...], bool]]:
    """Per-node anchored image scan of one halo-expanded shard (lazy MNI).

    Every image found in the expanded view is a genuine global image (the
    view is a subgraph), and every anchored occurrence is contained in
    it, so unioning these partials across relevant shards reconstructs
    the exact global image set per node (see :func:`merge_lazy_partials`).
    """
    return node_image_partial(
        pattern,
        sharded.expanded_shard(shard_id, required_depth(pattern)),
        cap,
        index=index,
    )


def sharded_lazy_mni(
    pattern: Pattern,
    sharded: ShardedIndex,
    cap: Optional[int],
    index: IndexArg = None,
    shard_ids: Optional[List[int]] = None,
) -> int:
    """``min(sigma_MNI, cap)`` via per-shard anchored scans (no enumeration)."""
    if shard_ids is None:
        shard_ids = relevant_shards(pattern, sharded)
    if not shard_ids:
        return 0
    best: Optional[int] = None
    for node in pattern.nodes():
        images: Set[Vertex] = set()
        capped = False
        for shard_id in shard_ids:
            expanded = sharded.expanded_shard(shard_id, required_depth(pattern))
            found = valid_images(pattern, expanded, node, stop_after=cap, index=index)
            if cap is not None and len(found) >= cap:
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
    assert best is not None
    return best


def sharded_evaluate_support(
    pattern: Pattern,
    sharded: ShardedIndex,
    measure: str,
    *,
    lazy: bool,
    lazy_cap: int,
    max_occurrences: Optional[int],
    index_arg: IndexArg,
    histogram: Optional[Dict] = None,
    prune_below: Optional[float] = None,
) -> Tuple[float, int]:
    """Shard-parallel twin of :func:`repro.mining.parallel.evaluate_support`.

    Same contract: ``(support, num_occurrences)`` with ``-1`` when
    occurrences were never enumerated (lazy mode or a label-frequency
    prune).  The prune bound uses the merged **global** histogram, so the
    sharded and flat evaluators make byte-identical pruning decisions;
    unpruned candidates evaluate per shard and merge exactly.
    """
    kind, payload = plan_candidate(
        pattern,
        sharded,
        measure,
        lazy=lazy,
        histogram=histogram,
        prune_below=prune_below,
    )
    if kind == "flat":
        from ..mining.parallel import evaluate_support

        return evaluate_support(
            pattern,
            sharded.graph,
            measure,
            lazy=lazy,
            lazy_cap=lazy_cap,
            max_occurrences=max_occurrences,
            index_arg=index_arg,
            histogram=histogram,
            prune_below=prune_below,
        )
    if kind == "pruned":
        return payload  # type: ignore[return-value]
    shard_ids: List[int] = payload  # type: ignore[assignment]
    if lazy:
        support = float(
            sharded_lazy_mni(
                pattern, sharded, cap=lazy_cap, index=index_arg, shard_ids=shard_ids
            )
        )
        return support, -1
    item_lists = [
        shard_occurrence_items(
            pattern, sharded, shard_id, index=index_arg, limit=max_occurrences
        )
        for shard_id in shard_ids
    ]
    return support_from_shard_items(
        pattern, sharded.graph, item_lists, measure, max_occurrences=max_occurrences
    )
