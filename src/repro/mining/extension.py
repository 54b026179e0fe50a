"""Candidate generation for pattern growth.

The miner grows patterns one edge at a time.  Candidates come in two kinds:

* **forward extensions** — attach a brand-new node (with some label) to an
  existing pattern node;
* **backward extensions** — add an edge between two existing pattern nodes.

To avoid generating candidates that cannot possibly occur, extensions are
derived from the *data graph's* observed structure: the set of adjacent
label pairs limits forward extensions, and backward extensions are only
proposed between nodes whose labels co-occur on a data edge.  This is the
standard single-graph pattern-growth recipe (GraMi-style search scheme);
completeness is preserved because every occurrence of a superpattern
projects onto an occurrence of the one-edge-smaller pattern.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from ..graph.labeled_graph import Label, LabeledGraph
from ..graph.pattern import Pattern
from ..index.graph_index import GraphIndex


def adjacent_label_pairs(
    data: LabeledGraph, index: Optional[GraphIndex] = None
) -> Set[Tuple[Label, Label]]:
    """All (unordered, both orders stored) label pairs joined by a data edge.

    With an index this is a precomputed lookup; without one it scans the
    edge list (the brute-force reference path).
    """
    if index is not None:
        return set(index.adjacent_label_pairs())
    pairs: Set[Tuple[Label, Label]] = set()
    for u, v in data.edges():
        lu, lv = data.label_of(u), data.label_of(v)
        pairs.add((lu, lv))
        pairs.add((lv, lu))
    return pairs


def _seed_pattern(lu: Label, lv: Label) -> Pattern:
    # Canonical endpoint order, so indexed and edge-scan seed generation
    # produce literally identical patterns (not merely isomorphic ones).
    if repr(lv) < repr(lu):
        lu, lv = lv, lu
    return Pattern.from_edges(
        [("v1", lu), ("v2", lv)],
        [("v1", "v2")],
        name=f"seed:{lu}-{lv}",
    )


def single_edge_patterns(
    data: LabeledGraph, index: Optional[GraphIndex] = None
) -> List[Pattern]:
    """All distinct one-edge patterns occurring in the data graph.

    These seed the mining search; label pairs are deduplicated as
    unordered pairs.  With an index the seeds come straight from the
    label-pair edge counts (no edge scan); both paths return the same
    patterns in the same order.
    """
    if index is not None:
        seeds = [_seed_pattern(lu, lv) for lu, lv in index.distinct_edge_label_pairs()]
        return sorted(
            seeds, key=lambda p: repr(sorted(p.graph.labels().values(), key=repr))
        )
    seen: Set[FrozenSet] = set()
    seeds = []
    for u, v in data.edges():
        lu, lv = data.label_of(u), data.label_of(v)
        key = frozenset({(0, lu), (1, lv)}) if lu == lv else frozenset({lu, lv})
        if key in seen:
            continue
        seen.add(key)
        seeds.append(_seed_pattern(lu, lv))
    return sorted(
        seeds, key=lambda p: repr(sorted(p.graph.labels().values(), key=repr))
    )


def forward_extensions(
    pattern: Pattern, label_pairs: Set[Tuple[Label, Label]]
) -> Iterator[Pattern]:
    """All one-new-node extensions consistent with observed label pairs."""
    next_index = pattern.num_nodes + 1
    new_node = f"v{next_index}"
    while pattern.graph.has_vertex(new_node):
        next_index += 1
        new_node = f"v{next_index}"
    candidate_labels = sorted({pair[1] for pair in label_pairs}, key=repr)
    for anchor in pattern.nodes():
        anchor_label = pattern.label_of(anchor)
        for label in candidate_labels:
            if (anchor_label, label) not in label_pairs:
                continue
            yield pattern.extend_with_node(anchor, new_node, label)


def backward_extensions(
    pattern: Pattern, label_pairs: Set[Tuple[Label, Label]]
) -> Iterator[Pattern]:
    """All close-a-cycle extensions between existing non-adjacent nodes."""
    nodes = pattern.nodes()
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if pattern.graph.has_edge(u, v):
                continue
            if (pattern.label_of(u), pattern.label_of(v)) not in label_pairs:
                continue
            yield pattern.extend_with_edge(u, v)


def all_extensions(
    pattern: Pattern,
    label_pairs: Set[Tuple[Label, Label]],
    max_nodes: int,
    max_edges: int,
) -> Iterator[Pattern]:
    """Every candidate one-edge extension respecting the size limits."""
    if pattern.num_edges >= max_edges:
        return
    yield from backward_extensions(pattern, label_pairs)
    if pattern.num_nodes < max_nodes:
        yield from forward_extensions(pattern, label_pairs)
