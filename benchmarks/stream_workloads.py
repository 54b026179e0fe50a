"""Shared update-stream workload generators for the stream benchmarks.

``bench_incremental.py`` (tab9b/tab9c) and ``bench_partition.py``
(tab10d) time maintenance strategies over the same family of workloads:
an expensive *stable* region whose frequent patterns dominate the search,
plus a sparse *churn* region the stream actually touches.  The delta
paths re-evaluate only the cheap touched slice per batch while the
rebuild / re-partition baselines pay for the stable bulk every time —
which is exactly the effect the gates measure.  One generator module
keeps the two benchmark files from drifting apart on workload shape.
"""

from __future__ import annotations

import random

from repro.datasets.synthetic import planted_pattern_graph, random_labeled_graph
from repro.graph.builders import path_pattern, star_pattern
from repro.mining.dynamic import apply_update
from repro.mining.spec import MiningSpec

#: The tab9-family search every stream gate mines with — one
#: definition, so tab9b/tab9c (bench_incremental) and tab10d
#: (bench_partition) keep measuring the same search over the shared
#: workload.
STREAM_SPEC = MiningSpec(
    measure="mni", min_support=3, max_pattern_nodes=4, max_pattern_edges=4
)


def two_region_base():
    """A medium two-region graph: welded A/B/C bulk + sparse D/E growth region.

    The stable region (heavily welded planted A-(B,C) stars plus welded
    A-B-A-C chains) carries the expensive bulk of the frequent patterns;
    streams built by the generators below only ever touch the sparse D/E
    region, so delta maintenance re-evaluates a small footprint-affected
    slice per batch.
    """
    base = planted_pattern_graph(
        star_pattern("A", ["B", "C"]),
        num_copies=60,
        overlap_fraction=0.55,
        background_vertices=40,
        background_edge_probability=0.05,
        seed=61,
        name="stream-base",
    )
    chain = path_pattern(["A", "B", "A", "C"])
    welded = planted_pattern_graph(chain, num_copies=40, overlap_fraction=0.45, seed=57)
    offset = base.num_vertices + 1000
    for vertex in welded.vertices():
        base.add_vertex(vertex + offset, welded.label_of(vertex))
    for u, v in welded.edges():
        base.add_edge(u + offset, v + offset)
    growth = random_labeled_graph(8, 0.25, alphabet=("D", "E"), seed=67)
    offset2 = offset + 10000
    for vertex in growth.vertices():
        base.add_vertex(vertex + offset2, growth.label_of(vertex))
    for u, v in growth.edges():
        base.add_edge(u + offset2, v + offset2)
    base.add_edge(0, offset2)  # stitch the regions
    return base


def insertion_stream(base, count: int = 48, seed: int = 71):
    """Tree-shaped D/E growth: ``count`` updates hanging new leaves.

    Every new D/E vertex hangs off an existing one, keeping the affected
    region sparse (cheap to re-evaluate).
    """
    rng = random.Random(seed)
    growth_vertices = [
        vertex for vertex in base.vertices() if base.label_of(vertex) in ("D", "E")
    ]
    updates = []
    serial = 0
    while len(updates) < count:
        vertex = f"g{serial}"
        serial += 1
        updates.append(("v", vertex, rng.choice("DE")))
        updates.append(("e", rng.choice(growth_vertices), vertex))
        growth_vertices.append(vertex)
    return updates


def churn_stream(base, grow: int = 12, seed: int = 83):
    """A deletion-heavy mixed stream over a copy of ``base``.

    A short growth phase inserts ``grow`` new D/E leaves, then the stream
    deletes twice as many edges as it inserted — every leaf edge it grew
    plus pre-existing edges of the D/E region (leaf-first, so removals
    never strand a vertex with unseen incident edges).  All touched label
    pairs stay in the sparse region.  Returns ``(graph, updates)`` where
    ``graph`` is the private copy the updates were authored against.
    """
    graph = base.copy()
    rng = random.Random(seed)
    growth_vertices = [
        v for v in graph.vertices() if graph.label_of(v) in ("D", "E")
    ]
    updates = []
    inserted = []
    serial = 0
    for _ in range(grow):
        vertex = f"c{serial}"
        serial += 1
        parent = rng.choice(growth_vertices)
        updates.append(("v", vertex, rng.choice("DE")))
        updates.append(("e", parent, vertex))
        inserted.append((parent, vertex))
        growth_vertices.append(vertex)
    # Deletion phase: drop every inserted leaf edge (newest first), then
    # prune pre-existing D/E region edges leaf-first.
    for parent, vertex in reversed(inserted):
        updates.append(("de", parent, vertex))
        updates.append(("dv", vertex))
    region = {v for v in graph.vertices() if graph.label_of(v) in ("D", "E")}
    region_edges = [(u, v) for u, v in graph.edges() if u in region and v in region]
    for u, v in region_edges[: len(inserted)]:
        updates.append(("de", u, v))
    deletions = sum(1 for update in updates if update[0] in ("de", "dv"))
    assert deletions > len(updates) // 2  # deletion-heavy by construction
    return graph, updates


def batches(updates, size: int):
    """Split an update list into contiguous batches of ``size``."""
    return [updates[start : start + size] for start in range(0, len(updates), size)]


def apply_batch(graph, batch):
    """Apply one batch of parsed update ops to ``graph``."""
    for update in batch:
        apply_update(graph, update)
