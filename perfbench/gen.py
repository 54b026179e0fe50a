"""Seeded input generator for the layered benchmark.

Everything a run feeds the program is derived here from one seed: the
data graph, written as an ``.lg`` file the program loads, and an endless
cyclic churn stream of update batches, sent to the program as protocol
lines.  Nothing here imports the program under test, so the inputs stay
the same when the program's own dataset generators change.

The graph shapes follow the repository's tab4 (three communities) and
tab10 (four label-disjoint regions) datasets: welded planted stars and
chains plus a preferential-attachment region.  Each shape, and the
shape of its churn stream, is drawn once from a fixed generator seed.
The run seed renames every base vertex to a fresh random integer id,
keeping the ids' canonical (``repr``-sorted) order, which the program's
search order follows.  Cost therefore hardly moves between seeds: a
shape drawn from the run seed moves a cold mine by +-15%, and an
order-changing renaming moves a lazy-MNI mine by +-10%, more than the
benchmark's bounds allow.  Churn vertices are named ``c<n>``, which sort
before every integer id.  The churn keeps the live graph in a fixed
size band: every batch inserts one new leaf and deletes the oldest live
one, so per-batch cost does not drift over a run of any length.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterator, List, Sequence, Tuple

#: Renamed base vertex ids are drawn below this bound.
ID_SPACE = 1_000_000


class GraphSpec:
    """A labeled graph under construction (ids -> labels, undirected edges)."""

    def __init__(self) -> None:
        self.labels: Dict[object, str] = {}
        self.edges: Dict[tuple, None] = {}  # insertion-ordered set

    def add_vertex(self, vertex, label: str) -> None:
        self.labels[vertex] = label

    def add_edge(self, u, v) -> None:
        if u != v:
            self.edges[(u, v) if repr(u) < repr(v) else (v, u)] = None

    def renamed(self, rng: random.Random) -> Tuple["GraphSpec", Dict[int, int]]:
        """An order-preserving random renaming: the copy and the id map.

        Old and new ids are paired in canonical (``repr``-sorted) order.
        """
        old = sorted(self.labels, key=repr)
        new = sorted(rng.sample(range(ID_SPACE), len(old)), key=repr)
        ids = dict(zip(old, new))
        copy = GraphSpec()
        for vertex, label in self.labels.items():
            copy.add_vertex(ids[vertex], label)
        for u, v in self.edges:
            copy.add_edge(ids[u], ids[v])
        return copy, ids

    def to_lg(self, name: str) -> str:
        lines = [f"# t {name}"]
        lines.extend(f"v {v} {label}" for v, label in self.labels.items())
        lines.extend(f"e {u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _planted(
    graph: GraphSpec,
    rng: random.Random,
    labels: Sequence[str],
    edges: Sequence[Tuple[int, int]],
    copies: int,
    weld: float,
    offset: int,
    background: int = 0,
    background_p: float = 0.0,
) -> None:
    """Plant ``copies`` of a small pattern, welding each to its predecessor.

    With probability ``weld`` a copy reuses the previous copy's vertex for
    one randomly chosen pattern node, which chains occurrences into the
    heavily overlapping communities the support measures disagree on.
    Background vertices carry ``bg_*`` labels, outside the planted
    alphabet.
    """
    next_id = offset
    previous: List[int] = []
    for _ in range(copies):
        mapping: Dict[int, int] = {}
        if previous and rng.random() < weld:
            node = rng.randrange(len(labels))
            mapping[node] = previous[node]
        for node, label in enumerate(labels):
            if node not in mapping:
                mapping[node] = next_id
                graph.add_vertex(next_id, label)
                next_id += 1
        for a, b in edges:
            graph.add_edge(mapping[a], mapping[b])
        previous = [mapping[node] for node in range(len(labels))]
    noise = list(range(next_id, next_id + background))
    for vertex in noise:
        graph.add_vertex(vertex, f"bg_{rng.choice('ABCD')}")
    for i, u in enumerate(noise):
        for v in noise[i + 1 :]:
            if rng.random() < background_p:
                graph.add_edge(u, v)


def _preferential(
    graph: GraphSpec,
    rng: random.Random,
    n: int,
    m: int,
    alphabet: Sequence[str],
    skew: float,
    offset: int,
) -> None:
    """Preferential attachment: hubs and heavy-tailed degrees."""
    weights = [(1.0 + skew) ** (-i) for i in range(len(alphabet))]

    def label() -> str:
        return rng.choices(alphabet, weights=weights, k=1)[0]

    targets: List[int] = []
    for i in range(m + 1):
        graph.add_vertex(offset + i, label())
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            graph.add_edge(offset + i, offset + j)
            targets.extend((offset + i, offset + j))
    for i in range(m + 1, n):
        vertex = offset + i
        graph.add_vertex(vertex, label())
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.choice(targets))
        for target in sorted(chosen):
            graph.add_edge(vertex, target)
            targets.extend((vertex, target))


def _random_region(
    graph: GraphSpec,
    rng: random.Random,
    n: int,
    p: float,
    alphabet: Sequence[str],
    offset: int,
) -> None:
    for i in range(n):
        graph.add_vertex(offset + i, rng.choice(alphabet))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                graph.add_edge(offset + i, offset + j)


def _anchors(
    graph: GraphSpec, ids: Dict[int, int], labels: Sequence[str]
) -> List[Tuple[int, str]]:
    """Renamed churn anchors in a seed-independent order (by original id)."""
    return [
        (ids[v], graph.labels[ids[v]]) for v in sorted(ids) if graph.labels[ids[v]] in labels
    ]


STAR = (("A", "B", "C"), ((0, 1), (0, 2)))
CHAIN = (("A", "B", "A", "C"), ((0, 1), (1, 2), (2, 3)))


def medium_graph(seed: int) -> GraphSpec:
    """The three-community tab4 shape (672 vertices / 847 edges)."""
    rng = random.Random("medium:shape")
    graph = GraphSpec()
    _planted(graph, rng, *STAR, copies=90, weld=0.55, offset=0,
             background=80, background_p=0.05)
    _planted(graph, rng, *CHAIN, copies=60, weld=0.45, offset=10_000)
    _preferential(graph, rng, 160, 2, "DEFGH", 0.25, offset=20_000)
    graph.add_edge(0, 20_000)
    graph.add_edge(10_000, 20_001)
    return graph.renamed(random.Random(f"medium:{seed}"))[0]


class CyclicChurn:
    """An endless insert/delete stream over a fixed set of anchor vertices.

    ``live`` churn leaves exist at all times: they are part of the
    generated graph, and every batch inserts one new leaf (``v`` plus one
    ``e`` per anchor) and then deletes the oldest leaf (``de`` per anchor,
    then ``dv``).  Leaves attach only to base vertices, never to each
    other, so the region's shape stays in a fixed band however long the
    stream runs.  ``leaf_labels`` maps the first anchor's label to the
    labels a new leaf may take, so every label pair is one the base
    region already has.
    """

    def __init__(
        self,
        seed: str,
        anchors: Sequence[Tuple[int, str]],
        leaf_labels: Dict[str, str],
        fanout: int,
        live: int,
    ) -> None:
        self._rng = random.Random(seed)
        self._anchors = list(anchors)
        self._leaf_labels = leaf_labels
        self._fanout = fanout
        self._serial = 0
        self.initial = [self._new_leaf() for _ in range(live)]
        self._live = deque(self.initial)

    def _new_leaf(self) -> Tuple[str, str, Tuple[int, ...]]:
        picked = self._rng.sample(self._anchors, self._fanout)
        label = self._rng.choice(self._leaf_labels[picked[0][1]])
        vertex = f"c{self._serial}"
        self._serial += 1
        return vertex, label, tuple(sorted(anchor for anchor, _ in picked))

    def add_initial(self, graph: GraphSpec) -> None:
        for vertex, label, parents in self.initial:
            graph.add_vertex(vertex, label)
            for parent in parents:
                graph.add_edge(parent, vertex)

    def batches(self) -> Iterator[List[list]]:
        """Protocol update records, one batch per step, forever."""
        while True:
            vertex, label, parents = self._new_leaf()
            batch: List[list] = [["v", vertex, label]]
            batch.extend(["e", parent, vertex] for parent in parents)
            old, _, old_parents = self._live.popleft()
            batch.extend(["de", parent, old] for parent in old_parents)
            batch.append(["dv", old])
            self._live.append((vertex, label, parents))
            yield batch


def stream_graph(seed: int) -> Tuple[GraphSpec, CyclicChurn]:
    """Two regions (327 + 8 vertices / 297 + 16 edges): A/B/C bulk, D/E churn.

    The stream only touches the D/E region, so the maintained miner
    re-evaluates a small footprint-affected slice per batch (the tab9
    shape).  Batches are 6 ops: a leaf with two edges in, the oldest
    leaf with its two edges out.
    """
    rng = random.Random("stream:shape")
    graph = GraphSpec()
    _planted(graph, rng, *STAR, copies=60, weld=0.55, offset=0,
             background=40, background_p=0.05)
    _planted(graph, rng, *CHAIN, copies=40, weld=0.45, offset=10_000)
    _random_region(graph, rng, 8, 0.25, "DE", offset=20_000)
    graph.add_edge(0, 20_000)
    graph, ids = graph.renamed(random.Random(f"stream:{seed}"))
    anchors = _anchors(graph, ids, ("D", "E"))
    churn = CyclicChurn(
        "stream-churn:shape", anchors, {"D": "DE", "E": "DE"}, fanout=2, live=8
    )
    churn.add_initial(graph)
    return graph, churn


def four_region_graph(seed: int) -> Tuple[GraphSpec, CyclicChurn]:
    """The tab10 four-region shape (723 + 8 vertices / 733 + 8 edges) plus churn.

    Regions use disjoint alphabets (A/B/C, D/E/F, G/H, J/K/L), so under
    label partitioning most candidates live in one shard.  The churn
    hangs single-edge leaves off the D/E/F chain region, only along label
    pairs that region already has (D-E, D-F).  Batches are 4 ops.
    """
    rng = random.Random("four-region:shape")
    graph = GraphSpec()
    _planted(graph, rng, *STAR, copies=70, weld=0.55, offset=0,
             background=50, background_p=0.05)
    _planted(graph, rng, ("D", "E", "D", "F"), ((0, 1), (1, 2), (2, 3)),
             copies=56, weld=0.45, offset=10_000)
    _planted(graph, rng, ("G", "H", "H"), ((0, 1), (0, 2)), copies=59,
             weld=0.6, offset=20_000, background=30, background_p=0.05)
    _preferential(graph, rng, 119, 2, "JKL", 0.25, offset=30_000)
    for first, second in ((0, 10_000), (10_000, 20_000), (20_000, 30_000)):
        graph.add_edge(first, second)
    graph, ids = graph.renamed(random.Random(f"four-region:{seed}"))
    anchors = _anchors(graph, ids, ("D", "E", "F"))
    churn = CyclicChurn(
        "four-region-churn:shape",
        anchors,
        {"D": "EF", "E": "D", "F": "D"},
        fanout=1,
        live=8,
    )
    churn.add_initial(graph)
    return graph, churn
