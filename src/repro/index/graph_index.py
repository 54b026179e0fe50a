"""Precomputed acceleration index over a :class:`LabeledGraph`.

Every hot path of the library — subgraph matching, anchored searches,
occurrence enumeration, candidate generation in the miner — would
otherwise re-scan the data graph per query: per-call set copies of the
label inverted lists, per-call ``repr``-sorts of candidate vertices,
per-call neighbor scans for label-filtered adjacency.  A
:class:`GraphIndex` materializes all of that once per graph, in flat
:mod:`array` buffers over *interned* ids:

* a :class:`~repro.index.compact.LabelTable` interns vertex ids and
  labels to dense ints (vints / lints) at the graph boundary — slots are
  assigned in canonical (``repr``) order at build time, appended for
  entries first seen by a patch, and tombstoned (never recycled for a
  different key) on removal;
* **inverted lists** — ``lint -> array('i')`` of member vints, kept in
  the library's canonical ``repr`` order;
* **CSR adjacency rows** — one ``array('i')`` per vertex holding an
  inline label directory followed by the neighbor vints::

      [k, l1, c1, ..., lk, ck,  <c1 neighbors of label l1>, ...]

  directory groups are sorted by lint, neighbors within a group in
  canonical order, so a label-filtered adjacency query is one small
  header scan plus a contiguous slice, and a vertex's neighbor-label
  signature is its directory;
* **label-pair edge counts** — ``(lint, lint) -> int``, keyed by the
  canonical unordered pair (the graphs are vertex-labeled with a single
  implicit edge label, so the paper's (src-label, edge-label, dst-label)
  triple collapses to the unordered vertex-label pair); a pair is a key
  exactly while some data edge realizes it.

The matching engines (:mod:`repro.isomorphism.vf2`,
:mod:`repro.isomorphism.anchored`) read the buffers directly and decode
back to user-facing vertices only at result boundaries; the decoded
query methods below serve the miner, the partition layer, and lazy MNI.

Each :class:`LabeledGraph` carries a version counter bumped on every
mutation; :func:`get_index` caches the index on the graph itself and
transparently rebuilds after mutations, so "build once per mining session,
reuse across all candidates" is automatic.  Indexes never drift from their
graph: they either match its version exactly or are replaced.  Under an
update stream — insertions *and* deletions — a full rebuild is avoidable:
:meth:`GraphIndex.apply_delta` patches the buffers in O(delta) per update
(``array.insert`` and slice deletion are C-level memmoves within one
row/list), and :class:`repro.index.delta.IndexMaintainer` drives that
from a cursor on the graph's delta log.  A rebuild re-interns the table
from scratch, which is the only point where tombstoned slots are
reclaimed.

All orders are the same canonical ``repr`` orders used by the brute-force
reference (``index=False``), which is what makes indexed and unindexed
enumeration byte-identical (asserted by ``tests/test_index_equivalence.py``),
and every patch splice lands where a rebuild would put it (asserted by
``tests/test_compact_index.py`` and ``tests/test_delta_maintenance.py``).
"""

from __future__ import annotations

import sys
import weakref
from array import array
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..graph.labeled_graph import Label, LabeledGraph, Vertex
from ..obs import metrics as _metrics
from .compact import LabelTable
from .maintainable import MaintainableIndex

_EMPTY: Tuple = ()


def _label_pair_key(lu: Label, lv: Label) -> Tuple[Label, Label]:
    """Canonical (repr-sorted) form of an unordered label pair."""
    return (lu, lv) if repr(lu) <= repr(lv) else (lv, lu)


def _row_find(row: array, li: int) -> Tuple[int, int]:
    """Locate label group ``li`` in a CSR row: ``(body_offset, count)``.

    ``count`` is 0 when the group is absent; ``body_offset`` is then the
    offset the group's neighbors *would* occupy.
    """
    k = row[0]
    off = 1 + 2 * k
    for gi in range(k):
        gl = row[1 + 2 * gi]
        gc = row[2 + 2 * gi]
        if gl == li:
            return off, gc
        if gl > li:
            return off, 0
        off += gc
    return off, 0


class GraphIndex(MaintainableIndex):
    """An acceleration structure for one labeled graph snapshot.

    Build with :meth:`build` (or the cached :func:`get_index`).  The index
    never mutates the graph; :meth:`is_current` reports whether the graph
    has changed since the snapshot was taken.  A stale index can be
    brought current either by rebuilding or by :meth:`apply_delta`
    patching one typed delta — insertion or removal — in O(delta)
    (the :class:`~repro.index.maintainable.MaintainableIndex` protocol,
    shared with the partition layer's ``ShardedIndex``).
    """

    __slots__ = (
        "_graph",
        "version",
        "table",
        "_lab",
        "_deg",
        "_rows",
        "_inv",
        "_pair_counts",
        "_memo_inv",
        "_memo_hist",
        "_memo_lpairs",
        "_memo_segset",
    )

    def __init__(self, graph: LabeledGraph) -> None:
        # The graph caches its index, so the index refers back weakly: a
        # strong reference both ways would leave every dropped indexed
        # graph to the cycle collector.
        self._graph = weakref.ref(graph)
        self.version = graph.mutation_version()

        vertices = graph.vertices()  # canonical repr order
        table = LabelTable(vertices, graph.label_alphabet())
        self.table = table
        vint_of = table._vint_of
        labels_map = graph.labels()
        lint_of = table._lint_of

        lab = array("i", (lint_of[labels_map[v]] for v in vertices))
        self._lab = lab

        # Inverted lists: ascending vint == canonical order at build time.
        inv: Dict[int, array] = {}
        for vi in range(len(vertices)):
            li = lab[vi]
            arr = inv.get(li)
            if arr is None:
                inv[li] = array("i", (vi,))
            else:
                arr.append(vi)
        self._inv = inv

        deg = array("i", bytes(4 * len(vertices)))
        rows: List[array] = []
        for vi, vertex in enumerate(vertices):
            nbrs = sorted(vint_of[w] for w in graph.neighbors(vertex))
            deg[vi] = len(nbrs)
            if not nbrs:
                rows.append(array("i", (0,)))
                continue
            buckets: Dict[int, List[int]] = {}
            for w in nbrs:
                buckets.setdefault(lab[w], []).append(w)
            header: List[int] = [len(buckets)]
            body: List[int] = []
            for gl in sorted(buckets):
                members = buckets[gl]
                header.append(gl)
                header.append(len(members))
                body.extend(members)
            rows.append(array("i", header + body))
        self._deg = deg
        self._rows = rows

        # Edge counts per canonical label pair; a pair is present exactly
        # while some data edge realizes it.
        pair_counts: Dict[Tuple[int, int], int] = {}
        for u, v in graph.edges():
            key = self._pair_key(lab[vint_of[u]], lab[vint_of[v]])
            pair_counts[key] = pair_counts.get(key, 0) + 1
        self._pair_counts = pair_counts
        self._reset_memos()

    # ------------------------------------------------------------------
    # factory / freshness
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Optional[LabeledGraph]:
        """The indexed graph (``None`` once it is gone)."""
        return self._graph()

    @classmethod
    def build(cls, graph: LabeledGraph) -> "GraphIndex":
        """Build a fresh index for ``graph`` (no caching)."""
        return cls(graph)

    def rebuilt(self) -> "GraphIndex":
        """A from-scratch index (fresh table, no tombstones)."""
        return GraphIndex(self.graph)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _reset_memos(self) -> None:
        # Decoded-object caches (lazy, rebuilt after any patch): decoding
        # translates vints back to vertex objects, and repeated decoded
        # queries (sharded evaluation) should not pay that per call.
        self._memo_inv: Dict[int, Tuple[Vertex, ...]] = {}
        self._memo_hist: Optional[Dict[Label, int]] = None
        self._memo_lpairs: Optional[FrozenSet[Tuple[Label, Label]]] = None
        self._memo_segset: Dict[int, FrozenSet[int]] = {}

    def _pair_key(self, la: int, lb: int) -> Tuple[int, int]:
        """Canonical (repr-ordered by decoded label) form of a lint pair."""
        label_of = self.table.label_of
        if repr(label_of[la]) <= repr(label_of[lb]):
            return (la, lb)
        return (lb, la)

    def _live_vint(self, vertex: Vertex) -> int:
        """The vint of a *present* vertex (KeyError for unknown/retired)."""
        vi = self.table._vint_of[vertex]
        if self._lab[vi] < 0:
            raise KeyError(vertex)
        return vi

    def _bisect_inv(self, arr: array, rv: str) -> int:
        """Leftmost canonical position for repr ``rv`` in a vint array."""
        dec = self.table.vertex_of
        lo, hi = 0, len(arr)
        while lo < hi:
            mid = (lo + hi) // 2
            if repr(dec[arr[mid]]) < rv:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _segment(self, vi: int, li: int) -> Tuple[array, int, int]:
        """The (row, start, stop) slice of ``vi``'s neighbors with label ``li``."""
        row = self._rows[vi]
        off, cnt = _row_find(row, li)
        return row, off, off + cnt

    def _segment_len(self, vi: int, li: int) -> int:
        return _row_find(self._rows[vi], li)[1]

    def _segment_set(self, vi: int, li: int) -> FrozenSet[int]:
        """Memoized frozenset of ``vi``'s neighbor vints with label ``li``.

        The matching engines probe the same (vertex, label) adjacency
        sets across thousands of expansions per mining session; building
        each set once per patch generation amortizes that to nothing.
        Keys pack as ``vi * num_interned_labels + li`` (both ids are
        dense and stable between patches).
        """
        key = vi * len(self.table.label_of) + li
        cached = self._memo_segset.get(key)
        if cached is None:
            row, start, stop = self._segment(vi, li)
            cached = frozenset(row[start:stop])
            self._memo_segset[key] = cached
        return cached

    # ------------------------------------------------------------------
    # delta maintenance: canonical splices into the flat buffers
    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> bool:
        """Patch this index in place for one typed graph delta.

        Insertions (:class:`~repro.index.delta.VertexAdded`,
        :class:`~repro.index.delta.EdgeAdded`) are absorbed in O(delta):
        a vertex splices into its label's inverted list, an edge splices
        into both endpoints' CSR rows at the canonical (``repr``-sorted)
        position and bumps its label-pair count, so the patched index is
        structurally identical to a rebuilt one.

        Removals (:class:`~repro.index.delta.EdgeRemoved`,
        :class:`~repro.index.delta.VertexRemoved`) are the exact inverse
        splices: an edge leaves both endpoints' rows and drops its
        label-pair count (directory groups and pair counts that empty are
        deleted outright, exactly as a rebuild would never create them);
        a vertex leaves its label's inverted list and its intern slot is
        tombstoned.  A ``VertexRemoved`` delta is only sound once the
        vertex is isolated — the publisher emits the incident
        ``EdgeRemoved`` deltas first, so a contiguous replay is always in
        that order.

        The index version advances to the delta's version; callers must
        apply deltas contiguously
        (:class:`~repro.index.delta.IndexMaintainer` enforces this).

        Returns ``False`` for delta kinds this index cannot patch — the
        caller falls back to :meth:`build`.
        """
        from .delta import EdgeAdded, EdgeRemoved, VertexAdded, VertexRemoved

        if isinstance(delta, VertexAdded):
            self._apply_vertex_added(delta.vertex, delta.label)
        elif isinstance(delta, EdgeAdded):
            self._apply_edge_added(delta.u, delta.v, delta.label_u, delta.label_v)
        elif isinstance(delta, EdgeRemoved):
            self._apply_edge_removed(delta.u, delta.v, delta.label_u, delta.label_v)
        elif isinstance(delta, VertexRemoved):
            self._apply_vertex_removed(delta.vertex, delta.label)
        else:
            return False
        self.version = delta.version
        return True

    def _apply_vertex_added(self, vertex: Vertex, label: Label) -> None:
        table = self.table
        vi = table._vint_of.get(vertex)
        if vi is None:
            vi = table.intern_vertex(vertex)
            self._lab.append(-1)
            self._deg.append(0)
            self._rows.append(array("i", (0,)))
        li = table.intern_label(label)
        self._lab[vi] = li
        self._deg[vi] = 0
        self._rows[vi] = array("i", (0,))
        arr = self._inv.get(li)
        if arr is None:
            self._inv[li] = array("i", (vi,))
        else:
            arr.insert(self._bisect_inv(arr, repr(vertex)), vi)
        self._reset_memos()

    def _apply_edge_added(self, u: Vertex, v: Vertex, lu: Label, lv: Label) -> None:
        table = self.table
        ui = self._live_vint(u)
        wi = self._live_vint(v)
        li_u = table.intern_label(lu)
        li_v = table.intern_label(lv)
        key = self._pair_key(li_u, li_v)
        self._pair_counts[key] = self._pair_counts.get(key, 0) + 1
        self._row_insert(ui, li_v, wi, v)
        self._row_insert(wi, li_u, ui, u)
        self._deg[ui] += 1
        self._deg[wi] += 1
        self._reset_memos()

    def _apply_edge_removed(self, u: Vertex, v: Vertex, lu: Label, lv: Label) -> None:
        table = self.table
        ui = self._live_vint(u)
        wi = self._live_vint(v)
        li_u = table._lint_of[lu]
        li_v = table._lint_of[lv]
        # The row splices raise KeyError for an unindexed edge before
        # anything is patched.
        self._row_remove(ui, li_v, wi, v)
        self._row_remove(wi, li_u, ui, u)
        key = self._pair_key(li_u, li_v)
        count = self._pair_counts[key] - 1
        if count:
            self._pair_counts[key] = count
        else:
            # A rebuild never materializes empty entries.
            del self._pair_counts[key]
        self._deg[ui] -= 1
        self._deg[wi] -= 1
        self._reset_memos()

    def _apply_vertex_removed(self, vertex: Vertex, label: Label) -> None:
        vi = self._live_vint(vertex)
        if self._deg[vi] != 0:
            raise ValueError(
                f"VertexRemoved({vertex!r}) patched while the vertex still has "
                f"{self._deg[vi]} indexed edges; the publisher must emit "
                "the incident EdgeRemoved deltas first"
            )
        li = self.table._lint_of[label]
        arr = self._inv[li]
        pos = self._bisect_inv(arr, repr(vertex))
        while pos < len(arr) and arr[pos] != vi:
            pos += 1
        if pos == len(arr):
            raise KeyError(vertex)
        del arr[pos]
        if not arr:
            del self._inv[li]
        # Tombstone: the table keeps the slot, the label array retires it.
        self._lab[vi] = -1
        self._rows[vi] = array("i", (0,))
        self._reset_memos()

    def _row_insert(self, vi: int, li: int, wi: int, w: Vertex) -> None:
        """Splice neighbor ``wi`` (label ``li``) into ``vi``'s CSR row."""
        row = self._rows[vi]
        k = row[0]
        off = 1 + 2 * k
        gi = k
        found = False
        for g in range(k):
            gl = row[1 + 2 * g]
            if gl == li:
                gi, found = g, True
                break
            if gl > li:
                gi = g
                break
            off += row[2 + 2 * g]
        if not found:
            # New directory group: header grows by one (lint, count) pair,
            # shifting the body right by two slots.
            row[1 + 2 * gi : 1 + 2 * gi] = array("i", (li, 0))
            row[0] = k + 1
            off += 2
        # Canonical position within the (repr-sorted) group.
        dec = self.table.vertex_of
        cnt = row[2 + 2 * gi]
        rw = repr(w)
        lo, hi = 0, cnt
        while lo < hi:
            mid = (lo + hi) // 2
            if repr(dec[row[off + mid]]) < rw:
                lo = mid + 1
            else:
                hi = mid
        row.insert(off + lo, wi)
        row[2 + 2 * gi] = cnt + 1

    def _row_remove(self, vi: int, li: int, wi: int, w: Vertex) -> None:
        """Splice neighbor ``wi`` (label ``li``) out of ``vi``'s CSR row."""
        row = self._rows[vi]
        k = row[0]
        off = 1 + 2 * k
        gi = -1
        for g in range(k):
            gl = row[1 + 2 * g]
            if gl == li:
                gi = g
                break
            off += row[2 + 2 * g]
        if gi < 0:
            raise KeyError(w)
        cnt = row[2 + 2 * gi]
        dec = self.table.vertex_of
        rw = repr(w)
        lo, hi = 0, cnt
        while lo < hi:
            mid = (lo + hi) // 2
            if repr(dec[row[off + mid]]) < rw:
                lo = mid + 1
            else:
                hi = mid
        while lo < cnt and row[off + lo] != wi:
            lo += 1
        if lo == cnt:
            raise KeyError(w)
        del row[off + lo]
        if cnt == 1:
            # The group emptied: drop its directory entry, as a rebuild
            # would never have created it.
            del row[1 + 2 * gi : 3 + 2 * gi]
            row[0] = k - 1
        else:
            row[2 + 2 * gi] = cnt - 1

    # ------------------------------------------------------------------
    # decoded query API (canonical order, memoized per patch generation)
    # ------------------------------------------------------------------
    def vertices_with_label(self, label: Label) -> Tuple[Vertex, ...]:
        """Vertices carrying ``label``, in canonical order."""
        li = self.table._lint_of.get(label)
        if li is None:
            return _EMPTY
        cached = self._memo_inv.get(li)
        if cached is None:
            arr = self._inv.get(li)
            if not arr:
                return _EMPTY
            dec = self.table.vertex_of
            cached = tuple(dec[vi] for vi in arr)
            self._memo_inv[li] = cached
        return cached

    def label_histogram(self) -> Dict[Label, int]:
        """Vertex count per label (do not mutate the returned dict)."""
        hist = self._memo_hist
        if hist is None:
            label_of = self.table.label_of
            hist = {label_of[li]: len(arr) for li, arr in self._inv.items()}
            self._memo_hist = hist
        return hist

    def adjacent_label_pairs(self) -> FrozenSet[Tuple[Label, Label]]:
        """All label pairs joined by a data edge (both orders present)."""
        pairs = self._memo_lpairs
        if pairs is None:
            label_of = self.table.label_of
            pairs = frozenset(
                pair
                for a, b in self._pair_counts
                for pair in ((label_of[a], label_of[b]), (label_of[b], label_of[a]))
            )
            self._memo_lpairs = pairs
        return pairs

    def pair_count(self, lu: Label, lv: Label) -> int:
        """How many data edges join a ``lu`` vertex to a ``lv`` vertex."""
        lint_of = self.table._lint_of
        la, lb = lint_of.get(lu), lint_of.get(lv)
        if la is None or lb is None:
            return 0
        return self._pair_counts.get(self._pair_key(la, lb), 0)

    def distinct_edge_label_pairs(self) -> List[Tuple[Label, Label]]:
        """Canonical unordered label pairs realized by data edges, sorted."""
        label_of = self.table.label_of
        return sorted(
            ((label_of[a], label_of[b]) for a, b in self._pair_counts),
            key=repr,
        )

    def degree_of(self, vertex: Vertex) -> int:
        return self._deg[self._live_vint(vertex)]

    def signature_of(self, vertex: Vertex) -> Dict[Label, int]:
        """Neighbor-label multiset of ``vertex`` (its CSR row directory)."""
        row = self._rows[self._live_vint(vertex)]
        label_of = self.table.label_of
        return {label_of[row[1 + 2 * g]]: row[2 + 2 * g] for g in range(row[0])}

    def neighbors_with_label(self, vertex: Vertex, label: Label) -> Tuple[Vertex, ...]:
        """Neighbors of ``vertex`` carrying ``label``, in canonical order."""
        vi = self._live_vint(vertex)
        li = self.table._lint_of.get(label)
        if li is None:
            return _EMPTY
        row, start, stop = self._segment(vi, li)
        if start == stop:
            return _EMPTY
        dec = self.table.vertex_of
        return tuple(dec[row[i]] for i in range(start, stop))

    # ------------------------------------------------------------------
    # footprint accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Approximate resident bytes of the index buffers.

        Counts the intern table, the flat arrays, and container overhead;
        excludes the vertex/label objects themselves (shared with the
        graph) and the transient decode memos.  Feeds the
        ``repro_index_bytes`` gauge.
        """
        total = self.table.nbytes()
        total += sys.getsizeof(self._lab) + sys.getsizeof(self._deg)
        total += sys.getsizeof(self._rows)
        for row in self._rows:
            total += sys.getsizeof(row)
        total += sys.getsizeof(self._inv)
        for arr in self._inv.values():
            total += sys.getsizeof(arr)
        total += sys.getsizeof(self._pair_counts)
        return total

    def intern_entries(self) -> int:
        """Interned slots in the label table (tombstones included)."""
        return self.table.entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        live = sum(1 for li in self._lab if li >= 0)
        return (
            f"<GraphIndex |V|={live} labels={len(self._inv)} "
            f"pairs={len(self._pair_counts)} interned={self.table.entries} "
            f"v{self.version}>"
        )


#: What callers may pass wherever an index is accepted:
#: ``None``  -> use the graph's cached index (build it on first use);
#: ``False`` -> brute force, no index (the reference path);
#: a :class:`GraphIndex` -> use exactly this index.
IndexArg = Union[None, bool, GraphIndex]


def get_index(graph: LabeledGraph) -> GraphIndex:
    """The cached index for ``graph``, (re)building after any mutation.

    Publishes the ``repro_index_bytes`` / ``repro_index_intern_entries``
    footprint gauges for each fresh build.
    """
    cached = graph.cached_index()
    if isinstance(cached, GraphIndex) and cached.is_current():
        return cached
    index = GraphIndex(graph)
    graph.cache_index(index)
    _metrics.gauge("repro_index_bytes").set(index.nbytes())
    _metrics.gauge("repro_index_intern_entries").set(index.intern_entries())
    return index


def resolve_index(graph: LabeledGraph, index: IndexArg) -> Optional[GraphIndex]:
    """Normalize an :data:`IndexArg` into a usable index (or ``None``).

    Returns ``None`` for the brute-force request (``index=False``); a stale
    explicit index is silently replaced by a fresh cached one.
    """
    if index is False:
        return None
    if isinstance(index, GraphIndex):
        if index.graph is graph and index.is_current():
            return index
        return get_index(graph)
    return get_index(graph)
