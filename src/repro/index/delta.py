"""Delta-maintained graph indexes (incremental maintenance under updates).

PR 1's :class:`~repro.index.graph_index.GraphIndex` treated every graph
mutation as total invalidation: the version counter moved, so the next
``get_index`` call rebuilt the whole index from scratch.  For a dynamic
data graph receiving a stream of updates that is O(|V| + |E|) work per
update.  This module follows the dynamic query-evaluation direction
(Berkholz et al., arXiv:1702.08764): maintain the materialized structure
*under* the update stream instead of recomputing it — and, as that work
argues, handle deletions symmetrically to insertions, or real update
streams (which mix both) degenerate back to recomputation.

Three pieces cooperate:

* **typed deltas** — :class:`VertexAdded`, :class:`EdgeAdded`,
  :class:`EdgeRemoved`, :class:`VertexRemoved`.  Every structural mutation
  of a :class:`~repro.graph.labeled_graph.LabeledGraph` publishes exactly
  one delta to its subscribed observers (the mutation-observer hook),
  stamped with the post-mutation version, so a contiguous delta run is a
  faithful replay of the version counter;
* **O(delta) patching** — ``GraphIndex.apply_delta`` splices a single
  update into the inverted lists, label-pair edge counts, and
  degree/neighbor-label signatures: insertions splice *in* at the
  canonical (``repr``) position, removals splice *out* (deleting entries
  that empty), so a patched index is structurally identical to one
  rebuilt from scratch either way (pinned by
  ``tests/test_delta_maintenance.py``);
* **:class:`IndexMaintainer`** — subscribes to a graph, buffers its
  deltas, and on :meth:`IndexMaintainer.index` brings the maintained
  index current: patching when the buffered run is contiguous, falling
  back to a full rebuild only for observation gaps (e.g. after
  :meth:`IndexMaintainer.detach`) or bursts larger than the graph itself,
  where a rebuild is the cheaper move.  Oversized bursts coalesce into
  one deferred rebuild: crossing the patch limit drops the buffer and
  later deltas are absorbed without being stored, so an arbitrarily long
  burst costs O(1) maintained state and a single rebuild.

The maintainer re-caches the patched index on the graph itself, so every
hot path that resolves indexes through ``get_index`` transparently sees
the O(delta) maintenance — no call-site changes needed.  ``get_index``'s
own rebuild-on-stale behavior remains the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..graph.labeled_graph import Label, LabeledGraph, Vertex
from .graph_index import GraphIndex, _label_pair_key, get_index
from .maintainable import DeltaMaintainer


@dataclass(frozen=True)
class GraphDelta:
    """Base class for typed mutation deltas.

    ``version`` is the graph's :meth:`mutation_version` *after* the
    mutation; the publisher bumps the counter by exactly one per delta,
    so versions of a faithful observation run are consecutive.
    """

    version: int


@dataclass(frozen=True)
class VertexAdded(GraphDelta):
    """A new vertex (no incident edges yet) joined the graph."""

    vertex: Vertex
    label: Label


@dataclass(frozen=True)
class _EdgeDelta(GraphDelta):
    """Shared shape of the edge deltas (endpoint labels included)."""

    u: Vertex
    v: Vertex
    label_u: Label
    label_v: Label

    def label_pair(self) -> Tuple[Label, Label]:
        """Canonical unordered label pair of the touched edge's endpoints."""
        return _label_pair_key(self.label_u, self.label_v)


@dataclass(frozen=True)
class EdgeAdded(_EdgeDelta):
    """A new undirected edge joined the graph."""


@dataclass(frozen=True)
class EdgeRemoved(_EdgeDelta):
    """An undirected edge left the graph."""


@dataclass(frozen=True)
class VertexRemoved(GraphDelta):
    """A vertex left the graph (its incident-edge removals were published first)."""

    vertex: Vertex
    label: Label


#: Insertion-shaped delta kinds.  Kept as a named subset because the
#: growing direction still has special structure (supports are monotone
#: under it); the index itself patches the full :data:`PATCHABLE_DELTAS`.
INSERTION_DELTAS = (VertexAdded, EdgeAdded)

#: Delta kinds a GraphIndex can absorb in O(delta).  Removals patch as
#: the exact inverse splices of insertions — ``remove_vertex`` publishes
#: the incident ``EdgeRemoved`` deltas before its ``VertexRemoved``, so a
#: contiguous replay only ever removes isolated vertices from the index.
PATCHABLE_DELTAS = (VertexAdded, EdgeAdded, EdgeRemoved, VertexRemoved)

AnyDelta = Union[VertexAdded, EdgeAdded, EdgeRemoved, VertexRemoved]


class IndexMaintainer(DeltaMaintainer):
    """Keep one graph's :class:`GraphIndex` current by patching, not rebuilding.

    Attach with ``IndexMaintainer(graph)``; the maintainer subscribes to
    the graph's mutation-observer hook and buffers deltas as they are
    published.  :meth:`index` returns an index that is current for the
    graph's present version, obtained by (in preference order):

    1. returning the maintained index untouched when nothing changed;
    2. adopting the graph's cached index when some other caller already
       rebuilt it (interleaved reads through ``get_index`` stay cheap);
    3. **patching** the maintained index in O(delta) when the buffered
       deltas form a contiguous run up to the graph's current version —
       insertions and removals alike;
    4. rebuilding from scratch otherwise — an observation gap (attached
       late, detached in between, a buffer that cannot replay the version
       counter exactly) or a burst that outgrew the patch limit.

    The buffering, burst-coalescing, and contiguity bookkeeping are the
    shared :class:`~repro.index.maintainable.DeltaMaintainer` core (one
    implementation, also driving the sharded maintainer); this class
    adds only what is specific to the flat index: adopting the graph's
    cached index when an interleaved ``get_index`` read already rebuilt
    it, and re-caching each refreshed index on the graph so subsequent
    ``get_index`` calls (matcher, miner, overlap graphs …) reuse it.
    ``patches_applied`` / ``rebuilds`` count how each refresh was served;
    oversized bursts coalesce into one deferred rebuild
    (``deltas_coalesced``, O(1) state past the patch limit).
    """

    patchable_kinds = PATCHABLE_DELTAS

    __slots__ = ()

    def __init__(self, graph: LabeledGraph, patch_limit: Optional[int] = None) -> None:
        super().__init__(graph, get_index(graph), patch_limit)

    def index(self) -> GraphIndex:
        """The maintained index, brought current for the graph's version."""
        return self.refresh()  # type: ignore[return-value]

    def _adopt(self) -> Optional[GraphIndex]:
        # Someone already paid for a fresh index (an interleaved read
        # through get_index); adopt it instead of duplicating the work.
        cached = self.graph.cached_index()
        if isinstance(cached, GraphIndex) and cached.is_current():
            return cached
        return None

    def _store(self, index) -> None:
        self.graph.cache_index(index)
