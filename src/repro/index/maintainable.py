"""The maintainable-index protocol shared by flat and sharded indexes.

PR 2 taught :class:`~repro.index.graph_index.GraphIndex` to absorb typed
graph deltas in O(delta); the partition layer's
:class:`~repro.partition.sharded_index.ShardedIndex` learns the same
trick in this PR.  Both sit behind one protocol so the maintenance
machinery — delta buffering, contiguity checks, burst coalescing,
rebuild fallbacks — exists exactly once:

* :class:`MaintainableIndex` — the structure contract.  A maintainable
  index snapshots its graph's mutation version, patches one typed delta
  at a time (``apply_delta``), reports staleness (``is_current``), and
  knows how to produce a from-scratch replacement of itself for the
  graph's current state (``rebuilt`` — the fallback when patching would
  be unsound or wasteful);
* :class:`DeltaMaintainer` — the lifecycle contract.  A maintainer
  subscribes to the graph's mutation-observer hook, buffers published
  deltas, and on :meth:`DeltaMaintainer.refresh` brings its index
  current: patching contiguous runs, coalescing oversized bursts into
  one deferred rebuild (O(1) state past the patch limit), and rebuilding
  across observation gaps.  Subclasses supply the index and optional
  adoption/re-caching hooks; the bookkeeping — previously duplicated
  between the flat and sharded maintainers — lives here.

Concrete pairs: (:class:`~repro.index.graph_index.GraphIndex`,
:class:`~repro.index.delta.IndexMaintainer`) and
(:class:`~repro.partition.sharded_index.ShardedIndex`,
:class:`~repro.partition.maintainer.ShardedIndexMaintainer`).
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

from ..graph.labeled_graph import LabeledGraph
from ..obs import metrics as _metrics
from ..obs.logs import get_logger

_LOG = get_logger("index.maintainer")


class MaintainableIndex(ABC):
    """A graph-derived structure that can be patched delta-by-delta.

    Implementations snapshot ``graph`` and its ``mutation_version()`` at
    build time (``version``), splice typed deltas in place through
    :meth:`apply_delta`, and rebuild from scratch through
    :meth:`rebuilt`.  The invariant every implementation must keep: a
    patched instance is **structurally identical** to one rebuilt from
    scratch at the same version — patching changes how the structure
    reached its state, never the state itself.
    """

    __slots__ = ()

    graph: LabeledGraph
    version: int

    @abstractmethod
    def apply_delta(self, delta) -> bool:
        """Patch this index in place for one typed delta.

        Advances ``version`` to the delta's version and returns ``True``;
        returns ``False`` for delta kinds the index cannot patch (the
        caller falls back to :meth:`rebuilt`).  Deltas must be applied
        contiguously — :class:`DeltaMaintainer` enforces this.
        """

    @abstractmethod
    def rebuilt(self) -> "MaintainableIndex":
        """A from-scratch replacement of this index for the graph's
        current state, preserving the index's own configuration (shard
        count, partition method, ...)."""

    def is_current(self) -> bool:
        """True while the indexed graph has not been mutated."""
        return self.graph.mutation_version() == self.version


class DeltaMaintainer:
    """Keep one :class:`MaintainableIndex` current by patching, not rebuilding.

    The shared lifecycle core: subclasses construct their index, pass it
    to ``__init__``, and expose :meth:`refresh` (usually under a
    domain-specific name).  On each refresh the maintainer serves, in
    preference order:

    1. the maintained index untouched, when nothing changed;
    2. an adopted replacement from :meth:`_adopt`, when some interleaved
       reader already paid for a fresh structure;
    3. the maintained index **patched** in O(delta), when the buffered
       deltas form a contiguous patchable replay of the version counter;
    4. a from-scratch :meth:`MaintainableIndex.rebuilt` otherwise — an
       observation gap (attached late, detached in between, a buffer
       that cannot replay the version counter exactly) or a burst that
       outgrew the patch limit.

    The **patch limit** bounds buffered state: once a run grows past
    ``patch_limit`` deltas (default ``max(64, |V| + |E|)``, the point
    where replaying the run stops being cheaper than one rebuild), the
    buffer is dropped, a single rebuild is deferred, and every further
    delta of the burst is absorbed without being stored — an arbitrarily
    long burst costs O(1) maintained state and exactly one rebuild at
    the next refresh (``deltas_coalesced`` counts the absorbed deltas).

    ``patches_applied`` / ``rebuilds`` count how each refresh was served.
    """

    #: Delta kinds the maintained index can absorb in O(delta).
    #: Subclasses set this (normally ``repro.index.delta.PATCHABLE_DELTAS``).
    patchable_kinds: Tuple[type, ...] = ()

    #: Metrics-subsystem label: counters land on
    #: ``repro_<obs_subsystem>_{patches_applied,rebuilds,deltas_coalesced}``.
    obs_subsystem: str = "index"

    __slots__ = (
        "graph",
        "_buffer",
        "_observer",
        "_attached",
        "_index",
        "_patch_limit",
        "_rebuild_pending",
        "patches_applied",
        "rebuilds",
        "deltas_coalesced",
        "__weakref__",
    )

    def __init__(
        self,
        graph: LabeledGraph,
        index: MaintainableIndex,
        patch_limit: Optional[int] = None,
    ) -> None:
        if patch_limit is not None and patch_limit < 1:
            raise ValueError("patch_limit must be a positive delta count")
        self.graph = graph
        self._index = index
        self._buffer: List = []
        # The graph holds only a weak reference back, so a dropped
        # maintainer is freed by reference counting (no graph <->
        # maintainer cycle) and unsubscribes itself in __del__.
        self_ref = weakref.ref(self)

        def observe(delta) -> None:
            maintainer = self_ref()
            if maintainer is not None:
                maintainer._observe(delta)

        self._observer = graph.subscribe(observe)
        self._attached = True
        self._patch_limit = patch_limit
        self._rebuild_pending = False
        self.patches_applied = 0
        self.rebuilds = 0
        self.deltas_coalesced = 0
        registry = _metrics.get_registry()
        for name in ("patches_applied", "rebuilds", "deltas_coalesced"):
            registry.counter(f"repro_{self.obs_subsystem}_{name}")

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _adopt(self) -> Optional[MaintainableIndex]:
        """A current replacement some interleaved reader already built,
        or ``None``.  Default: no adoption source."""
        return None

    def _store(self, index: MaintainableIndex) -> None:
        """Publish a freshly patched/rebuilt index (e.g. re-cache it on
        the graph).  Default: nothing to publish."""

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def _effective_patch_limit(self) -> int:
        if self._patch_limit is not None:
            return self._patch_limit
        return max(64, self.graph.num_vertices + self.graph.num_edges)

    def _observe(self, delta) -> None:
        """Buffer one published delta, folding oversized bursts into one rebuild.

        Once a rebuild is pending, every subsequent delta is already
        covered by that rebuild (it reads the graph's final state), so
        nothing further is buffered until the rebuild is served.
        """
        if self._rebuild_pending:
            self.deltas_coalesced += 1
            _metrics.counter(f"repro_{self.obs_subsystem}_deltas_coalesced").inc()
            return
        if isinstance(delta, self.patchable_kinds):
            self._buffer.append(delta)
            if len(self._buffer) <= self._effective_patch_limit():
                return
        # Unknown delta kind, or the burst outgrew the patch limit: the
        # buffered run is superseded by one deferred rebuild.
        coalesced = len(self._buffer) + (
            0 if isinstance(delta, self.patchable_kinds) else 1
        )
        self.deltas_coalesced += coalesced
        _metrics.counter(f"repro_{self.obs_subsystem}_deltas_coalesced").inc(
            coalesced
        )
        self._buffer.clear()
        self._rebuild_pending = True

    @property
    def attached(self) -> bool:
        """True while the maintainer still observes the graph's mutations."""
        return self._attached

    def detach(self) -> None:
        """Stop observing.  Later refreshes detect the gap and rebuild."""
        if self._attached:
            self.graph.unsubscribe(self._observer)
            self._attached = False

    def __del__(self) -> None:
        if getattr(self, "_attached", False):
            self.detach()

    @property
    def rebuild_pending(self) -> bool:
        """True while a coalesced rebuild is deferred to the next refresh."""
        return self._rebuild_pending

    # ------------------------------------------------------------------
    # the refresh ladder
    # ------------------------------------------------------------------
    def refresh(self) -> MaintainableIndex:
        """The maintained index, brought current for the graph's version."""
        target = self.graph.mutation_version()
        if self._index.version == target:
            self._reset_observation()
            return self._index
        adopted = self._adopt()
        if adopted is not None:
            self._index = adopted
            self._reset_observation()
            return adopted
        deltas = [d for d in self._buffer if d.version > self._index.version]
        if not self._rebuild_pending and self._patchable(deltas, target):
            for delta in deltas:
                self._index.apply_delta(delta)
            self.patches_applied += len(deltas)
            _metrics.counter(
                f"repro_{self.obs_subsystem}_patches_applied"
            ).inc(len(deltas))
        else:
            reason = self._rebuild_reason(deltas)
            _LOG.warning(
                "%s demoted to a full rebuild (reason: %s, v%d -> v%d)",
                type(self).__name__,
                reason,
                self._index.version,
                target,
            )
            self._index = self._index.rebuilt()
            self.rebuilds += 1
            _metrics.counter(f"repro_{self.obs_subsystem}_rebuilds").inc()
            _metrics.counter(
                f"repro_{self.obs_subsystem}_rebuilds_{reason.replace('-', '_')}"
            ).inc()
        self._reset_observation()
        self._store(self._index)
        return self._index

    def _rebuild_reason(self, deltas: List) -> str:
        """Why this refresh could not be served by patching.

        ``patch-limit``: a burst outgrew the patch limit and was coalesced
        into this one deferred rebuild.  ``unpatchable``: the buffered run
        is contiguous but contains a delta kind the index cannot splice.
        ``gap``: everything else — attached late, detached in between, or
        a buffer that cannot replay the version counter exactly.
        """
        if self._rebuild_pending:
            return "patch-limit"
        if (
            self._attached
            and deltas
            and deltas[0].version == self._index.version + 1
            and all(b.version == a.version + 1 for a, b in zip(deltas, deltas[1:]))
            and not all(isinstance(d, self.patchable_kinds) for d in deltas)
        ):
            return "unpatchable"
        return "gap"

    def _reset_observation(self) -> None:
        self._buffer.clear()
        self._rebuild_pending = False

    def _patchable(self, deltas: List, target: int) -> bool:
        """True when ``deltas`` is a contiguous patchable replay to ``target``."""
        if not self._attached or not deltas:
            return False
        if deltas[0].version != self._index.version + 1:
            return False
        if deltas[-1].version != target:
            return False
        if any(b.version != a.version + 1 for a, b in zip(deltas, deltas[1:])):
            return False
        return all(isinstance(d, self.patchable_kinds) for d in deltas)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "attached" if self._attached else "detached"
        if self._rebuild_pending:
            state += " rebuild-pending"
        return (
            f"<{type(self).__name__} {state} v{self._index.version} "
            f"patches={self.patches_applied} rebuilds={self.rebuilds} "
            f"coalesced={self.deltas_coalesced}>"
        )
