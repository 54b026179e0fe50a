"""The maintainable-index protocol shared by flat and sharded indexes.

PR 2 taught :class:`~repro.index.graph_index.GraphIndex` to absorb typed
graph deltas in O(delta); the partition layer's
:class:`~repro.partition.sharded_index.ShardedIndex` learns the same
trick in this PR.  Both sit behind one protocol so the maintenance
machinery — reading the graph's delta log, rebuild fallbacks — exists
exactly once:

* :class:`MaintainableIndex` — the structure contract.  A maintainable
  index snapshots its graph's mutation version, patches one typed delta
  at a time (``apply_delta``), reports staleness (``is_current``), and
  knows how to produce a from-scratch replacement of itself for the
  graph's current state (``rebuilt`` — the fallback when patching would
  be unsound or wasteful);
* :class:`DeltaMaintainer` — the lifecycle contract.  A maintainer holds
  a cursor on the graph's :class:`~repro.index.delta.DeltaLog` and on
  :meth:`DeltaMaintainer.refresh` brings its index current: patching
  the run its cursor reads, or rebuilding once when the cursor reads a
  gap (detached, or a burst past the log's bound).  Subclasses supply
  the index and optional adoption/re-caching hooks.

Concrete pairs: (:class:`~repro.index.graph_index.GraphIndex`,
:class:`~repro.index.delta.IndexMaintainer`) and
(:class:`~repro.partition.sharded_index.ShardedIndex`,
:class:`~repro.partition.maintainer.ShardedIndexMaintainer`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

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
        returns ``False`` for delta kinds the index cannot patch.  Deltas
        must be applied contiguously, as a cursor on the graph's delta
        log reads them.
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
    domain-specific name).  The maintainer opens a cursor on the graph's
    :class:`~repro.index.delta.DeltaLog` at the index's version.  On each
    refresh it serves, in preference order:

    1. the maintained index untouched, when nothing changed;
    2. an adopted replacement from :meth:`_adopt`, when some interleaved
       reader already paid for a fresh structure;
    3. the maintained index **patched** in O(delta) with the run its
       cursor reads;
    4. a from-scratch :meth:`MaintainableIndex.rebuilt` when the cursor
       reads a gap: ``gap`` after :meth:`detach`, ``patch-limit`` when a
       burst outgrew the log's bound (past it one rebuild is cheaper
       than the replay).

    ``patches_applied`` / ``rebuilds`` count how each refresh was served,
    ``deltas_coalesced`` the deltas the rebuilds skipped.
    """

    #: Metrics-subsystem label: counters land on
    #: ``repro_<obs_subsystem>_{patches_applied,rebuilds,deltas_coalesced}``.
    obs_subsystem: str = "index"

    __slots__ = (
        "graph",
        "_cursor",
        "_index",
        "patches_applied",
        "rebuilds",
        "deltas_coalesced",
        "__weakref__",
    )

    def __init__(self, graph: LabeledGraph, index: MaintainableIndex) -> None:
        self.graph = graph
        self._index = index
        self._cursor = graph.cursor(index.version)
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
    @property
    def attached(self) -> bool:
        """True while the maintainer still reads the graph's delta log."""
        return self._cursor.open

    def detach(self) -> None:
        """Stop reading.  Later refreshes see the gap and rebuild."""
        self._cursor.close()

    # ------------------------------------------------------------------
    # the refresh ladder
    # ------------------------------------------------------------------
    def refresh(self) -> MaintainableIndex:
        """The maintained index, brought current for the graph's version."""
        deltas = self._cursor.read()
        index = self._index
        target = self.graph.mutation_version()
        if index.version == target:
            return index
        adopted = self._adopt()
        if adopted is not None:
            self._index = adopted
            return adopted
        metric = f"repro_{self.obs_subsystem}"
        if deltas is not None:
            for delta in deltas:
                index.apply_delta(delta)
            self.patches_applied += len(deltas)
            _metrics.counter(f"{metric}_patches_applied").inc(len(deltas))
        else:
            reason = "patch-limit" if self._cursor.open else "gap"
            _LOG.warning(
                "%s demoted to a full rebuild (reason: %s, v%d -> v%d)",
                type(self).__name__,
                reason,
                index.version,
                target,
            )
            skipped = target - index.version
            self._index = index.rebuilt()
            self.rebuilds += 1
            self.deltas_coalesced += skipped
            _metrics.counter(f"{metric}_rebuilds").inc()
            _metrics.counter(f"{metric}_rebuilds_{reason.replace('-', '_')}").inc()
            _metrics.counter(f"{metric}_deltas_coalesced").inc(skipped)
        self._store(self._index)
        return self._index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "attached" if self.attached else "detached"
        return (
            f"<{type(self).__name__} {state} v{self._index.version} "
            f"patches={self.patches_applied} rebuilds={self.rebuilds} "
            f"coalesced={self.deltas_coalesced}>"
        )
