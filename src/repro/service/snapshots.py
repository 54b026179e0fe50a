"""Versioned, refcounted graph snapshots — MVCC in miniature.

The service has exactly one writer (the thread that mutates the live
graph) and many readers (threads answering mine requests).  Readers must
see a *frozen* graph at a well-defined version, and must never block the
writer.  :class:`SnapshotRegistry` provides that with copy-on-write over
the delta log:

* the registry holds a cursor on the live graph's
  :class:`~repro.index.delta.DeltaLog` (the same typed deltas the
  maintainers read);
* it keeps a **shadow graph** equal to the live graph at the last
  *published* version.  :meth:`SnapshotRegistry.publish` (writer-only)
  rolls the shadow forward by replaying the deltas its cursor reads —
  O(delta) per batch, no copying — or, when the cursor reads a gap (a
  batch past the log's bound), falls back to one full copy of the live
  graph;
* :meth:`SnapshotRegistry.pin` hands a reader the shadow at its current
  version, refcounted.  Only when a *pinned* tip must advance does the
  writer copy the shadow (copy-on-write): the old object is frozen for
  its readers, the copy becomes the new shadow.  Unpinned versions are
  garbage-collected the moment their refcount drops to zero — eviction
  callbacks let the result cache drop exactly that version's entries.

A pinned snapshot's graph carries a tripwire in place of a delta log:
its ``append`` raises :class:`~repro.errors.ServiceError`, so an
accidental write to a frozen view fails loudly instead of corrupting
readers, at no cost to the mutation path.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, FrozenSet, List, Optional

from ..errors import ServiceError
from ..graph.labeled_graph import LabeledGraph
from ..index.delta import AnyDelta, EdgeAdded, EdgeRemoved, VertexAdded, VertexRemoved
from ..obs import metrics as _metrics


def _replay(graph: LabeledGraph, delta: AnyDelta) -> None:
    """Apply one logged delta to a (shadow) graph copy."""
    if isinstance(delta, VertexAdded):
        graph.add_vertex(delta.vertex, delta.label)
    elif isinstance(delta, EdgeAdded):
        graph.add_edge(delta.u, delta.v)
    elif isinstance(delta, EdgeRemoved):
        graph.remove_edge(delta.u, delta.v)
    elif isinstance(delta, VertexRemoved):
        graph.remove_vertex(delta.vertex)
    else:  # pragma: no cover - the log holds only the four kinds
        raise ServiceError(f"cannot replay delta {delta!r}")


class _Tripwire:
    """The delta log of a pinned graph: any mutation is an error."""

    __slots__ = ()

    def append(self, delta: AnyDelta) -> None:
        raise ServiceError(
            "a pinned snapshot graph was mutated; snapshots are immutable — "
            "apply updates to the live graph through the service writer"
        )


_TRIPWIRE = _Tripwire()


class Snapshot:
    """One pinned, immutable (version, graph) pair.

    Hold it for as long as the frozen view is needed, then
    :meth:`release` it (or use it as a context manager) so the registry
    can garbage-collect the version.  Releasing twice is an error — it
    would corrupt another reader's refcount.
    """

    __slots__ = ("version", "graph", "_registry", "_released")

    def __init__(
        self, version: int, graph: LabeledGraph, registry: "SnapshotRegistry"
    ) -> None:
        self.version = version
        self.graph = graph
        self._registry = registry
        self._released = False

    def release(self) -> None:
        if self._released:
            raise ServiceError(
                f"snapshot at version {self.version} was already released"
            )
        self._released = True
        self._registry._release(self.version)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else "pinned"
        return f"<Snapshot version={self.version} {state}>"


class SnapshotRegistry:
    """Map version → frozen graph view, refcounted, copy-on-write.

    One instance per service.  :meth:`publish` must only be called by
    the writer thread; :meth:`pin`/release are safe from any thread.
    The registry's lock only guards bookkeeping and the O(delta) shadow
    roll-forward — readers never hold it while mining.
    """

    def __init__(self, graph: LabeledGraph) -> None:
        self._graph = graph
        self._cursor = graph.cursor()
        # The shadow starts as one full copy; every publish afterwards is
        # an O(delta) replay (or a copy-on-write split when pinned).
        self._shadow = graph.copy()
        self._tip = graph.mutation_version()
        self._lock = threading.Lock()
        self._refcounts: Dict[int, int] = {}
        self._frozen: Dict[int, LabeledGraph] = {}
        self._evict_callbacks: List[Callable[[int], None]] = []
        self._closed = False
        registry = _metrics.get_registry()
        for name in ("pins", "publishes", "cow_splits", "gc_versions"):
            registry.counter(f"repro_snapshots_{name}")

    # ------------------------------------------------------------------
    @property
    def tip(self) -> int:
        """The latest published version."""
        return self._tip

    def pinned_versions(self) -> FrozenSet[int]:
        with self._lock:
            return frozenset(self._refcounts)

    def on_evict(self, callback: Callable[[int], None]) -> None:
        """Call ``callback(version)`` when a version is garbage-collected."""
        self._evict_callbacks.append(callback)

    # ------------------------------------------------------------------
    def pin(self, version: Optional[int] = None) -> Snapshot:
        """Pin the tip (or a still-materialized older version).

        Pinning the tip freezes the current shadow in place — no copy;
        the *writer* pays for the copy later, and only if it must
        advance past a version readers still hold.  An unpinned old
        version is gone (that is the point of GC): pinning it raises.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("the snapshot registry is closed")
            target = self._tip if version is None else version
            if target == self._tip:
                if target not in self._frozen:
                    self._frozen[target] = self._shadow
                    self._shadow.set_delta_log(_TRIPWIRE)
            elif target not in self._frozen:
                raise ServiceError(
                    f"version {target} is not materialized (tip is "
                    f"{self._tip}; unpinned versions are garbage-collected)"
                )
            self._refcounts[target] = self._refcounts.get(target, 0) + 1
            _metrics.counter("repro_snapshots_pins").inc()
            return Snapshot(target, self._frozen[target], self)

    def _release(self, version: int) -> None:
        evicted = False
        with self._lock:
            count = self._refcounts.get(version, 0) - 1
            if count > 0:
                self._refcounts[version] = count
            else:
                self._refcounts.pop(version, None)
                frozen = self._frozen.pop(version, None)
                evicted = frozen is not None
                if frozen is self._shadow:
                    # The tip was the shadow itself; make it mutable for
                    # the writer's next in-place roll-forward.
                    self._shadow.set_delta_log(None)
        if evicted:
            _metrics.counter("repro_snapshots_gc_versions").inc()
            for callback in self._evict_callbacks:
                callback(version)

    # ------------------------------------------------------------------
    def publish(self) -> int:
        """Writer-only: advance the shadow to the live graph's version.

        The deltas the cursor reads replay in O(delta); a gap falls back
        to one full copy of the live graph.  If the departing tip is
        pinned, the shadow is copied before the replay (copy-on-write) so
        pinned readers keep their frozen object untouched.
        """
        target = self._graph.mutation_version()
        with self._lock:
            if self._closed:
                raise ServiceError("the snapshot registry is closed")
            deltas = self._cursor.read()
            if target == self._tip:
                return self._tip
            if deltas is None:
                # A fresh object: a pinned tip keeps its frozen one.
                self._shadow = self._graph.copy()
            else:
                if self._tip in self._frozen:
                    # Copy-on-write: the old shadow stays frozen for its
                    # pinned readers; the copy has no tripwire.
                    self._shadow = self._shadow.copy()
                    _metrics.counter("repro_snapshots_cow_splits").inc()
                for delta in deltas:
                    _replay(self._shadow, delta)
            self._tip = target
            _metrics.counter("repro_snapshots_publishes").inc()
            return self._tip

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the live graph; outstanding pins stay readable.

        Eviction callbacks are dropped too: they are typically bound
        methods of the owner (a :class:`GraphService`), and keeping them
        would make a stopped owner cyclic garbage instead of freeing it
        when its last reference goes.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._cursor.close()
        self._evict_callbacks.clear()
