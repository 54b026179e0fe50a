"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` holds every instrument, keyed by name under
the ``repro_<subsystem>_<name>`` convention (see
``docs/architecture.md``).  Instruments are created on first use and
never removed, so a snapshot taken after a subsystem constructed itself
lists that subsystem's full metric surface — at zero, if nothing
happened yet.  Components *declare* their instruments in ``__init__``
for exactly this reason: "which metrics exist" must not depend on which
rare code paths ran.

Increments are always-on (there is no disable switch for counters —
only the :mod:`repro.obs.trace` span API has one) and cheap: one dict
lookup on a cached reference plus a per-instrument lock.  ``+=`` is not
atomic under CPython threading, and the service daemon increments from
writer, reader, and handler threads concurrently, so every instrument
carries its own :class:`threading.Lock`.

A process-global default registry serves normal operation;
:func:`set_registry` swaps in a fresh one for tests that need exact
counts (components capture the *active* registry at construction, so
swap before constructing).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonic counter.  ``inc`` only; never decremented or reset."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value that can move both ways (e.g. resident weight)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: Number) -> None:
        """Ratchet upward — for peaks (never lowered by this call)."""
        with self._lock:
            if value > self._value:
                self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram: cumulative-style counts per upper bound.

    Buckets are fixed at construction (first use); observations land in
    the first bucket whose bound is >= the value, with an implicit
    ``inf`` bucket catching the rest.  The snapshot carries count / sum /
    max plus per-bucket counts — enough for queue-depth style
    distributions without any quantile machinery.
    """

    DEFAULT_BUCKETS: Tuple[Number, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum", "_max", "_lock")

    def __init__(self, name: str, buckets: Optional[Sequence[Number]] = None) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets or self.DEFAULT_BUCKETS))
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the inf bucket
        self._count = 0
        self._sum: Number = 0
        self._max: Number = 0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        slot = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                slot = i
                break
        with self._lock:
            self._counts[slot] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> Dict[str, Number]:
        with self._lock:
            payload: Dict[str, Number] = {
                "count": self._count,
                "sum": self._sum,
                "max": self._max,
            }
            for bound, count in zip(self.buckets, self._counts):
                payload[f"le_{bound:g}"] = count
            payload["inf"] = self._counts[-1]
            return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Name -> instrument map with create-on-first-use semantics.

    Asking for an existing name returns the existing instrument; asking
    with a conflicting kind raises.  ``snapshot()`` returns a flat
    JSON-ready dict: counters and gauges as numbers, histograms as
    sub-dicts — the exact payload the ``metrics`` protocol verb ships.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = kind(name, *args)
                    self._instruments[name] = instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[Number]] = None
    ) -> Histogram:
        if buckets is None:
            return self._get_or_create(name, Histogram)
        return self._get_or_create(name, Histogram, buckets)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._instruments))

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            instruments = list(self._instruments.items())
        payload: Dict[str, object] = {}
        for name, instrument in sorted(instruments):
            if isinstance(instrument, Histogram):
                payload[name] = instrument.snapshot()
            else:
                payload[name] = instrument.value  # type: ignore[union-attr]
        return payload


#: The process-global default registry — what every component uses
#: unless a test swapped in its own via :func:`set_registry`.
_DEFAULT_REGISTRY = MetricsRegistry()
_active = _DEFAULT_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently active registry (process-global)."""
    return _active


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Swap the active registry; returns the previous one.

    ``None`` restores the process default.  Components capture the
    active registry when *they* are constructed — swap first, construct
    after.
    """
    global _active
    previous = _active
    _active = _DEFAULT_REGISTRY if registry is None else registry
    return previous


def counter(name: str) -> Counter:
    """Shorthand for ``get_registry().counter(name)``."""
    return _active.counter(name)


def gauge(name: str) -> Gauge:
    """Shorthand for ``get_registry().gauge(name)``."""
    return _active.gauge(name)


def histogram(name: str, buckets: Optional[Sequence[Number]] = None) -> Histogram:
    """Shorthand for ``get_registry().histogram(name)``."""
    return _active.histogram(name, buckets)


#: Every metric name the instrumented stack is guaranteed to register
#: during an end-to-end sharded, pooled, paged ``mine-stream`` run (the
#: regression in ``tests/test_obs.py`` pins this).  Names follow
#: ``repro_<subsystem>_<name>``; adding an instrument to a subsystem
#: means declaring it in that subsystem's constructor *and* listing it
#: here.
DOCUMENTED_METRICS: Tuple[str, ...] = (
    # miner (flat + dynamic lattice walks; flushed once per session)
    "repro_miner_sessions",
    "repro_miner_levels",
    "repro_miner_patterns_generated",
    "repro_miner_patterns_evaluated",
    "repro_miner_patterns_frequent",
    "repro_miner_patterns_pruned",
    "repro_miner_duplicates_skipped",
    "repro_miner_support_calls",
    "repro_miner_occurrence_enumerations",
    "repro_miner_patterns_reused",
    "repro_miner_patterns_skipped_unaffected",
    "repro_miner_patterns_revived",
    "repro_miner_extensions_reused",
    # isomorphism engines (per-process: pool workers count their own)
    "repro_match_vf2_calls",
    "repro_match_anchored_searches",
    # flat index maintainer
    "repro_index_patches_applied",
    "repro_index_rebuilds",
    "repro_index_deltas_coalesced",
    # index footprint (gauges set on every fresh build by get_index)
    "repro_index_bytes",
    "repro_index_intern_entries",
    # sharded index maintainer
    "repro_sharded_index_patches_applied",
    "repro_sharded_index_rebuilds",
    "repro_sharded_index_deltas_coalesced",
    "repro_sharded_index_rebalances",
    "repro_sharded_index_edges_moved",
    "repro_sharded_index_full_repartitions",
    # shard worker pool (parent-side dispatch accounting, plus the workers'
    # occurrence-set tallies carried on their replies)
    "repro_pool_tasks_dispatched",
    "repro_pool_slices_shipped",
    "repro_pool_slices_patched",
    "repro_pool_tasks_from_sets",
    "repro_pool_sets_built",
    "repro_pool_sets_dropped",
    "repro_pool_serial_fallbacks",
    "repro_pool_queue_depth",
    "repro_pool_patch_elements",
    "repro_pool_recorded_members",
    # shard views: computed by the sharded index (recomputes), held by the
    # serial in-process runner (bounded by max_resident; 0 in a pooled parent)
    "repro_pager_evictions",
    "repro_pager_recomputes",
    "repro_pager_resident_weight",
    "repro_pager_peak_resident_weight",
    # snapshot registry (MVCC)
    "repro_snapshots_pins",
    "repro_snapshots_publishes",
    "repro_snapshots_cow_splits",
    "repro_snapshots_gc_versions",
    # result cache
    "repro_cache_hits",
    "repro_cache_misses",
    "repro_cache_evictions",
    "repro_cache_entries",
    # service
    "repro_service_batches_applied",
    "repro_service_mine_requests",
    "repro_service_maintained_specs",
    # standing-query subscriptions
    "repro_subs_active",
    "repro_subs_registered",
    "repro_subs_unregistered",
    "repro_subs_dispatches",
    "repro_subs_dispatch_skipped",
    "repro_subs_evaluations",
    "repro_subs_events_emitted",
    "repro_subs_events_dropped",
)
