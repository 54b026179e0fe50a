"""Result cache keyed by (snapshot version, canonical MiningSpec).

Heavy traffic means the same questions over and over: the same spec at
the same version must not re-mine.  Keys pair a snapshot version with
:meth:`MiningSpec.cache_key` — the canonical JSON of the spec's
*result-affecting* fields — so requests that differ only in execution
strategy (indexed vs brute, sharded vs flat, pooled vs serial) share one
entry, which is sound because those strategies are pinned byte-identical
by the equivalence suites.

Entries are invalidated **only by version advance**, never by wall
clock: when the writer publishes version ``N``, every entry for an older
version nobody has pinned is dropped (pinned versions keep their entries
— their readers can still re-request them), and when the last pin on an
old version is released its entries go too.  An optional ``max_entries``
bound evicts least-recently-used entries under memory pressure without
affecting correctness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..mining.results import MiningResult
from ..obs import metrics as _metrics

CacheKey = Tuple[int, str]


class ResultCache:
    """A thread-safe (version, spec-key) → :class:`MiningResult` map.

    ``hits`` / ``misses`` / ``evictions`` are cumulative counters —
    the service's request surface reports them, and the tests assert on
    them to prove repeated requests never re-mine.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 (or None), got {max_entries}")
        self._entries: "OrderedDict[CacheKey, MiningResult]" = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        registry = _metrics.get_registry()
        for name in ("hits", "misses", "evictions"):
            registry.counter(f"repro_cache_{name}")
        registry.gauge("repro_cache_entries")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, version: int, spec_key: str) -> Optional[MiningResult]:
        """Like :meth:`get`, but touches neither counters nor LRU order.

        For introspection (the protocol's ``cached`` response field)
        that must not distort the hit/miss accounting tests assert on.
        """
        with self._lock:
            return self._entries.get((version, spec_key))

    def get(self, version: int, spec_key: str) -> Optional[MiningResult]:
        with self._lock:
            result = self._entries.get((version, spec_key))
            if result is None:
                self.misses += 1
                _metrics.counter("repro_cache_misses").inc()
                return None
            self._entries.move_to_end((version, spec_key))
            self.hits += 1
            _metrics.counter("repro_cache_hits").inc()
            return result

    def put(self, version: int, spec_key: str, result: MiningResult) -> None:
        with self._lock:
            self._entries[(version, spec_key)] = result
            self._entries.move_to_end((version, spec_key))
            evicted = 0
            while (
                self._max_entries is not None
                and len(self._entries) > self._max_entries
            ):
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            if evicted:
                _metrics.counter("repro_cache_evictions").inc(evicted)
            _metrics.gauge("repro_cache_entries").set(len(self._entries))

    # ------------------------------------------------------------------
    def drop_version(self, version: int) -> int:
        """Drop every entry for ``version``; returns how many went."""
        return self.retain(lambda v: v != version)

    def retain(self, keep: Callable[[int], bool]) -> int:
        """Drop entries whose version fails ``keep``; returns the count."""
        with self._lock:
            doomed = [key for key in self._entries if not keep(key[0])]
            for key in doomed:
                del self._entries[key]
            self.evictions += len(doomed)
            if doomed:
                _metrics.counter("repro_cache_evictions").inc(len(doomed))
            _metrics.gauge("repro_cache_entries").set(len(self._entries))
            return len(doomed)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
