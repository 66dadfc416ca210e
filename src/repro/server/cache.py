"""A thread-safe LRU cache for query results.

The region algebra is side-effect-free and set-at-a-time (Definition
2.2/2.3): a query's result is a pure function of (corpus contents,
normalized plan).  That makes results safely cacheable as long as the
key captures *which version* of the corpus answered — hence the
``generation`` component, bumped by the service whenever a corpus is
reloaded, plus eager invalidation so stale entries do not pin memory
until they age out.

Values are whatever the service stores: reply dicts, JSON-ready, whose
``regions`` is a list of ``(left, right)`` tuples.  The cache itself
never copies them; the service hands out a fresh top-level dict per hit
and nothing mutates the pairs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["ResultCache", "CacheStats"]


class CacheStats:
    """Plain counters mirrored into the metrics registry by the service."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class ResultCache:
    """Bounded LRU mapping of hashable keys to cached results.

    All operations take the cache lock; the critical sections are a few
    dict operations, so contention stays negligible next to query
    evaluation.  A ``get`` refreshes recency; inserting past capacity
    evicts the least recently used entry.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.stats = CacheStats()

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_where(self, predicate) -> tuple[Hashable, Any] | None:
        """The most recently used ``(key, value)`` whose key satisfies
        ``predicate`` — without refreshing recency or touching stats.

        The degraded-mode stale lookup: the service scans for an entry
        matching (corpus, plan) at *any* generation when the
        current generation misses.  O(entries) under the lock, used only
        while degraded.
        """
        with self._lock:
            for key in reversed(self._entries):
                if predicate(key):
                    return key, self._entries[key]
            return None

    def invalidate(self, prefix: tuple) -> int:
        """Drop every entry whose (tuple) key starts with ``prefix``.

        The service keys entries as ``(corpus, generation, …)``, so
        ``invalidate((corpus,))`` clears a corpus across generations and
        ``invalidate((corpus, generation))`` clears one generation.
        Returns the number of entries dropped.
        """
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key[: len(prefix)] == prefix
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def invalidate_generations_below(self, corpus: str, floor: int) -> int:
        """Drop every entry of ``corpus`` whose generation is below
        ``floor``, keeping newer generations intact.

        The live-ingestion commit path: a reload invalidates the whole
        corpus eagerly (``invalidate((corpus,))``), but an ingest commit
        only retires generations that have aged out of the configured
        keep-window — entries from recent older generations stay
        resident so degraded mode can still serve them stale.  Returns
        the number of entries dropped.
        """
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if isinstance(key, tuple)
                and len(key) >= 2
                and key[0] == corpus
                and isinstance(key[1], int)
                and key[1] < floor
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                **self.stats.to_dict(),
            }
