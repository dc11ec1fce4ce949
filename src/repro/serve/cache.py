"""Bounded, thread-safe LRU response cache.

The serving layer keys this cache on the *canonicalized* request (see
:mod:`repro.serve.schemas`), so two payloads that spell the same question
differently — explicit defaults, extra whitespace in a machine key, an
omitted license threshold — share one entry.  Values are the finished
response bodies (plain JSON-serializable dicts), treated as immutable
once cached.

A ``capacity`` of 0 disables caching entirely (every ``get`` is a miss
and ``put`` is a no-op), which the load benchmark uses so repeated
payloads exercise the batching path instead of the cache.

Canonical keys are prefixed with the **catalog epoch** in force when the
request was admitted (see ``ServiceEngine.handle``): a mutation event
bumps the epoch, so post-event requests key past every pre-event entry.
The cache also follows the catalog's one invalidation rule: its first
read or write after :func:`repro.catalog.registry.invalidation_count`
moves drops every older entry and counts it as a purge.

Hits, misses, evictions, and purges are tracked both locally (exact,
reported by :meth:`LRUCache.info`) and through the global
:mod:`repro.obs` counters (``serve.cache.*``) so they appear in
:func:`repro.obs.metrics_snapshot`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable

from repro.catalog.registry import invalidation_count
from repro.obs.errors import ValidationError
from repro.obs.trace import counter_inc

__all__ = ["MISS", "LRUCache"]

#: Sentinel distinguishing "not cached" from a cached falsy value.
MISS = object()


class LRUCache:
    """A lock-guarded LRU mapping of canonical request keys to responses."""

    def __init__(self, capacity: int) -> None:
        if not isinstance(capacity, int) or capacity < 0:
            raise ValidationError(
                "cache capacity must be a non-negative integer",
                context={"got": capacity, "valid": ">= 0"},
            )
        self.capacity = capacity
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._purges = 0
        self._count = invalidation_count()

    def _drop_older(self) -> None:
        """Drop every entry once the invalidation count has moved since
        the last call (held under the lock)."""
        count = invalidation_count()
        if count != self._count:
            self._count = count
            purged = len(self._data)
            self._data.clear()
            self._purges += purged
            if purged:
                counter_inc("serve.cache.purges", purged)

    def get(self, key: Hashable) -> object:
        """The cached value for ``key``, or :data:`MISS`."""
        with self._lock:
            self._drop_older()
            value = self._data.get(key, MISS) if self.capacity else MISS
            if value is MISS:
                self._misses += 1
                counter_inc("serve.cache.misses")
                return MISS
            self._data.move_to_end(key)
            self._hits += 1
            counter_inc("serve.cache.hits")
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) ``key``, evicting the least recently used
        entries beyond capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._drop_older()
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1
                counter_inc("serve.cache.evictions")

    def clear(self) -> None:
        """Drop all entries (counters keep accumulating)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            self._drop_older()
            return len(self._data)

    def info(self) -> dict:
        """Exact local statistics (consistent snapshot)."""
        with self._lock:
            self._drop_older()
            hits, misses = self._hits, self._misses
            total = hits + misses
            return {
                "entries": len(self._data),
                "capacity": self.capacity,
                "hits": hits,
                "misses": misses,
                "evictions": self._evictions,
                "purges": self._purges,
                "hit_rate": (hits / total) if total else 0.0,
            }
