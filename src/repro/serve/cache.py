"""Bounded, thread-safe LRU response cache.

The serving layer keys this cache on the *canonicalized* request (see
:mod:`repro.serve.schemas`), so two payloads that spell the same question
differently — explicit defaults, extra whitespace in a machine key, an
omitted license threshold — share one entry.  Values are the finished
response bodies (plain JSON-serializable dicts), treated as immutable
once cached.

The cache is a :class:`repro.catalog.registry.CountMemo`: the engine
reads the invalidation count when it admits a request and passes it to
both ``get`` and ``put``, so no response computed before a catalog event
is served after it.  This class adds only the check on the configured
capacity.  A ``capacity`` of 0 disables caching entirely (every ``get``
is a miss and ``put`` is a no-op), which the load benchmark uses so
repeated payloads exercise the batching path instead of the cache.
:meth:`~repro.catalog.registry.CountMemo.info` gives the exact hits,
misses, evictions and purges that ``/metrics`` reports.
"""

from __future__ import annotations

from repro.catalog.registry import MISS, CountMemo
from repro.obs.errors import ValidationError

__all__ = ["MISS", "LRUCache"]


class LRUCache(CountMemo):
    """A count-keyed LRU mapping of canonical request keys to responses."""

    def __init__(self, capacity: int) -> None:
        if not isinstance(capacity, int) or capacity < 0:
            raise ValidationError(
                "cache capacity must be a non-negative integer",
                context={"got": capacity, "valid": ">= 0"},
            )
        super().__init__(capacity)
