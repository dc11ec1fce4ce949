"""Catalog epoch, the invalidation count, and the epoch read/write guard.

This module is the coordination point for event-sourced catalog mutation
(:mod:`repro.catalog.events`).  It is deliberately **stdlib-only** so any
layer (machines, diffusion, ctp, serve) can import it without a cycle.

Three pieces live here:

* **two counters, one job each.**  The **catalog epoch**
  (:func:`current_epoch`) is a label: it advances once per applied
  mutation event, ``reset_catalog`` restores it to 0, and bodies and
  derived artifacts report it (``catalog_epoch``), so a replay of the
  same events from a fresh catalog reports the same epochs.  The
  **invalidation count** (:func:`invalidation_count`) is the only
  invalidation key: every applied event and every reset moves it, and
  it never goes back.  The epoch cannot be the key, because it repeats
  after a reset, and a memo entry built before the reset would be served
  again after it;
* **one invalidation rule**, kept by one class: :class:`CountMemo`, a
  bounded LRU memo whose caller reads the count once, at call start, and
  uses it for both the lookup and the store.  :func:`invalidate_all`
  moves the count, so every memo goes cold at once and drops its older
  entries on its next touch; a build that straddles an event is never
  served after it.  :func:`epoch_memo` wraps a catalog reader in one, as do
  the serve response cache (:mod:`repro.serve.cache`) and the point
  memo of :mod:`repro.tiles`.  A memo that reads only its own arguments
  cannot go stale; it takes no part in invalidation and only needs a
  finite ``maxsize``;
* the **epoch lock** — a writer-preferring readers-writer lock.
  ``MicroBatcher`` dispatches hold :func:`read_guard` for the duration of
  a batch; ``apply_event`` holds :func:`write_guard` while mutating.  A
  batch admitted at epoch N therefore always completes against the
  exact epoch-N state, and an event never observes a half-dispatched
  batch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple
from collections.abc import Hashable
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterator, TypeVar

__all__ = [
    "MISS",
    "CountMemo",
    "catalog_epoch_info",
    "current_epoch",
    "epoch_memo",
    "invalidate_all",
    "invalidation_count",
    "read_guard",
    "write_guard",
]

_EPOCH = 0
_INVALIDATIONS = 0
#: Guards both counters.  Re-entrant so an event can move the epoch and
#: the count as one step: a reader that sees the new epoch then sees the
#: new count, and a build that starts under the new count reads the new
#: epoch.
_LOCK = threading.RLock()

_F = TypeVar("_F", bound=Callable)

#: Sentinel distinguishing "not memoized" from a memoized falsy value.
MISS = object()


def current_epoch() -> int:
    """The global catalog epoch (0 until the first applied event)."""
    with _LOCK:
        return _EPOCH


def _bump_epoch() -> int:
    """Advance the epoch by one; called by ``apply_event`` under the
    write guard."""
    global _EPOCH
    with _LOCK:
        _EPOCH += 1
        return _EPOCH


def _reset_epoch() -> None:
    """Restore epoch 0 (test/reset support; see ``reset_catalog``)."""
    global _EPOCH
    with _LOCK:
        _EPOCH = 0


def invalidate_all() -> int:
    """Move the invalidation count; returns the new count.

    The one way to make every catalog memo cold: each keys on the
    count, so the next read misses and rebuilds from the live catalog.
    """
    global _INVALIDATIONS
    with _LOCK:
        _INVALIDATIONS += 1
        return _INVALIDATIONS


def invalidation_count() -> int:
    """How many times :func:`invalidate_all` has run; never reset.

    Every applied event and every catalog reset moves it, so state
    memoized under one count stays current until the count changes.
    """
    return _INVALIDATIONS


class CountMemo:
    """A lock-guarded LRU memo of at most ``capacity`` entries, each
    stored under the invalidation count its caller read at call start.

    The caller reads :func:`invalidation_count` once and passes that
    count to both :meth:`get` and :meth:`put`.  The first touch under a
    newer count drops every older entry and counts it as a purge; a
    lookup under an older count misses, and a store under an older
    count is discarded, so an answer that an event overtook is never
    kept.  Hits, misses, evictions and purges are exact.  A ``capacity``
    of 0 memoizes nothing.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._count = 0
        self._hits = self._misses = self._evictions = self._purges = 0

    def _current(self, count: int) -> bool:
        """Whether ``count`` is the memo's count, after moving to it if
        it is newer (held under the lock)."""
        if count > self._count:
            self._purges += len(self._data)
            self._data.clear()
            self._count = count
        return count == self._count

    def get(self, key: Hashable, count: int) -> object:
        """The value stored for ``key`` under ``count``, or :data:`MISS`."""
        with self._lock:
            if self._current(count):
                value = self._data.get(key, MISS)
                if value is not MISS:
                    self._data.move_to_end(key)
                    self._hits += 1
                    return value
            self._misses += 1
            return MISS

    def put(self, key: Hashable, value: object, count: int) -> None:
        """Store ``value`` for ``key`` under ``count``, evicting the least
        recently used entries beyond capacity."""
        with self._lock:
            if not (self.capacity and self._current(count)):
                return
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (the counts keep accumulating)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            self._current(_INVALIDATIONS)
            return len(self._data)

    def info(self) -> dict:
        """A consistent snapshot of the live entries and exact counts."""
        with self._lock:
            self._current(_INVALIDATIONS)
            hits, misses = self._hits, self._misses
            return {
                "entries": len(self._data),
                "capacity": self.capacity,
                "hits": hits,
                "misses": misses,
                "evictions": self._evictions,
                "purges": self._purges,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def epoch_memo(maxsize: int) -> Callable[[_F], _F]:
    """Memoize a catalog reader in a :class:`CountMemo` of ``maxsize``
    entries keyed on its positional arguments.

    The count is read when the call starts.  Like ``lru_cache``, the
    memo has ``cache_info()`` and ``cache_clear()``, and ``__wrapped__``
    is the undecorated builder.
    """
    def decorate(builder: _F) -> _F:
        cache = CountMemo(maxsize)

        @wraps(builder)
        def memo(*args):
            count = _INVALIDATIONS
            value = cache.get(args, count)
            if value is MISS:
                value = builder(*args)
                cache.put(args, value, count)
            return value

        def cache_info() -> _CacheInfo:
            info = cache.info()
            return _CacheInfo(info["hits"], info["misses"], info["capacity"],
                             info["entries"])

        memo.cache_info = cache_info
        memo.cache_clear = cache.clear
        return memo  # type: ignore[return-value]

    return decorate


def catalog_epoch_info() -> dict:
    """Introspection: the epoch and the invalidation count."""
    return {"epoch": current_epoch(), "invalidations": invalidation_count()}


class _EpochLock:
    """Writer-preferring readers-writer lock.

    Readers (batch dispatches) run concurrently; a writer (event apply)
    waits for in-flight readers to drain and blocks new readers from
    entering, so sustained serve traffic cannot starve mutations.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


_EPOCH_RW_LOCK = _EpochLock()


def read_guard():
    """Context manager: hold while dispatching a batch against catalog
    state; events block until released, so the batch completes
    bit-identically against the epoch it was admitted under."""
    return _EPOCH_RW_LOCK.read()


def write_guard():
    """Context manager: hold while applying a mutation event; excludes
    batch dispatches and other writers."""
    return _EPOCH_RW_LOCK.write()
