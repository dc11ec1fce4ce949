"""Catalog epoch, the invalidation count, and the epoch read/write guard.

This module is the coordination point for event-sourced catalog mutation
(:mod:`repro.catalog.events`).  It is deliberately **stdlib-only** so any
layer (machines, diffusion, ctp, serve) can import it without a cycle.

Three pieces live here:

* the **catalog epoch** — a global monotonic counter bumped once per
  applied mutation event and reset to 0 by ``reset_catalog``.  Derived
  artifacts (machine columns, ``PolicyGrid``, micro-batches, cached
  serve responses) carry the epoch they were built under, which is what
  makes staleness a checkable property instead of a latent bug;
* the **invalidation count** and **one invalidation rule**: a memo that
  reads catalog state keys on :func:`invalidation_count`, read at call
  start — :func:`epoch_memo` is that memo.  :func:`invalidate_all` moves
  the count (every applied event and every reset does), so every such
  memo goes cold at once and nothing is cleared in place.  A build that
  straddles an event is stored under the count it started at and is
  never served again.  A memo that reads only its own arguments cannot
  go stale; it takes no part in invalidation and only needs a finite
  ``maxsize``;
* the **epoch lock** — a writer-preferring readers-writer lock.
  ``MicroBatcher`` dispatches hold :func:`read_guard` for the duration of
  a batch; ``apply_event`` holds :func:`write_guard` while mutating.  A
  batch admitted at epoch N therefore always completes against the
  exact epoch-N state, and an event never observes a half-dispatched
  batch.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache, wraps
from typing import Callable, Iterator, TypeVar

__all__ = [
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


def epoch_memo(maxsize: int) -> Callable[[_F], _F]:
    """An ``lru_cache`` of ``maxsize`` entries over ``(count, *args)``.

    The count is read when the call starts, so a build that an event
    overtakes is stored under the old count and never served again.
    The memo keeps ``cache_info``/``cache_clear``, and ``__wrapped__``
    is the undecorated builder.  A hit costs one extra integer read.
    """
    def decorate(builder: _F) -> _F:
        cached = lru_cache(maxsize=maxsize)(
            lambda _count, *args, **kwargs: builder(*args, **kwargs))

        @wraps(builder)
        def memo(*args, **kwargs):
            return cached(_INVALIDATIONS, *args, **kwargs)

        memo.cache_info = cached.cache_info
        memo.cache_clear = cached.cache_clear
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
