"""Catalog epoch counter and the atomic cache-invalidation registry.

This module is the coordination point for event-sourced catalog mutation
(:mod:`repro.catalog.events`).  It is deliberately **stdlib-only** — every
layer of the system (machines, diffusion, ctp, serve, store) registers its
cache-clear hooks here at import time, so the registry itself must not
import any of them.

Three pieces live here:

* the **catalog epoch** — a global monotonic counter bumped once per
  applied mutation event.  Every derived artifact (columns stores,
  ``PolicyGrid``, snapshot manifests, micro-batches, cached serve
  responses) is tagged with the epoch it was built under, which is what
  makes staleness a checkable property instead of a latent bug;
* the **invalidation registry** — named hooks with event-kind tags.
  ``invalidate_all(epoch)`` runs *every* hook under one lock (the atomic
  replacement for the previously independent ``clear_assessment_caches``
  / ``clear_acquisition_caches`` / credit-cache ``clear`` calls a mutator
  could invoke partially); ``invalidate_for(kind, epoch)`` runs only the
  hooks whose registered kinds include the event kind — the precise path
  ``apply_event`` uses so content-addressed caches survive mutations that
  cannot stale them;
* the **epoch lock** — a writer-preferring readers-writer lock.
  ``MicroBatcher`` dispatches hold :func:`read_guard` for the duration of
  a batch; ``apply_event`` holds :func:`write_guard` while patching.  A
  batch admitted at epoch N therefore always completes against the
  exact epoch-N state, and an event never observes a half-dispatched
  batch.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "EVENT_KINDS",
    "catalog_epoch_info",
    "current_epoch",
    "invalidate_all",
    "invalidate_for",
    "invalidation_count",
    "read_guard",
    "register_invalidation_hook",
    "unregister_invalidation_hook",
    "write_guard",
]

#: The mutation event kinds understood by :mod:`repro.catalog.events`.
EVENT_KINDS: tuple[str, ...] = ("append_machine", "amend_machine", "amend_threshold")

_EPOCH = 0
_EPOCH_LOCK = threading.Lock()

#: name -> (kinds the hook is stale under, hook callable taking the epoch).
_HOOKS: dict[str, tuple[frozenset[str], Callable[[int], None]]] = {}
_HOOKS_LOCK = threading.RLock()

_INVALIDATIONS = 0

#: Per-hook invocation counts (precise + nuclear paths combined) — lets
#: tests and benchmarks assert kind-precision: that a hook did *not*
#: run for an event kind outside its registration.
_HOOK_RUNS: dict[str, int] = {}


def current_epoch() -> int:
    """The global catalog epoch (0 until the first applied event)."""
    with _EPOCH_LOCK:
        return _EPOCH


def _bump_epoch() -> int:
    """Advance the epoch by one; called by ``apply_event`` under the
    write guard."""
    global _EPOCH
    with _EPOCH_LOCK:
        _EPOCH += 1
        return _EPOCH


def _reset_epoch() -> None:
    """Restore epoch 0 (test/reset support; see ``reset_catalog``)."""
    global _EPOCH
    with _EPOCH_LOCK:
        _EPOCH = 0


def register_invalidation_hook(
    name: str,
    hook: Callable[[int], None],
    *,
    kinds: tuple[str, ...] = (),
) -> None:
    """Register ``hook`` under ``name``.

    ``kinds`` lists the event kinds that make the guarded cache stale;
    hooks registered with ``kinds=()`` are *content-addressed* (or
    otherwise self-consistent) — they run only on the nuclear
    :func:`invalidate_all` path, never on the precise per-event path.
    Re-registering a name replaces the previous hook (modules register at
    import time, and ``importlib.reload`` must not accumulate stale
    callables).
    """
    for kind in kinds:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; valid: {EVENT_KINDS}")
    with _HOOKS_LOCK:
        _HOOKS[name] = (frozenset(kinds), hook)


def unregister_invalidation_hook(name: str) -> bool:
    """Drop a registered hook; returns whether it existed."""
    with _HOOKS_LOCK:
        return _HOOKS.pop(name, None) is not None


def invalidate_all(epoch: int | None = None) -> tuple[str, ...]:
    """Run **every** registered hook atomically; returns the names run.

    This is the single entry point that replaces ad-hoc combinations of
    per-layer ``clear_*`` calls: the registry lock is held for the whole
    sweep, so no concurrent registration (or second invalidation) can
    observe a half-cleared world.
    """
    global _INVALIDATIONS
    if epoch is None:
        epoch = current_epoch()
    with _HOOKS_LOCK:
        _INVALIDATIONS += 1
        names = tuple(sorted(_HOOKS))
        for name in names:
            _HOOK_RUNS[name] = _HOOK_RUNS.get(name, 0) + 1
            _HOOKS[name][1](epoch)
    return names


def invalidate_for(kind: str, epoch: int) -> tuple[str, ...]:
    """Run only the hooks whose registered kinds include ``kind``."""
    global _INVALIDATIONS
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}; valid: {EVENT_KINDS}")
    with _HOOKS_LOCK:
        _INVALIDATIONS += 1
        names = tuple(
            name for name in sorted(_HOOKS) if kind in _HOOKS[name][0]
        )
        for name in names:
            _HOOK_RUNS[name] = _HOOK_RUNS.get(name, 0) + 1
            _HOOKS[name][1](epoch)
    return names


def invalidation_count() -> int:
    """How many invalidation sweeps have run; never reset.

    Every applied event and every catalog reset moves it, so state
    memoized under one count stays current until the count changes.
    """
    with _HOOKS_LOCK:
        return _INVALIDATIONS


def catalog_epoch_info() -> dict:
    """Introspection: epoch, registered hooks (with kinds), sweep count,
    and per-hook invocation counts."""
    with _HOOKS_LOCK:
        hooks = {name: tuple(sorted(kinds)) for name, (kinds, _) in sorted(_HOOKS.items())}
        invalidations = _INVALIDATIONS
        hook_runs = dict(sorted(_HOOK_RUNS.items()))
    return {
        "epoch": current_epoch(),
        "hooks": hooks,
        "invalidations": invalidations,
        "hook_runs": hook_runs,
    }


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
