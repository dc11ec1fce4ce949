"""The micro-batching queue: many small requests -> few large batch calls.

The serving problem is the inverse of the sweep problem PR 1 solved.
Sweeps start with thousands of configurations in hand and need one fast
batch kernel; a licensing front end receives the *same* thousands of
ratings one request at a time, each on its own thread, each wanting an
answer now.  Dispatching every request through the scalar path wastes the
batch kernels; the micro-batcher recovers them by **coalescing**: requests
queue up, a single worker drains up to ``max_batch`` of them at a time,
dispatches one batch call, and fans the results back out to the waiting
threads' futures.  This is the dynamic-batching discipline cluster
schedulers use to keep nodes saturated and modern inference servers use to
keep accelerators fed — under load, batch size grows automatically with
the backlog, so throughput rises exactly when it is needed.

Batching policy
---------------
The worker is *greedy*: whenever requests are queued it dispatches what is
there (up to ``max_batch``) without waiting.  ``max_wait_ms`` only bounds
an optional linger for a fuller batch when the queue holds fewer than
``max_batch`` items; the default of 0 disables lingering, because with
closed-loop clients (each waiting for its previous answer) a fixed linger
only adds latency — the backlog itself produces the batches.

Coalescing is compositional: a batch handed to a dispatch callback may be
fused again by the callback.  The ``/policy`` and ``/scenario``
dispatchers answer all their new batch-mates from grids over those
points' own distinct coordinates (:mod:`repro.tiles`: one per world, or
one per year when the points are scattered), so concurrent point
queries share grid builds instead of paying one each.

Backpressure and deadlines
--------------------------
The queue is bounded: ``submit`` on a full queue raises
:class:`ServiceOverloadedError` immediately (the HTTP layer turns this
into ``429 Retry-After``) instead of letting latency grow without bound.
Each request may carry a deadline; the worker drops requests that expired
while queued, failing their futures with :class:`DeadlineExceededError`
(``504``) rather than wasting batch capacity on answers nobody is waiting
for.

Everything here is metric-instrumented: per-dispatch batch sizes land in
an exact histogram (:meth:`MicroBatcher.stats`) plus the global
``serve.<name>.*`` counters.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import Future
from dataclasses import dataclass

from repro.obs.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.catalog.registry import current_epoch, read_guard
from repro.obs.trace import counter_inc, trace

__all__ = ["MicroBatcher"]


@dataclass
class _Pending:
    """One queued request awaiting dispatch."""

    request: object
    future: Future
    deadline: float | None  # absolute time.monotonic(), None = no deadline


class MicroBatcher:
    """Coalesce concurrent requests into bounded batch dispatches.

    Parameters
    ----------
    name:
        Short dotted-metric name (``"rate"``, ``"license"``).
    dispatch:
        ``dispatch(requests) -> results``, called on the worker thread
        with 1..max_batch *deduplicated* requests (identical canonical
        requests are computed once and fanned out to every waiter); must
        return one result per request in order.  A result that is a
        ``BaseException`` instance fails only that request's future; a
        raised exception fails every request in the batch.
    max_batch:
        Largest batch handed to ``dispatch``.
    max_wait_ms:
        Upper bound on lingering for a fuller batch once at least one
        request is queued; 0 dispatches greedily.
    queue_limit:
        Bound on queued (not yet dispatched) requests; beyond it
        ``submit`` sheds load with :class:`ServiceOverloadedError`.
    """

    def __init__(
        self,
        name: str,
        dispatch: Callable[[Sequence[object]], Sequence[object]],
        *,
        max_batch: int = 64,
        max_wait_ms: float = 0.0,
        queue_limit: int = 1024,
        start: bool = True,
    ) -> None:
        if max_batch < 1:
            raise ValidationError("max_batch must be >= 1",
                                  context={"got": max_batch, "valid": ">= 1"})
        if queue_limit < 1:
            raise ValidationError("queue_limit must be >= 1",
                                  context={"got": queue_limit,
                                           "valid": ">= 1"})
        if max_wait_ms < 0:
            raise ValidationError("max_wait_ms must be >= 0",
                                  context={"got": max_wait_ms,
                                           "valid": ">= 0"})
        self.name = name
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.queue_limit = int(queue_limit)
        self._dispatch = dispatch
        self._cond = threading.Condition()
        self._queue: deque[_Pending] = deque()
        self._stopped = False
        self._histogram: dict[int, int] = {}
        self._dispatches = 0
        self._completed = 0
        self._last_dispatch_epoch = current_epoch()
        self._expired = 0
        self._overflows = 0
        self._dedup_hits = 0
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"repro-serve-{name}")
        if start:
            self.start()

    # -- client side --------------------------------------------------------

    def submit(self, request: object,
               deadline_s: float | None = None) -> Future:
        """Enqueue one request; returns the future its result lands on.

        ``deadline_s`` is a relative budget: requests still queued when it
        lapses fail with :class:`DeadlineExceededError` instead of being
        dispatched.
        """
        future: Future = Future()
        deadline = (time.monotonic() + deadline_s
                    if deadline_s is not None else None)
        with self._cond:
            if self._stopped:
                raise ServiceOverloadedError(
                    f"{self.name} batcher is shut down",
                    context={"batcher": self.name},
                )
            if len(self._queue) >= self.queue_limit:
                self._overflows += 1
                counter_inc(f"serve.{self.name}.overflows")
                raise ServiceOverloadedError(
                    f"{self.name} queue is full",
                    context={"batcher": self.name,
                             "queue_depth": len(self._queue),
                             "queue_limit": self.queue_limit,
                             "retry_after_s": 1},
                )
            self._queue.append(_Pending(request, future, deadline))
            self._cond.notify()
        return future

    def depth(self) -> int:
        """Requests currently queued (excludes the batch being served)."""
        with self._cond:
            return len(self._queue)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if not self._thread.is_alive():
            self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain the queue, and join the worker."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._cond.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout)

    # -- worker -------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if self._stopped and not self._queue:
                    return
                if (self.max_wait_s > 0 and not self._stopped
                        and len(self._queue) < self.max_batch):
                    # Linger briefly for a fuller batch; backlog growth or
                    # the deadline ends the wait, whichever comes first.
                    linger_until = time.monotonic() + self.max_wait_s
                    while (len(self._queue) < self.max_batch
                           and not self._stopped):
                        remaining = linger_until - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                count = min(self.max_batch, len(self._queue))
                batch = [self._queue.popleft() for _ in range(count)]
                self._histogram[count] = self._histogram.get(count, 0) + 1
                self._dispatches += 1
            self._serve_batch(batch)

    def _serve_batch(self, batch: list[_Pending]) -> None:
        now = time.monotonic()
        live: list[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and pending.deadline < now:
                self._expired += 1
                counter_inc(f"serve.{self.name}.expired")
                pending.future.set_exception(DeadlineExceededError(
                    f"{self.name} request expired in queue",
                    context={"batcher": self.name,
                             "expired_by_s": round(now - pending.deadline, 4)},
                ))
            else:
                live.append(pending)
        if not live:
            return
        counter_inc(f"serve.{self.name}.dispatches")
        counter_inc(f"serve.{self.name}.batched_requests", len(live))
        # Intra-batch dedup: identical canonical requests admitted in the
        # same batch are computed once and fanned out to every waiter
        # (the cross-request LRU only catches repeats across batches).
        # Canonical schema objects expose ``cache_key``; opaque requests
        # (unit tests, ad-hoc dispatchers) fall back to one slot each.
        slots: dict[object, list[_Pending]] = {}
        for k, pending in enumerate(live):
            key = getattr(pending.request, "cache_key", None)
            slots.setdefault(key if key is not None else ("_slot", k),
                             []).append(pending)
        uniques = [group[0] for group in slots.values()]
        dedup_hits = len(live) - len(uniques)
        if dedup_hits:
            self._dedup_hits += dedup_hits
            counter_inc("serve.batch.dedup_hits", dedup_hits)
        try:
            # The whole dispatch runs under the catalog read guard: a
            # mutation event (write guard) waits for the batch to drain,
            # so every request in it completes bit-identically against
            # the epoch it was admitted under — never a half-applied
            # catalog.
            with read_guard():
                epoch = current_epoch()
                with trace(f"serve.batch.{self.name}", size=len(live)):
                    results = list(
                        self._dispatch([p.request for p in uniques]))
            with self._cond:
                self._last_dispatch_epoch = epoch
            if len(results) != len(uniques):
                raise ValidationError(
                    f"{self.name} dispatch returned {len(results)} results "
                    f"for {len(uniques)} requests",
                    context={"got": len(results), "valid": len(uniques)},
                )
        except BaseException as exc:  # noqa: BLE001 — fanned out per future
            for pending in live:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        completed = 0
        for group, result in zip(slots.values(), results):
            for pending in group:
                # A BaseException result is that request's own failure
                # (the planner isolates errors per slot); it fails this
                # future without poisoning its batch-mates.
                if isinstance(result, BaseException):
                    pending.future.set_exception(result)
                else:
                    pending.future.set_result(result)
                    completed += 1
        with self._cond:
            self._completed += completed

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Exact queue/batch statistics (JSON-serializable)."""
        with self._cond:
            histogram = {str(size): count
                         for size, count in sorted(self._histogram.items())}
            dispatches = self._dispatches
            total_batched = sum(size * count
                                for size, count in self._histogram.items())
            return {
                "depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "max_batch": self.max_batch,
                "max_wait_ms": self.max_wait_s * 1000.0,
                "dispatches": dispatches,
                "completed": self._completed,
                "expired": self._expired,
                "overflows": self._overflows,
                "dedup_hits": self._dedup_hits,
                "batch_size_histogram": histogram,
                "mean_batch_size": (total_batched / dispatches
                                    if dispatches else 0.0),
                "last_dispatch_epoch": self._last_dispatch_epoch,
            }
