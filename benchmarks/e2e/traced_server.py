"""``repro serve`` with timing wrappers around public functions.

Usage::

    PYTHONPATH=src python benchmarks/e2e/traced_server.py SPANS.json

Runs :func:`repro.serve.server.run_server` with the default config on an
ephemeral port, exactly like ``python -m repro serve --port 0``, after
wrapping the functions each layer exposes.  A wrapper is installed where
the caller looks the name up (``repro.serve.server.build_plan``, not
``repro.serve.plan.build_plan``), so the program itself is unchanged.
Spans stay in memory and are written to ``SPANS.json`` after SIGINT, as
``[name, [request ids], start, end]`` rows in ``time.monotonic`` seconds.

The ``X-Request-Id`` header the load driver sends is read by the
``do_POST`` wrapper and carried in a thread-local to every span on the
request thread.  Work a micro-batch does on the batcher thread is
attributed to the requests whose ``submit`` queued it, matched by their
canonical cache key.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from functools import wraps


class Tracer:
    """In-memory span store plus the request id of the current thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, list[str], float, float]] = []
        self.local = threading.local()
        self._lock = threading.Lock()
        self._queued: dict[tuple, list[tuple[str, float]]] = \
            defaultdict(list)

    def rids(self) -> list[str]:
        return getattr(self.local, "rids", [])

    def timed(self, name: str, fn, since: float | None = None):
        """``fn`` recording a span per call (from ``since`` if given)."""
        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic() if since is None else since
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((name, self.rids(), start,
                                   time.monotonic()))
        return wrapper

    def queued(self, key: tuple, rid: str) -> None:
        with self._lock:
            self._queued[key].append((rid, time.monotonic()))

    def dispatched(self, requests) -> list[str]:
        """Close the queue-wait spans of a batch starting now; returns
        the ids of the requests it serves."""
        now = time.monotonic()
        rids = []
        with self._lock:
            for request in requests:
                for rid, queued_at in self._queued.pop(request.cache_key,
                                                       ()):
                    self.spans.append(("batching.queue_wait", [rid],
                                       queued_at, now))
                    rids.append(rid)
        return rids


def install(tracer: Tracer) -> None:
    """Wrap every traced function in place."""
    import repro.catalog.events as events
    import repro.serve.plan as plan
    import repro.serve.server as server
    import repro.tiles as tiles
    from repro.serve.batching import MicroBatcher

    handler = server._Handler
    do_post = handler.do_POST

    @wraps(do_post)
    def traced_do_post(self):
        tracer.local.rids = [self.headers.get("X-Request-Id", "")]
        tracer.local.in_request = True
        start = time.monotonic()
        try:
            do_post(self)
        finally:
            tracer.spans.append(("http.do_post", tracer.local.rids, start,
                                 time.monotonic()))
            tracer.local.rids = []
            tracer.local.in_request = False

    handler.do_POST = traced_do_post

    engine_init = server.ServiceEngine.__init__

    @wraps(engine_init)
    def traced_engine_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        # Instance attributes: the engine calls ``self.cache.get``.
        self.cache.get = tracer.timed("cache.get", self.cache.get)
        self.latency.record = tracer.timed("obs.metrics",
                                           self.latency.record)

    server.ServiceEngine.__init__ = traced_engine_init
    server.ServiceEngine.handle = tracer.timed("serve.handle",
                                               server.ServiceEngine.handle)
    server.parse_request = tracer.timed("schemas.parse",
                                        server.parse_request)
    server.counter_inc = tracer.timed("obs.metrics", server.counter_inc)
    for name in ("machine_body", "review_body", "threshold_at_body"):
        setattr(server, name, tracer.timed("handler.direct",
                                           getattr(server, name)))

    submit = MicroBatcher.submit

    @wraps(submit)
    def traced_submit(self, request, *args, **kwargs):
        rids = tracer.rids()
        if not rids:
            return submit(self, request, *args, **kwargs)
        start = time.monotonic()
        tracer.queued(request.cache_key, rids[0])
        future = submit(self, request, *args, **kwargs)
        # The request thread's whole wait for its batch, fan-out included.
        future.result = tracer.timed("batching.wait", future.result, start)
        return future

    MicroBatcher.submit = traced_submit

    build_plan = tracer.timed("plan.build", server.build_plan)

    @wraps(build_plan)
    def traced_build_plan(requests):
        if not getattr(tracer.local, "in_request", False):
            # A batcher thread: the plan serves the requests it dequeued.
            tracer.local.rids = tracer.dispatched(requests)
        return build_plan(requests)

    server.build_plan = traced_build_plan
    server.execute_plan = tracer.timed("plan.execute", server.execute_plan)

    plan.ctp_homogeneous_batch = tracer.timed("ctp.batch",
                                              plan.ctp_homogeneous_batch)
    for name in ("score_matrix", "index_matrix", "classify_index_matrix"):
        setattr(plan, name, tracer.timed("controllability.matrix",
                                         getattr(plan, name)))
    plan.run_annual_review = tracer.timed("review", plan.run_annual_review)
    tiles.policy_cells = tracer.timed("tiles.cells", tiles.policy_cells)
    tiles.scenario_cells = tracer.timed("tiles.cells", tiles.scenario_cells)
    events.apply_event = tracer.timed("catalog.apply", events.apply_event)
    events.invalidate_for = tracer.timed("catalog.invalidate",
                                         events.invalidate_for)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: traced_server.py SPANS.json", file=sys.stderr)
        return 2
    from repro.serve.server import ServeConfig, run_server

    tracer = Tracer()
    install(tracer)
    print(run_server(ServeConfig(port=0)), flush=True)
    with open(argv[1], "w") as fh:
        json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
