"""HTTP/JSON front end and the service engine behind it.

Two layers, separable on purpose:

* :class:`ServiceEngine` — the transport-free core: parse -> response
  cache -> micro-batched dispatch -> structured status/body.  Tests and
  the ``serve_load`` benchmark drive this layer directly.
* :class:`ServeServer` / :func:`run_server` — a stdlib
  ``ThreadingHTTPServer`` front end (no new dependencies) exposing::

      POST /rate      rate a configuration (micro-batched)
      POST /license   one license decision  (micro-batched)
      POST /policy    Chapter-5 policy scorecard (micro-batched)
      POST /scenario  counterfactual-world scorecard (micro-batched)
      POST /machine   catalog lookup + controllability assessment
      POST /review    the annual review for a date
      POST /threshold_at     the control threshold in force at a date
      POST /batch     a heterogeneous list of sub-requests fused into
                      one multi-query plan (errors isolated per slot)
      POST /catalog/append   apply one catalog mutation event (epoch bump)
      GET  /healthz   liveness + config echo
      GET  /metrics   metrics_snapshot() + queue/batch/cache/latency state

Request handling rules (the contract the test suite pins):

* every error path returns structured JSON shaped like
  ``{"error": {"type", "message", "context"}}`` derived from the
  :class:`ReproError` taxonomy — a traceback never reaches a response
  body;
* a full queue is ``429`` with a ``Retry-After`` header; a missed
  deadline is ``504``; malformed input is ``400``; an unknown path is
  ``404``; a wrong method is ``405``;
* ``/rate``, ``/license``, ``/policy``, and ``/scenario`` coalesce
  concurrent requests through the shared multi-query planner
  (:mod:`repro.serve.plan`), which compiles every micro-batch into
  fused columnar ops (one :func:`repro.ctp.batch.ctp_homogeneous_batch`
  per coupling, one controllability matrix pass, batch-local
  policy grids); results are bit-identical to dispatching each request
  alone, because every per-request value depends only on that request's
  row (for ``/policy`` and ``/scenario``, its grid/tensor cell — and
  both grid engines are bit-exact per cell);
* ``/batch`` runs a heterogeneous list of sub-requests as one plan —
  CSE across duplicates, cross-endpoint reuse, one read-guard epoch —
  and returns per-slot ``{"status", "body"}`` pairs byte-identical to
  issuing each sub-request alone; a sub-request failure never fails the
  envelope.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.controllability.index import CLASS_BY_CODE
from repro.obs.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.catalog.registry import current_epoch, invalidation_count
from repro.obs.trace import counter_inc, trace
from repro.serve.batching import MicroBatcher
from repro.serve.cache import MISS, LRUCache
from repro.serve.plan import (
    build_plan,
    execute_plan,
    machine_body,
    plan_stats,
    review_body,
    threshold_at_body,
)
from repro.serve.schemas import (
    ENDPOINTS,
    GET_ENDPOINTS,
    MachineRequest,
    ReviewRequest,
    ThresholdAtRequest,
    parse_request,
)

__all__ = ["ServeConfig", "ServiceEngine", "ServeServer", "run_server",
           "error_body"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving process."""

    host: str = "127.0.0.1"
    port: int = 8040
    max_batch: int = 64
    max_wait_ms: float = 0.0
    queue_limit: int = 1024
    cache_size: int = 1024
    deadline_ms: float = 5000.0
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if not self.drain_timeout >= 0:
            raise ValidationError("drain_timeout must be >= 0",
                                  context={"got": self.drain_timeout,
                                           "valid": ">= 0"})
        if self.max_batch < 1:
            raise ValidationError("max_batch must be >= 1",
                                  context={"got": self.max_batch,
                                           "valid": ">= 1"})
        if self.queue_limit < 1:
            raise ValidationError("queue_limit must be >= 1",
                                  context={"got": self.queue_limit,
                                           "valid": ">= 1"})
        if self.max_wait_ms < 0 or self.deadline_ms <= 0:
            raise ValidationError(
                "max_wait_ms must be >= 0 and deadline_ms > 0",
                context={"max_wait_ms": self.max_wait_ms,
                         "deadline_ms": self.deadline_ms},
            )
        if self.cache_size < 0:
            raise ValidationError("cache_size must be >= 0",
                                  context={"got": self.cache_size,
                                           "valid": ">= 0"})


def error_body(exc: ReproError) -> dict:
    """The structured JSON body of one taxonomy error."""
    return {
        "error": {
            "type": type(exc).__name__,
            "message": exc.message,
            "context": {k: _jsonable(v) for k, v in exc.context.items()},
        }
    }


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class LatencyRecorder:
    """Per-endpoint latency reservoirs (bounded, thread-safe)."""

    def __init__(self, window: int = 2048) -> None:
        self._window = window
        self._lock = threading.Lock()
        self._samples: dict[str, deque[float]] = {}
        self._counts: dict[str, int] = {}

    def record(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            bucket = self._samples.get(endpoint)
            if bucket is None:
                bucket = self._samples[endpoint] = deque(maxlen=self._window)
            bucket.append(seconds)
            self._counts[endpoint] = self._counts.get(endpoint, 0) + 1

    def quantiles(self) -> dict:
        """``{endpoint: {count, p50_ms, p95_ms}}`` over the window."""
        with self._lock:
            snapshot = {name: list(bucket)
                        for name, bucket in self._samples.items()}
            counts = dict(self._counts)
        out = {}
        for name, samples in snapshot.items():
            ordered = sorted(samples)
            out[name] = {
                "count": counts[name],
                "p50_ms": _quantile(ordered, 0.50) * 1e3,
                "p95_ms": _quantile(ordered, 0.95) * 1e3,
            }
        return out


def _quantile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


class ServiceEngine:
    """Transport-free serving core: parse, cache, batch, respond."""

    def __init__(self, config: ServeConfig | None = None,
                 worker_id: int | None = None) -> None:
        self.config = config or ServeConfig()
        self.worker_id = worker_id
        self.cache = LRUCache(self.config.cache_size)
        self.latency = LatencyRecorder()
        # Every micro-batched endpoint dispatches through the shared
        # multi-query planner (one fused plan per drained batch), so
        # fusion happens even across concurrent single-endpoint clients.
        self.batchers: dict[str, MicroBatcher] = {
            name: MicroBatcher(
                name, self._dispatch_plan,
                max_batch=self.config.max_batch,
                max_wait_ms=self.config.max_wait_ms,
                queue_limit=self.config.queue_limit,
            )
            for name in ("rate", "license", "policy", "scenario")
        }
        self._handlers = {
            "rate": self._rate,
            "license": self._license,
            "machine": self._machine,
            "review": self._review,
            "policy": self._policy,
            "scenario": self._scenario,
            "threshold_at": self._threshold_at,
        }
        self._started_at = time.monotonic()
        self._closed = False

    def close(self, drain_timeout: float | None = None) -> None:
        """Stop the batch workers, draining queued work first (idempotent).

        Each batcher's worker finishes in-flight and queued requests
        before exiting, bounded by ``drain_timeout`` seconds (default:
        the config's ``drain_timeout``) — graceful shutdown never strands
        an accepted request silently, and never hangs forever either.
        """
        if self._closed:
            return
        self._closed = True
        if drain_timeout is None:
            drain_timeout = self.config.drain_timeout
        for batcher in self.batchers.values():
            batcher.stop(timeout=drain_timeout)

    # -- request handling ---------------------------------------------------

    def handle(self, endpoint: str, payload: object) -> tuple[int, dict]:
        """Serve one request; returns ``(http_status, body)``.

        Never raises: every failure mode maps to a structured JSON error
        body (400 bad input, 429 shed load, 504 missed deadline, 500 for
        anything unforeseen — still JSON, never a traceback).
        """
        start = time.perf_counter()
        counter_inc("serve.requests")
        counter_inc(f"serve.requests.{endpoint}")
        try:
            with trace(f"serve.{endpoint}"):
                if endpoint == "catalog_append":
                    return 200, self._catalog_append(payload)
                if endpoint == "batch":
                    return 200, self._batch(payload)
                # The invalidation count at admission keys both the
                # lookup and the store: once an event moves it, no
                # response computed before the event is served.
                count = invalidation_count()
                request = parse_request(endpoint, payload)
                body = self.cache.get(request.cache_key, count)
                if body is MISS:
                    body = self._handlers[endpoint](request)
                    self.cache.put(request.cache_key, body, count)
                return 200, body
        except ServiceOverloadedError as exc:
            counter_inc("serve.responses.429")
            return 429, error_body(exc)
        except DeadlineExceededError as exc:
            counter_inc("serve.responses.504")
            return 504, error_body(exc)
        except ReproError as exc:
            counter_inc("serve.responses.400")
            return 400, error_body(exc)
        except Exception as exc:  # noqa: BLE001 — no traceback may escape
            counter_inc("serve.responses.500")
            return 500, {"error": {"type": "InternalError",
                                   "message": str(exc), "context": {}}}
        finally:
            self.latency.record(endpoint, time.perf_counter() - start)

    def _await(self, future) -> dict:
        """Wait out a batched dispatch within the request deadline."""
        budget = self.config.deadline_ms / 1000.0
        try:
            # Small grace beyond the deadline: the worker enforces queue
            # expiry itself and a dispatch in flight is about to land.
            # (concurrent.futures.TimeoutError is not a builtin
            # TimeoutError subclass before 3.11, hence the tuple.)
            return future.result(timeout=budget + 0.1)
        except (_FutureTimeout, TimeoutError) as exc:
            if isinstance(exc, ReproError):
                raise  # DeadlineExceededError set by the worker
            raise DeadlineExceededError(
                "request missed its deadline awaiting dispatch",
                context={"deadline_ms": self.config.deadline_ms},
            ) from None

    def _rate(self, request: RateRequest) -> dict:
        deadline = self.config.deadline_ms / 1000.0
        return self._await(
            self.batchers["rate"].submit(request, deadline_s=deadline))

    def _license(self, request: LicenseRequest) -> dict:
        deadline = self.config.deadline_ms / 1000.0
        return self._await(
            self.batchers["license"].submit(request, deadline_s=deadline))

    def _policy(self, request: PolicyRequest) -> dict:
        deadline = self.config.deadline_ms / 1000.0
        return self._await(
            self.batchers["policy"].submit(request, deadline_s=deadline))

    def _scenario(self, request: ScenarioRequest) -> dict:
        deadline = self.config.deadline_ms / 1000.0
        return self._await(
            self.batchers["scenario"].submit(request, deadline_s=deadline))

    # -- batched dispatcher (worker thread) ---------------------------------

    def _dispatch_plan(self, requests: list) -> list:
        """Serve one drained micro-batch as one fused query plan.

        All four batchers share this dispatcher: the planner compiles
        whatever mix it is handed into fused columnar ops (one
        ``ctp_homogeneous_batch`` per coupling, one controllability
        matrix pass, batch-local grids for point queries) and scatters
        per-request bodies bit-identical to one-at-a-time dispatch.  The
        MicroBatcher already holds the catalog read guard for the whole
        dispatch (the guard is not reentrant), and fans a
        ``BaseException`` result out as that request's own failure — a
        poisoned batch-mate never fails its neighbors.
        """
        return execute_plan(build_plan(requests), caller_holds_guard=True)

    # -- direct (unbatched) handlers ----------------------------------------

    def _machine(self, request: MachineRequest) -> dict:
        return machine_body(request)

    def _review(self, request: ReviewRequest) -> dict:
        return review_body(request)

    def _threshold_at(self, request: ThresholdAtRequest) -> dict:
        return threshold_at_body(request)

    # -- the /batch envelope ------------------------------------------------

    @staticmethod
    def _sub_response(exc: BaseException) -> tuple[int, dict]:
        """Status + body for one failed sub-request — the same mapping
        :meth:`handle` applies, so a slot is byte-identical to issuing
        the sub-request alone."""
        if isinstance(exc, ServiceOverloadedError):
            return 429, error_body(exc)
        if isinstance(exc, DeadlineExceededError):
            return 504, error_body(exc)
        if isinstance(exc, ReproError):
            return 400, error_body(exc)
        return 500, {"error": {"type": "InternalError",
                               "message": str(exc), "context": {}}}

    def _batch(self, payload: object) -> dict:
        """Run a heterogeneous sub-request list as one fused plan.

        The envelope never fails for a sub-request's sake: every slot
        reports its own ``{"status", "body"}`` pair, byte-identical to
        issuing that sub-request alone at the same epoch (parse errors
        included).  Cached slots are answered from the LRU exactly as
        single requests would be; the misses execute as one plan under
        one read-guard acquisition.
        """
        if not isinstance(payload, dict):
            raise ValidationError(
                "/batch body must be a JSON object",
                context={"got": type(payload).__name__, "valid": "object"},
            )
        unknown = sorted(set(payload) - {"requests"})
        if unknown:
            raise ValidationError(
                f"unknown /batch field(s): {', '.join(map(str, unknown))}",
                context={"got": unknown, "valid": ["requests"]},
            )
        items = payload.get("requests")
        if not isinstance(items, list):
            raise ValidationError(
                "/batch requires a 'requests' list",
                context={"got": type(items).__name__, "valid": "list"},
            )
        if len(items) > self.config.queue_limit:
            raise ValidationError(
                "/batch request list exceeds the queue limit",
                context={"got": len(items),
                         "valid": f"<= {self.config.queue_limit}"},
            )
        counter_inc("serve.batch.sub_requests", len(items))
        count = invalidation_count()
        results: list[dict | None] = [None] * len(items)
        pending: list[tuple[int, tuple, object]] = []
        cache_hits = 0
        for i, item in enumerate(items):
            try:
                if not isinstance(item, dict):
                    raise ValidationError(
                        f"/batch requests[{i}] must be a JSON object",
                        context={"slot": i, "got": type(item).__name__,
                                 "valid": "object"},
                    )
                endpoint = item.get("endpoint")
                if endpoint not in ENDPOINTS:
                    raise ValidationError(
                        f"/batch requests[{i}].endpoint must be one of "
                        f"{', '.join(sorted(ENDPOINTS))}",
                        context={"slot": i, "got": endpoint,
                                 "valid": sorted(ENDPOINTS)},
                    )
                fields = {k: v for k, v in item.items() if k != "endpoint"}
                request = parse_request(endpoint, fields)
            except ReproError as exc:
                results[i] = {"status": 400, "body": error_body(exc)}
                continue
            key = request.cache_key
            body = self.cache.get(key, count)
            if body is not MISS:
                cache_hits += 1
                results[i] = {"status": 200, "body": body}
            else:
                pending.append((i, key, request))
        summary = {"queries": 0, "unique_queries": 0, "cse_hits": 0}
        if pending:
            plan = build_plan([request for _, _, request in pending])
            outcomes = execute_plan(plan)
            summary = plan.summary()
            for (i, key, _), outcome in zip(pending, outcomes):
                if isinstance(outcome, BaseException):
                    status, body = self._sub_response(outcome)
                    results[i] = {"status": status, "body": body}
                else:
                    self.cache.put(key, outcome, count)
                    results[i] = {"status": 200, "body": outcome}
        summary["cache_hits"] = cache_hits
        return {
            "endpoint": "batch",
            "count": len(items),
            "results": results,
            "plan": summary,
        }

    # -- catalog mutation ---------------------------------------------------

    def _catalog_append(self, payload: object) -> dict:
        """Apply one catalog event through the event-sourced mutation
        path.

        Never cached and never batched: ``apply_event`` serializes under
        the catalog write guard, drains in-flight batches, installs the
        new catalog, bumps the epoch and moves the invalidation count
        (which makes every catalog memo cold; this engine's response
        cache drops its older entries on its next read or write).
        Replaying an already-applied event is an explicit no-op
        (``applied: false``), so a client may POST the same event to
        every worker of a pre-fork fleet to converge all processes.
        """
        from repro.catalog import events as catalog_events

        if not isinstance(payload, dict):
            raise ValidationError(
                "catalog/append body must be a JSON object",
                context={"got": type(payload).__name__, "valid": "object"},
            )
        event = catalog_events.parse_event(payload)
        outcome = catalog_events.apply_event(event)
        return {
            "endpoint": "catalog_append",
            **outcome.as_dict(),
            **self._identity(),
        }

    # -- introspection ------------------------------------------------------

    def _identity(self) -> dict:
        """Who is answering: process and worker slot.

        ``pid`` is read at call time, so an engine constructed before a
        fork reports each worker's own pid.
        """
        import os

        return {"pid": os.getpid(), "worker_id": self.worker_id}

    def list_machines(self) -> dict:
        """Read-only catalog listing off the shared machine columns.

        Served straight from :func:`repro.machines.columns
        .machine_columns` and tagged with the catalog epoch in force, so
        agentic clients can correlate a listing with subsequent point
        queries.
        """
        from repro.machines.columns import machine_columns

        counter_inc("serve.requests.machines")
        cols = machine_columns()
        machines = []
        for k, m in enumerate(cols.machines):
            units = float(cols.units_installed[k])
            machines.append({
                "key": m.key,
                "country": m.country,
                "year": float(cols.intro_years[k]),
                "entry_mtops": float(cols.entry_mtops[k]),
                "max_config_mtops": float(cols.max_config_mtops[k]),
                "reachable_mtops": float(cols.reachable_mtops[k]),
                "field_upgradable": bool(cols.field_upgradable[k]),
                "units_installed": None if math.isnan(units) else units,
                "controllability_index":
                    float(cols.controllability_index[k]),
                "classification":
                    CLASS_BY_CODE[int(cols.class_codes[k])].value,
                "uncontrollable": bool(cols.uncontrollable[k]),
            })
        return {
            "endpoint": "machines",
            "catalog_epoch": current_epoch(),
            "count": len(machines),
            "machines": machines,
            **self._identity(),
        }

    def list_thresholds(self) -> dict:
        """Read-only listing of the threshold-era history in force.

        Reads ``THRESHOLD_HISTORY`` through the policy module at call
        time (an ``amend_threshold`` event swaps it), epoch-tagged like
        :meth:`list_machines`.
        """
        from repro.diffusion import policy as _policy

        counter_inc("serve.requests.thresholds")
        eras = [
            {
                "start_year": era.start_year,
                "threshold_mtops": era.threshold_mtops,
                "label": era.label,
            }
            for era in _policy.THRESHOLD_HISTORY
        ]
        return {
            "endpoint": "thresholds",
            "catalog_epoch": current_epoch(),
            "count": len(eras),
            "eras": eras,
            **self._identity(),
        }

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "endpoints": sorted(ENDPOINTS) + sorted(GET_ENDPOINTS)
            + ["batch", "catalog/append", "healthz", "metrics"],
            "queue_depth": {name: batcher.depth()
                            for name, batcher in self.batchers.items()},
            "config": asdict(self.config),
            **self._identity(),
        }

    def metrics(self) -> dict:
        """The global metrics snapshot plus serving-layer state."""
        from repro import tiles
        from repro.obs.trace import metrics_snapshot

        snapshot = metrics_snapshot()
        memo = tiles.MEMO.info()
        snapshot["serve"] = {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "config": asdict(self.config),
            "cache": self.cache.info(),
            # The point memo of repro.tiles, in the plane shape
            # benchmarks/e2e/metrics.py reads (it has no partial builds).
            "tiles": {"memo": {
                "cache": {"hits": memo["hits"], "misses": memo["misses"]},
                "builds": snapshot["counters"].get("tiles.grid_builds", 0),
                "partial_builds": 0,
            }},
            "catalog_epoch": current_epoch(),
            "batchers": {name: batcher.stats()
                         for name, batcher in self.batchers.items()},
            "plan": plan_stats(),
            "latency": self.latency.quantiles(),
            **self._identity(),
        }
        return snapshot


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

_MAX_BODY_BYTES = 1_000_000
#: Seconds a connection may stall on a read (or a write) before it is
#: dropped: a body shorter than its Content-Length gets a 408 instead of
#: pinning a handler thread.  Idle keep-alive connections close after
#: the same time, so it sits far above any gap between a client's
#: requests.
_READ_TIMEOUT_S = 30.0
_POST_PATHS = {f"/{name}": name for name in ENDPOINTS}
_POST_PATHS["/batch"] = "batch"
_POST_PATHS["/catalog/append"] = "catalog_append"
_GET_PATHS = ("/healthz", "/metrics") + tuple(
    f"/{name}" for name in GET_ENDPOINTS)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the engine; JSON in, JSON out."""

    engine: ServiceEngine  # bound per server via a subclass attribute
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # metrics replace the default stderr chatter

    def setup(self) -> None:
        super().setup()
        self.connection.settimeout(_READ_TIMEOUT_S)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send(200, self.engine.healthz())
        elif path == "/metrics":
            self._send(200, self.engine.metrics())
        elif path == "/machines":
            self._send(200, self.engine.list_machines())
        elif path == "/thresholds":
            self._send(200, self.engine.list_thresholds())
        elif path in _POST_PATHS:
            self._method_not_allowed("POST")
        else:
            self._not_found(path)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        endpoint = _POST_PATHS.get(path)
        if endpoint is None:
            # Consume the unread body so the keep-alive stream stays in
            # sync for the next request on this connection.
            self._drain_body()
            if path in _GET_PATHS:
                self._method_not_allowed("GET")
            else:
                self._not_found(path)
            return
        try:
            payload = self._read_json()
        except DeadlineExceededError as exc:
            counter_inc("serve.responses.408")
            self._send(408, error_body(exc))
            return
        except ReproError as exc:
            self._send(400, error_body(exc))
            return
        status, body = self.engine.handle(endpoint, payload)
        headers = {}
        if status == 429:
            retry = body.get("error", {}).get("context", {}) \
                        .get("retry_after_s", 1)
            headers["Retry-After"] = str(max(1, math.ceil(float(retry))))
        self._send(status, body, headers)

    # -- helpers ------------------------------------------------------------

    def _drain_body(self) -> None:
        """Read and discard an unconsumed request body (keep-alive
        hygiene); oversized bodies force the connection closed instead."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if 0 < length <= _MAX_BODY_BYTES:
            self.rfile.read(length)
        elif length > _MAX_BODY_BYTES:
            self.close_connection = True

    def _read_json(self) -> object:
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            self.close_connection = True
            raise ValidationError(
                "Content-Length header is required",
                context={"got": length, "valid": "integer byte count"},
            ) from None
        if length < 0:
            # rfile.read(-1) would block until the client closes.
            self.close_connection = True
            raise ValidationError(
                "Content-Length must not be negative",
                context={"got": length, "valid": f"0..{_MAX_BODY_BYTES}"},
            )
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ValidationError(
                "request body too large",
                context={"got": length, "valid": f"<= {_MAX_BODY_BYTES}"},
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            raise DeadlineExceededError(
                f"request body not received within {_READ_TIMEOUT_S:g} s",
                context={"content_length": length,
                         "timeout_s": _READ_TIMEOUT_S},
            ) from None
        try:
            return json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            raise ValidationError(
                "request body is not valid JSON",
                context={"got_bytes": length, "valid": "JSON object"},
            ) from None

    def _not_found(self, path: str) -> None:
        counter_inc("serve.responses.404")
        self._send(404, error_body(ValidationError(
            f"unknown path {path!r}",
            context={"got": path,
                     "valid": sorted(_POST_PATHS) + list(_GET_PATHS)},
        )))

    def _method_not_allowed(self, allowed: str) -> None:
        counter_inc("serve.responses.405")
        self._send(405, error_body(ValidationError(
            f"method not allowed on {self.path}",
            context={"got": self.command, "valid": allowed},
        )), {"Allow": allowed})

    def _send(self, status: int, body: dict,
              headers: dict[str, str] | None = None) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        try:
            self.end_headers()
            self.wfile.write(data)
        except ConnectionError:
            # Client went away mid-response (closed or reset).
            counter_inc("serve.client_disconnects")
            self.close_connection = True


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request: object, client_address: tuple) -> None:
        """One stderr line per dropped connection, not socketserver's
        multi-line traceback (a client reset while the handler waits
        for its next request lands here)."""
        exc = sys.exc_info()[1]
        print(f"serve: connection from {client_address[0]}:"
              f"{client_address[1]} dropped: {type(exc).__name__}: {exc}",
              file=sys.stderr, flush=True)
        counter_inc("serve.client_disconnects")


class ServeServer:
    """An in-process serving stack: engine + threaded HTTP server.

    ``port=0`` binds an ephemeral port (tests);
    :attr:`port`/:attr:`url` report the bound address.  Usable as a
    context manager; :meth:`close` is idempotent and stops both the HTTP
    loop and the batch workers.
    """

    def __init__(self, config: ServeConfig | None = None,
                 worker_id: int | None = None,
                 listen_socket: object | None = None) -> None:
        self.config = config or ServeConfig()
        self.engine = ServiceEngine(self.config, worker_id=worker_id)
        handler = type("_BoundHandler", (_Handler,),
                       {"engine": self.engine})
        if listen_socket is not None:
            # Pre-fork path: adopt an already-bound, already-listening
            # socket (inherited from the parent or SO_REUSEPORT-bound by
            # the worker) instead of binding a fresh one.
            self.httpd = _HTTPServer(
                (self.config.host, self.config.port), handler,
                bind_and_activate=False)
            self.httpd.socket.close()  # replace the unused auto-socket
            # Non-blocking: when several servers select on one shared
            # socket, all wake for a connection and one wins accept().
            # A blocking accept() would hold the losers' serve_forever
            # loops until the next connection, so shutdown() could wait
            # forever; non-blocking, they get BlockingIOError, which
            # socketserver ignores.
            listen_socket.setblocking(False)
            self.httpd.socket = listen_socket  # type: ignore[assignment]
            self.httpd.server_address = listen_socket.getsockname()
        else:
            self.httpd = _HTTPServer(
                (self.config.host, self.config.port), handler)
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ServeServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True, name="repro-serve-http")
            self._thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.engine.close()

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()


def run_server(config: ServeConfig | None = None) -> str:
    """Run the server until SIGINT/SIGTERM; returns a shutdown message.

    The CLI entry point: prints the listening address eagerly (flushed,
    so a piped CI job sees it before the first request), serves in a
    background thread, and shuts down gracefully — in-flight batches
    drain before the process exits.
    """
    import signal

    server = ServeServer(config)
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _on_signal)
    try:
        server.start()
        print(f"repro serve listening on {server.url} "
              f"(max_batch={server.config.max_batch}, "
              f"queue_limit={server.config.queue_limit})", flush=True)
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.close()
    return "serve: shut down cleanly"
