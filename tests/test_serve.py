"""The serving-layer contract: parity, batching, backpressure, errors.

The load-bearing suite is the concurrency parity test — N client threads
hammering a live micro-batching server must produce responses
bit-identical to a sequential pass through a ``max_batch=1`` engine,
because every per-request value depends only on that request's row in
the batch kernels.  Around it: the cache-hit path, 429 queue overflow
(with ``Retry-After``), 504 deadline expiry, and the rule that every
error path returns structured taxonomy JSON — never a traceback.

No test here sleeps longer than 100 ms; coordination uses events.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.ctp import ComputingElement, Coupling, ctp_homogeneous
from repro.machines.catalog import COMMERCIAL_SYSTEMS
from repro.obs.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.obs.trace import counters
from repro.serve import server as server_module
from repro.serve.batching import MicroBatcher
from repro.serve.cache import MISS, LRUCache
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServeServer, ServiceEngine


def _server(**overrides) -> ServeServer:
    config = ServeConfig(**{"port": 0, **overrides})
    return ServeServer(config).start()


def _rate_payloads() -> list[dict]:
    """A deterministic mix covering every coupling and the batch sizes
    where cumsum-vs-pairwise summation could plausibly diverge."""
    payloads = []
    for i in range(24):
        coupling = ("shared", "distributed", "cluster")[i % 3]
        payloads.append({
            "clock_mhz": 50.0 + 11.0 * i,
            "word_bits": 64 if i % 2 else 32,
            "fp_per_cycle": 1 + (i % 3),
            "concurrent": i % 4 == 0,
            "processors": (1, 4, 17, 64)[i % 4],
            "coupling": coupling,
            "year": 1995.5,
        })
    payloads.append({"clock_mhz": 150.0, "coupling": "single"})
    return payloads


def _license_payloads() -> list[dict]:
    machines = sorted(m.key for m in COMMERCIAL_SYSTEMS)[:6]
    destinations = ("India", "Germany", "China", "Russia")
    return [{"machine": key, "destination": destinations[i % 4]}
            for i, key in enumerate(machines)]


# ---------------------------------------------------------------------------
# concurrency parity
# ---------------------------------------------------------------------------

class TestParity:
    def test_threaded_responses_match_sequential_reference(self):
        """16 threads of mixed /rate + /license against the batching
        server == a sequential pass through a max_batch=1 engine."""
        work = ([("rate", p) for p in _rate_payloads()]
                + [("license", p) for p in _license_payloads()]) * 2

        reference_engine = ServiceEngine(
            ServeConfig(max_batch=1, cache_size=0))
        try:
            expected = [reference_engine.handle(endpoint, payload)
                        for endpoint, payload in work]
        finally:
            reference_engine.close()
        assert all(status == 200 for status, _ in expected)

        server = _server(max_batch=64, cache_size=0)
        client = ServeClient(port=server.port)
        try:
            def call(item):
                endpoint, payload = item
                return client.request("POST", f"/{endpoint}", payload)

            with ThreadPoolExecutor(max_workers=16) as pool:
                got = list(pool.map(call, work))
        finally:
            client.close()
            server.close()

        for (status, body), response in zip(expected, got):
            assert response.status == 200
            # HTTP responses round-trip through json; floats survive
            # exactly, so this is a bit-identity check.
            assert response.body == json.loads(json.dumps(body))

    def test_shared_rating_exactly_matches_scalar(self):
        """SHARED credit sums are binary-exact, so a served rating equals
        the scalar ctp_homogeneous result to the last bit."""
        server = _server()
        client = ServeClient(port=server.port)
        try:
            body = client.rate(clock_mhz=150.0, processors=16).require_ok()
        finally:
            client.close()
            server.close()
        element = ComputingElement(
            name="serve", clock_mhz=150.0, word_bits=64.0,
            fp_ops_per_cycle=1.0, int_ops_per_cycle=1.0,
            concurrent_int_fp=False)
        assert body["ctp_mtops"] == ctp_homogeneous(element, 16,
                                                    Coupling.SHARED)
        assert body["supercomputer"] is True


# ---------------------------------------------------------------------------
# cache behavior
# ---------------------------------------------------------------------------

class TestResponseCache:
    def test_repeated_payload_hits_cache(self):
        server = _server()
        client = ServeClient(port=server.port)
        try:
            first = client.rate(clock_mhz=100.0, processors=4).require_ok()
            before = server.engine.cache.info()
            second = client.rate(clock_mhz=100.0, processors=4).require_ok()
            after = server.engine.cache.info()
        finally:
            client.close()
            server.close()
        assert second == first
        assert after["hits"] == before["hits"] + 1

    def test_canonicalization_collapses_equivalent_payloads(self):
        """Explicit defaults and an explicit in-force threshold share the
        cache entry of the spartan spelling."""
        server = _server()
        client = ServeClient(port=server.port)
        try:
            client.rate(clock_mhz=100.0).require_ok()
            before = server.engine.cache.info()
            client.rate(clock_mhz=100.0, processors=1, word_bits=64,
                        coupling="shared", year=1995.5).require_ok()
            after = server.engine.cache.info()
        finally:
            client.close()
            server.close()
        assert after["hits"] == before["hits"] + 1


# ---------------------------------------------------------------------------
# backpressure and deadlines over HTTP
# ---------------------------------------------------------------------------

def _gate_dispatch(server: ServeServer, name: str):
    """Block the named batcher's dispatch until the returned event is
    set; the second event fires once the worker is inside a dispatch."""
    release, entered = threading.Event(), threading.Event()
    batcher = server.engine.batchers[name]
    original = batcher._dispatch

    def gated(requests):
        entered.set()
        assert release.wait(5.0), "gate never released"
        return original(requests)

    batcher._dispatch = gated
    return release, entered


class TestBackpressure:
    def test_full_queue_returns_429_with_retry_after(self):
        server = _server(max_batch=1, queue_limit=1, cache_size=0)
        release, entered = _gate_dispatch(server, "rate")
        client = ServeClient(port=server.port)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                blocked = pool.submit(
                    lambda: client.rate(clock_mhz=100.0))
                assert entered.wait(5.0)  # worker holds request A
                queued = pool.submit(
                    lambda: client.rate(clock_mhz=101.0))
                # Wait (bounded) for request B to occupy the queue slot.
                deadline = time.monotonic() + 5.0
                while (server.engine.batchers["rate"].depth() < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert server.engine.batchers["rate"].depth() == 1

                shed = ServeClient(port=server.port)
                response = shed.rate(clock_mhz=102.0)
                shed.close()
                assert response.status == 429
                assert response.body["error"]["type"] == \
                    "ServiceOverloadedError"
                assert response.body["error"]["context"]["queue_limit"] == 1
                assert int(response.headers["Retry-After"]) >= 1
                with pytest.raises(ServiceOverloadedError):
                    response.require_ok()

                release.set()
                assert blocked.result().status == 200
                assert queued.result().status == 200
        finally:
            client.close()
            server.close()

    def test_expired_queue_wait_returns_504(self):
        server = _server(max_batch=1, queue_limit=8, cache_size=0,
                         deadline_ms=40.0)
        release, entered = _gate_dispatch(server, "rate")
        client = ServeClient(port=server.port)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                blocked = pool.submit(lambda: client.rate(clock_mhz=100.0))
                assert entered.wait(5.0)
                late = pool.submit(lambda: client.rate(clock_mhz=101.0))
                deadline = time.monotonic() + 5.0
                while (server.engine.batchers["rate"].depth() < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert server.engine.batchers["rate"].depth() == 1
                time.sleep(0.05)  # let the queued request's 40ms lapse
                release.set()
                response = late.result()
                assert response.status == 504
                assert response.body["error"]["type"] == \
                    "DeadlineExceededError"
                blocked.result()
        finally:
            client.close()
            server.close()


# ---------------------------------------------------------------------------
# error paths: structured JSON, correct statuses, no tracebacks
# ---------------------------------------------------------------------------

_BAD_POSTS = [
    ("missing_required", "/rate", {}, 400, "ValidationError"),
    ("unknown_field", "/rate", {"clock_mhz": 100, "procesors": 2},
     400, "ValidationError"),
    ("bad_coupling", "/rate", {"clock_mhz": 100, "coupling": "warp"},
     400, "ValidationError"),
    ("single_multiprocessor", "/rate",
     {"clock_mhz": 100, "processors": 2, "coupling": "single"},
     400, "ValidationError"),
    ("negative_clock", "/rate", {"clock_mhz": -5}, 400, "ValidationError"),
    ("non_object_payload", "/rate", [1, 2, 3], 400, "ValidationError"),
    ("unknown_machine", "/license",
     {"machine": "Cray C917", "destination": "India"},
     400, "CatalogLookupError"),
    ("bad_year", "/review", {"year": 1776.0}, 400, "ValidationError"),
    ("unknown_path", "/nope", {"clock_mhz": 100}, 404, "ValidationError"),
    ("post_to_get_path", "/healthz", {}, 405, "ValidationError"),
]


class TestErrorPaths:
    @pytest.fixture(scope="class")
    def server(self):
        server = _server()
        yield server
        server.close()

    @pytest.mark.parametrize(
        "path,payload,status,error_type",
        [case[1:] for case in _BAD_POSTS],
        ids=[case[0] for case in _BAD_POSTS])
    def test_bad_posts_return_structured_json(self, server, path, payload,
                                              status, error_type):
        client = ServeClient(port=server.port)
        try:
            response = client.request("POST", path, payload)
        finally:
            client.close()
        assert response.status == status
        error = response.body["error"]
        assert error["type"] == error_type
        assert set(error) == {"type", "message", "context"}
        assert "Traceback" not in json.dumps(response.body)

    def test_get_on_post_path_is_405_with_allow(self, server):
        client = ServeClient(port=server.port)
        try:
            response = client.request("GET", "/rate")
        finally:
            client.close()
        assert response.status == 405
        assert response.headers["Allow"] == "POST"

    def test_invalid_json_body_is_structured_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=5.0)
        try:
            conn.request("POST", "/rate", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["type"] == "ValidationError"

    def test_negative_content_length_is_structured_400(self, server):
        """``rfile.read(-1)`` would block until the client hangs up, so
        a negative length must be answered at once, not read."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=2.0) as sock:
            sock.sendall(b"POST /rate HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: -1\r\n\r\n")
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = json.loads(response.read())
            assert sock.recv(1) == b""  # the server hung up
        assert response.status == 400
        assert body["error"]["type"] == "ValidationError"

    def test_short_body_times_out_with_408(self, server, monkeypatch):
        """A body shorter than its Content-Length must not pin a handler
        thread: the read times out into a typed 408 and a hang-up."""
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.2)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"POST /rate HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 100\r\n\r\n{\"clock")
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = json.loads(response.read())
            assert sock.recv(1) == b""  # the server hung up
        assert response.status == 408
        assert body["error"]["type"] == "DeadlineExceededError"

    def test_client_reset_mid_response_is_one_line(self, server, capsys):
        """A client that resets the connection once the response has
        begun is counted and logged in one line, not a traceback."""
        before = counters().get("serve.client_disconnects", 0)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(1) == b"H"  # the response has begun
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))  # close sends RST
        deadline = time.monotonic() + 5.0
        while (counters().get("serve.client_disconnects", 0) == before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert counters().get("serve.client_disconnects", 0) > before
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert all(line.startswith("serve: connection from ")
                   for line in err.splitlines())

    def test_keep_alive_survives_error_responses(self, server):
        """A 404/405 must drain the request body, or the reused
        connection desyncs and the next request fails (regression)."""
        client = ServeClient(port=server.port)
        try:
            assert client.rate(clock_mhz=100.0).status == 200
            assert client.request("POST", "/nope",
                                  {"clock_mhz": 100}).status == 404
            assert client.request("POST", "/metrics", {"x": 1}).status == 405
            assert client.rate(clock_mhz=100.0).status == 200
        finally:
            client.close()

    def test_unknown_machine_suggests_alternatives(self, server):
        client = ServeClient(port=server.port)
        try:
            response = client.machine("Cray C917")
        finally:
            client.close()
        assert response.status == 400
        assert response.body["error"]["context"]  # carries suggestions

    def test_internal_error_is_json_not_traceback(self):
        engine = ServiceEngine(ServeConfig())
        try:
            def boom(request):
                raise RuntimeError("wires crossed")

            engine._handlers["machine"] = boom
            status, body = engine.handle("machine",
                                         {"machine": "Cray C916"})
        finally:
            engine.close()
        assert status == 500
        assert body["error"]["type"] == "InternalError"
        assert "Traceback" not in json.dumps(body)


# ---------------------------------------------------------------------------
# introspection endpoints
# ---------------------------------------------------------------------------

class TestIntrospection:
    def test_healthz_shape(self):
        server = _server(max_batch=32)
        client = ServeClient(port=server.port)
        try:
            body = client.healthz().require_ok()
        finally:
            client.close()
            server.close()
        assert body["status"] == "ok"
        assert body["config"]["max_batch"] == 32
        assert set(body["queue_depth"]) == {"rate", "license", "policy",
                                            "scenario"}
        assert "rate" in body["endpoints"]

    def test_metrics_shape_after_traffic(self):
        server = _server()
        client = ServeClient(port=server.port)
        try:
            client.rate(clock_mhz=100.0).require_ok()
            client.rate(clock_mhz=100.0).require_ok()
            body = client.metrics().require_ok()
        finally:
            client.close()
            server.close()
        serve = body["serve"]
        assert set(serve) >= {"config", "cache", "batchers", "latency"}
        rate_stats = serve["batchers"]["rate"]
        assert rate_stats["dispatches"] >= 1
        assert sum(rate_stats["batch_size_histogram"].values()) \
            == rate_stats["dispatches"]
        assert serve["cache"]["hits"] >= 1
        assert serve["latency"]["rate"]["count"] == 2
        assert serve["latency"]["rate"]["p95_ms"] >= \
            serve["latency"]["rate"]["p50_ms"] >= 0.0
        assert "counters" in body  # the global metrics_snapshot rides along
        assert "credit_cache" in body

    def test_metrics_include_tile_planes(self):
        """serve.tiles reports the point memo in the plane shape the
        end-to-end benchmark reads."""
        server = _server(cache_size=0)
        client = ServeClient(port=server.port)
        try:
            before = client.metrics().require_ok()["serve"]["tiles"]
            for _ in range(2):
                client.policy(threshold_mtops=2345.0,
                              year=1994.25).require_ok()
            after = client.metrics().require_ok()["serve"]["tiles"]
        finally:
            client.close()
            server.close()
        assert set(after) == {"memo"}
        memo, memo_before = after["memo"], before["memo"]
        assert set(memo) == {"cache", "builds", "partial_builds"}
        hits = memo["cache"]["hits"] - memo_before["cache"]["hits"]
        misses = memo["cache"]["misses"] - memo_before["cache"]["misses"]
        assert hits >= 1 and hits + misses == 2
        assert memo["builds"] - memo_before["builds"] == misses
        assert memo["partial_builds"] == 0

    def test_get_machines_is_epoch_tagged(self):
        server = _server()
        client = ServeClient(port=server.port)
        try:
            body = client.machines().require_ok()
        finally:
            client.close()
            server.close()
        from repro.catalog.registry import current_epoch

        assert body["endpoint"] == "machines"
        assert body["count"] == len(body["machines"]) > 0
        assert body["catalog_epoch"] == current_epoch()
        sample = body["machines"][0]
        assert {"key", "country", "year", "reachable_mtops",
                "classification", "uncontrollable"} <= set(sample)

    def test_get_thresholds_matches_history(self):
        from repro.catalog.registry import current_epoch
        from repro.diffusion.policy import THRESHOLD_HISTORY

        server = _server()
        client = ServeClient(port=server.port)
        try:
            body = client.thresholds().require_ok()
        finally:
            client.close()
            server.close()
        assert body["endpoint"] == "thresholds"
        assert body["catalog_epoch"] == current_epoch()
        assert [era["start_year"] for era in body["eras"]] \
            == [era.start_year for era in THRESHOLD_HISTORY]
        assert [era["threshold_mtops"] for era in body["eras"]] \
            == [era.threshold_mtops for era in THRESHOLD_HISTORY]

    def test_healthz_lists_get_endpoints(self):
        server = _server()
        client = ServeClient(port=server.port)
        try:
            body = client.healthz().require_ok()
        finally:
            client.close()
            server.close()
        assert "machines" in body["endpoints"]
        assert "thresholds" in body["endpoints"]


# ---------------------------------------------------------------------------
# MicroBatcher unit behavior
# ---------------------------------------------------------------------------

class TestMicroBatcher:
    def test_backlog_coalesces_into_one_dispatch(self):
        release, entered = threading.Event(), threading.Event()
        sizes = []

        def dispatch(requests):
            if not entered.is_set():
                entered.set()
                assert release.wait(5.0)
            sizes.append(len(requests))
            return [r * 2 for r in requests]

        batcher = MicroBatcher("t", dispatch, max_batch=8, queue_limit=64)
        try:
            first = batcher.submit(1)
            assert entered.wait(5.0)  # worker busy with the first item
            backlog = [batcher.submit(i) for i in range(2, 7)]
            release.set()
            assert first.result(5.0) == 2
            assert [f.result(5.0) for f in backlog] == [4, 6, 8, 10, 12]
        finally:
            batcher.stop()
        assert sizes == [1, 5]  # the backlog drained as one batch
        stats = batcher.stats()
        assert stats["batch_size_histogram"] == {"1": 1, "5": 1}
        assert stats["completed"] == 6
        assert stats["mean_batch_size"] == 3.0

    def test_max_batch_bounds_a_dispatch(self):
        release, entered = threading.Event(), threading.Event()

        def dispatch(requests):
            if not entered.is_set():
                entered.set()
                assert release.wait(5.0)
            return list(requests)

        batcher = MicroBatcher("t", dispatch, max_batch=3, queue_limit=64)
        try:
            futures = [batcher.submit(0)]
            assert entered.wait(5.0)
            futures += [batcher.submit(i) for i in range(1, 8)]
            release.set()
            assert [f.result(5.0) for f in futures] == list(range(8))
        finally:
            batcher.stop()
        assert max(int(size)
                   for size in batcher.stats()["batch_size_histogram"]) <= 3

    def test_overflow_raises_service_overloaded(self):
        release, entered = threading.Event(), threading.Event()

        def dispatch(requests):
            entered.set()
            assert release.wait(5.0)
            return list(requests)

        batcher = MicroBatcher("t", dispatch, max_batch=1, queue_limit=1)
        try:
            held = batcher.submit(1)
            assert entered.wait(5.0)
            queued = batcher.submit(2)  # fills the single queue slot
            with pytest.raises(ServiceOverloadedError) as excinfo:
                batcher.submit(3)
            assert excinfo.value.context["queue_limit"] == 1
            assert batcher.stats()["overflows"] == 1
            release.set()
            assert held.result(5.0) == 1
            assert queued.result(5.0) == 2
        finally:
            batcher.stop()

    def test_expired_request_fails_with_deadline_error(self):
        release, entered = threading.Event(), threading.Event()

        def dispatch(requests):
            entered.set()
            assert release.wait(5.0)
            return list(requests)

        batcher = MicroBatcher("t", dispatch, max_batch=1, queue_limit=8)
        try:
            held = batcher.submit(1)
            assert entered.wait(5.0)
            doomed = batcher.submit(2, deadline_s=0.02)
            time.sleep(0.04)
            release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(5.0)
            assert held.result(5.0) == 1
            assert batcher.stats()["expired"] == 1
        finally:
            batcher.stop()

    def test_dispatch_exception_fans_out_to_futures(self):
        def dispatch(requests):
            raise RuntimeError("kernel fault")

        batcher = MicroBatcher("t", dispatch, max_batch=4, queue_limit=8)
        try:
            future = batcher.submit(1)
            with pytest.raises(RuntimeError, match="kernel fault"):
                future.result(5.0)
        finally:
            batcher.stop()

    def test_result_count_mismatch_is_validation_error(self):
        batcher = MicroBatcher("t", lambda requests: [], max_batch=4,
                               queue_limit=8)
        try:
            future = batcher.submit(1)
            with pytest.raises(ValidationError):
                future.result(5.0)
        finally:
            batcher.stop()

    def test_submit_after_stop_is_rejected(self):
        batcher = MicroBatcher("t", lambda requests: list(requests))
        batcher.stop()
        with pytest.raises(ServiceOverloadedError):
            batcher.submit(1)

    def test_linger_still_serves_a_lone_request(self):
        """max_wait_ms bounds the wait for a fuller batch; a lone request
        is not held past it."""
        batcher = MicroBatcher("t", lambda requests: list(requests),
                               max_batch=64, max_wait_ms=20.0)
        try:
            start = time.perf_counter()
            assert batcher.submit(7).result(5.0) == 7
            assert time.perf_counter() - start < 1.0
        finally:
            batcher.stop()

    def test_invalid_parameters_rejected(self):
        for kwargs in ({"max_batch": 0}, {"queue_limit": 0},
                       {"max_wait_ms": -1.0}):
            with pytest.raises(ValidationError):
                MicroBatcher("t", lambda requests: list(requests),
                             start=False, **kwargs)


# ---------------------------------------------------------------------------
# LRU cache unit behavior
# ---------------------------------------------------------------------------

class TestLRUCache:
    def test_eviction_order_respects_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.info()["evictions"] == 1

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is MISS
        assert len(cache) == 0

    def test_info_counts_are_exact(self):
        cache = LRUCache(4)
        assert cache.get("a") is MISS
        cache.put("a", 1)
        assert cache.get("a") == 1
        info = cache.info()
        assert (info["hits"], info["misses"]) == (1, 1)
        assert info["hit_rate"] == 0.5
        cache.clear()
        assert len(cache) == 0
        assert cache.info()["hits"] == 1  # counters survive clear

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValidationError):
            LRUCache(-1)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

class TestServeConfig:
    @pytest.mark.parametrize("overrides", [
        {"max_batch": 0},
        {"queue_limit": 0},
        {"max_wait_ms": -1.0},
        {"deadline_ms": 0.0},
        {"cache_size": -1},
    ])
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ValidationError):
            ServeConfig(**overrides)
