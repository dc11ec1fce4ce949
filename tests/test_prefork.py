"""The pre-forked fleet contract: one port, N workers, same answers.

Covers both sharding modes (``SO_REUSEPORT`` and the inherited-socket
fallback), the control-plane fan-out (fleet ``healthz``/``metrics``
with per-worker identity), a parent-side catalog event inherited by
every worker, an honest roll-up after a worker is SIGKILLed, graceful
SIGTERM-style shutdown with exit code 0 from every worker, and the
:class:`ServeClient` stale keep-alive retry semantics.

Fork hygiene: every fleet here uses ``port=0`` and exactly 2 workers,
and is closed in a ``finally``/fixture teardown so no child outlives
its test.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.catalog.events import AppendMachine, apply_event, reset_catalog
from repro.machines import catalog as machine_catalog
from repro.machines.columns import machine_columns
from repro.obs.errors import ValidationError
from repro.serve import (
    PreforkServer,
    ServeClient,
    ServeConfig,
    ServeServer,
    reuseport_available,
)
from repro.serve.client import STALE_CONNECTION_ERRORS


def _fleet(n_workers: int = 2, **overrides) -> PreforkServer:
    config = ServeConfig(**{"port": 0, "drain_timeout": 2.0, **overrides})
    return PreforkServer(config, n_workers=n_workers).start(
        ready_timeout=30.0)


def _fresh_get(port: int, path: str) -> dict:
    """One GET on its own connection (so the kernel picks a worker)."""
    client = ServeClient(port=port)
    try:
        return client.request("GET", path).require_ok()
    finally:
        client.close()


def _probe_payloads() -> list[tuple[str, dict]]:
    couplings = ("shared", "distributed", "cluster")
    return [
        ("rate", {"clock_mhz": 50.0 + 11.0 * i, "word_bits": 64,
                  "processors": (1, 4, 17, 64)[i % 4],
                  "coupling": couplings[i % 3], "year": 1995.5})
        for i in range(8)
    ] + [
        ("rate", {"clock_mhz": 150.0, "coupling": "single"}),
    ] + [
        ("policy", {"threshold_mtops": t, "year": y})
        for t in (195.0, 2000.0) for y in (1992.0, 1995.5)
    ]


class TestFleet:
    @pytest.fixture(scope="class")
    def fleet(self):
        server = _fleet()
        yield server
        server.close()

    def test_identity_fields_in_healthz(self, fleet):
        body = _fresh_get(fleet.port, "/healthz")
        assert body["status"] == "ok"
        assert body["pid"] > 0
        assert body["worker_id"] in (0, 1)

    def test_requests_distribute_across_workers(self, fleet):
        pids = {_fresh_get(fleet.port, "/healthz")["pid"]
                for _ in range(24)}
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_rate_served_through_shared_port(self, fleet):
        client = ServeClient(port=fleet.port)
        try:
            body = client.rate(clock_mhz=150.0,
                               processors=16).require_ok()
        finally:
            client.close()
        assert body["ctp_mtops"] > 0

    def test_fleet_healthz_rollup(self, fleet):
        report = fleet.healthz(timeout=5.0)
        assert report["status"] == "ok"
        assert report["n_live"] == 2
        assert {row["healthz"]["worker_id"]
                for row in report["workers"]} == {0, 1}
        assert {row["healthz"]["pid"] for row in report["workers"]} == {
            row["pid"] for row in report["workers"]}

    def test_fleet_metrics_rollup(self, fleet):
        client = ServeClient(port=fleet.port)
        try:
            for _ in range(4):
                client.rate(clock_mhz=100.0, processors=4).require_ok()
        finally:
            client.close()
        report = fleet.metrics(timeout=5.0)
        assert report["requests_total"] >= 4
        assert set(report["workers"]) == {"0", "1"}

    def test_fleet_plan_stats_rollup(self, fleet):
        """``serve.plan`` counters sum across the fleet: a /batch with
        duplicate sub-requests must surface plans and cse_hits in the
        parent roll-up no matter which worker served it."""
        client = ServeClient(port=fleet.port)
        try:
            # Params no other test issues: a prior test's response in
            # the worker's LRU would turn these slots into cache hits
            # and zero the plan's cse_hits.
            body = client.batch([
                {"endpoint": "rate", "clock_mhz": 151.0, "processors": 8},
                {"endpoint": "rate", "clock_mhz": 151.0, "processors": 8},
                {"endpoint": "threshold_at", "year": 1993.25},
            ]).require_ok()
        finally:
            client.close()
        assert body["plan"]["cse_hits"] == 1
        report = fleet.metrics(timeout=5.0)
        plan = report["plan"]
        assert set(plan) == {"plans", "ops_fused", "cse_hits", "reuse_hits"}
        assert plan["plans"] >= 1
        assert plan["cse_hits"] >= 1


class TestParity:
    def test_fleet_bodies_identical_to_single_process(self):
        work = _probe_payloads()
        single = ServeServer(ServeConfig(port=0, cache_size=0)).start()
        try:
            client = ServeClient(port=single.port)
            expected = [client.request("POST", f"/{endpoint}",
                                       payload).require_ok()
                        for endpoint, payload in work]
            client.close()
        finally:
            single.close()

        fleet = _fleet(cache_size=0)
        try:
            client = ServeClient(port=fleet.port)
            got = [client.request("POST", f"/{endpoint}",
                                  payload).require_ok()
                   for endpoint, payload in work]
            client.close()
        finally:
            fleet.close()
        # Compute bodies carry no per-process identity, so bit identity
        # holds across the process models.
        assert json.dumps(expected, sort_keys=True) == json.dumps(
            got, sort_keys=True)


class TestShutdown:
    def test_close_drains_to_exit_zero(self):
        fleet = _fleet()
        pids = [worker.pid for worker in fleet.workers]
        fleet.close()
        assert fleet.exit_codes() == {0: 0, 1: 0}
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_close_is_idempotent(self):
        fleet = _fleet()
        fleet.close()
        fleet.close()
        assert fleet.exit_codes() == {0: 0, 1: 0}

    def test_context_manager_closes(self):
        config = ServeConfig(port=0, drain_timeout=2.0)
        with PreforkServer(config, n_workers=2) as fleet:
            assert _fresh_get(fleet.port, "/healthz")["status"] == "ok"
        assert fleet.exit_codes() == {0: 0, 1: 0}


class TestInheritedMode:
    def test_fallback_serves_and_exits_clean(self, monkeypatch):
        monkeypatch.setattr("repro.serve.prefork.reuseport_available",
                            lambda: False)
        fleet = _fleet()
        try:
            assert fleet.mode == "inherited"
            pids = {_fresh_get(fleet.port, "/healthz")["pid"]
                    for _ in range(24)}
            assert len(pids) == 2
        finally:
            fleet.close()
        assert fleet.exit_codes() == {0: 0, 1: 0}


class TestSharedListenSocket:
    def test_servers_sharing_a_socket_close_without_hanging(self):
        """Servers selecting on one shared listening socket all wake for
        each connection, and only one wins ``accept()``.  The losers must
        not block in ``accept()``, or ``close()`` waits on them until the
        next connection arrives.  Without the fix about half of the
        trials hang."""
        for _ in range(10):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen(16)
            port = listener.getsockname()[1]
            # dup() shares one open file description, as fork() does.
            servers = [ServeServer(ServeConfig(port=0),
                                   listen_socket=listener.dup()).start()
                       for _ in range(2)]
            closers = [threading.Thread(target=server.close, daemon=True)
                       for server in servers]
            try:
                for _ in range(24):
                    _fresh_get(port, "/healthz")
                for closer in closers:
                    closer.start()
                for closer in closers:
                    closer.join(5.0)
                hung = sum(closer.is_alive() for closer in closers)
            finally:
                # A hung server is parked in accept(): connect until it
                # takes one and its loop sees the shutdown request.
                for _ in range(10):
                    if not any(closer.is_alive() for closer in closers):
                        break
                    socket.create_connection(("127.0.0.1", port)).close()
                    for closer in closers:
                        closer.join(0.5)
                listener.close()
            assert hung == 0, f"{hung} server(s) hung in close()"


class TestSnapshotIdentity:
    def test_workers_report_parent_snapshot_hash(self):
        """Workers fork from the parent's catalog state: an event applied
        in the parent before the fork shows on every worker."""
        machine_columns()  # warm parent-side stores the event must drop
        machine = dataclasses.replace(
            machine_catalog.COMMERCIAL_SYSTEMS[0],
            vendor="ForkCo", model="F-1")
        try:
            assert apply_event(AppendMachine(machine=machine)).applied
            fleet = _fleet()
            try:
                seen = {}
                for _ in range(40):
                    body = _fresh_get(fleet.port, "/machines")
                    seen[body["pid"]] = body
                    if len(seen) == 2:
                        break
                assert len(seen) == 2
                for body in seen.values():
                    assert body["catalog_epoch"] == 1
                    assert body["machines"][-1]["key"] == machine.key
                    assert body["count"] == len(
                        machine_catalog.COMMERCIAL_SYSTEMS)
            finally:
                fleet.close()
        finally:
            reset_catalog()


class TestWorkerDeath:
    def test_sigkilled_worker_leaves_honest_fleet(self):
        fleet = _fleet()
        try:
            victim, survivor = fleet.workers
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while fleet.exit_codes()[victim.worker_id] is None:
                assert time.monotonic() < deadline, "victim not reaped"
                time.sleep(0.02)

            health = fleet.healthz(timeout=5.0)
            assert health["status"] == "degraded"
            assert health["n_live"] == 1
            rows = {row["worker_id"]: row for row in health["workers"]}
            assert rows[victim.worker_id]["alive"] is False
            assert rows[victim.worker_id]["exit_code"] == -signal.SIGKILL
            assert rows[victim.worker_id]["healthz"] is None
            assert rows[survivor.worker_id]["alive"] is True
            assert rows[survivor.worker_id]["exit_code"] is None

            for _ in range(8):
                body = _fresh_get(fleet.port, "/healthz")
                assert body["pid"] == survivor.pid

            metrics = fleet.metrics(timeout=5.0)
            assert metrics["workers"][str(victim.worker_id)] is None
            live = metrics["workers"][str(survivor.worker_id)]
            assert metrics["requests_total"] == int(
                live["counters"].get("serve.requests", 0))
            assert metrics["requests_total"] >= 8
        finally:
            fleet.close()
        codes = fleet.exit_codes()
        assert codes[victim.worker_id] == -signal.SIGKILL
        assert codes[survivor.worker_id] == 0


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValidationError):
            PreforkServer(ServeConfig(port=0), n_workers=0)

    def test_negative_drain_timeout_rejected(self):
        with pytest.raises(ValidationError):
            ServeConfig(drain_timeout=-0.5)

    def test_reuseport_detection_matches_platform(self):
        assert reuseport_available() == hasattr(socket, "SO_REUSEPORT")


# ---------------------------------------------------------------------------
# ServeClient stale keep-alive retry
# ---------------------------------------------------------------------------


class _YankedKeepAliveHandler(BaseHTTPRequestHandler):
    """Promises HTTP/1.1 keep-alive, then closes after every response —
    the exact server behavior that strands a pooled client connection."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 — BaseHTTPRequestHandler API
        body = json.dumps({"n": self.server.hits}).encode("utf-8")
        self.server.hits += 1
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True

    def log_message(self, *args):  # silence test output
        pass


class TestClientStaleRetry:
    @pytest.fixture()
    def yanking_server(self):
        httpd = ThreadingHTTPServer(("127.0.0.1", 0),
                                    _YankedKeepAliveHandler)
        httpd.hits = 0
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)

    def test_stale_pooled_connection_retried_once(self, yanking_server):
        client = ServeClient(port=yanking_server.server_address[1])
        try:
            first = client.request("GET", "/probe")
            assert first.ok and first.body == {"n": 0}
            assert client.stale_retries == 0
            # The server closed the pooled connection after responding;
            # the next request hits the corpse, then retries fresh.
            second = client.request("GET", "/probe")
            assert second.ok and second.body == {"n": 1}
            assert client.stale_retries == 1
            third = client.request("GET", "/probe")
            assert third.ok and third.body == {"n": 2}
            assert client.stale_retries == 2
        finally:
            client.close()

    def test_fresh_connection_refusal_raises_immediately(self):
        # A bound-but-never-listening socket refuses connections
        # deterministically without racing other port users.
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        client = ServeClient(port=port, timeout=2.0)
        try:
            with pytest.raises(ConnectionError):
                client.request("GET", "/probe")
            assert client.stale_retries == 0
        finally:
            client.close()
            placeholder.close()

    def test_fresh_connection_disconnect_not_retried(self):
        # Accepts, then slams the door before any response: the same
        # exception type as a stale pooled connection, but on a
        # never-used connection — must raise, not double-send.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        accepted = []

        def _slam():
            conn, _ = listener.accept()
            accepted.append(True)
            conn.close()

        thread = threading.Thread(target=_slam, daemon=True)
        thread.start()
        client = ServeClient(port=listener.getsockname()[1], timeout=2.0)
        try:
            with pytest.raises(STALE_CONNECTION_ERRORS):
                client.request("GET", "/probe")
        finally:
            client.close()
            listener.close()
            thread.join(timeout=5)
        assert accepted == [True]
        assert client.stale_retries == 0
