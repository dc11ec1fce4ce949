"""The bounded open-loop driver against a deliberately slow stub server."""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from driver import SENDERS, Driver, Record
from metrics import per_layer
from mixes import Item
from oracle import CheckReport


class _Stub(BaseHTTPRequestHandler):
    """Answers every POST; ``/slow`` takes 0.3 s.  Counts connections."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # no delayed-ACK stalls in the stub
    lock = threading.Lock()
    open_now = 0
    open_max = 0
    accepted = 0

    def setup(self):
        super().setup()
        with _Stub.lock:
            _Stub.accepted += 1
            _Stub.open_now += 1
            _Stub.open_max = max(_Stub.open_max, _Stub.open_now)

    def finish(self):
        with _Stub.lock:
            _Stub.open_now -= 1
        super().finish()

    def log_message(self, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/slow":
            time.sleep(0.3)
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Stub.open_now = _Stub.open_max = _Stub.accepted = 0
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def _item(path: str) -> Item:
    return Item(path, {}, b"{}")


def test_two_connections_and_stalls_charged_from_schedule(stub):
    # Two slow requests occupy both connections; the fast ones due
    # meanwhile must wait for a connection and be charged that wait.
    schedule = [(0.0, _item("/slow")), (0.01, _item("/slow"))] + \
        [(0.05 + 0.01 * k, _item("/fast")) for k in range(20)]
    driver = Driver(*stub.server_address)
    records = driver.run_open(schedule)

    assert len(records) == 22 and all(r.ok for r in records)
    assert _Stub.accepted == SENDERS == 2
    assert _Stub.open_max <= 2
    stalled = records[2]
    assert stalled.item.path == "/fast" and not stalled.idle
    assert stalled.sent - stalled.due > 0.2      # waited for a connection
    assert stalled.latency > 0.2                 # ... and was charged it
    assert stalled.done - stalled.sent < 0.1     # the server was fast
    assert all(r.latency >= r.done - r.sent for r in records)


def test_idle_senders_send_on_time(stub):
    schedule = [(0.03 * k, _item("/fast")) for k in range(10)]
    records = Driver(*stub.server_address).run_open(schedule)
    late = [r.sent - r.due for r in records if r.idle]
    assert len(late) >= 8
    assert max(late) < 0.01


def test_latency_splits_into_lag_wire_and_server():
    item = _item("/rate")
    record = Record("o0", item, due=10.0, sent=10.002, done=10.050,
                    idle=False, status=200, body=b"{}", error=None,
                    writes_acked=0, writes_started=0)
    spans = [["http.do_post", ["o0"], 10.010, 10.020],
             ["serve.handle", ["o0"], 10.011, 10.019],
             ["cache.get", ["o0"], 10.012, 10.018]]
    snapshot = {"serve": {"cache": {"hits": 0, "misses": 0,
                                    "evictions": 0, "purges": 0},
                          "tiles": {}, "batchers": {},
                          "plan": {"queries": 0, "cse_hits": 0, "ops": 0,
                                   "ops_fused": 0}},
                "counters": {}}
    out = per_layer(spans, [record], [record], [record], snapshot,
                    snapshot, [0.1], [0.2], CheckReport(attempted=1))
    lag = (record.sent - record.due) * 1e3
    server = out["server.p50_ms"][0]
    wire = out["wire.p50_ms"][0]
    assert lag + wire + server == pytest.approx(record.latency * 1e3)
    assert server == pytest.approx(10.0)
    # read 1 ms + cache 6 ms + write 1 ms of a 10 ms do_POST
    assert out["stages.coverage"][0] == pytest.approx(0.8)
    assert out["http.read_ms"][0] == pytest.approx(1.0)
