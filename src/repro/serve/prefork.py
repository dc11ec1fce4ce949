"""Pre-forked sharded serving: N worker processes, one port.

The single-process server batches well but is still one GIL: CPU-bound
endpoints (``/policy`` grid cells, ``/review``) serialize behind each
other no matter how many HTTP threads accept.  The classic fix is the
classic Unix shape — a parent that owns the listening address and a
flock of forked workers each running the *unchanged*
:class:`~repro.serve.server.ServiceEngine` + ``MicroBatcher`` stack:

* **socket sharing** — where the kernel supports ``SO_REUSEPORT``
  (Linux, modern BSDs), every worker binds its own listening socket to
  the same address and the kernel load-balances accepted connections
  across them (no thundering herd, no user-space dispatcher).  The
  parent holds a bound-but-not-listening placeholder so the port is
  reserved (and an ephemeral ``port=0`` resolves) before the first fork;
  a non-listening socket receives no connections.  Elsewhere, the parent
  binds and listens once and workers ``accept()`` on the inherited
  descriptor — noisier under load, identical semantics.
* **shared read-only state** — the parent loads a ``repro.store``
  snapshot (mmap-mode arrays) *before* forking, so every worker's
  columnar stores point at the same physical pages.  N workers cost one
  snapshot's RAM, and none of them ever rebuilds a column.
* **control plane** — each worker holds one end of a ``socketpair``;
  line-delimited JSON carries ``ready`` upward and
  ``healthz``/``metrics``/``shutdown`` downward.  Worker death is EOF;
  parent death is EOF the other way, and an orphaned worker shuts itself
  down rather than serving forever unsupervised.
* **graceful drain** — SIGTERM/SIGINT to the parent broadcasts shutdown;
  each worker stops accepting, drains its in-flight micro-batches
  bounded by ``config.drain_timeout``, and exits 0.  Workers still alive
  past the deadline (plus grace) are SIGKILLed so shutdown itself has a
  bound.

Responses are byte-identical to the single-process server's: workers
run the same engine over the same (snapshot-identical) stores, and every
endpoint's result depends only on its own request.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import threading
import time

from repro.obs.errors import SnapshotStaleError, ValidationError
from repro.serve.server import ServeConfig, ServeServer

__all__ = ["PreforkServer", "run_prefork_server", "reuseport_available"]

#: Extra seconds past ``drain_timeout`` before the parent escalates a
#: lagging worker from graceful shutdown to SIGKILL.
_KILL_GRACE_S = 2.0

#: Listen backlog per worker socket.
_BACKLOG = 128


def reuseport_available() -> bool:
    """Whether this kernel supports ``SO_REUSEPORT`` load balancing."""
    return hasattr(socket, "SO_REUSEPORT")


# ---------------------------------------------------------------------------
# Control-plane framing: one JSON object per line over a socketpair.
# ---------------------------------------------------------------------------


def _send_msg(sock: socket.socket, message: dict) -> None:
    sock.sendall(json.dumps(message).encode("utf-8") + b"\n")


class _LineReader:
    """Buffered line reads off a socket, safe under read timeouts (a
    timed-out read never drops partially received bytes)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = b""
        self.eof = False  # peer closed (or errored): no more messages ever

    def readline(self, timeout: float | None) -> bytes | None:
        """One complete line, or ``None`` on timeout/EOF (check
        :attr:`eof` to tell the two apart)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while b"\n" not in self._buffer:
            if self.eof:
                return None
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
            try:
                ready, _, _ = select.select([self._sock], [], [],
                                            remaining)
            except OSError:
                self.eof = True
                return None
            if not ready:
                return None
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                chunk = b""
            if not chunk:
                self.eof = True
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def read_msg(self, timeout: float | None) -> dict | None:
        """One JSON message; ``None`` on timeout, EOF, or junk."""
        line = self.readline(timeout)
        if not line:
            return None
        try:
            message = json.loads(line)
        except ValueError:
            return None
        return message if isinstance(message, dict) else None


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_socket(host: str, port: int) -> socket.socket:
    """A worker's own SO_REUSEPORT listening socket."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(_BACKLOG)
    return sock

def _worker_main(
    config: ServeConfig,
    worker_id: int,
    control: socket.socket,
    bound_port: int,
    inherited: socket.socket | None,
) -> None:
    """Runs in the forked child; never returns (``os._exit``)."""
    server = None
    exit_code = 0
    stop = threading.Event()

    # A signalled worker drains exactly like a commanded one.  Handlers
    # only set the event: the actual close (which joins threads) happens
    # on the control loop below, never in signal context.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    try:
        # A worker serving from a snapshot that no longer matches the
        # in-process catalog would answer from skewed data forever (or,
        # historically, crash-loop with no signal the parent could read).
        # Check before binding: the failure becomes one structured
        # control-plane message instead of N opaque exit codes.
        from repro.store import verify_active_snapshot

        verify_active_snapshot()
        if inherited is not None:
            listen = inherited
        else:
            listen = _worker_socket(config.host, bound_port)
        server = ServeServer(config, worker_id=worker_id,
                             listen_socket=listen)
        server.start()
        _send_msg(control, {"event": "ready", "worker_id": worker_id,
                            "pid": os.getpid(), "port": bound_port})

        reader = _LineReader(control)
        while not stop.is_set():
            message = reader.read_msg(timeout=0.1)
            if reader.eof:  # the parent died; do not serve orphaned
                break
            if message is None:
                continue
            cmd = message.get("cmd")
            if cmd == "healthz":
                _send_msg(control, server.engine.healthz())
            elif cmd == "metrics":
                _send_msg(control, server.engine.metrics())
            elif cmd == "shutdown":
                break
    except SnapshotStaleError as exc:
        # Surface the stale-snapshot state upward so the parent can fail
        # the whole fleet fast with a diagnosis instead of a crash loop.
        exit_code = 1
        try:
            _send_msg(control, {"event": "snapshot_stale",
                                "worker_id": worker_id,
                                "pid": os.getpid(),
                                "message": str(exc),
                                "context": exc.context})
        except OSError:
            pass
    except Exception:  # noqa: BLE001 — a worker must always exit cleanly
        exit_code = 1
    finally:
        try:
            if server is not None:
                # Stops accepting, then drains queued micro-batches
                # bounded by config.drain_timeout (ServiceEngine.close).
                server.close()
            try:
                _send_msg(control, {"event": "bye",
                                    "worker_id": worker_id})
            except OSError:
                pass
            control.close()
        finally:
            # Skip interpreter teardown: daemon HTTP threads may still
            # hold sockets, and the parent owns the lifecycle.
            os._exit(exit_code)


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------


class _Worker:
    """Parent-side record of one forked worker."""

    def __init__(self, worker_id: int, pid: int,
                 control: socket.socket) -> None:
        self.worker_id = worker_id
        self.pid = pid
        self.control = control
        self.reader = _LineReader(control)
        self.exit_code: int | None = None

    @property
    def alive(self) -> bool:
        return self.exit_code is None

    def request(self, cmd: str, timeout: float) -> dict | None:
        """One control-plane round trip; ``None`` if the worker is gone
        or silent past ``timeout``."""
        if not self.alive:
            return None
        try:
            _send_msg(self.control, {"cmd": cmd})
        except OSError:
            return None
        return self.reader.read_msg(timeout)


class PreforkServer:
    """Parent of a pre-forked worker fleet sharing one listening port.

    ``port=0`` binds an ephemeral port (tests); :attr:`port`/:attr:`url`
    report the shared address.  Usable as a context manager;
    :meth:`close` is idempotent, drains the fleet gracefully, and
    SIGKILLs stragglers after ``drain_timeout`` plus grace.

    Fork happens in :meth:`start`, before the parent spins up any
    thread, and after any ``repro.store`` snapshot has been loaded — so
    workers share the parent's read-only mmap pages instead of paging in
    their own copies.
    """

    def __init__(self, config: ServeConfig | None = None,
                 n_workers: int = 2) -> None:
        if n_workers < 1:
            raise ValidationError("n_workers must be >= 1",
                                  context={"got": n_workers,
                                           "valid": ">= 1"})
        self.config = config or ServeConfig()
        self.n_workers = n_workers
        self.mode = "reuseport" if reuseport_available() else "inherited"
        self.workers: list[_Worker] = []
        self._closed = False
        self._started = False

        # Reserve the address before forking.  In reuseport mode this
        # placeholder never listens — it exists to resolve port 0 and to
        # hold the port against other processes; the kernel only
        # balances across *listening* sockets, so it steals nothing.
        self._placeholder = socket.socket(socket.AF_INET,
                                          socket.SOCK_STREAM)
        if self.mode == "reuseport":
            self._placeholder.setsockopt(socket.SOL_SOCKET,
                                         socket.SO_REUSEPORT, 1)
            self._placeholder.bind((self.config.host, self.config.port))
        else:
            self._placeholder.setsockopt(socket.SOL_SOCKET,
                                         socket.SO_REUSEADDR, 1)
            self._placeholder.bind((self.config.host, self.config.port))
            self._placeholder.listen(_BACKLOG)

    @property
    def port(self) -> int:
        return self._placeholder.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self, ready_timeout: float = 30.0) -> "PreforkServer":
        """Fork the fleet and wait until every worker accepts."""
        if self._started:
            return self
        self._started = True
        for worker_id in range(self.n_workers):
            parent_end, child_end = socket.socketpair()
            pid = os.fork()
            if pid == 0:
                parent_end.close()
                inherited = (self._placeholder
                             if self.mode == "inherited" else None)
                _worker_main(self.config, worker_id, child_end,
                             self.port, inherited)
                raise AssertionError("unreachable: worker exited")
            child_end.close()
            self.workers.append(_Worker(worker_id, pid, parent_end))
        deadline = time.monotonic() + ready_timeout
        for worker in self.workers:
            remaining = max(0.0, deadline - time.monotonic())
            message = worker.reader.read_msg(remaining)
            if message is not None \
                    and message.get("event") == "snapshot_stale":
                # One structured failure for the whole fleet — both
                # hashes, the epoch delta, and the rebuild command —
                # instead of N workers crash-looping in silence.
                context = dict(message.get("context") or {})
                snapshot_dir = context.get("path", ".repro-snapshot")
                self.close()
                raise SnapshotStaleError(
                    f"worker {worker.worker_id} refused to serve from a "
                    "stale snapshot; rebuild it with "
                    f"`repro snapshot --output {snapshot_dir}`",
                    context={"worker_id": worker.worker_id,
                             "pid": message.get("pid", worker.pid),
                             "snapshot_hash": context.get("got"),
                             "live_hash": context.get("valid"),
                             "epoch_delta": context.get("epoch_delta"),
                             "path": snapshot_dir,
                             "rebuild":
                                 f"repro snapshot --output {snapshot_dir}"},
                )
            if message is None or message.get("event") != "ready":
                self.close()
                raise ValidationError(
                    f"worker {worker.worker_id} failed to start",
                    context={"pid": worker.pid, "got": message,
                             "valid": '{"event": "ready"}'},
                )
        return self

    # -- fleet introspection (control-plane fan-out) ------------------------

    def _reap(self) -> None:
        for worker in self.workers:
            if not worker.alive:
                continue
            pid, status = os.waitpid(worker.pid, os.WNOHANG)
            if pid:
                worker.exit_code = (os.waitstatus_to_exitcode(status)
                                    if status >= 0 else status)

    def healthz(self, timeout: float = 5.0) -> dict:
        """Fleet health: per-worker ``healthz`` plus liveness roll-up."""
        self._reap()
        rows = []
        for worker in self.workers:
            body = worker.request("healthz", timeout)
            rows.append({
                "worker_id": worker.worker_id,
                "pid": worker.pid,
                "alive": worker.alive and body is not None,
                "healthz": body,
            })
        n_live = sum(1 for row in rows if row["alive"])
        return {
            "status": "ok" if n_live == self.n_workers else "degraded",
            "mode": self.mode,
            "port": self.port,
            "n_workers": self.n_workers,
            "n_live": n_live,
            "workers": rows,
        }

    def metrics(self, timeout: float = 5.0) -> dict:
        """Per-worker ``metrics`` bodies plus a fleet-level roll-up.

        Also surfaces ``snapshot_skew``: True when live workers disagree
        about which snapshot they serve from (deploy gone wrong).
        """
        self._reap()
        per_worker = {}
        hashes = set()
        requests_total = 0
        plan_totals = {"plans": 0, "ops_fused": 0, "cse_hits": 0,
                       "reuse_hits": 0}
        for worker in self.workers:
            body = worker.request("metrics", timeout)
            per_worker[str(worker.worker_id)] = body
            if body is not None:
                serve = body.get("serve", {})
                hashes.add(serve.get("snapshot_manifest_hash"))
                requests_total += int(
                    body.get("counters", {}).get("serve.requests", 0))
                worker_plan = serve.get("plan", {})
                for name in plan_totals:
                    plan_totals[name] += int(worker_plan.get(name, 0))
        return {
            "mode": self.mode,
            "n_workers": self.n_workers,
            "requests_total": requests_total,
            "plan": plan_totals,
            "snapshot_skew": len(hashes) > 1,
            "workers": per_worker,
        }

    # -- shutdown -----------------------------------------------------------

    def close(self) -> None:
        """Drain and stop the fleet (idempotent).

        Broadcast graceful shutdown (control message + SIGTERM), wait
        out ``drain_timeout`` plus grace, then SIGKILL anything left.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            if not worker.alive:
                continue
            try:
                _send_msg(worker.control, {"cmd": "shutdown"})
            except OSError:
                pass
            try:
                os.kill(worker.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = (time.monotonic() + self.config.drain_timeout
                    + _KILL_GRACE_S)
        while time.monotonic() < deadline:
            self._reap()
            if all(not worker.alive for worker in self.workers):
                break
            time.sleep(0.02)
        for worker in self.workers:
            if worker.alive:
                try:
                    os.kill(worker.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                _, status = os.waitpid(worker.pid, 0)
                worker.exit_code = os.waitstatus_to_exitcode(status)
            worker.control.close()
        self._placeholder.close()

    def exit_codes(self) -> dict[int, int | None]:
        """``{worker_id: exit_code}`` (None while still running)."""
        self._reap()
        return {worker.worker_id: worker.exit_code
                for worker in self.workers}

    def __enter__(self) -> "PreforkServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()


def run_prefork_server(config: ServeConfig | None = None,
                       n_workers: int = 2) -> str:
    """Run a pre-forked fleet until SIGINT/SIGTERM; returns a shutdown
    message (the CLI entry point for ``repro serve --workers N``)."""
    server = PreforkServer(config, n_workers=n_workers)
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _on_signal)
    try:
        server.start()
        print(f"repro serve listening on {server.url} "
              f"({server.n_workers} workers, {server.mode} sharding, "
              f"max_batch={server.config.max_batch}, "
              f"queue_limit={server.config.queue_limit})", flush=True)
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.close()
    codes = server.exit_codes()
    clean = sum(1 for code in codes.values() if code == 0)
    return (f"serve: {clean}/{server.n_workers} workers shut down "
            f"cleanly")
