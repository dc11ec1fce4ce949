"""Bounded load driver: two sender threads, two keep-alive connections.

The driver never opens more connections than it has senders.  In the
open loop each sender pulls the next due request itself (there is no
dispatcher thread) and sleeps until its scheduled time, so a request
that finds both connections busy waits in the schedule exactly like it
would wait in a server queue.  Latency runs from the *scheduled* send
time to the last response byte: a stall is charged to every request it
delays, not only to the one that hit it.

Every request carries an ``X-Request-Id`` so a traced server can join
its spans to the client's timings.  Times come from ``time.monotonic``,
the clock a traced server on the same host stamps its spans with.
"""

from __future__ import annotations

import http.client
import itertools
import os
import re
import select
import signal
import subprocess
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from mixes import Item

__all__ = ["Record", "Server", "Driver", "SENDERS"]

#: Sender threads, each owning one keep-alive connection.
SENDERS = 2

#: A sender sleeps until this long before a request is due, then yields
#: in a loop until it is: a timer wake-up on a virtualized host can be
#: several milliseconds late, which would be charged to the server.
SPIN_S = 0.005

_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")


class Server:
    """One serving process started from ``argv``; waits for its
    "listening" line and records how long that took."""

    def __init__(self, argv: Sequence[str], env: dict, log_path: str,
                 timeout: float = 60.0) -> None:
        self._log = open(log_path, "ab")
        self.started = start = time.monotonic()
        self.proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=self._log, env=env)
        try:
            self.host, self.port = self._await_listening(start + timeout)
        except BaseException:
            self.stop()
            raise
        self.listen_s = time.monotonic() - start

    def _await_listening(self, deadline: float) -> tuple[str, int]:
        buffered = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [],
                                        deadline - time.monotonic())
            if not ready:
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited before listening (code "
                    f"{self.proc.wait()}); see its log")
            buffered += chunk
            match = _LISTENING.search(buffered)
            if match:
                return match.group(1).decode(), int(match.group(2))
        raise RuntimeError("server did not report a listening address")

    def stop(self, timeout: float = 15.0) -> None:
        """SIGINT (graceful drain), then SIGKILL if it overstays."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Record:
    """One request as the client saw it."""

    rid: str
    item: Item
    due: float            # scheduled send time (monotonic s)
    sent: float           # when the request was written
    done: float           # when the last response byte arrived
    idle: bool            # the sender was free before ``due``
    status: int | None    # None: transport error
    body: bytes | None
    error: str | None
    writes_acked: int     # catalog events answered before ``sent``
    writes_started: int   # catalog events sent before ``done``
    sender: int = 0       # which connection sent it

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300


class Driver:
    """Sends requests over :data:`SENDERS` keep-alive connections.

    Catalog events are serialized: an event is sent only after the one
    before it was answered, so the server applies them in schedule order
    and epoch ``k`` is the state after the first ``k`` events.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._cond = threading.Condition()
        self.writes_started = 0
        self.writes_acked = 0

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _send(self, conn: http.client.HTTPConnection, sender: int, rid: str,
              item: Item, due: float, idle: bool) -> Record:
        if item.is_write:
            with self._cond:
                order = self.writes_started
                self.writes_started += 1
                self._cond.wait_for(lambda: self.writes_acked == order,
                                    timeout=self.timeout)
        acked = self.writes_acked
        sent = time.monotonic()
        status = body = error = None
        try:
            conn.request("POST", item.path, body=item.body, headers={
                "Content-Type": "application/json", "X-Request-Id": rid})
            response = conn.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            error = f"{type(exc).__name__}: {exc}"
        done = time.monotonic()
        if item.is_write:
            with self._cond:
                self.writes_acked += 1
                self._cond.notify_all()
        return Record(rid, item, due, sent, done, idle, status, body, error,
                      acked, self.writes_started, sender)

    def _loop(self, requests: Iterator[tuple[str, Item, float, bool]],
              records: list[Record], sender: int = 0) -> None:
        """Send ``(rid, item, due, idle)`` requests in turn on one
        keep-alive connection, reopened after a transport error."""
        conn = self._connect()
        try:
            for request in requests:
                record = self._send(conn, sender, *request)
                records.append(record)
                if record.error is not None:
                    conn.close()
                    conn = self._connect()
        finally:
            conn.close()

    def _senders(self, requests: Callable[[], Iterator]) -> list[Record]:
        """Run :data:`SENDERS` threads, each looping over ``requests()``."""
        out: list[list[Record]] = [[] for _ in range(SENDERS)]
        threads = [threading.Thread(target=self._loop,
                                    args=(requests(), out[k], k),
                                    name=f"e2e-sender-{k}", daemon=True)
                   for k in range(SENDERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sorted((r for chunk in out for r in chunk),
                      key=lambda r: r.due)

    def run_serial(self, items: Sequence[Item], prefix: str) -> list[Record]:
        """Send ``items`` one after another on one connection."""
        records: list[Record] = []
        self._loop(((f"{prefix}{i}", item, time.monotonic(), True)
                    for i, item in enumerate(items)), records)
        return records

    def run_open(self, schedule: Sequence[tuple[float, Item]],
                 prefix: str = "o") -> list[Record]:
        """Open loop: item ``i`` is due ``schedule[i][0]`` seconds after
        the start; each sender pulls the next due item when it is free."""
        lock = threading.Lock()
        cursor = iter(range(len(schedule)))
        start = time.monotonic() + 0.05

        def due_requests() -> Iterator[tuple[str, Item, float, bool]]:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                offset, item = schedule[i]
                due = start + offset
                wait = due - time.monotonic()
                if wait > SPIN_S:
                    time.sleep(wait - SPIN_S)
                while time.monotonic() < due:
                    time.sleep(0)
                yield f"{prefix}{i}", item, due, wait > 0

        return self._senders(due_requests)

    def run_closed(self, items: Iterator[Item], seconds: float,
                   events: Iterator[Item] | None = None,
                   event_period_s: float | None = None,
                   prefix: str = "c") -> list[Record]:
        """Closed loop: both connections send back to back for
        ``seconds``.  A catalog event, if the mix has them, goes out once
        it is due."""
        lock = threading.Lock()
        start = time.monotonic()
        end = start + seconds
        count = itertools.count()
        next_event = [start + (event_period_s or 0) / 2]

        def back_to_back() -> Iterator[tuple[str, Item, float, bool]]:
            while time.monotonic() < end:
                with lock:
                    i = next(count)
                    if events is not None and \
                            time.monotonic() >= next_event[0]:
                        next_event[0] += event_period_s
                        item = next(events)
                    else:
                        item = next(items)
                yield f"{prefix}{i}", item, time.monotonic(), True

        return self._senders(back_to_back)
