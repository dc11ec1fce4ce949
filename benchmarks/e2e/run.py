"""End-to-end serving benchmark: four HTTP traffic mixes, measured from
the client.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload agentic_hot --seed 1
    python3 benchmarks/e2e/run.py --seed 1                 # all four
    python3 benchmarks/e2e/run.py --workload churn_mix --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --workload rate_unique --seed 1 --smoke

Each workload starts ``python -m repro serve --port 0`` from ``src/`` in
its own process and drives it from this one with two sender threads,
each owning one keep-alive connection:

1. set-up: spawn the server and send one probe per endpoint the mix
   uses, twice; the second server stays up;
2. warm-up (untimed): ``POST /batch`` of the mix's hot set;
3. open loop (:data:`OPEN_S`): Poisson arrivals at :data:`RATE`;
   latency runs from the scheduled send time to the last response byte;
4. closed loop (:data:`CLOSED_S`): both connections send back to back;
5. one more set-up; ``setup_s`` is the median spawn-to-answered time
   of all three.

Every response is then checked against a transport-free reference
engine (``oracle.py``).  ``--trace 1`` replays the open-loop schedule on
a plain server and then on ``traced_server.py``, and reports per-layer
metrics instead of the end-to-end ones.

Each metric is printed as ``workload metric value unit``; the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and
the full result is written under ``benchmarks/e2e/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import http.client
import itertools
import json
import os
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

from driver import Driver, Record, Server  # noqa: E402
from metrics import end_to_end, per_layer  # noqa: E402
from mixes import MIXES, Item, Mix, catalog_event, sweep  # noqa: E402
from oracle import CheckReport, Oracle, check  # noqa: E402

#: Set-ups before and after the timed phases; ``setup_s`` is the median
#: of all three.  The host's speed drifts over seconds (set-ups in a row
#: often read alike), so samples half a minute apart make the median
#: steadier than three in a row.
SETUPS_BEFORE, SETUPS_AFTER = 2, 1
#: Timed seconds of a run: the open loop, then the closed loop.  They
#: sum to ``run_seconds`` in BENCHMARK.json, which a benchmark harness
#: passes back as ``--seconds``.  The closed loop is at its capacity from
#: the first request, so a short one reads steadily.
OPEN_S, CLOSED_S = 30.0, 1.0
#: Open-loop reads a plain run sends at least, so that at least ten lie
#: beyond the 99th percentile.
MIN_SAMPLES = 1_000
#: Open-loop arrivals per second on every mix: the lowest whole rate that
#: gives :data:`MIN_SAMPLES` reads in :data:`OPEN_S`.
RATE = 34.0


def open_schedule(mix: Mix, seed: int,
                  seconds: float) -> list[tuple[float, Item]]:
    """Poisson arrivals at :data:`RATE`, plus the mix's catalog events.

    The arrival times come from one fixed stream per mix and the seed
    draws only the requests, so every seed meets the same bursts.  The
    tail of a few hundred samples depends mostly on the bursts: with a
    fresh arrival draw per seed, the open-loop p99 at 20 req/s moved by
    12-24% (quartile spread over ten seeds) at the parent commit; with
    the fixed stream, by 2-7%.
    """
    arrivals = random.Random(f"{mix.name}-arrivals")
    rng = random.Random(f"{mix.name}-{seed}")
    schedule = []
    t = arrivals.expovariate(RATE)
    while t < seconds:
        schedule.append((t, mix.draw(rng)))
        t += arrivals.expovariate(RATE)
    if mix.event_period_s:
        count = int(seconds / mix.event_period_s)
        schedule += [((k + 0.5) * mix.event_period_s, catalog_event(k))
                     for k in range(count)]
        schedule.sort(key=lambda entry: entry[0])
    return schedule


@contextlib.contextmanager
def _collector_paused():
    """Keep the garbage collector off while requests are timed: a full
    collection of this process's heap (the reference engine's catalog
    included) holds the interpreter lock for milliseconds and would make
    the senders late."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Session:
    """One server process, the driver that talks to it, and every
    request it was sent (checked together once it stops)."""

    def __init__(self, argv: list[str], mix: Mix, log: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.server = Server(argv, env, str(log))
        self.driver = Driver(self.server.host, self.server.port)
        self.records: list[Record] = self.driver.run_serial(mix.probes, "p")
        self.setup_s = time.monotonic() - self.server.started
        self.next_event = 0  # the catalog_event() this server gets next

    def send(self, items: list[Item], prefix: str) -> list[Record]:
        records = self.driver.run_serial(items, prefix)
        self.records += records
        return records

    def open_loop(self, schedule: list, prefix: str) -> list[Record]:
        with _collector_paused():
            records = self.driver.run_open(schedule, prefix)
        self.records += records
        self.next_event += sum(item.is_write for _, item in schedule)
        return records

    def closed_loop(self, mix: Mix, seed: int, seconds: float
                    ) -> list[Record]:
        rng = random.Random(f"{mix.name}-{seed}-closed")
        items = iter(lambda: mix.draw(rng), None)
        events = None
        if mix.event_period_s:
            events = map(catalog_event, itertools.count(self.next_event))
        with _collector_paused():
            records = self.driver.run_closed(items, seconds, events,
                                             mix.event_period_s)
        self.records += records
        self.next_event += sum(r.item.is_write for r in records)
        return records

    def server_metrics(self) -> dict:
        conn = http.client.HTTPConnection(self.server.host, self.server.port,
                                          timeout=10)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self, oracle: Oracle) -> CheckReport:
        self.server.stop()
        return check(oracle, self.records)


def run_workload(mix: Mix, seed: int, trace: bool, smoke: bool,
                 out: Path) -> dict:
    """Run one workload; returns its result document."""
    if smoke:
        setups_before, setups_after, open_s, closed_s = 1, 0, 2.0, CLOSED_S
    else:
        setups_before, setups_after = SETUPS_BEFORE, SETUPS_AFTER
        open_s, closed_s = OPEN_S, CLOSED_S
    if trace:
        open_s /= 2  # the schedule runs once untraced, once traced
    tag = f"{mix.name}-seed{seed}-trace{int(trace)}"
    log = out / f"{tag}.server.log"
    plain = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    schedule = open_schedule(mix, seed, open_s)
    started_at = time.time()
    oracle = Oracle()
    report = CheckReport()
    live: list[Session] = []  # stopped in ``finally`` if still up

    def spawn(argv: list[str]) -> Session:
        live.append(Session(argv, mix, log))
        return live[-1]

    def finish(session: Session) -> None:
        live.remove(session)
        report.add(session.close(oracle))

    setup_s, listen_s = [], []

    def set_up() -> Session:
        session = spawn(plain)
        setup_s.append(session.setup_s)
        listen_s.append(session.server.listen_s)
        return session

    try:
        for _ in range(setups_before - 1):
            finish(set_up())
        session = set_up()
        session.send(mix.warm(seed), "w")
        open_records = session.open_loop(schedule, "o")
        if not trace:
            closed = session.closed_loop(mix, seed, closed_s)
            finish(session)
        else:
            finish(session)
            spans_path = out / f"{tag}.spans.json"
            session = spawn([sys.executable, str(HERE / "traced_server.py"),
                             str(spans_path)])
            session.send(mix.warm(seed), "w")
            before = session.server_metrics()
            traced_open = session.open_loop(schedule, "o")
            closed = session.closed_loop(mix, seed, closed_s)
            swept = session.send(sweep(session.next_event), "s")
            after = session.server_metrics()
            finish(session)
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        for _ in range(setups_after):
            finish(set_up())
    finally:
        for session in live:
            session.server.stop()
        oracle.close()
    if trace:
        metrics = per_layer(spans, traced_open + closed + swept, traced_open,
                            open_records, before, after, listen_s, setup_s,
                            report)
    else:
        metrics = end_to_end(setup_s, open_records, closed)
    return {
        "workload": mix.name, "seed": seed, "trace": int(trace),
        "smoke": smoke, "started_at": started_at,
        "open_loop_s": open_s, "closed_loop_s": closed_s,
        "open_loop_samples": sum(not r.item.is_write for r in open_records),
        "setup_runs_s": setup_s,
        "correct": report.wrong == 0, "check": report.as_dict(),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *MIXES])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=OPEN_S + CLOSED_S,
                        choices=[OPEN_S + CLOSED_S],
                        help="timed seconds per workload; only "
                             "BENCHMARK.json's run_seconds is accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2-s phases and one set-up (a quick check)")
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for result JSON and server logs")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    # A terminated run still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    names = list(MIXES) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(MIXES[name], args.seed, bool(args.trace),
                              args.smoke, args.out)
        path = args.out / (f"{name}-seed{args.seed}-trace{args.trace}"
                           f"{'-smoke' if args.smoke else ''}.json")
        path.write_text(json.dumps(result, indent=1) + "\n")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        known = result["check"]["wrong_license_year"]
        if known:
            print(f"{name}: {known} /license answers carry another "
                  f"request's year (known defect; see {path})",
                  file=sys.stderr)
        results.append(result)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["check"]["attempted"] for r in results),
        "failed": sum(r["check"]["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
