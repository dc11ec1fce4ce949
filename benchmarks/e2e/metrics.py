"""Every metric the benchmark reports, from client records and spans.

End-to-end metrics come from the client alone.  Per-layer metrics come
from a traced run: the traced server's spans (see ``traced_server.py``),
joined to the client's records by request id, plus the deltas of the
server's own ``GET /metrics`` counters over the timed phases.

Layer times are milliseconds per client request: the total time spent in
the layer during the timed phases divided by the requests sent, so the
layers of one path add up.  ``wire``, ``loadgen`` and ``server`` are
percentiles over the open-loop requests.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from driver import Record
from oracle import CheckReport

__all__ = ["percentile", "closed_loop_qps", "end_to_end", "per_layer",
           "STAGES", "TAIL"]

#: The tail percentile: a plain run has at least 1,000 open-loop
#: samples, so at least ten lie beyond it.
TAIL = 0.99

#: Top-level server stages of one request; they do not nest in each
#: other, so their sum is the part of ``do_POST`` they account for.  A
#: request's plan runs either inside its micro-batch (``batching.wait``,
#: from submit to the answer, covers it) or on its own thread (/batch).
STAGES = ("http.read", "schemas.parse", "cache.get", "obs.metrics",
          "handler.direct", "catalog.apply", "http.write")
_BATCHED = ("batching.wait",)
_OWN_PLAN = ("plan.build", "plan.execute")

#: Spans reported as per-request layer times, by metric name.
_LAYER_SPANS = {
    "schemas.parse_ms": "schemas.parse",
    "cache.get_ms": "cache.get",
    "obs.metrics_ms": "obs.metrics",
    "batching.queue_wait_ms": "batching.queue_wait",
    "plan.build_ms": "plan.build",
    "plan.execute_ms": "plan.execute",
    "tiles.cells_ms": "tiles.cells",
    "ctp.batch_ms": "ctp.batch",
    "controllability.matrix_ms": "controllability.matrix",
    "review.ms": "review",
    "catalog.apply_ms": "catalog.apply",
    "catalog.invalidate_ms": "catalog.invalidate",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       max(0, math.ceil(q * len(ordered)) - 1))]


def _reads(records: list[Record]) -> list[Record]:
    return [r for r in records if not r.item.is_write]


def closed_loop_qps(records: list[Record]) -> float:
    """Answered queries per second, summed over the connections.

    Each connection's rate runs from its first send to its last answer,
    so the one that finished first is not charged for waiting on the
    other's last reply.
    """
    qps = 0.0
    for sender in {r.sender for r in records}:
        own = [r for r in records if r.sender == sender]
        answered = sum(r.item.queries for r in own if r.ok)
        qps += answered / (max(r.done for r in own) - min(r.due for r in own))
    return qps


def end_to_end(setup_s: list[float], open_records: list[Record],
               closed_records: list[Record]) -> dict[str, tuple[float, str]]:
    """The client-observed metrics of one plain run."""
    latencies = [r.latency * 1e3 for r in _reads(open_records)]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "p50_ms": (percentile(latencies, 0.50), "ms"),
        "p99_ms": (percentile(latencies, TAIL), "ms"),
        "throughput_qps": (closed_loop_qps(closed_records), "queries/s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counter_deltas(before: dict, after: dict) -> dict[str, float]:
    """Layer counters over the timed phases, from two /metrics reads."""
    def totals(snapshot: dict) -> dict[str, float]:
        serve = snapshot["serve"]
        out: dict[str, float] = defaultdict(float)
        cache = serve["cache"]
        for key in ("hits", "misses", "evictions", "purges"):
            out[f"cache.{key}"] = cache[key]
        for plane in serve["tiles"].values():
            out["tiles.hits"] += plane["cache"]["hits"]
            out["tiles.misses"] += plane["cache"]["misses"]
            out["tiles.builds"] += plane["builds"]
            out["tiles.partial_builds"] += plane["partial_builds"]
        for batcher in serve["batchers"].values():
            out["batching.dispatches"] += batcher["dispatches"]
            out["batching.dedup_hits"] += batcher["dedup_hits"]
            out["batching.batched"] += sum(
                int(size) * count for size, count
                in batcher["batch_size_histogram"].items())
        for key in ("queries", "cse_hits", "ops", "ops_fused"):
            out[f"plan.{key}"] = serve["plan"][key]
        out["catalog.events_applied"] = snapshot["counters"].get(
            "catalog.events_applied", 0)
        return out

    first, last = totals(before), totals(after)
    return defaultdict(float, {key: last[key] - first[key] for key in last})


def per_layer(spans: list, records: list[Record], open_records: list[Record],
              untraced_open: list[Record], before: dict, after: dict,
              setup_listen_s: list[float], setup_s: list[float],
              report: CheckReport) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run.

    ``records`` are every request of the traced timed phases (open loop,
    closed loop and the closing sweep), ``open_records`` the open-loop
    ones; ``untraced_open`` is the same schedule against a plain server.
    ``report`` is the output check of every request of the run.
    """
    start = min(r.due for r in records)
    spans = [s for s in spans if s[2] >= start]
    n = len(records)
    busy: dict[str, float] = defaultdict(float)
    per_rid: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    bounds: dict[str, dict[str, tuple[float, float]]] = defaultdict(dict)
    for name, rids, t0, t1 in spans:
        busy[name] += t1 - t0
        for rid in rids:
            per_rid[rid][name] += t1 - t0
            if name in ("http.do_post", "serve.handle"):
                bounds[rid][name] = (t0, t1)
    for rid, edges in bounds.items():
        if len(edges) == 2:
            (post0, post1), (handle0, handle1) = (edges["http.do_post"],
                                                  edges["serve.handle"])
            per_rid[rid]["http.read"] = handle0 - post0
            per_rid[rid]["http.write"] = post1 - handle1
            busy["http.read"] += handle0 - post0
            busy["http.write"] += post1 - handle1

    wire, server, coverage = [], [], []
    for record in open_records:
        stages = per_rid.get(record.rid)
        if record.status is None or not stages or "http.do_post" not in \
                stages:
            continue
        served = stages["http.do_post"]
        server.append(served * 1e3)
        wire.append((record.done - record.sent - served) * 1e3)
        dispatch = _BATCHED if "batching.wait" in stages else _OWN_PLAN
        named = sum(stages[s] for s in STAGES + dispatch)
        coverage.append(min(1.0, named / served))
    lags = [(r.sent - r.due) * 1e3 for r in open_records]
    late = [lag for lag, r in zip(lags, open_records) if r.idle]
    queued = [0.0 if r.idle else lag for lag, r in zip(lags, open_records)]

    delta = _counter_deltas(before, after)
    untraced = [r.latency * 1e3 for r in _reads(untraced_open)]
    traced = [r.latency * 1e3 for r in _reads(open_records)]
    writes = [r.latency * 1e3 for r in records if r.item.is_write]
    out: dict[str, tuple[float, str]] = {
        "wire.p50_ms": (percentile(wire, 0.50), "ms"),
        "wire.p99_ms": (percentile(wire, TAIL), "ms"),
        "server.p50_ms": (percentile(server, 0.50), "ms"),
        "stages.coverage": (statistics.median(coverage) if coverage
                            else 0.0, "ratio"),
        "loadgen.late_p99_ms": (percentile(late, TAIL), "ms"),
        "loadgen.queue_p99_ms": (percentile(queued, TAIL), "ms"),
        "trace.overhead_p50_ms": (percentile(traced, 0.5)
                                  - percentile(untraced, 0.5), "ms"),
        "http.read_ms": (busy["http.read"] / n * 1e3, "ms"),
        "http.write_ms": (busy["http.write"] / n * 1e3, "ms"),
    }
    for metric, span in _LAYER_SPANS.items():
        out[metric] = (busy[span] / n * 1e3, "ms")
    out.update({
        "cache.hit_ratio": (_ratio(delta["cache.hits"], delta["cache.hits"]
                                   + delta["cache.misses"]), "ratio"),
        "cache.evictions": (delta["cache.evictions"], "count"),
        "cache.purges": (delta["cache.purges"], "count"),
        "batching.mean_batch_size": (_ratio(delta["batching.batched"],
                                            delta["batching.dispatches"]),
                                     "count"),
        "batching.dedup_hits": (delta["batching.dedup_hits"], "count"),
        "plan.cse_ratio": (_ratio(delta["plan.cse_hits"],
                                  delta["plan.queries"]), "ratio"),
        "plan.ops_fused_ratio": (_ratio(delta["plan.ops_fused"],
                                        delta["plan.ops"]), "ratio"),
        "tiles.hit_ratio": (_ratio(delta["tiles.hits"], delta["tiles.hits"]
                                   + delta["tiles.misses"]), "ratio"),
        "tiles.builds": (delta["tiles.builds"], "count"),
        "tiles.partial_builds": (delta["tiles.partial_builds"], "count"),
        "catalog.events_applied": (delta["catalog.events_applied"],
                                   "count"),
        "write.p50_ms": (percentile(writes, 0.5), "ms"),
        "error_rate": ((report.failed + report.wrong_license_year)
                       / report.attempted, "ratio"),
        "check.wrong_license_year": (report.wrong_license_year, "count"),
        "setup.listen_s": (statistics.median(setup_listen_s), "s"),
        "setup.warm_s": (statistics.median(
            [t - l for t, l in zip(setup_s, setup_listen_s)]), "s"),
    })
    return out
