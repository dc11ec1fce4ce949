"""Output check against a transport-free reference engine.

The reference is ``ServiceEngine(ServeConfig(cache_size=0))`` in the
benchmark's own process, asked one request at a time.  Response bodies
are compared byte for byte (the server serializes with the same
``json.dumps``), ``/batch`` envelopes slot by slot.

Catalog events make the expected answer depend on when a read ran.  The
driver serializes events, so the server's state is always "the first
``k`` events applied"; a read is correct if it matches the reference at
any ``k`` from the events answered before it was sent to the events sent
before its answer arrived.  The reference replays the same events in the
same order and checks each read at each ``k`` of its window.

One kind of wrong answer is known and counted on its own: the server
keys ``/license`` answers without the year, so a query can be answered
with the body of the same query in another year.  A wrong ``/license``
body (or ``/batch`` slot) that is exactly the reference's answer to the
same query in the year it reports counts as ``wrong_license_year``; any
other wrong answer counts as ``wrong`` and makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from driver import Record

__all__ = ["Oracle", "CheckReport", "check"]

_EXAMPLES = 5


class Oracle:
    """Expected answers at the reference's current catalog epoch.

    Answers are memoized per (epoch, endpoint, payload): the state at
    epoch ``k`` is a function of the event sequence alone, which is the
    same for every server of one workload run.
    """

    def __init__(self) -> None:
        from repro.serve.server import ServeConfig, ServiceEngine

        self.engine = ServiceEngine(ServeConfig(cache_size=0))
        self._memo: dict[tuple, tuple[int, str]] = {}
        self.reset()

    def reset(self) -> None:
        """Back to the baseline catalog at epoch 0."""
        from repro.catalog.events import reset_catalog

        reset_catalog()

    def close(self) -> None:
        self.engine.close()
        self.reset()

    @property
    def epoch(self) -> int:
        from repro.catalog.registry import current_epoch

        return current_epoch()

    def expected(self, endpoint: str, payload: dict) -> tuple[int, str]:
        """(status, serialized body) of one request at this epoch."""
        key = (self.epoch, endpoint, json.dumps(payload, sort_keys=True))
        answer = self._memo.get(key)
        if answer is None:
            status, body = self.engine.handle(endpoint, dict(payload))
            answer = self._memo[key] = (status, json.dumps(body))
        return answer

    def apply(self, payload: dict) -> dict:
        """Apply one catalog event; returns its outcome fields."""
        from repro.catalog.events import apply_event, parse_event

        return apply_event(parse_event(payload)).as_dict()


@dataclass
class CheckReport:
    """Outcome of checking one server's records."""

    attempted: int = 0
    transport_errors: int = 0
    non_2xx: int = 0
    wrong: int = 0
    wrong_license_year: int = 0
    examples: list[str] = field(default_factory=list)
    license_year_examples: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Requests that failed, the known /license defect aside."""
        return self.transport_errors + self.non_2xx + self.wrong

    def add(self, other: "CheckReport") -> None:
        self.attempted += other.attempted
        self.transport_errors += other.transport_errors
        self.non_2xx += other.non_2xx
        self.wrong += other.wrong
        self.wrong_license_year += other.wrong_license_year
        for text in other.examples:
            _example(self.examples, text)
        for text in other.license_year_examples:
            _example(self.license_year_examples, text)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "transport_errors": self.transport_errors,
                "non_2xx": self.non_2xx, "wrong": self.wrong,
                "wrong_license_year": self.wrong_license_year,
                "examples": self.examples,
                "license_year_examples": self.license_year_examples}


#: Kinds of wrong answer; a /batch envelope takes the worst of its slots.
WRONG, LICENSE_YEAR = "wrong", "license_year"


def _compare(oracle: Oracle, endpoint: str, fields: dict, status: int | None,
             got: str) -> str | None:
    """None if ``(status, got)`` is the reference answer, else its kind."""
    if (status, got) == oracle.expected(endpoint, fields):
        return None
    if endpoint == "license" and status == 200:
        try:
            year = json.loads(got).get("year")
        except (ValueError, AttributeError):
            return WRONG
        if year != fields.get("year") and isinstance(year, float) and \
                (status, got) == oracle.expected(endpoint,
                                                 {**fields, "year": year}):
            return LICENSE_YEAR
    return WRONG


def _mismatch(oracle: Oracle, record: Record) -> tuple[str, str] | None:
    """``(kind, why)`` if ``record`` differs from the reference now."""
    item = record.item
    if item.path != "/batch":
        endpoint = item.path[1:]
        got = record.body.decode("utf-8", "replace")
        kind = _compare(oracle, endpoint, item.payload, record.status, got)
        if kind is None:
            return None
        expected = oracle.expected(endpoint, item.payload)[1]
        return kind, f"{item.path} {item.payload}: expected " \
                     f"{expected[:300]} got {got[:300]}"
    try:
        slots = json.loads(record.body)["results"]
    except (ValueError, KeyError, TypeError):
        return WRONG, f"/batch: unreadable envelope {record.body[:200]!r}"
    requests = item.payload["requests"]
    if len(slots) != len(requests):
        return WRONG, f"/batch: {len(slots)} slots for {len(requests)} " \
                      f"requests"
    worst = None
    for i, (request, slot) in enumerate(zip(requests, slots)):
        endpoint = request["endpoint"]
        fields = {k: v for k, v in request.items() if k != "endpoint"}
        got = json.dumps(slot.get("body"))
        kind = _compare(oracle, endpoint, fields, slot.get("status"), got)
        if kind is not None and (worst is None or kind == WRONG):
            worst = kind, f"/batch slot {i} /{endpoint} {fields}: expected " \
                          f"{oracle.expected(endpoint, fields)[1][:300]} " \
                          f"got {got[:300]}"
            if kind == WRONG:
                break
    return worst


def check(oracle: Oracle, records: list[Record]) -> CheckReport:
    """Check every record of one server, replaying its catalog events.

    ``records`` come from one :class:`driver.Driver` (its event counters
    start at zero), against a server that started at epoch 0.
    """
    oracle.reset()
    report = CheckReport(attempted=len(records))
    reads: list[Record] = []
    for record in records:
        if record.status is None:
            report.transport_errors += 1
        elif not record.ok:
            report.non_2xx += 1
            _example(report.examples, f"{record.item.path} -> HTTP "
                                      f"{record.status}: {record.body[:200]!r}")
        elif not record.item.is_write:
            reads.append(record)
    writes = sorted((r for r in records if r.item.is_write and r.ok),
                    key=lambda r: r.sent)
    # The first mismatch of each read, or its first LICENSE_YEAR one: a
    # read is the known defect if that is how it reads at some epoch.
    misses: dict[int, tuple[str, str]] = {}
    pending = reads
    for applied in range(len(writes) + 1):
        still = []
        for record in pending:
            if record.writes_acked <= applied <= record.writes_started:
                miss = _mismatch(oracle, record)
                if miss is None:
                    continue
                kind, why = miss
                first = misses.get(id(record))
                if first is None or (first[0], kind) == (WRONG, LICENSE_YEAR):
                    misses[id(record)] = kind, f"{why} (after {applied} " \
                                               f"events)"
            if applied < record.writes_started:
                still.append(record)
            else:
                _count(report, misses[id(record)])
        pending = still
        if applied < len(writes):
            write = writes[applied]
            expected = oracle.apply(write.item.payload)
            try:
                got = json.loads(write.body)
            except ValueError:
                got = {}
            if any(got.get(k) != v for k, v in expected.items()):
                _count(report, (WRONG, f"event {write.item.payload['event']}:"
                                       f" expected {expected} got {got}"))
    for record in pending:  # windows past the last answered event
        _count(report, misses.get(id(record), (WRONG, "never checked")))
    return report


def _count(report: CheckReport, miss: tuple[str, str]) -> None:
    kind, why = miss
    if kind == LICENSE_YEAR:
        report.wrong_license_year += 1
        _example(report.license_year_examples, why)
    else:
        report.wrong += 1
        _example(report.examples, why)


def _example(examples: list[str], text: str) -> None:
    if len(examples) < _EXAMPLES:
        examples.append(text)
