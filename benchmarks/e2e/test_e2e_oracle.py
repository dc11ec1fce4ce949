"""The output check flags wrong bodies, per slot and per catalog epoch."""

from __future__ import annotations

import json

import pytest

from driver import Record
from mixes import Item, catalog_event, license_query
from oracle import Oracle, check


@pytest.fixture(scope="module")
def oracle():
    reference = Oracle()
    yield reference
    reference.close()


def _record(path: str, payload: dict, body: str, acked: int = 0,
            started: int = 0, status: int = 200) -> Record:
    item = Item(path, payload, json.dumps(payload).encode())
    return Record("r", item, 0.0, 0.0, 0.0, True, status, body.encode(),
                  None, acked, started)


def _expected(oracle: Oracle, endpoint: str, payload: dict) -> str:
    oracle.reset()
    return oracle.expected(endpoint, payload)[1]


def test_correct_body_passes(oracle):
    payload = {"year": 1995.5}
    body = _expected(oracle, "threshold_at", payload)
    report = check(oracle, [_record("/threshold_at", payload, body)])
    assert (report.wrong, report.failed, report.attempted) == (0, 0, 1)


def test_license_body_with_another_requests_year_is_the_known_defect(oracle):
    # The shape of the cached /license defect: the body of one request
    # returned for another that differs only in year (both years resolve
    # to the 1,500-Mtops threshold).
    _, payload = license_query("Cray C916", "India", 1995.5)
    body = json.loads(_expected(oracle, "license", payload))
    body["year"] = 1996.0
    report = check(oracle, [_record("/license", payload, json.dumps(body))])
    assert (report.wrong_license_year, report.wrong, report.failed) == \
        (1, 0, 0)
    example = report.license_year_examples[0]
    assert "/license" in example and "\"year\": 1995.5" in example


def test_license_body_from_another_era_is_wrong(oracle):
    # In 1993 another threshold was in force: a body that only changes
    # the year is no answer the reference gives for any year.
    _, payload = license_query("Cray C916", "India", 1995.5)
    body = json.loads(_expected(oracle, "license", payload))
    body["year"] = 1993.0
    report = check(oracle, [_record("/license", payload, json.dumps(body))])
    assert (report.wrong_license_year, report.wrong, report.failed) == \
        (0, 1, 1)
    assert "/license" in report.examples[0]


def test_batch_is_checked_slot_by_slot(oracle):
    slots = [("threshold_at", {"year": 1992.0}),
             ("machine", {"machine": "Cray T3D (64)"})]
    payload = {"requests": [{"endpoint": e, **p} for e, p in slots]}
    results = [{"status": 200, "body": json.loads(_expected(oracle, e, p))}
               for e, p in slots]
    good = {"endpoint": "batch", "count": 2, "results": results}
    assert check(oracle, [_record("/batch", payload,
                                  json.dumps(good))]).wrong == 0
    results[1]["body"]["ctp_mtops"] += 1.0
    report = check(oracle, [_record("/batch", payload, json.dumps(good))])
    assert report.wrong == 1 and "slot 1" in report.examples[0]


def test_batch_takes_the_worst_of_its_slots(oracle):
    slots = [license_query("Cray T3D (64)", "India", 1994.5),
             ("threshold_at", {"year": 1992.0})]
    payload = {"requests": [{"endpoint": e, **p} for e, p in slots]}
    results = [{"status": 200, "body": json.loads(_expected(oracle, e, p))}
               for e, p in slots]
    results[0]["body"]["year"] = 1996.5
    envelope = {"endpoint": "batch", "count": 2, "results": results}
    report = check(oracle, [_record("/batch", payload, json.dumps(envelope))])
    assert (report.wrong_license_year, report.wrong) == (1, 0)
    assert "slot 0 /license" in report.license_year_examples[0]
    results[1]["body"]["threshold_mtops"] += 1.0
    report = check(oracle, [_record("/batch", payload, json.dumps(envelope))])
    assert (report.wrong_license_year, report.wrong) == (0, 1)
    assert "slot 1 /threshold_at" in report.examples[0]


def test_reads_match_any_epoch_of_their_window(oracle):
    # Event 2 amends the 1984.5 threshold era, which moves the answer.
    events = [catalog_event(k) for k in range(3)]
    read = {"year": 1985.0}
    oracle.reset()
    before = oracle.expected("threshold_at", read)[1]
    for event in events:
        oracle.apply(event.payload)
    after = oracle.expected("threshold_at", read)[1]
    assert before != after

    def acks() -> list[Record]:
        out = []
        oracle.reset()
        for k, event in enumerate(events):
            ack = {"endpoint": "catalog_append", **oracle.apply(
                event.payload)}
            out.append(_record(event.path, event.payload, json.dumps(ack),
                               acked=k, started=k + 1))
        return out

    # Sent before the last event was answered, answered after it: either
    # state is a correct answer.
    for body in (before, after):
        late = _record("/threshold_at", read, body, acked=2, started=3)
        assert check(oracle, acks() + [late]).wrong == 0
    # Sent after all three events were answered: only the new state is.
    stale = _record("/threshold_at", read, before, acked=3, started=3)
    report = check(oracle, acks() + [stale])
    assert report.wrong == 1 and "after 3 events" in report.examples[0]


def test_transport_and_status_failures_count(oracle):
    lost = _record("/rate", {"clock_mhz": 100.0}, "", status=None)
    lost.body = None
    refused = _record("/rate", {"clock_mhz": 100.0}, "{}", status=429)
    report = check(oracle, [lost, refused])
    assert (report.transport_errors, report.non_2xx, report.wrong) == \
        (1, 1, 0)
    assert report.failed == 2
