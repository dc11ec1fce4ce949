"""The multi-query planner contract: CSE, fusion, parity, isolation.

The load-bearing property is byte-identity: a heterogeneous batch
executed through one fused plan must produce, slot for slot, exactly
what sequential per-request dispatch produces at the same epoch — for
successes (identical JSON serialization, which covers dict field order)
and for failures (the same exception type and message, isolated to the
slots that depend on the failing input).  Around it: the epoch
interleave rule (a plan admitted at epoch N finishes against epoch N
while a mutation queues), the MicroBatcher dedup counter, the ``POST
/batch`` envelope, the ``serve.plan`` metrics pin, and the stdio
JSON-RPC bridge.
"""

from __future__ import annotations

import dataclasses
import io
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.events import (
    AmendMachine,
    AmendThreshold,
    AppendMachine,
    apply_event,
    parse_event,
    reset_catalog,
)
from repro.catalog.registry import current_epoch
from repro.diffusion.policy import evaluate_policy
from repro.machines.columns import machine_columns
from repro.obs.errors import ValidationError
from repro.obs.trace import counters
from repro.scenarios.grid import clear_scenario_caches, evaluate_scenario_grid
from repro.scenarios.spec import HISTORICAL, Scenario
from repro.serve import plan as plan_module
from repro.serve.batching import MicroBatcher
from repro.serve.client import ServeClient
from repro.serve.plan import build_plan, execute_plan, plan_stats
from repro.serve.rpc import RPC_METHODS, rpc_response, run_stdio_bridge
from repro.serve.schemas import parse_request
from repro.serve.server import ServeConfig, ServeServer, ServiceEngine
from repro import tiles
from repro.tiles import ScenarioPoint, policy_cells, scenario_cells


def _server(**overrides) -> ServeServer:
    config = ServeConfig(**{"port": 0, **overrides})
    return ServeServer(config).start()


# A vocabulary spanning all seven endpoints, including inputs that fail
# (year 1950 predates every threshold era), so shuffled subsets exercise
# CSE, cross-endpoint reuse, fusion, and per-slot error isolation.
_VOCAB = [
    ("rate", {"clock_mhz": 150.0, "processors": 16}),
    ("rate", {"clock_mhz": 150.0, "processors": 16}),  # duplicate: CSE
    ("rate", {"clock_mhz": 85.0, "processors": 4, "coupling": "distributed",
              "year": 1994.0}),
    ("license", {"machine": "Cray C916", "destination": "India"}),
    ("license", {"machine": "Cray T3D (64)", "destination": "Germany"}),
    ("machine", {"machine": "Cray C916"}),
    ("review", {"year": 1994.0}),
    ("review", {"year": 1995.5}),
    ("policy", {"threshold_mtops": 2000.0, "year": 1995.5}),
    ("policy", {"threshold_mtops": 195.0, "year": 1992.0}),
    ("scenario", {"scenario": "historical", "year": 1995.5}),
    ("scenario", {"scenario": "flop_cap", "year": 1993.0}),
    ("threshold_at", {"year": 1994.0}),
    ("threshold_at", {"year": 1950.0}),  # pre-era: fails its slot only
    ("threshold_at", {}),
]


def _slot_repr(result: object) -> str:
    """A comparable serialization: JSON for bodies, type+message for
    exceptions (two runs of the same failing input must agree on both)."""
    if isinstance(result, BaseException):
        return f"{type(result).__name__}: {result}"
    return json.dumps(result)


# ---------------------------------------------------------------------------
# byte-identity property
# ---------------------------------------------------------------------------

class TestPlannerParity:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=16))
    def test_any_mixed_batch_matches_sequential_dispatch(self, items):
        """One fused plan over a random mixed batch == a plan-of-1 per
        request, slot for slot, at the same epoch."""
        requests = [parse_request(endpoint, dict(payload))
                    for endpoint, payload in items]
        fused = execute_plan(build_plan(requests))
        sequential = [execute_plan(build_plan([r]))[0] for r in requests]
        assert [_slot_repr(r) for r in fused] == \
               [_slot_repr(r) for r in sequential]

    def test_duplicates_collapse_and_fan_out_one_body(self):
        requests = [parse_request("rate", {"clock_mhz": 150.0,
                                           "processors": 16})
                    for _ in range(5)]
        plan = build_plan(requests)
        assert plan.cse_hits == 4
        assert plan.summary() == {"queries": 5, "unique_queries": 1,
                                  "cse_hits": 4}
        results = execute_plan(plan)
        assert all(r is results[0] for r in results)  # one shared body

    def test_review_era_reuse_is_bit_identical(self):
        """An in-plan review satisfies a same-year threshold_at / rate
        era dependency with the identical float."""
        requests = [parse_request("review", {"year": 1994.0}),
                    parse_request("threshold_at", {"year": 1994.0}),
                    parse_request("rate", {"clock_mhz": 150.0,
                                           "processors": 16,
                                           "year": 1994.0})]
        before = plan_stats()["reuse_hits"]
        review, threshold, rate = execute_plan(build_plan(requests))
        assert plan_stats()["reuse_hits"] - before == 1
        assert threshold["threshold_mtops"] == \
               review["threshold_in_force_mtops"]
        assert rate["threshold_mtops"] == review["threshold_in_force_mtops"]
        solo = execute_plan(build_plan([requests[1]]))[0]
        assert json.dumps(solo) == json.dumps(threshold)

    def test_poisoned_batch_mate_cannot_change_other_slots(self):
        """An infeasible year fails only its own slot; every other slot
        is byte-identical to running without the poisoned mate."""
        good = [parse_request("rate", {"clock_mhz": 150.0,
                                       "processors": 16}),
                parse_request("policy", {"threshold_mtops": 2000.0,
                                         "year": 1995.5})]
        bad = parse_request("threshold_at", {"year": 1950.0})
        mixed = execute_plan(build_plan([good[0], bad, good[1]]))
        alone = execute_plan(build_plan(good))
        assert isinstance(mixed[1], BaseException)
        assert json.dumps(mixed[0]) == json.dumps(alone[0])
        assert json.dumps(mixed[2]) == json.dumps(alone[1])


# ---------------------------------------------------------------------------
# epoch interleave
# ---------------------------------------------------------------------------

class TestEpochInterleave:
    def test_plan_completes_at_admission_epoch_while_amend_queues(
            self, monkeypatch):
        """A plan admitted at epoch N holds the read guard for its whole
        execution: an ``amend_threshold`` posted mid-plan queues behind
        it, and every slot matches the epoch-N sequential reference."""
        requests = [parse_request("review", {"year": 1994.5}),
                    parse_request("threshold_at", {"year": 1994.5}),
                    parse_request("rate", {"clock_mhz": 150.0,
                                           "processors": 16,
                                           "year": 1994.5})]
        try:
            epoch = current_epoch()
            reference = [json.dumps(execute_plan(build_plan([r]))[0])
                         for r in requests]

            entered, release = threading.Event(), threading.Event()
            original = plan_module.review_body

            def gated_review_body(request):
                entered.set()
                assert release.wait(5.0), "test deadlock"
                return original(request)

            monkeypatch.setattr(plan_module, "review_body",
                                gated_review_body)
            result: dict = {}

            def run():
                result["slots"] = execute_plan(build_plan(requests))

            runner = threading.Thread(target=run)
            runner.start()
            assert entered.wait(5.0)  # guard held, review in flight

            writer = threading.Thread(target=lambda: apply_event(parse_event(
                {"event": "amend_threshold", "start_year": 1994.1,
                 "threshold_mtops": 3_000.0})))
            writer.start()
            writer.join(0.2)
            # The mutation is queued behind the in-flight plan.
            assert writer.is_alive()
            assert current_epoch() == epoch

            release.set()
            runner.join(10.0)
            writer.join(10.0)
            assert not runner.is_alive() and not writer.is_alive()
            assert current_epoch() == epoch + 1

            # The plan never saw the amendment: bit-identical to the
            # epoch-N reference, reuse path included.
            assert [json.dumps(s) for s in result["slots"]] == reference
        finally:
            reset_catalog()


# ---------------------------------------------------------------------------
# point-query parity across catalog events
# ---------------------------------------------------------------------------

# Era thresholds at half-year dates, and arbitrary coordinates between
# them; one omitted scenario threshold resolves through the world's
# (amendable) era table.
_POLICY_POINTS = [(2000.0, 1995.5), (195.0, 1992.0), (7000.0, 1997.0),
                  (123.4, 1991.7), (1234.5, 1996.33)]
_SCENARIO_PAYLOADS = [
    {"scenario": "historical", "threshold_mtops": 2000.0, "year": 1995.5},
    {"scenario": "historical", "year": 1996.25},
    {"scenario": "flop_cap", "threshold_mtops": 1234.5, "year": 1996.33},
    {"scenario": "flop_cap", "threshold_mtops": 7000.0, "year": 1993.0},
]


def _expected_scenario_body(payload: dict) -> dict:
    """The scenario body built from a fresh one-cell tensor."""
    request = parse_request("scenario", payload)
    clear_scenario_caches()
    grid = evaluate_scenario_grid((request.scenario,),
                                  [request.threshold_mtops], [request.year])
    point = ScenarioPoint(
        scenario=request.scenario,
        cell=grid.result_at(0, 0, 0),
        threshold_in_force_mtops=float(grid.in_force_mtops[0, 0]),
        in_force_credible=bool(grid.in_force_credible[0, 0]),
    )
    return plan_module._scenario_body(request, point)


class TestCatalogEventParity:
    def test_point_answers_track_every_event_kind(self):
        """After each event kind, /policy and /scenario answers (single
        POSTs and one mixed /batch, response cache on) equal the scalar
        scorecard and a freshly built tensor cell."""
        clone = dataclasses.replace(machine_columns().machines[-1],
                                    vendor="ParityCo", model="PQ-1")
        events = [
            AppendMachine(machine=clone),
            AmendMachine(key=clone.key, machine=dataclasses.replace(
                clone, units_installed=5000)),
            AmendThreshold(start_year=1994.1, threshold_mtops=7_500.0,
                           label="amended"),
        ]
        items = ([{"endpoint": "policy", "threshold_mtops": t, "year": y}
                  for t, y in _POLICY_POINTS]
                 + [{"endpoint": "scenario", **p}
                    for p in _SCENARIO_PAYLOADS])
        server = _server(cache_size=64)
        client = ServeClient(port=server.port)
        try:
            seen = []
            for event in [None, *events]:
                if event is not None:
                    assert apply_event(event).applied
                expected = (
                    [plan_module._policy_body(evaluate_policy(t, y))
                     for t, y in _POLICY_POINTS]
                    + [_expected_scenario_body(p)
                       for p in _SCENARIO_PAYLOADS])
                batch = client.batch(items).require_ok()["results"]
                for item, want, slot in zip(items, expected, batch):
                    fields = {k: v for k, v in item.items()
                              if k != "endpoint"}
                    solo = client.request(
                        "POST", f"/{item['endpoint']}", fields)
                    assert solo.status == 200 and slot["status"] == 200
                    assert json.dumps(solo.body) == json.dumps(want)
                    assert json.dumps(slot["body"]) == json.dumps(want)
                seen.append(expected)
        finally:
            client.close()
            server.close()
            reset_catalog()
        # Every event moved at least one answer, so a stale cached or
        # reused body could not have passed.
        assert all(before != after for before, after in zip(seen, seen[1:]))


class TestPointCells:
    def test_repeat_points_build_no_grid(self):
        points = [(2000.0, 1995.5), (321.0, 1991.3)]
        first = policy_cells(points)
        builds = counters().get("policy.grid_builds", 0)
        assert policy_cells(points[::-1]) == first[::-1]
        assert counters().get("policy.grid_builds", 0) == builds

    def test_reset_then_other_event_at_same_epoch_is_fresh(self):
        """Epoch numbers repeat after a catalog reset; answers must not."""
        point = (2000.0, 1995.5)
        base = machine_columns().machines[-1]
        try:
            for units in (10, 5000):
                reset_catalog()
                apply_event(AppendMachine(machine=dataclasses.replace(
                    base, vendor="ParityCo", model="PQ-1",
                    units_installed=units)))
                assert current_epoch() == 1
                assert policy_cells([point]) == [evaluate_policy(*point)]
        finally:
            reset_catalog()

    def test_new_points_share_one_grid_build(self):
        policy_points = [(1000.0 + 37.0 * k, 1991.0 + 0.9 * k)
                         for k in range(5)]
        scenario_points = [(HISTORICAL, t, y) for t, y in policy_points]
        reset_catalog()
        before = counters()
        policy_cells(policy_points)
        scenario_cells(scenario_points)
        after = counters()
        for name in ("policy.grid_builds", "scenarios.grid_builds"):
            assert after.get(name, 0) - before.get(name, 0) == 1

    def test_distinct_worlds_build_one_cell_each(self):
        """Worlds are grids of their own: N custom worlds with distinct
        thresholds and years cost N cells, not an N x N x N tensor."""
        n = 40
        points = [(Scenario(name=f"custom-{k}"), 500.0 + 11.0 * k,
                   1990.0 + 0.17 * k) for k in range(n)]
        before = counters().get("scenarios.grid_points", 0)
        answers = scenario_cells(points)
        assert counters().get("scenarios.grid_points", 0) - before == n
        for (scenario, t, y), answer in zip(points, answers):
            fresh = evaluate_scenario_grid([scenario], [t], [y])
            assert answer.cell == fresh.result_at(0, 0, 0)

    def test_scattered_points_split_into_per_year_grids(self):
        """A batch whose threshold x year cross product dwarfs its points
        builds cells linear in the point count, with scalar parity."""
        n = 150
        points = [(300.0 + 23.0 * k, 1990.05 + 0.05 * k) for k in range(n)]
        before = counters().get("policy.grid_points", 0)
        cells = policy_cells(points)
        built = counters().get("policy.grid_points", 0) - before
        assert built <= (1 + tiles._GRID_CALL_CELLS) * n < n * n
        assert cells == [evaluate_policy(t, y) for t, y in points]

    def test_validation_errors_propagate(self):
        with pytest.raises(ValidationError):
            policy_cells([(2000.0, 1995.5), (-5.0, 1995.0)])
        with pytest.raises(ValidationError):
            policy_cells([(2000.0, 1895.0)])
        with pytest.raises(ValidationError):
            scenario_cells([("flop_cap", 2000.0, 1995.5)])


class TestLicenseYear:
    def test_license_answers_carry_their_own_year(self):
        """Two /license queries that differ only in year share neither a
        cache entry nor a /batch CSE slot."""
        payloads = [{"machine": "Cray C916", "destination": "India",
                     "threshold_mtops": 1500.0, "year": year}
                    for year in (1995.0, 1996.5)]
        server = _server(cache_size=64)
        client = ServeClient(port=server.port)
        try:
            for payload in payloads:
                body = client.request("POST", "/license",
                                      payload).require_ok()
                assert body["year"] == payload["year"]
            batch = client.batch([{"endpoint": "license", **p}
                                  for p in payloads]).require_ok()
        finally:
            client.close()
            server.close()
        assert [slot["body"]["year"] for slot in batch["results"]] \
            == [p["year"] for p in payloads]
        assert batch["plan"]["cse_hits"] == 0


# ---------------------------------------------------------------------------
# MicroBatcher dedup
# ---------------------------------------------------------------------------

class _KeyedRequest:
    def __init__(self, key: tuple, value: int) -> None:
        self.cache_key = key
        self.value = value


class TestBatcherDedup:
    def test_intra_batch_duplicates_dispatch_once(self):
        release, entered = threading.Event(), threading.Event()
        seen: list[list[int]] = []

        def dispatch(requests):
            if not entered.is_set():
                entered.set()
                assert release.wait(5.0)
            seen.append([r.value for r in requests])
            return [r.value * 2 for r in requests]

        batcher = MicroBatcher("t", dispatch, max_batch=8, queue_limit=64)
        before = counters().get("serve.batch.dedup_hits", 0)
        try:
            first = batcher.submit(_KeyedRequest(("k", 0), 0))
            assert entered.wait(5.0)
            backlog = [batcher.submit(_KeyedRequest(("k", i % 2), i % 2))
                       for i in range(1, 6)]
            release.set()
            assert first.result(5.0) == 0
            assert [f.result(5.0) for f in backlog] == [2, 0, 2, 0, 2]
        finally:
            batcher.stop()
        # The 5-deep backlog held 2 unique keys: one dispatch of 2.
        assert seen == [[0], [1, 0]]
        stats = batcher.stats()
        assert stats["dedup_hits"] == 3
        assert stats["completed"] == 6
        assert counters()["serve.batch.dedup_hits"] - before == 3

    def test_opaque_requests_never_dedup(self):
        """No ``cache_key`` attribute -> every request keeps its slot."""
        release, entered = threading.Event(), threading.Event()

        def dispatch(requests):
            if not entered.is_set():
                entered.set()
                assert release.wait(5.0)
            return list(requests)

        batcher = MicroBatcher("t", dispatch, max_batch=8, queue_limit=64)
        try:
            first = batcher.submit(7)
            assert entered.wait(5.0)
            backlog = [batcher.submit(7) for _ in range(3)]
            release.set()
            assert first.result(5.0) == 7
            assert [f.result(5.0) for f in backlog] == [7, 7, 7]
        finally:
            batcher.stop()
        assert batcher.stats()["dedup_hits"] == 0

    def test_exception_result_fails_only_its_future(self):
        """A dispatch may return a BaseException in one slot; the other
        slots' futures still resolve."""
        def dispatch(requests):
            return [ValueError("poisoned") if r == "bad" else r
                    for r in requests]

        batcher = MicroBatcher("t", dispatch, max_batch=4, queue_limit=8)
        try:
            good, bad = batcher.submit("good"), batcher.submit("bad")
            assert good.result(5.0) == "good"
            with pytest.raises(ValueError, match="poisoned"):
                bad.result(5.0)
        finally:
            batcher.stop()


# ---------------------------------------------------------------------------
# POST /batch
# ---------------------------------------------------------------------------

class TestBatchEndpoint:
    @pytest.fixture(scope="class")
    def served(self):
        server = _server(cache_size=0)
        client = ServeClient(port=server.port)
        yield client
        client.close()
        server.close()

    def test_mixed_batch_matches_solo_requests(self, served):
        items = [{"endpoint": endpoint, **payload}
                 for endpoint, payload in _VOCAB]
        response = served.batch(items)
        assert response.status == 200
        body = response.body
        assert body["endpoint"] == "batch"
        assert body["count"] == len(items)
        assert body["plan"]["cse_hits"] >= 1  # the duplicate rate
        assert len(body["results"]) == len(items)
        for item, slot in zip(items, body["results"]):
            fields = {k: v for k, v in item.items() if k != "endpoint"}
            solo = served.request("POST", f"/{item['endpoint']}", fields)
            assert slot["status"] == solo.status
            assert json.dumps(slot["body"]) == json.dumps(solo.body)

    def test_errors_isolated_per_sub_request(self, served):
        body = served.batch([
            {"endpoint": "rate", "clock_mhz": 150.0, "processors": 16},
            {"endpoint": "threshold_at", "year": 1901.0},
            {"endpoint": "nope"},
            "not-an-object",
            {"endpoint": "policy", "threshold_mtops": 2000.0,
             "year": 1995.5},
        ]).require_ok()
        statuses = [slot["status"] for slot in body["results"]]
        assert statuses == [200, 400, 400, 400, 200]
        for slot in body["results"]:
            if slot["status"] != 200:
                assert "error" in slot["body"]  # taxonomy JSON, always

    def test_envelope_validation(self, served):
        assert served.request("POST", "/batch", {"requests": "x"}).status \
               == 400
        assert served.request("POST", "/batch", {"nope": []}).status == 400
        assert served.request("POST", "/batch", [1, 2]).status == 400

    def test_oversized_batch_rejected(self, served):
        """The envelope is capped at queue_limit sub-requests — a 400
        (the request itself is malformed-by-size), not a retryable 429."""
        too_many = [{"endpoint": "threshold_at", "year": 1994.0}] * 10_000
        response = served.request("POST", "/batch", {"requests": too_many})
        assert response.status == 400
        assert response.body["error"]["type"] == "ValidationError"

    def test_batch_listed_and_plan_metrics_pinned(self, served):
        endpoints = served.healthz().require_ok()["endpoints"]
        assert "batch" in endpoints and "threshold_at" in endpoints
        served.batch([{"endpoint": "rate", "clock_mhz": 150.0}] * 3)
        plan = served.metrics().require_ok()["serve"]["plan"]
        assert {"plans", "queries", "unique_queries", "cse_hits",
                "reuse_hits", "ops", "ops_fused",
                "fanout_histogram"} <= set(plan)
        assert plan["plans"] >= 1
        assert plan["cse_hits"] >= 2

    def test_batch_cache_hits_at_admission_epoch(self):
        server = _server(cache_size=64)
        client = ServeClient(port=server.port)
        try:
            item = {"endpoint": "rate", "clock_mhz": 150.0,
                    "processors": 16}
            first = client.batch([item]).require_ok()
            again = client.batch([item, item]).require_ok()
        finally:
            client.close()
            server.close()
        assert again["plan"]["cache_hits"] >= 1
        assert json.dumps(again["results"][0]) == \
               json.dumps(first["results"][0])
        assert json.dumps(again["results"][1]) == \
               json.dumps(first["results"][0])


# ---------------------------------------------------------------------------
# stdio JSON-RPC bridge
# ---------------------------------------------------------------------------

class TestRpcBridge:
    @pytest.fixture(scope="class")
    def engine(self):
        engine = ServiceEngine(ServeConfig(cache_size=0))
        yield engine
        engine.close()

    def test_rate_config_matches_http_body(self, engine):
        response = rpc_response(engine, {
            "jsonrpc": "2.0", "id": 1, "method": "rate_config",
            "params": {"clock_mhz": 150.0, "processors": 16}})
        status, body = engine.handle("rate", {"clock_mhz": 150.0,
                                              "processors": 16})
        assert status == 200
        assert response == {"jsonrpc": "2.0", "id": 1, "result": body}

    def test_listings_take_no_params(self, engine):
        listing = rpc_response(engine, {"jsonrpc": "2.0", "id": 2,
                                        "method": "list_machines"})
        assert listing["result"]["machines"]
        assert "catalog_epoch" in listing["result"]
        rejected = rpc_response(engine, {
            "jsonrpc": "2.0", "id": 3, "method": "list_machines",
            "params": {"x": 1}})
        assert rejected["error"]["code"] == -32602

    def test_batch_method_forwards_to_planner(self, engine):
        response = rpc_response(engine, {
            "jsonrpc": "2.0", "id": 4, "method": "batch",
            "params": {"requests": [
                {"endpoint": "rate", "clock_mhz": 150.0},
                {"endpoint": "rate", "clock_mhz": 150.0}]}})
        result = response["result"]
        assert result["count"] == 2
        assert result["plan"]["cse_hits"] == 1

    def test_error_code_mapping(self, engine):
        invalid = rpc_response(engine, {
            "jsonrpc": "2.0", "id": 5, "method": "threshold_at",
            "params": {"year": 1901.0}})
        assert invalid["error"]["code"] == -32602
        assert invalid["error"]["data"]["type"]  # taxonomy rides as data
        unknown = rpc_response(engine, {"jsonrpc": "2.0", "id": 6,
                                        "method": "shred_catalog"})
        assert unknown["error"]["code"] == -32601
        assert set(unknown["error"]["data"]["valid"]) == set(RPC_METHODS)
        not_object = rpc_response(engine, [1, 2, 3])
        assert not_object["error"]["code"] == -32600

    def test_notifications_get_no_response(self, engine):
        assert rpc_response(engine, {"jsonrpc": "2.0",
                                     "method": "threshold_at",
                                     "params": {"year": 1994.0}}) is None

    def test_stdio_loop_survives_garbage(self, engine):
        lines = "\n".join([
            json.dumps({"jsonrpc": "2.0", "id": 1,
                        "method": "threshold_at",
                        "params": {"year": 1994.0}}),
            "",
            "{this is not json",
            json.dumps({"jsonrpc": "2.0", "id": 2,
                        "method": "list_thresholds"}),
        ]) + "\n"
        out = io.StringIO()
        served = run_stdio_bridge(engine, stdin=io.StringIO(lines),
                                  stdout=out)
        assert served == 3  # blank line skipped, garbage still counted
        responses = [json.loads(line) for line in
                     out.getvalue().splitlines()]
        assert responses[0]["result"]["threshold_mtops"] > 0
        assert responses[1]["error"]["code"] == -32700
        assert responses[2]["result"]["eras"]
