"""The scenario subsystem's contract: codec strictness, historical
bit-exactness, epoch discipline, and the serve/CLI surfaces.

The load-bearing properties:

* the historical-identity world's tensor slice equals the existing
  ``PolicyGrid`` bit for bit on every cell (asserted directly and as a
  hypothesis property over random axes);
* the wire codec is strict (unknown fields rejected at every nesting
  level, era/anchor ordering validated) and round-trips exactly;
* a catalog event can never interleave with a tensor build (the write
  guard queues behind the build) nor be read across (every accessor
  raises ``ScenarioEpochError`` after an epoch change), and
  ``reset_catalog()``'s invalidate-all sweep clears the scenario caches.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.events import apply_event, parse_event, reset_catalog
from repro.catalog.registry import current_epoch
from repro.diffusion.policy import THRESHOLD_HISTORY, ThresholdEra, \
    evaluate_policy, threshold_at
from repro.diffusion.policy_grid import evaluate_policy_grid
from repro.obs.errors import (
    ScenarioEpochError,
    ThresholdInfeasibleError,
    ValidationError,
)
from repro.obs.trace import counters
from repro.scenarios import (
    HISTORICAL,
    PRESETS,
    Scenario,
    accelerated_foreign,
    clear_scenario_caches,
    early_decontrol,
    evaluate_scenario_grid,
    flop_cap,
    preset_scenario,
    scenario_from_payload,
    scenario_to_payload,
    sticky_requirements,
)
from repro.scenarios import grid as scenario_grid_module
from repro.serve.server import ServeConfig, ServiceEngine


@pytest.fixture(autouse=True)
def _restore_catalog():
    """Every test leaves the baseline catalog, epoch 0, and a cold
    scenario-grid memo."""
    yield
    reset_catalog()


THRESHOLDS = [100.0, 195.0, 1500.0, 7000.0]
YEARS = [1988.0, 1991.0, 1994.0, 1996.0, 1998.0]


def _all_presets() -> list[Scenario]:
    return [constructor() for constructor in PRESETS.values()]


# ---------------------------------------------------------------------------
# Scenario spec and codec
# ---------------------------------------------------------------------------


class TestScenarioSpec:
    def test_historical_identity_flag(self):
        assert HISTORICAL.is_historical
        assert not flop_cap().is_historical
        assert not sticky_requirements().is_historical

    def test_scenarios_are_frozen_and_hashable(self):
        worlds = _all_presets()
        assert len({hash(w) for w in worlds}) == len(worlds)
        with pytest.raises(Exception):
            HISTORICAL.name = "other"  # type: ignore[misc]

    def test_preset_scenario_unknown_name(self):
        with pytest.raises(ValidationError) as excinfo:
            preset_scenario("warp_drive")
        assert "flop_cap" in str(excinfo.value.context["valid"])

    def test_historical_threshold_in_force_matches_threshold_at(self):
        for year in (1984.5, 1986.0, 1988.9, 1992.0, 1994.1, 1999.0):
            assert HISTORICAL.threshold_in_force(year) == threshold_at(year)
        with pytest.raises(ThresholdInfeasibleError):
            HISTORICAL.threshold_in_force(1980.0)

    def test_threshold_in_force_series_zero_before_first_era(self):
        series = HISTORICAL.threshold_in_force_series([1980.0, 1985.0,
                                                       1995.0])
        assert series[0] == 0.0
        assert series[1] == threshold_at(1985.0)
        assert series[2] == threshold_at(1995.0)

    def test_decontrol_requires_strictly_increasing_eras(self):
        eras = (ThresholdEra(1990.0, 100.0, "a"),
                ThresholdEra(1990.0, 200.0, "b"))
        with pytest.raises(ValidationError):
            Scenario(name="bad", decontrol=eras)

    def test_decontrol_rejects_nonpositive_threshold(self):
        with pytest.raises(ValidationError):
            Scenario(name="bad",
                     decontrol=(ThresholdEra(1990.0, 0.0, "a"),))

    def test_frontier_shock_rejects_bad_anchors(self):
        with pytest.raises(ValidationError):
            Scenario(name="bad", frontier_shock=((1992.0, -1.0),))
        with pytest.raises(ValidationError):
            Scenario(name="bad",
                     frontier_shock=((1994.0, 2.0), (1992.0, 3.0)))

    def test_drift_knobs_validate_as_fractions(self):
        with pytest.raises(ValidationError):
            Scenario(name="bad", drift_rate=1.5)
        with pytest.raises(ValidationError):
            Scenario(name="bad", drift_floor=0.0)
        assert Scenario(name="ok", drift_rate=0.0).drift_rate == 0.0

    def test_frontier_multipliers_step_function(self):
        scenario = accelerated_foreign(factor=2.0, onset=1992.0)
        mult = scenario.frontier_multipliers([1990.0, 1992.0, 1995.0])
        assert list(mult) == [1.0, 2.0, 2.0]
        assert list(HISTORICAL.frontier_multipliers([1990.0])) == [1.0]


class TestScenarioCodec:
    def test_round_trip_identity_every_preset(self):
        for scenario in _all_presets():
            payload = scenario_to_payload(scenario)
            # The payload must survive a real JSON round trip too.
            assert scenario_from_payload(
                json.loads(json.dumps(payload))) == scenario

    def test_round_trip_identity_custom(self):
        scenario = Scenario(
            name="custom",
            decontrol=(ThresholdEra(1990.0, 500.0, "era"),),
            frontier_shock=((1991.0, 1.5), (1993.0, 2.25)),
            drift_rate=0.12,
            drift_floor=0.4,
        )
        assert scenario_from_payload(
            scenario_to_payload(scenario)) == scenario

    def test_payload_omits_none_knobs(self):
        assert scenario_to_payload(HISTORICAL) == {"name": "historical"}
        assert "drift_floor" not in scenario_to_payload(flop_cap())

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_payload({"name": "x", "drift_rte": 0.1})
        assert "drift_rte" in str(excinfo.value)

    def test_unknown_nested_era_field_rejected(self):
        payload = {"name": "x", "decontrol": [
            {"start_year": 1990.0, "threshold_mtops": 100.0,
             "lable": "typo"}]}
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_payload(payload)
        assert "lable" in str(excinfo.value)

    def test_bad_era_ordering_rejected(self):
        payload = {"name": "x", "decontrol": [
            {"start_year": 1994.0, "threshold_mtops": 100.0},
            {"start_year": 1990.0, "threshold_mtops": 200.0}]}
        with pytest.raises(ValidationError):
            scenario_from_payload(payload)

    def test_malformed_shapes_rejected(self):
        for payload in (
            "historical",
            {"decontrol": []},                       # name missing
            {"name": 7},
            {"name": "x", "decontrol": "soon"},
            {"name": "x", "frontier_shock": [[1992.0]]},
            {"name": "x", "frontier_shock": [[1992.0, "2"]]},
            {"name": "x", "drift_rate": True},
        ):
            with pytest.raises(ValidationError):
                scenario_from_payload(payload)


# ---------------------------------------------------------------------------
# Tensor engine: historical identity and overlays
# ---------------------------------------------------------------------------


class TestScenarioGridIdentity:
    def test_historical_slice_bit_exact_vs_policy_grid(self):
        worlds = [HISTORICAL, flop_cap(), accelerated_foreign()]
        tensor = evaluate_scenario_grid(worlds, THRESHOLDS, YEARS)
        grid = evaluate_policy_grid(THRESHOLDS, YEARS)
        assert np.array_equal(tensor.frontier_mtops[0], grid.frontier_mtops)
        assert np.array_equal(tensor.requirements[0], grid.requirements)
        assert np.array_equal(tensor.protected_counts[0],
                              grid.protected_counts)
        assert np.array_equal(tensor.illusory_counts[0],
                              grid.illusory_counts)
        assert np.array_equal(tensor.burden_units[0], grid.burden_units)
        assert np.array_equal(tensor.uncontrollable_counts[0],
                              grid.uncontrollable_counts)
        assert np.array_equal(tensor.credible[0], grid.credible)
        for i in range(len(THRESHOLDS)):
            for j in range(len(YEARS)):
                assert tensor.result_at(0, i, j) == grid.result_at(i, j)

    def test_historical_cells_equal_scalar_evaluator(self):
        tensor = evaluate_scenario_grid([HISTORICAL], THRESHOLDS, YEARS)
        for i, t in enumerate(THRESHOLDS):
            for j, y in enumerate(YEARS):
                assert tensor.result_at(0, i, j) == evaluate_policy(t, y)

    @settings(max_examples=15, deadline=None)
    @given(
        thresholds=st.lists(
            st.floats(min_value=10.0, max_value=60_000.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=6, unique=True),
        years=st.lists(
            st.floats(min_value=1985.0, max_value=2004.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=5, unique=True),
    )
    def test_historical_identity_property(self, thresholds, years):
        tensor = evaluate_scenario_grid([HISTORICAL], thresholds, years)
        grid = evaluate_policy_grid(thresholds, years)
        for name, other in (
            ("frontier_mtops", grid.frontier_mtops),
            ("requirements", grid.requirements),
            ("protected_counts", grid.protected_counts),
            ("illusory_counts", grid.illusory_counts),
            ("burden_units", grid.burden_units),
            ("uncontrollable_counts", grid.uncontrollable_counts),
            ("credible", grid.credible),
        ):
            assert np.array_equal(getattr(tensor, name)[0], other), name

    def test_as_policy_grid_round_trip(self):
        tensor = evaluate_scenario_grid([HISTORICAL, flop_cap()],
                                        THRESHOLDS, YEARS)
        grid = evaluate_policy_grid(THRESHOLDS, YEARS)
        world0 = tensor.as_policy_grid(0)
        assert np.array_equal(world0.burden_units, grid.burden_units)
        assert world0.result_at(1, 2) == grid.result_at(1, 2)
        world1 = tensor.as_policy_grid(1)
        assert world1.result_at(1, 2) == tensor.result_at(1, 1, 2)


class TestScenarioGridOverlays:
    def test_frontier_shock_scales_frontier_only(self):
        tensor = evaluate_scenario_grid(
            [HISTORICAL, accelerated_foreign(factor=2.0, onset=1990.0)],
            THRESHOLDS, YEARS)
        j = YEARS.index(1994.0)
        assert tensor.frontier_mtops[1, j] == \
            2.0 * tensor.frontier_mtops[0, j]
        # Requirements and uncontrollable counts are untouched by the
        # shock (no knob patches the machine catalog or the drift).
        assert np.array_equal(tensor.requirements[1],
                              tensor.requirements[0])
        assert np.array_equal(tensor.uncontrollable_counts[1],
                              tensor.uncontrollable_counts[0])

    def test_sticky_requirements_never_drift(self):
        tensor = evaluate_scenario_grid(
            [HISTORICAL, sticky_requirements()], THRESHOLDS, YEARS)
        # drift_rate=0: every year's requirement equals the base minimum.
        assert np.all(tensor.requirements[1]
                      == tensor.requirements[1][:, :1])
        # The paper's 8%/year drift strictly lowers late-year minimums.
        assert np.all(tensor.requirements[0][:, -1]
                      <= tensor.requirements[1][:, -1])

    def test_early_decontrol_shifts_in_force_series(self):
        tensor = evaluate_scenario_grid(
            [HISTORICAL, early_decontrol(years_early=2.0)],
            THRESHOLDS, [1986.0, 1990.0, 1993.0])
        for j, year in enumerate((1986.0, 1990.0, 1993.0)):
            assert tensor.in_force_mtops[1, j] == threshold_at(year + 2.0)

    def test_flop_cap_preserves_history_before_start(self):
        scenario = flop_cap(cap_mtops=10_000.0, start_year=1994.1)
        assert scenario.threshold_in_force(1992.0) == threshold_at(1992.0)
        assert scenario.threshold_in_force(1995.0) == 10_000.0
        assert scenario.decontrol[:-1] == tuple(
            e for e in THRESHOLD_HISTORY if e.start_year < 1994.1)

    def test_worker_fanout_bit_identical(self):
        # A world's slice must not depend on which other worlds share
        # the call: repro.tiles.scenario_cells builds one grid per world.
        worlds = _all_presets()
        tensor = evaluate_scenario_grid(worlds, THRESHOLDS, YEARS)
        clear_scenario_caches()
        singles = [evaluate_scenario_grid([w], THRESHOLDS, YEARS)
                   for w in worlds]
        for name in ("frontier_mtops", "requirements", "protected_counts",
                     "illusory_counts", "burden_units",
                     "uncontrollable_counts", "credible", "in_force_mtops",
                     "in_force_credible"):
            stacked = np.concatenate([getattr(g, name) for g in singles])
            assert np.array_equal(getattr(tensor, name), stacked), name

    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            evaluate_scenario_grid([], THRESHOLDS, YEARS)
        with pytest.raises(ValidationError):
            evaluate_scenario_grid([HISTORICAL, HISTORICAL],
                                   THRESHOLDS, YEARS)
        with pytest.raises(ValidationError):
            evaluate_scenario_grid(["historical"], THRESHOLDS, YEARS)

    def test_world_index_by_name_and_value(self):
        tensor = evaluate_scenario_grid([HISTORICAL, flop_cap()],
                                        THRESHOLDS, YEARS)
        assert tensor.world_index("flop_cap") == 1
        assert tensor.world_index(HISTORICAL) == 0
        with pytest.raises(ValidationError):
            tensor.world_index("missing")

    def test_divergence_and_credibility_summaries(self):
        tensor = evaluate_scenario_grid(
            [HISTORICAL, accelerated_foreign(factor=2.0, onset=1991.0)],
            THRESHOLDS, YEARS)
        # Identical before onset, shocked after: divergence at the first
        # grid year >= onset.
        assert tensor.divergence_year(1) == 1991.0
        assert tensor.divergence_year(1, baseline=1) is None
        loss = tensor.credibility_loss_year(0)
        assert loss is None or loss in YEARS
        assert tensor.burden_delta(0) == 0.0


# ---------------------------------------------------------------------------
# Epoch discipline
# ---------------------------------------------------------------------------


class TestEpochDiscipline:
    def test_reads_raise_after_catalog_event(self):
        tensor = evaluate_scenario_grid([HISTORICAL, flop_cap()],
                                        THRESHOLDS, YEARS)
        assert tensor.epoch == 0
        tensor.result_at(0, 0, 0)  # fine at the build epoch
        apply_event(parse_event({"event": "amend_threshold",
                                 "start_year": 1994.1,
                                 "threshold_mtops": 2_000.0}))
        assert current_epoch() == 1
        with pytest.raises(ScenarioEpochError) as excinfo:
            tensor.result_at(0, 0, 0)
        assert excinfo.value.context == {"built_at": 0, "current": 1}
        for reader in (lambda: tensor.as_policy_grid(0),
                       lambda: tensor.divergence_year(1),
                       lambda: tensor.credibility_loss_year(0),
                       lambda: tensor.burden_delta(1),
                       lambda: tensor.world_index("flop_cap")):
            with pytest.raises(ScenarioEpochError):
                reader()

    def test_rebuild_after_event_reads_cleanly(self):
        evaluate_scenario_grid([HISTORICAL], THRESHOLDS, YEARS)
        apply_event(parse_event({"event": "amend_threshold",
                                 "start_year": 1994.1,
                                 "threshold_mtops": 2_000.0}))
        rebuilt = evaluate_scenario_grid([HISTORICAL], THRESHOLDS, YEARS)
        assert rebuilt.epoch == 1
        # The historical world reads the *amended* timeline.
        j = YEARS.index(1996.0)
        assert rebuilt.in_force_mtops[0, j] == 2_000.0
        rebuilt.result_at(0, 0, 0)

    def test_mid_build_amendment_cannot_interleave(self, monkeypatch):
        """An ``amend_threshold`` posted mid-build queues behind the read
        guard: the tensor completes against its admission epoch (never a
        mixed-epoch tensor), and only *subsequent* reads raise."""
        build_entered = threading.Event()
        release_build = threading.Event()
        original = scenario_grid_module._world_slab

        def gated_world_slab(*args):
            build_entered.set()
            assert release_build.wait(5.0), "test deadlock"
            return original(*args)

        monkeypatch.setattr(scenario_grid_module, "_world_slab",
                            gated_world_slab)
        result: dict = {}

        def build():
            result["grid"] = evaluate_scenario_grid(
                [HISTORICAL, flop_cap()], THRESHOLDS, YEARS)

        builder = threading.Thread(target=build)
        builder.start()
        assert build_entered.wait(5.0)

        writer = threading.Thread(target=lambda: apply_event(parse_event(
            {"event": "amend_threshold", "start_year": 1994.1,
             "threshold_mtops": 3_000.0})))
        writer.start()
        writer.join(0.2)
        # The event is queued behind the in-flight build, not applied.
        assert writer.is_alive()
        assert current_epoch() == 0

        release_build.set()
        builder.join(10.0)
        writer.join(10.0)
        assert not builder.is_alive() and not writer.is_alive()

        grid = result["grid"]
        # The whole tensor was computed under the admission epoch...
        assert grid.epoch == 0
        assert current_epoch() == 1
        # ...and reading it now is an explicit typed error, not a silent
        # mix of pre- and post-amendment worlds.
        with pytest.raises(ScenarioEpochError):
            grid.result_at(0, 0, 0)


def _grid_builds() -> int:
    return counters().get("scenarios.grid_builds", 0)


class TestCacheInvalidation:
    def test_scenarios_hook_registered_for_all_event_kinds(self):
        """Each event kind forces exactly one rebuild of a memoized
        tensor."""
        machine = {"vendor": "GridCo", "model": "G-1", "country": "USA",
                   "year": 1995.5, "architecture": "smp",
                   "quoted_ctp_mtops": 1800.0}
        events = (
            {"event": "append_machine", "machine": machine},
            {"event": "amend_machine", "key": "GridCo G-1",
             "machine": {**machine, "units_installed": 999}},
            {"event": "amend_threshold", "start_year": 1994.1,
             "threshold_mtops": 2_500.0},
        )
        tensor = evaluate_scenario_grid([HISTORICAL], THRESHOLDS, YEARS)
        for event in events:
            builds = _grid_builds()
            assert apply_event(parse_event(event)).applied
            for _ in range(2):
                rebuilt = evaluate_scenario_grid([HISTORICAL], THRESHOLDS,
                                                 YEARS)
            assert rebuilt is not tensor
            assert rebuilt.epoch == current_epoch()
            assert _grid_builds() == builds + 1, event["event"]
            tensor = rebuilt

    def test_reset_catalog_sweeps_scenario_caches(self):
        """``reset_catalog()`` makes the tensor memo cold; the drift
        matrices depend only on their arguments and are kept."""
        worlds = [HISTORICAL, sticky_requirements()]
        first = evaluate_scenario_grid(worlds, THRESHOLDS, YEARS)
        drift = scenario_grid_module._scenario_requirements.cache_info()
        assert drift.currsize >= 1
        builds = _grid_builds()
        reset_catalog()
        again = evaluate_scenario_grid(worlds, THRESHOLDS, YEARS)
        assert again is not first and _grid_builds() == builds + 1
        assert np.array_equal(again.burden_units, first.burden_units)
        after = scenario_grid_module._scenario_requirements.cache_info()
        assert after.currsize == drift.currsize
        assert after.misses == drift.misses

    def test_event_purges_cached_tensors(self):
        tensor = evaluate_scenario_grid([HISTORICAL], THRESHOLDS, YEARS)
        cached = evaluate_scenario_grid([HISTORICAL], THRESHOLDS, YEARS)
        assert cached is tensor  # warm hit at the same epoch
        apply_event(parse_event({"event": "amend_threshold",
                                 "start_year": 1994.1,
                                 "threshold_mtops": 2_500.0}))
        rebuilt = evaluate_scenario_grid([HISTORICAL], THRESHOLDS, YEARS)
        assert rebuilt is not tensor
        assert rebuilt.epoch == 1


# ---------------------------------------------------------------------------
# Serving surface
# ---------------------------------------------------------------------------


def _scenario_payloads() -> list[dict]:
    return [
        {"scenario": "historical", "year": 1995.5},
        {"year": 1995.5},  # defaults to the historical world
        {"scenario": "flop_cap", "year": 1995.5},
        {"scenario": "flop_cap", "threshold_mtops": 7_000.0,
         "year": 1996.0},
        {"scenario": "accelerated_foreign", "year": 1992.0},
        {"scenario": scenario_to_payload(sticky_requirements()),
         "threshold_mtops": 195.0, "year": 1994.0},
        {"scenario": {"name": "custom", "drift_rate": 0.2},
         "year": 1995.0},
    ]


class TestServeScenario:
    def test_coalesced_matches_sequential_byte_for_byte(self):
        payloads = _scenario_payloads() * 3
        reference = ServiceEngine(ServeConfig(max_batch=1, cache_size=0))
        try:
            expected = [reference.handle("scenario", p) for p in payloads]
        finally:
            reference.close()
        engine = ServiceEngine(ServeConfig(max_batch=64, cache_size=0))
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(
                    lambda p: engine.handle("scenario", p), payloads))
        finally:
            engine.close()
        for (status_a, body_a), (status_b, body_b) in zip(expected, got):
            assert status_a == status_b == 200
            assert json.dumps(body_a, sort_keys=True) == \
                json.dumps(body_b, sort_keys=True)

    def test_response_shape_and_world_echo(self):
        engine = ServiceEngine(ServeConfig(max_batch=1))
        try:
            status, body = engine.handle(
                "scenario", {"scenario": "flop_cap", "year": 1995.0})
        finally:
            engine.close()
        assert status == 200
        assert body["endpoint"] == "scenario"
        assert body["scenario"] == "flop_cap"
        assert body["historical"] is False
        assert body["world"]["name"] == "flop_cap"
        assert body["threshold_mtops"] == 10_000.0  # the world's cap
        assert body["threshold_in_force_mtops"] == 10_000.0
        assert isinstance(body["credible"], bool)
        assert isinstance(body["in_force_credible"], bool)

    def test_omitted_threshold_resolves_per_world(self):
        engine = ServiceEngine(ServeConfig(max_batch=1))
        try:
            _, historical = engine.handle("scenario", {"year": 1995.0})
            _, early = engine.handle(
                "scenario",
                {"scenario": "early_decontrol", "year": 1995.0})
        finally:
            engine.close()
        assert historical["threshold_mtops"] == threshold_at(1995.0)
        assert early["threshold_mtops"] == threshold_at(1997.0)

    def test_bad_payloads_return_400(self):
        engine = ServiceEngine(ServeConfig(max_batch=1))
        try:
            for payload in (
                {"scenario": "warp_drive"},
                {"scenario": {"name": "x", "bogus": 1}},
                {"scenario": "historical", "threshold_mtops": -5.0},
                {"scenario": "historical", "year": 1800.0},
                {"extra": 1},
                [],
            ):
                status, body = engine.handle("scenario", payload)
                assert status == 400, payload
                assert body["error"]["type"] == "ValidationError"
        finally:
            engine.close()

    def test_http_round_trip(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import ServeServer

        with ServeServer(ServeConfig(port=0)) as server:
            client = ServeClient(port=server.port)
            try:
                body = client.scenario(scenario="flop_cap",
                                       year=1995.5).require_ok()
                assert body["scenario"] == "flop_cap"
                health = client.healthz().require_ok()
                assert "scenario" in health["endpoints"]
            finally:
                client.close()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestScenariosCli:
    def test_scenarios_table(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "--thresholds", "195,7000",
                     "--years", "1992,1996"]) == 0
        out = capsys.readouterr().out
        assert "World comparison" in out
        assert "flop_cap" in out
        assert "baseline" in out
        assert "tensor cells" in out

    def test_scenarios_worlds_json(self, tmp_path, capsys):
        from repro.cli import main

        worlds = tmp_path / "worlds.json"
        worlds.write_text(json.dumps(
            {"name": "frozen_drift", "drift_rate": 0.0}))
        assert main(["scenarios", "--worlds", "historical",
                     "--worlds-json", str(worlds),
                     "--thresholds", "195", "--years", "1994"]) == 0
        out = capsys.readouterr().out
        assert "frozen_drift" in out

    def test_scenarios_bad_flags_exit_nonzero(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "--worlds", "warp_drive"]) == 1
        assert "error:" in capsys.readouterr().out
