"""Point answers from batch-local grids: parity with the full evaluators.

Every lattice cell depends only on its own ``(threshold, year)`` pair,
so a grid over a batch's own distinct axes must answer each point
exactly as the scalar scorecard and a monolithic tensor do.  These
tests pin that parity for :func:`repro.tiles.policy_cells` and
:func:`repro.tiles.scenario_cells`, across catalog events (which must
empty the answer memo), and through the serving engine's batching.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.catalog.events import (
    AmendMachine,
    AppendMachine,
    apply_event,
    reset_catalog,
)
from repro.catalog.registry import invalidation_count
from repro.diffusion.policy import evaluate_policy
from repro.machines.columns import machine_columns
from repro.scenarios import HISTORICAL, flop_cap
from repro.scenarios.grid import evaluate_scenario_grid
from repro.serve.server import ServeConfig, ServiceEngine
from repro.tiles import policy_cells, scenario_cells


@pytest.fixture(autouse=True)
def _restore_catalog():
    """Every test leaves the baseline catalog."""
    yield
    reset_catalog()


class TestPointParity:
    def test_points_match_scalar_evaluator(self):
        points = [(100.0, 1985.0), (195.0, 1992.0), (2000.0, 1995.5),
                  (7000.0, 1996.5), (20_000.0, 1998.0)]
        cells = policy_cells(points)
        for (t, y), cell in zip(points, cells):
            assert cell == evaluate_policy(t, y)


class TestInvalidation:
    def test_machine_events_invalidate_and_reprove_parity(self):
        probe = (2000.0, 1995.5)
        policy_cells([probe])
        before = invalidation_count()
        base = machine_columns().machines[-1]
        clone = dataclasses.replace(base, vendor="TileCo", model="TQ-1")
        apply_event(AppendMachine(machine=clone))
        assert invalidation_count() == before + 1
        assert policy_cells([probe]) == [evaluate_policy(*probe)]
        apply_event(AmendMachine(
            key=clone.key,
            machine=dataclasses.replace(clone, units_installed=11)))
        assert invalidation_count() == before + 2
        assert policy_cells([probe]) == [evaluate_policy(*probe)]


class TestScenarioTiles:
    def test_scenario_point_matches_monolithic_tensor(self):
        worlds = (HISTORICAL, flop_cap())
        t, y = 2_000.0, 1995.5
        grid = evaluate_scenario_grid(worlds, [t], [y])
        points = scenario_cells([(world, t, y) for world in worlds])
        for w, (world, point) in enumerate(zip(worlds, points)):
            assert point.scenario is world
            assert point.cell == grid.result_at(w, 0, 0)
            assert (point.threshold_in_force_mtops
                    == float(grid.in_force_mtops[w, 0]))
            assert (point.in_force_credible
                    == bool(grid.in_force_credible[w, 0]))


class TestServeDispatch:
    def test_batched_responses_match_one_at_a_time(self):
        payloads = [{"threshold_mtops": t, "year": y}
                    for t in (195.0, 2_000.0, 7_000.0)
                    for y in (1992.0, 1995.5)]
        reference = ServiceEngine(ServeConfig(max_batch=1, cache_size=0))
        try:
            expected = [reference.handle("policy", p) for p in payloads]
        finally:
            reference.close()
        assert all(status == 200 for status, _ in expected)

        engine = ServiceEngine(ServeConfig(max_batch=64, cache_size=0))
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(
                    lambda p: engine.handle("policy", p), payloads))
        finally:
            engine.close()
        for (status, body), (got_status, got_body) in zip(expected, got):
            assert got_status == 200
            assert json.dumps(got_body, sort_keys=True) \
                == json.dumps(body, sort_keys=True)
