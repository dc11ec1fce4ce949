"""The policy-grid engine's contract: bit-parity with the scalar path.

``evaluate_policy_grid`` promises *equality*, not tolerance: every cell
of every array, and every reconstructed ``PolicyEffectiveness``
(membership tuples included), must equal what ``evaluate_policy`` returns
for that (threshold, year) — including the knife-edge where a candidate
threshold lands exactly on the frontier.  The same standard applies to
the batched acquisition Monte-Carlo (per-draw RNG parity under a shared
seed), batched license decisions, the threshold-history series, and the
served ``/policy`` endpoint (16 threads through the micro-batcher ==
a sequential ``max_batch=1`` engine).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.acquisition import (
    acquisition_premium,
    acquisition_premium_batch,
    clear_acquisition_caches,
    simulate_acquisitions,
    simulate_acquisitions_batch,
)
from repro.diffusion.policy import (
    ExportControlPolicy,
    THRESHOLD_HISTORY,
    evaluate_policy,
    threshold_at,
)
from repro.diffusion.policy_grid import (
    evaluate_policy_grid,
    license_decision_batch,
    threshold_at_series,
)
from repro.machines.catalog import COMMERCIAL_SYSTEMS
from repro.machines.columns import (
    clear_machine_columns,
    machine_columns,
    machine_columns_info,
)
from repro.market.installed import (
    clear_installed_index,
    installed_units_above,
    installed_units_above_batch,
)
from repro.obs.errors import ThresholdInfeasibleError, ValidationError
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServeServer, ServiceEngine

# A dense lattice crossing every threshold era and the frontier's moving
# range, plus values far below/above everything in the catalog.
DENSE_THRESHOLDS = [10.0, 100.0, 160.0, 195.0, 500.0, 1500.0, 2000.0,
                    4087.5, 7000.0, 12500.0, 50_000.0, 500_000.0]
DENSE_YEARS = [1987.0, 1989.5, 1992.0, 1994.1, 1995.5, 1997.0, 1999.0]


# ---------------------------------------------------------------------------
# grid vs scalar
# ---------------------------------------------------------------------------

class TestGridParity:
    def test_dense_lattice_matches_scalar_exactly(self):
        grid = evaluate_policy_grid(DENSE_THRESHOLDS, DENSE_YEARS)
        assert grid.shape == (len(DENSE_THRESHOLDS), len(DENSE_YEARS))
        for i, threshold in enumerate(DENSE_THRESHOLDS):
            for j, year in enumerate(DENSE_YEARS):
                expected = evaluate_policy(threshold, year)
                # Full-dataclass equality: counts, burden, frontier, AND
                # the exact membership tuples.
                assert grid.result_at(i, j) == expected
                assert grid.frontier_mtops[j] == expected.frontier_mtops
                assert grid.protected_counts[i, j] == len(
                    expected.protected_applications)
                assert grid.illusory_counts[i, j] == len(
                    expected.illusory_applications)
                assert grid.burden_units[i, j] == expected.burden_units
                assert grid.uncontrollable_counts[i, j] == len(
                    expected.uncontrollable_covered_systems)
                assert bool(grid.credible[i, j]) == expected.credible

    def test_threshold_exactly_on_frontier_boundary(self):
        """threshold == frontier is the knife-edge: >= on one side of the
        protected test, < on the burden test.  Pin it exactly."""
        year = 1995.5
        grid_probe = evaluate_policy_grid([1.0], [year])
        frontier = float(grid_probe.frontier_mtops[0])
        grid = evaluate_policy_grid(
            [np.nextafter(frontier, 0.0), frontier,
             np.nextafter(frontier, np.inf)], [year])
        for i, threshold in enumerate(grid.thresholds):
            assert grid.result_at(i, 0) == evaluate_policy(
                float(threshold), year)
        # On-frontier is credible and carries zero illusory burden.
        assert bool(grid.credible[1, 0])
        assert grid.burden_units[1, 0] == 0.0
        assert not bool(grid.credible[0, 0])

    def test_empty_and_singleton_grids(self):
        empty = evaluate_policy_grid([], [])
        assert empty.shape == (0, 0)
        assert empty.burden_units.shape == (0, 0)

        one = evaluate_policy_grid([2000.0], [1995.5])
        assert one.shape == (1, 1)
        assert one.result_at(0, 0) == evaluate_policy(2000.0, 1995.5)

    def test_slabbed_parallel_grid_identical_to_serial(self):
        # A cell must not depend on which other thresholds share the
        # call: repro.tiles.policy_cells builds grids over just the
        # requested points and relies on this.
        thresholds = np.geomspace(10.0, 100_000.0, 23)
        years = [1990.0, 1995.5, 1998.0]
        whole = evaluate_policy_grid(thresholds, years)
        halves = [evaluate_policy_grid(part, years)
                  for part in (thresholds[:11], thresholds[11:])]
        for half in halves:
            assert np.array_equal(half.frontier_mtops, whole.frontier_mtops)
        for name in ("protected_counts", "illusory_counts", "burden_units",
                     "uncontrollable_counts", "credible"):
            joined = np.concatenate([getattr(h, name) for h in halves])
            assert np.array_equal(getattr(whole, name), joined), name

    def test_arrays_are_frozen(self):
        grid = evaluate_policy_grid([2000.0], [1995.5])
        with pytest.raises(ValueError):
            grid.burden_units[0, 0] = 1.0

    def test_rejects_bad_axes(self):
        with pytest.raises(ValidationError):
            evaluate_policy_grid([-5.0], [1995.5])
        with pytest.raises(ValidationError):
            evaluate_policy_grid([2000.0], [1890.0])


@settings(max_examples=30, deadline=None)
@given(
    year=st.floats(min_value=1986.0, max_value=1999.5),
    thresholds=st.lists(st.floats(min_value=1.0, max_value=1e6),
                        min_size=2, max_size=8),
)
def test_credibility_monotone_in_threshold(year, thresholds):
    """At a fixed date, raising the candidate threshold can only move a
    policy toward credibility: credible = (threshold >= frontier) and the
    frontier doesn't depend on the threshold."""
    axis = sorted(set(thresholds))
    grid = evaluate_policy_grid(axis, [year])
    credible = grid.credible[:, 0]
    assert np.array_equal(credible, np.sort(credible))  # False... then True
    for i, threshold in enumerate(axis):
        assert bool(credible[i]) == evaluate_policy(threshold, year).credible


# ---------------------------------------------------------------------------
# threshold series + installed-base batch
# ---------------------------------------------------------------------------

class TestSeriesAndInstalled:
    def test_threshold_series_matches_scalar(self):
        years = np.arange(1984.5, 1999.9, 0.37)
        series = threshold_at_series(years)
        assert series.tolist() == [threshold_at(float(y)) for y in years]

    def test_threshold_series_hits_every_era_start(self):
        starts = [era.start_year for era in THRESHOLD_HISTORY]
        series = threshold_at_series(starts)
        assert series.tolist() == [era.threshold_mtops
                                   for era in THRESHOLD_HISTORY]

    def test_threshold_before_history_raises(self):
        with pytest.raises(ThresholdInfeasibleError):
            threshold_at(1984.0)
        with pytest.raises(ThresholdInfeasibleError):
            threshold_at_series([1995.5, 1984.0])

    def test_installed_batch_matches_scalar(self):
        year = 1995.5
        thresholds = [0.5, 100.0, 195.0, 1500.0, 4087.5, 1e7]
        batch = installed_units_above_batch(thresholds, year)
        assert batch.tolist() == [installed_units_above(t, year)
                                  for t in thresholds]
        clear_installed_index()
        assert installed_units_above_batch(thresholds, year).tolist() \
            == batch.tolist()


# ---------------------------------------------------------------------------
# license decisions
# ---------------------------------------------------------------------------

class TestLicenseBatch:
    def test_batch_matches_policy_object(self):
        machines = sorted(COMMERCIAL_SYSTEMS, key=lambda m: m.key)[:10]
        destinations = ["India", "Germany", "China", "Russia", "Iraq"] * 2
        for threshold in (195.0, 2000.0, 7000.0):
            policy = ExportControlPolicy(threshold)
            expected = [policy.license_decision(m, d)
                        for m, d in zip(machines, destinations)]
            got = license_decision_batch(machines, destinations, threshold)
            assert got == expected

    def test_batch_rejects_mismatched_lengths(self):
        machines = [COMMERCIAL_SYSTEMS[0]]
        with pytest.raises(ValidationError):
            license_decision_batch(machines, ["India", "China"], 2000.0)


# ---------------------------------------------------------------------------
# acquisition Monte-Carlo
# ---------------------------------------------------------------------------

class TestAcquisitionBatch:
    def test_premium_batch_matches_scalar(self):
        targets = [1.0, 50.0, 500.0, 4000.0, 25_000.0, 5e6]
        for year in (1988.0, 1993.0, 1997.5):
            batch = acquisition_premium_batch(targets, year)
            assert batch == [acquisition_premium(t, year) for t in targets]

    def test_simulation_batch_matches_scalar_per_draw(self):
        """One shared RNG matrix vs one private stream per target: the
        scalar path seeds per (seed, n_attempts), so both consume the
        identical stream and every statistic matches bit for bit."""
        targets = [10.0, 900.0, 20_000.0, 1e7]
        stats = simulate_acquisitions_batch(targets, 1995.5,
                                            n_attempts=200, seed=7)
        for target, got in zip(targets, stats):
            assert got == simulate_acquisitions(target, 1995.5,
                                                n_attempts=200, seed=7)

    def test_simulation_batch_rejects_bad_attempts(self):
        with pytest.raises(ValidationError):
            simulate_acquisitions_batch([100.0], 1995.5, n_attempts=0)

    def test_market_cache_survives_clearing(self):
        baseline = acquisition_premium_batch([500.0], 1995.5)
        clear_acquisition_caches()
        assert acquisition_premium_batch([500.0], 1995.5) == baseline


# ---------------------------------------------------------------------------
# columnar store
# ---------------------------------------------------------------------------

class TestMachineColumns:
    def test_columns_match_catalog(self):
        cols = machine_columns()
        assert cols.size == len(COMMERCIAL_SYSTEMS)
        for k, machine in enumerate(cols.machines):
            assert cols.intro_years[k] == machine.year
            assert cols.entry_mtops[k] == machine.ctp_mtops
            assert cols.index_by_key[machine.key] == k

    def test_cache_hooks_rebuild_identically(self):
        first = machine_columns()
        hits_before = machine_columns_info()["hits"]
        assert machine_columns() is first  # memoized
        assert machine_columns_info()["hits"] == hits_before + 1
        clear_machine_columns()
        rebuilt = machine_columns()
        assert rebuilt is not first
        assert np.array_equal(rebuilt.reachable_mtops, first.reachable_mtops)


# ---------------------------------------------------------------------------
# served /policy endpoint
# ---------------------------------------------------------------------------

def _policy_payloads() -> list[dict]:
    return [{"threshold_mtops": float(t), "year": y}
            for t in (100.0, 500.0, 2000.0, 10_000.0)
            for y in (1989.0, 1992.0, 1995.5, 1998.0)]


class TestPolicyEndpoint:
    def test_sixteen_threads_match_sequential_engine(self):
        """16 threads through the live micro-batching server must agree
        bit-for-bit with a sequential max_batch=1 engine, and the batcher
        must actually coalesce (some batch bigger than one)."""
        work = _policy_payloads() * 2

        reference = ServiceEngine(ServeConfig(max_batch=1, cache_size=0))
        try:
            expected = [reference.handle("policy", p) for p in work]
        finally:
            reference.close()
        assert all(status == 200 for status, _ in expected)

        config = ServeConfig(port=0, max_batch=64, cache_size=0,
                             max_wait_ms=2.0)
        server = ServeServer(config).start()
        client = ServeClient(port=server.port)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                got = list(pool.map(
                    lambda p: client.request("POST", "/policy", p), work))
            histogram = server.engine.metrics()["serve"]["batchers"][
                "policy"]["batch_size_histogram"]
        finally:
            client.close()
            server.close()

        for (status, body), response in zip(expected, got):
            assert response.status == 200
            # JSON round-trips floats exactly: bit-identity.
            assert response.body == json.loads(json.dumps(body))
        assert any(int(size) > 1 for size in histogram), histogram

    def test_default_threshold_resolves_to_in_force(self):
        engine = ServiceEngine(ServeConfig())
        try:
            status, body = engine.handle("policy", {"year": 1995.5})
        finally:
            engine.close()
        assert status == 200
        assert body["threshold_mtops"] == threshold_at(1995.5)

    def test_malformed_payloads_return_taxonomy_errors(self):
        engine = ServiceEngine(ServeConfig())
        try:
            for payload in ({"threshold_mtops": -1.0},
                            {"year": "next year"},
                            {"thresold_mtops": 100.0}):
                status, body = engine.handle("policy", payload)
                assert status == 400
                assert body["error"]["type"] == "ValidationError"
        finally:
            engine.close()
