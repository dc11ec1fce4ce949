"""Perf regression gates (``pytest -m perf benchmarks/perf``).

Marked ``perf`` and excluded from the default run: wall-clock assertions
are load-sensitive, so they gate only when invoked deliberately (CI runs
the ``--quick`` configuration as a smoke test).  The floors are the PR's
acceptance criteria — the two named hot paths must stay >= 5x over the
seed scalar algorithms — with generous headroom below the measured
speedups (hundreds to tens of thousands x).
"""

from __future__ import annotations

import pytest

from repro.perf.workloads import WORKLOAD_NAMES, run_benchmarks

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def results() -> dict:
    payload = run_benchmarks(quick=True, output=None)
    return {w["name"]: w for w in payload["workloads"]}


def test_all_workloads_ran(results):
    assert set(results) == set(WORKLOAD_NAMES)
    for w in results.values():
        assert w["scalar"]["best_seconds"] > 0
        assert w["batch"]["best_seconds"] > 0


def test_bound_sensitivity_speedup_floor(results):
    assert results["bound_sensitivity_mc"]["speedup"] >= 5.0


def test_frontier_grid_speedup_floor(results):
    assert results["frontier_year_grid"]["speedup"] >= 5.0


def test_batch_rating_speedup_floor(results):
    assert results["batch_ctp_rating"]["speedup"] >= 5.0


def test_serve_load_batching_floor(results):
    # Micro-batching must clearly beat per-request dispatch even in the
    # quick configuration on a noisy CI box; full runs measure >= 3x
    # (recorded in BENCH_perf.json).
    assert results["serve_load"]["speedup"] >= 1.5


def test_serve_load_responses_bit_identical(results):
    # Per-request results are independent of batch-mates, so the
    # max_batch=1 and max_batch=64 runs must agree exactly.
    assert results["serve_load"]["max_rel_err"] == 0.0
    assert sum(results["serve_load"]["batch_size_histogram"].values()) > 0


def test_cluster_sweep_speedup_floor(results):
    # The whole-array sweep measures ~28x over the scalar loop on the
    # full 7 x 10 x 256 grid; 20x leaves headroom for CI noise.
    assert results["cluster_sweep_grid"]["speedup"] >= 20.0


def test_cluster_sweep_bit_exact(results):
    # Not a tolerance: the sweep replicates the scalar model's operation
    # order, so every feasible grid point must match to the last bit.
    assert results["cluster_sweep_grid"]["max_rel_err"] == 0.0


def test_parallel_keysearch_deterministic(results):
    # 1 worker and N workers must return identical result objects
    # (found keys, keys tried, chunk count) regardless of core count.
    assert results["parallel_keysearch"]["max_rel_err"] == 0.0
    assert results["parallel_keysearch"]["found_keys"]


def test_parallel_keysearch_speedup_floor(results):
    row = results["parallel_keysearch"]
    if row["speedup"] is None:
        # Too few cores for a pool to beat serial; parity asserted above.
        pytest.skip(row["speedup_null_reason"])
    # Pool startup is amortized over ~0.5 s of work, so 1.5x is a
    # conservative floor on a 4-core runner.
    assert row["speedup"] >= 1.5


def test_policy_grid_speedup_floor(results):
    # The columnar grid measures ~45x over per-point scalar scorecards in
    # the quick configuration, with the per-year caches rebuilt on every
    # timed call; 20x leaves headroom for CI noise.
    assert results["policy_grid"]["speedup"] >= 20.0


def test_policy_grid_bit_exact(results):
    # Not a tolerance: counts, burden, frontier, and the reconstructed
    # per-cell scorecards (membership tuples included) must equal the
    # scalar path exactly on every lattice point.
    assert results["policy_grid"]["max_rel_err"] == 0.0


def test_acquisition_mc_speedup_floor(results):
    # One shared RNG draw pair and one sorted market scan vs per-target
    # rescans and private draws measures ~25x; 20x is the gate.
    assert results["acquisition_mc"]["speedup"] >= 20.0


def test_acquisition_mc_bit_exact(results):
    # Per-draw parity under the shared seed path: every stat (including
    # infeasible-target infinities) and every premium dataclass must
    # match the scalar reference exactly.
    assert results["acquisition_mc"]["max_rel_err"] == 0.0


def test_serve_prefork_responses_bit_identical(results):
    # The fleet runs the identical engine as the single process, so the
    # /rate and /policy probe set must return identical bodies from both
    # process models — always, on any box.
    assert results["serve_prefork_load"]["max_rel_err"] == 0.0


def test_serve_prefork_throughput_floor(results):
    row = results["serve_prefork_load"]
    if row["speedup"] is None:
        pytest.skip(row["speedup_null_reason"])
    # N workers over N cores must at least double peak throughput vs one
    # process; parity is asserted unconditionally above.
    assert row["speedup"] >= 2.0


def test_scenario_grid_speedup_floor(results):
    # One 8-world tensor build vs 8 sequential cold single-world builds
    # measures ~6-7x (the shared frontier index, suffix tables, and
    # requirement matrices are rebuilt once instead of per world); 5x is
    # the acceptance floor.
    assert results["scenario_grid"]["speedup"] >= 5.0


def test_scenario_grid_identity_bit_exact(results):
    # Not a tolerance: the historical world's tensor slice must equal
    # evaluate_policy_grid array for array, and every world's slice must
    # equal its own single-world build.
    row = results["scenario_grid"]
    assert row["max_rel_err"] == 0.0
    assert row["worlds"] == 8


def test_agentic_mix_speedup_floor(results):
    # One fused multi-query plan over the ~200-query mixed stream must
    # beat per-request sequential dispatch by the PR's acceptance gate
    # (measured ~7x quick: review dedup, shared CTP batch, shared
    # matrix pass, shared point grid, era reuse).
    assert results["agentic_mix"]["speedup"] >= 3.0


def test_agentic_mix_byte_identical(results):
    # Not a tolerance: every fused slot's JSON body must serialize
    # identically to its per-request sequential counterpart, and the
    # planner must actually have fused work (CSE hits, fused ops, and
    # review->era reuses all nonzero on this mix).
    row = results["agentic_mix"]
    assert row["max_rel_err"] == 0.0
    assert row["cse_hits"] > 0
    assert row["ops_fused"] > 0
    assert row["reuse_hits"] > 0
    assert row["unique_queries"] + row["cse_hits"] == row["queries"]


def test_batch_paths_agree_with_scalar(results):
    for name in ("batch_ctp_rating", "frontier_year_grid",
                 "premise3_gap_scan", "keysearch_bit_expansion"):
        assert results[name]["max_rel_err"] <= 1e-9, name
    # The Monte-Carlo draw layouts differ; extremes agree loosely.
    assert results["bound_sensitivity_mc"]["max_rel_err"] <= 0.2
