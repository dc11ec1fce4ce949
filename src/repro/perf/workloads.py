"""The benchmark workloads: five hot paths, batch vs seed-scalar.

Each workload times the batch-layer implementation against the
seed-faithful scalar reference on the same inputs, checks they agree, and
reports the speedup.  ``run_benchmarks`` executes the suite and writes
``BENCH_perf.json`` (repo root by default).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.crypto.keysearch import _candidate_bits
from repro.ctp import ComputingElement, Coupling
from repro.ctp.batch import clear_credit_cache, ctp_homogeneous_batch
from repro.obs.errors import ValidationError
from repro.obs.trace import metrics_snapshot, trace
from repro.perf.harness import Timing, time_pair, time_workload
from repro.perf import reference as ref

__all__ = ["BENCH_PATH", "WORKLOAD_NAMES", "run_benchmarks"]

#: Default output location (the repository root when run from it).
BENCH_PATH = Path("BENCH_perf.json")

WORKLOAD_NAMES = (
    "batch_ctp_rating",
    "frontier_year_grid",
    "bound_sensitivity_mc",
    "premise3_gap_scan",
    "keysearch_bit_expansion",
    "serve_load",
    "cluster_sweep_grid",
    "parallel_keysearch",
    "policy_grid",
    "acquisition_mc",
    "serve_prefork_load",
    "scenario_grid",
    "agentic_mix",
)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.abs(a), 1e-30)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _synthetic_configurations(n: int) -> list[list[ComputingElement]]:
    """Deterministic mixed-size configurations exercising the rating path."""
    configs = []
    for i in range(n):
        clock = 40.0 + 7.0 * (i % 23)
        size = 1 + (i % 16)
        element = ComputingElement(
            name=f"bench-{i}", clock_mhz=clock,
            word_bits=64.0 if i % 3 else 32.0,
            fp_ops_per_cycle=1.0 + (i % 4),
            int_ops_per_cycle=1.0 + (i % 2),
            concurrent_int_fp=bool(i % 5 == 0),
        )
        configs.append([element] * size)
    return configs


def _bench_batch_ctp(quick: bool) -> dict:
    n = 200 if quick else 2_000
    configs = _synthetic_configurations(n)
    elements = [cfg[0] for cfg in configs]
    ns = np.array([len(cfg) for cfg in configs])
    coupling = Coupling.SHARED
    clear_credit_cache()
    batch_out = ctp_homogeneous_batch(elements, ns, coupling)
    scalar_out = ref.ctp_loop_scalar(configs, coupling)
    scalar = time_workload(lambda: ref.ctp_loop_scalar(configs, coupling),
                           "scalar", repeats=3 if quick else 5)
    fast = time_workload(
        lambda: ctp_homogeneous_batch(elements, ns, coupling), "batch",
        repeats=5 if quick else 9)
    return _row("batch_ctp_rating",
                f"rate {n} homogeneous configurations (scalar ctp loop vs "
                f"ctp_homogeneous_batch with warm credit prefix sums)",
                scalar, fast, _rel_err(scalar_out, batch_out))


def _bench_frontier_grid(quick: bool) -> dict:
    from repro.controllability.frontier import frontier_series

    step = 0.05 if quick else 0.01
    years = np.arange(1988.0, 2000.0, step)
    batch_out = frontier_series(years)
    scalar_out = ref.frontier_series_scalar(years)
    scalar = time_workload(lambda: ref.frontier_series_scalar(years),
                           "scalar", repeats=2 if quick else 3)
    fast = time_workload(lambda: frontier_series(years), "batch",
                         repeats=5 if quick else 9)
    return _row("frontier_year_grid",
                f"frontier lower bound on a {years.size}-point year grid "
                f"(per-year catalog rescan vs cached running-max bisect)",
                scalar, fast, _rel_err(scalar_out, batch_out))


def _bench_bound_sensitivity(quick: bool) -> dict:
    from repro.core.sensitivity import bound_sensitivity

    n = 100 if quick else 1_000
    batch_out = np.sort(bound_sensitivity(1995.5, n).samples_mtops)
    scalar_out = np.sort(ref.bound_sensitivity_scalar(1995.5, n))
    scalar = time_workload(lambda: ref.bound_sensitivity_scalar(1995.5, n),
                           "scalar", repeats=2 if quick else 3)
    fast = time_workload(lambda: bound_sensitivity(1995.5, n), "batch",
                         repeats=5 if quick else 9)
    # Draw layouts differ (array vs interleaved scalar draws), so compare
    # the sampled distributions by their extremes rather than elementwise.
    spread = _rel_err(
        np.array([scalar_out.min(), scalar_out.max()]),
        np.array([batch_out.min(), batch_out.max()]),
    )
    return _row("bound_sensitivity_mc",
                f"{n}-draw Monte-Carlo of the lower bound (per-draw frontier "
                f"rebuild vs one matrix pass)",
                scalar, fast, spread)


def _bench_premise_scan(quick: bool) -> dict:
    from repro.core.scenarios import premise3_gap_series

    step = 0.25 if quick else 0.05
    years = np.arange(1993.0, 2000.0, step)
    batch_out = premise3_gap_series(years)
    scalar_out = ref.premise3_gap_series_scalar(years)
    scalar = time_workload(lambda: ref.premise3_gap_series_scalar(years),
                           "scalar", repeats=2 if quick else 3)
    fast = time_workload(lambda: premise3_gap_series(years), "batch",
                         repeats=5 if quick else 9)
    return _row("premise3_gap_scan",
                f"premise-3 gap factor on a {years.size}-point grid "
                f"(per-year bound derivation vs series arithmetic)",
                scalar, fast, _rel_err(scalar_out, batch_out))


def _bench_keysearch(quick: bool) -> dict:
    search_bits = 14 if quick else 18
    offsets = np.arange(1 << search_bits, dtype=np.int64)
    batch_out = _candidate_bits(0, offsets, search_bits)
    scalar_out = ref.candidate_bits_scalar(0, offsets, search_bits)
    scalar = time_workload(
        lambda: ref.candidate_bits_scalar(0, offsets, search_bits),
        "scalar", repeats=5 if quick else 9)
    fast = time_workload(lambda: _candidate_bits(0, offsets, search_bits),
                         "batch", repeats=5 if quick else 9)
    mismatch = float(np.mean(batch_out != scalar_out))
    return _row("keysearch_bit_expansion",
                f"expand 2^{search_bits} candidate keys to bit arrays "
                f"(per-bit loop vs one broadcast unpack)",
                scalar, fast, mismatch)


def _bench_serve_load(quick: bool) -> dict:
    """32 closed-loop clients on the rate batcher, ``max_batch`` 1 vs 64.

    Runs at the engine level (no HTTP) so the measured quantity is the
    coalescing itself: the same pre-parsed requests, the same batch
    kernel, only the batching policy differs.  With ``max_batch=1`` every
    request pays its own dispatch; with ``max_batch=64`` the backlog the
    32 threads create is drained in bulk.  Responses must be
    bit-identical between the two runs (each item's answer is independent
    of its batch-mates), so ``max_rel_err`` doubles as a parity check.
    """
    import threading

    from repro.serve.schemas import parse_request
    from repro.serve.server import ServeConfig, ServiceEngine

    n_clients = 32
    per_client = 25 if quick else 80
    payloads = [
        {
            "clock_mhz": 40.0 + 7.0 * (i % 23),
            "word_bits": 64 if i % 3 else 32,
            "fp_per_cycle": 1 + (i % 4),
            "int_per_cycle": 1 + (i % 2),
            "concurrent": i % 5 == 0,
            "processors": 1 + (i % 16),
            "coupling": "shared",
            "year": 1995.5,
        }
        for i in range(n_clients * 4)
    ]
    requests = [parse_request("rate", p) for p in payloads]

    def run_once(max_batch: int) -> tuple[float, list[float], dict]:
        config = ServeConfig(max_batch=max_batch, max_wait_ms=0.0,
                             queue_limit=8192, cache_size=0,
                             deadline_ms=120_000.0)
        engine = ServiceEngine(config)
        batcher = engine.batchers["rate"]
        ratings: list[list[float]] = [[] for _ in range(n_clients)]
        barrier = threading.Barrier(n_clients + 1)

        def client(idx: int) -> None:
            barrier.wait()
            for j in range(per_client):
                request = requests[(idx * per_client + j) % len(requests)]
                body = batcher.submit(request).result()
                ratings[idx].append(body["ctp_mtops"])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = batcher.stats()
        engine.close()
        flat = [r for per_thread in ratings for r in per_thread]
        return elapsed, flat, stats

    repeats = 2 if quick else 3

    def best_of(max_batch: int) -> tuple[Timing, list[float], dict]:
        runs = [run_once(max_batch) for _ in range(repeats)]
        elapsed, flat, stats = min(runs, key=lambda run: run[0])
        timing = Timing(
            name=f"max_batch_{max_batch}",
            best_seconds=elapsed,
            mean_seconds=sum(run[0] for run in runs) / repeats,
            repeats=repeats,
            warmup=0,
        )
        return timing, flat, stats

    clear_credit_cache()
    scalar, out_1, _ = best_of(1)
    fast, out_64, stats_64 = best_of(64)
    total = n_clients * per_client
    row = _row("serve_load",
               f"{n_clients} concurrent clients x {per_client} /rate "
               f"requests through the micro-batcher (max_batch=1 vs "
               f"max_batch=64, greedy coalescing, cache off)",
               scalar, fast, _rel_err(out_1, out_64))
    row["clients"] = n_clients
    row["requests_per_run"] = total
    row["throughput_rps"] = {
        "max_batch_1": total / scalar.best_seconds,
        "max_batch_64": total / fast.best_seconds,
    }
    row["batch_size_histogram"] = stats_64["batch_size_histogram"]
    return row


def _bench_cluster_sweep(quick: bool) -> dict:
    """Full design-space grid, scalar loop vs whole-array sweep.

    The grid is the same in quick and full mode (the scalar pass costs
    ~0.1 s, cheap enough for CI smoke); quick just trims repeats.  The
    sweep must be *bit-exact*: feasibility masks equal, and times and
    efficiencies identical on every feasible point, so ``max_rel_err``
    is 0.0 or the run is broken.
    """
    from repro.simulate.sweep import default_machine_catalog, sweep
    from repro.simulate.workloads import WORKLOAD_SUITE

    machines = default_machine_catalog()
    counts = np.arange(1, 257, dtype=np.int64)
    grid = sweep(machines, WORKLOAD_SUITE, counts)
    scalar_grid = ref.sweep_grid_scalar(machines, WORKLOAD_SUITE, counts)
    feas = grid.feasible
    if not np.array_equal(feas, scalar_grid["feasible"]):
        err = 1.0
    else:
        err = max(
            _rel_err(scalar_grid["times_s"][feas], grid.times_s[feas]),
            _rel_err(scalar_grid["efficiencies"][feas],
                     grid.efficiencies[feas]),
        )
    scalar = time_workload(
        lambda: ref.sweep_grid_scalar(machines, WORKLOAD_SUITE, counts),
        "scalar", repeats=2 if quick else 3)
    fast = time_workload(
        lambda: sweep(machines, WORKLOAD_SUITE, counts), "batch",
        repeats=5 if quick else 9)
    row = _row("cluster_sweep_grid",
               f"BSP model over {len(machines)} machines x "
               f"{len(WORKLOAD_SUITE)} workloads x {counts.size} node "
               f"counts (per-point simulate_execution vs one broadcast "
               f"sweep)",
               scalar, fast, err)
    row["grid_points"] = int(feas.size)
    row["feasible_points"] = int(feas.sum())
    return row


def _bench_parallel_keysearch(quick: bool) -> dict:
    """Exhaustive keysearch, one worker vs a small process pool.

    ``max_rel_err`` is 0.0 when the two runs return identical result
    objects (found keys, keys tried, chunk count) — the driver's
    determinism contract — and 1.0 otherwise.  The speedup is honest
    wall clock including pool startup; below ``_POOL_MIN_CORES`` it is
    ``None`` (see :func:`_pool_speedup_row`).
    """
    import os

    from repro.crypto.des import des_encrypt_block
    from repro.parallel import parallel_keysearch

    search_bits = 16 if quick else 18
    plaintext = 0x0123456789ABCDEF
    planted = 0x2AB5  # low bits of the key; parity-flip twins also match
    ciphertext = des_encrypt_block(plaintext, planted)
    cpu_count = os.cpu_count() or 1
    workers = max(2, min(4, cpu_count))

    def run(max_workers: int):
        return parallel_keysearch(plaintext, ciphertext,
                                  search_bits=search_bits,
                                  max_workers=max_workers)

    serial_out = run(1)
    parallel_out = run(workers)
    err = 0.0 if serial_out == parallel_out else 1.0
    scalar = time_workload(lambda: run(1), "scalar",
                           repeats=2 if quick else 3)
    fast = time_workload(lambda: run(workers), "batch",
                         repeats=2 if quick else 3)
    row = _pool_speedup_row(
        "parallel_keysearch",
        f"exhaustive 2^{search_bits} DES keysearch, 1 worker vs "
        f"{workers} worker processes (chunked fan-out, deterministic "
        f"reassembly)",
        scalar, fast, err, workers, cpu_count)
    row["found_keys"] = list(serial_out.found_keys)
    return row


def _bench_policy_grid(quick: bool) -> dict:
    """Chapter-5 scorecard lattice, per-point scalar vs columnar grid.

    The grid engine's contract is *bit-exactness*, not tolerance: every
    count and burden value must equal the seed scalar's, and the
    reconstructed per-cell scorecards must equal ``evaluate_policy``'s
    dataclasses — membership tuples included — on every lattice point,
    or ``max_rel_err`` reports 1.0 and the regression gate fails.  The
    timed batch path rebuilds the per-year caches on every call (cold
    suffix tables and requirement matrices), so the speedup prices in
    the columnar build, not just warm lookups.
    """
    from repro.diffusion.columns import clear_requirement_matrices
    from repro.diffusion.policy import evaluate_policy
    from repro.diffusion.policy_grid import evaluate_policy_grid
    from repro.market.installed import clear_installed_index

    thresholds = np.geomspace(10.0, 50_000.0, 24 if quick else 48)
    years = np.arange(1986.0, 2000.0, 0.6 if quick else 0.25)
    grid = evaluate_policy_grid(thresholds, years)
    scalar_grid = ref.policy_grid_scalar(thresholds, years)
    exact = (
        np.array_equal(grid.protected_counts, scalar_grid["protected"])
        and np.array_equal(grid.illusory_counts, scalar_grid["illusory"])
        and np.array_equal(grid.burden_units, scalar_grid["burden_units"])
        and np.array_equal(grid.uncontrollable_counts,
                           scalar_grid["uncontrollable"])
        and np.array_equal(grid.frontier_mtops,
                           scalar_grid["frontier_mtops"])
        and all(
            grid.result_at(i, j) == evaluate_policy(float(t), float(y))
            for i, t in enumerate(thresholds)
            for j, y in enumerate(years)
        )
    )

    def cold_grid():
        clear_installed_index()
        clear_requirement_matrices()
        return evaluate_policy_grid(thresholds, years)

    scalar = time_workload(
        lambda: ref.policy_grid_scalar(thresholds, years),
        "scalar", repeats=2 if quick else 3)
    fast = time_workload(cold_grid, "batch", repeats=5 if quick else 9)
    row = _row("policy_grid",
               f"Chapter-5 policy scorecards on a {thresholds.size} x "
               f"{years.size} (threshold, year) lattice (per-point catalog "
               f"walks and histogram rebuilds vs one columnar broadcast, "
               f"cold per-year caches each call)",
               scalar, fast, 0.0 if exact else 1.0)
    row["grid_points"] = int(thresholds.size * years.size)
    return row


def _bench_acquisition_mc(quick: bool) -> dict:
    """Acquisition premium + Monte-Carlo over a target grid, batched.

    Every scalar call re-scans the market, re-scores candidate severity,
    and draws its own RNG matrices; the batch shares one sorted market
    scan and one draw pair across all targets.  Stats must match the
    per-target scalar reference exactly (infinities included) or
    ``max_rel_err`` reports 1.0.
    """
    from repro.controllability.index import clear_assessment_caches
    from repro.diffusion.acquisition import (
        acquisition_premium,
        acquisition_premium_batch,
        clear_acquisition_caches,
        simulate_acquisitions_batch,
    )

    n_targets = 256 if quick else 512
    n_attempts = 64
    year, seed = 1995.5, 0
    targets = np.geomspace(10.0, 200_000.0, n_targets)
    clear_acquisition_caches()
    clear_assessment_caches()
    batch_stats = simulate_acquisitions_batch(targets, year, n_attempts,
                                              seed)
    scalar_stats = [
        ref.simulate_acquisitions_scalar(float(t), year, n_attempts, seed)
        for t in targets
    ]
    batch_arr = np.array([
        (s.success_rate, s.interdiction_rate, s.mean_delay_years,
         s.mean_cost_multiplier) for s in batch_stats
    ])
    exact = (
        np.array_equal(batch_arr, np.array(scalar_stats))
        and acquisition_premium_batch(targets, year) == [
            acquisition_premium(float(t), year) for t in targets
        ]
    )
    scalar, fast = time_pair(
        lambda: [ref.simulate_acquisitions_scalar(float(t), year,
                                                  n_attempts, seed)
                 for t in targets],
        lambda: simulate_acquisitions_batch(targets, year, n_attempts,
                                            seed))
    row = _row("acquisition_mc",
               f"covert-acquisition Monte-Carlo over {n_targets} targets x "
               f"{n_attempts} attempts (per-target market rescans and "
               f"private RNG draws vs one sorted scan and one shared draw "
               f"pair)",
               scalar, fast, 0.0 if exact else 1.0)
    row["targets"] = n_targets
    row["attempts_per_target"] = n_attempts
    return row


def _bench_serve_prefork_load(quick: bool) -> dict:
    """Open-loop HTTP load, single-process server vs a pre-forked fleet.

    Both servers run the identical engine and face the same Poisson
    arrival schedules (:mod:`repro.perf.loadgen`), so the only variable
    is the process model.  ``Timing.best_seconds`` is seconds-per-request at the peak
    achieved rate, making ``speedup`` the fleet/single **throughput
    ratio**.  ``max_rel_err`` is a bit-identity check: a fixed probe set
    of /rate and /policy requests must return byte-identical bodies from
    both servers (0.0) or the row is broken (1.0).  Below
    ``_POOL_MIN_CORES`` the speedup is ``None`` (see
    :func:`_pool_speedup_row`) and the >= 2x gate skips.
    """
    import os

    from repro.perf.loadgen import rate_sweep, saturation_knee
    from repro.serve.client import ServeClient
    from repro.serve.prefork import PreforkServer
    from repro.serve.server import ServeConfig, ServeServer

    cpu_count = os.cpu_count() or 1
    workers = max(2, min(4, cpu_count))
    rates = (20.0, 40.0) if quick else (50.0, 100.0, 200.0, 400.0)
    duration_s = 1.0 if quick else 2.0
    payloads = [
        {
            "clock_mhz": 40.0 + 7.0 * (i % 23),
            "word_bits": 64 if i % 3 else 32,
            "fp_per_cycle": 1 + (i % 4),
            "int_per_cycle": 1 + (i % 2),
            "concurrent": i % 5 == 0,
            "processors": 1 + (i % 16),
            "coupling": "shared",
            "year": 1995.5,
        }
        for i in range(64)
    ]
    probe_policy = [
        {"threshold_mtops": t, "year": y}
        for t in (195.0, 2000.0, 7000.0) for y in (1992.0, 1995.5)
    ]
    config = ServeConfig(port=0, cache_size=0, queue_limit=8192,
                         deadline_ms=60_000.0, drain_timeout=5.0)

    def probe(client: ServeClient) -> list[dict]:
        bodies = [client.rate(**p).require_ok() for p in payloads[:16]]
        bodies += [client.policy(**p).require_ok() for p in probe_policy]
        return bodies

    def measure(server_port: int) -> tuple[list, list[dict]]:
        client = ServeClient(port=server_port, timeout=60.0)
        try:
            bodies = probe(client)
            results = rate_sweep(
                lambda payload: client.rate(**payload).ok,
                payloads, rates, duration_s=duration_s)
            return results, bodies
        finally:
            client.close()

    # Single process first: the fleet forks after these threads die.
    with ServeServer(config) as single:
        single_results, single_bodies = measure(single.port)
    with PreforkServer(config, n_workers=workers) as fleet:
        fleet_results, fleet_bodies = measure(fleet.port)
        fleet_mode = fleet.mode

    identical = single_bodies == fleet_bodies
    peak_single = max(r.achieved_rps for r in single_results)
    peak_fleet = max(r.achieved_rps for r in fleet_results)
    scalar = Timing(name="single_process",
                    best_seconds=1.0 / peak_single,
                    mean_seconds=1.0 / peak_single, repeats=1, warmup=0)
    fast = Timing(name=f"prefork_{workers}",
                  best_seconds=1.0 / peak_fleet,
                  mean_seconds=1.0 / peak_fleet, repeats=1, warmup=0)
    row = _pool_speedup_row(
        "serve_prefork_load",
        f"open-loop Poisson /rate load over HTTP, 1 process vs {workers} "
        f"pre-forked workers ({fleet_mode} sharding); timings are "
        f"seconds/request at peak achieved throughput, so speedup is the "
        f"throughput ratio",
        scalar, fast, 0.0 if identical else 1.0, workers, cpu_count)
    row["mode"] = fleet_mode
    row["offered_rates_rps"] = list(rates)
    row["throughput_rps"] = {"single_process": peak_single,
                             f"prefork_{workers}": peak_fleet}
    row["saturation_knee_rps"] = {
        "single_process": saturation_knee(single_results),
        f"prefork_{workers}": saturation_knee(fleet_results),
    }
    row["latency"] = {
        "single_process": [r.as_dict() for r in single_results],
        f"prefork_{workers}": [r.as_dict() for r in fleet_results],
    }
    return row


def _bench_scenario_grid(quick: bool) -> dict:
    """Counterfactual-world tensor, sequential per-world vs one build.

    The sequential baseline evaluates eight single-world grids back to
    back, each from cold caches — what "run the policy grid once per
    world" costs when every build rebuilds the frontier index, suffix
    tables, and requirement matrices for itself.  The tensor path builds
    all eight worlds in one :func:`evaluate_scenario_grid` call over the
    same cold start, sharing every world-independent per-year quantity.
    Parity is bit-exactness, not tolerance: the historical world's slice
    must equal ``evaluate_policy_grid`` array for array, and every
    world's tensor slice must equal its own single-world build, or
    ``max_rel_err`` reports 1.0.
    """
    from repro.controllability.frontier import clear_frontier_indexes
    from repro.diffusion.columns import clear_requirement_matrices
    from repro.diffusion.policy_grid import evaluate_policy_grid
    from repro.market.installed import clear_installed_index
    from repro.scenarios import (
        HISTORICAL,
        accelerated_foreign,
        clear_scenario_caches,
        early_decontrol,
        evaluate_scenario_grid,
        flop_cap,
        sticky_requirements,
    )

    worlds = [
        HISTORICAL,
        flop_cap(),
        accelerated_foreign(),
        early_decontrol(),
        sticky_requirements(),
        flop_cap(cap_mtops=2_000.0, acceleration=1.5),
        accelerated_foreign(factor=3.0, onset=1990.0),
        early_decontrol(years_early=4.0),
    ]
    thresholds = np.geomspace(10.0, 50_000.0, 16 if quick else 32)
    years = np.arange(1986.0, 2000.0, 0.6 if quick else 0.25)

    def cold():
        clear_scenario_caches()
        clear_installed_index()
        clear_requirement_matrices()
        clear_frontier_indexes()

    cold()
    tensor = evaluate_scenario_grid(worlds, thresholds, years)
    policy = evaluate_policy_grid(thresholds, years)
    singles = [evaluate_scenario_grid([w], thresholds, years)
               for w in worlds]
    exact = (
        np.array_equal(tensor.frontier_mtops[0], policy.frontier_mtops)
        and np.array_equal(tensor.requirements[0], policy.requirements)
        and np.array_equal(tensor.protected_counts[0],
                           policy.protected_counts)
        and np.array_equal(tensor.illusory_counts[0],
                           policy.illusory_counts)
        and np.array_equal(tensor.burden_units[0], policy.burden_units)
        and np.array_equal(tensor.uncontrollable_counts[0],
                           policy.uncontrollable_counts)
        and np.array_equal(tensor.credible[0], policy.credible)
        and all(
            np.array_equal(tensor.frontier_mtops[w],
                           single.frontier_mtops[0])
            and np.array_equal(tensor.requirements[w],
                               single.requirements[0])
            and np.array_equal(tensor.protected_counts[w],
                               single.protected_counts[0])
            and np.array_equal(tensor.illusory_counts[w],
                               single.illusory_counts[0])
            and np.array_equal(tensor.burden_units[w],
                               single.burden_units[0])
            and np.array_equal(tensor.uncontrollable_counts[w],
                               single.uncontrollable_counts[0])
            and np.array_equal(tensor.credible[w], single.credible[0])
            and np.array_equal(tensor.in_force_mtops[w],
                               single.in_force_mtops[0])
            for w, single in enumerate(singles)
        )
    )

    def sequential_worlds():
        out = []
        for world in worlds:
            cold()
            out.append(evaluate_scenario_grid([world], thresholds, years))
        return out

    def tensor_build():
        cold()
        return evaluate_scenario_grid(worlds, thresholds, years)

    scalar, fast = time_pair(sequential_worlds, tensor_build)
    row = _row("scenario_grid",
               f"{len(worlds)}-world counterfactual tensor on a "
               f"{thresholds.size} x {years.size} (threshold, year) grid "
               f"({len(worlds)} sequential cold single-world builds vs one "
               f"cold tensor build sharing the per-year columns)",
               scalar, fast, 0.0 if exact else 1.0)
    row["worlds"] = len(worlds)
    row["tensor_points"] = int(len(worlds) * thresholds.size * years.size)
    return row


def _bench_agentic_mix(quick: bool) -> dict:
    """A heterogeneous agentic batch: one fused plan vs per-request
    dispatch.

    The workload is the mixed traffic the multi-query planner exists
    for: a Poisson-weighted stream of ~200 queries drawn from a small
    cross-endpoint vocabulary (annual reviews, CTP ratings, license
    decisions, policy / scenario points, threshold lookups, catalog
    assessments — the shape of one agent's planning turn, repeated
    across concurrent agents).  The baseline dispatches each query as
    its own single-request plan — exactly the per-endpoint sequential
    path, one read-guard acquisition and one columnar pass per query —
    while the fused side compiles the whole stream into **one** plan:
    duplicates collapse by CSE, every rating shares one
    ``ctp_homogeneous_batch``, licenses share one controllability
    matrix pass, point queries share batch-local grids, and reviews run
    once per distinct (year, policy) with their thresholds reused by
    the rate / threshold-at slots.

    ``max_rel_err`` is byte-identity, not a tolerance: every fused
    slot's JSON body must serialize identically to its sequential
    counterpart (and no slot may fail), so 0.0 doubles as the parity
    gate the acceptance criteria require.
    """
    from repro.catalog import events as catalog_events
    from repro.serve import plan as qplan
    from repro.serve.schemas import parse_request

    catalog_events.reset_catalog()
    rng = np.random.default_rng(17)

    vocab: list[tuple[str, dict]] = []
    for year in (1992.0, 1994.0, 1995.5, 1997.0):
        vocab.append(("review", {"year": year}))
    for i in range(6):
        vocab.append(("rate", {
            "clock_mhz": 60.0 + 25.0 * i,
            "processors": 1 + 2 * i,
            "coupling": "shared" if i % 2 else "distributed",
            "year": 1992.0 + i,
        }))
    for t in (195.0, 2_000.0, 7_000.0, 10_000.0):
        for y in (1992.0, 1995.5):
            vocab.append(("policy", {"threshold_mtops": t, "year": y}))
    for world in ("historical", "flop_cap"):
        for y in (1993.0, 1996.0):
            vocab.append(("scenario", {"scenario": world, "year": y}))
    for year in (1992.0, 1993.5, 1994.0, 1995.5, 1997.0):
        vocab.append(("threshold_at", {"year": year}))
    for key in ("Cray C916", "Cray T3D (64)", "Cray T90/32"):
        vocab.append(("machine", {"machine": key}))
        vocab.append(("license", {"machine": key, "destination": "India",
                                  "year": 1995.5}))

    counts = rng.poisson(lam=200 / len(vocab), size=len(vocab))
    stream = [parse_request(endpoint, dict(payload))
              for (endpoint, payload), count in zip(vocab, counts)
              for _ in range(max(1, int(count)))]
    rng.shuffle(stream)

    def sequential_pass() -> list:
        out = []
        for request in stream:
            out.extend(qplan.execute_plan(qplan.build_plan([request])))
        return out

    def fused_pass() -> list:
        return qplan.execute_plan(qplan.build_plan(stream))

    clear_credit_cache()
    sequential_out = sequential_pass()  # warm credit prefix rows
    before = qplan.plan_stats()
    fused_out = fused_pass()
    after = qplan.plan_stats()

    exact = all(
        not isinstance(a, BaseException) and not isinstance(b, BaseException)
        and json.dumps(a) == json.dumps(b)
        for a, b in zip(sequential_out, fused_out)
    ) and len(sequential_out) == len(fused_out) == len(stream)

    repeats = 2 if quick else 3
    scalar = time_workload(sequential_pass, "scalar", repeats=repeats)
    fast = time_workload(fused_pass, "batch", repeats=max(repeats, 3))

    plan = qplan.build_plan(stream)
    row = _row("agentic_mix",
               f"{len(stream)} Poisson-mixed queries across all seven "
               f"endpoints, one fused multi-query plan vs per-request "
               f"sequential dispatch (CSE + shared CTP batch + shared "
               f"matrix pass + shared point grid + review->era reuse; "
               f"response cache off on both sides; byte-identical "
               f"responses)",
               scalar, fast, 0.0 if exact else 1.0)
    row["queries"] = len(stream)
    row["unique_queries"] = len(plan.uniques)
    row["cse_hits"] = plan.cse_hits
    row["reuse_hits"] = after["reuse_hits"] - before["reuse_hits"]
    row["ops"] = after["ops"] - before["ops"]
    row["ops_fused"] = after["ops_fused"] - before["ops_fused"]
    row["throughput_qps"] = {
        "sequential": len(stream) / scalar.best_seconds,
        "fused": len(stream) / fast.best_seconds,
    }
    catalog_events.reset_catalog()
    return row


def _row(name: str, description: str, scalar: Timing, batch: Timing,
         max_rel_err: float) -> dict:
    return {
        "name": name,
        "description": description,
        "scalar": scalar.as_dict(),
        "batch": batch.as_dict(),
        "speedup": scalar.best_seconds / batch.best_seconds,
        "max_rel_err": max_rel_err,
    }


#: Fewer cores than this and worker processes time-slice the cores the
#: serial run already has, so a pool-vs-serial ratio measures the
#: scheduler rather than the fan-out.
_POOL_MIN_CORES = 4


def _pool_speedup_row(name: str, description: str, scalar: Timing,
                      batch: Timing, max_rel_err: float, workers: int,
                      cpu_count: int) -> dict:
    """:func:`_row` for a process-pool workload: the speedup is ``None``
    with a one-line ``speedup_null_reason`` when the host has fewer than
    ``_POOL_MIN_CORES`` cores."""
    row = _row(name, description, scalar, batch, max_rel_err)
    row["workers"] = workers
    row["cpu_count"] = cpu_count
    if cpu_count < _POOL_MIN_CORES:
        row["speedup"] = None
        row["speedup_null_reason"] = (
            f"{cpu_count} core(s) < {_POOL_MIN_CORES}: {workers} worker "
            f"processes time-slice the serial run's cores, so the ratio "
            f"measures the scheduler, not the fan-out")
    return row


_BENCHES = {
    "batch_ctp_rating": _bench_batch_ctp,
    "frontier_year_grid": _bench_frontier_grid,
    "bound_sensitivity_mc": _bench_bound_sensitivity,
    "premise3_gap_scan": _bench_premise_scan,
    "keysearch_bit_expansion": _bench_keysearch,
    "serve_load": _bench_serve_load,
    "cluster_sweep_grid": _bench_cluster_sweep,
    "parallel_keysearch": _bench_parallel_keysearch,
    "policy_grid": _bench_policy_grid,
    "acquisition_mc": _bench_acquisition_mc,
    "serve_prefork_load": _bench_serve_prefork_load,
    "scenario_grid": _bench_scenario_grid,
    "agentic_mix": _bench_agentic_mix,
}


def run_benchmarks(
    quick: bool = False,
    output: Path | str | None = BENCH_PATH,
    names: tuple[str, ...] = WORKLOAD_NAMES,
) -> dict:
    """Run the suite; write JSON to ``output`` unless it is ``None``.

    The payload embeds a :func:`repro.obs.metrics_snapshot` taken after
    the run, so ``BENCH_perf.json`` records the credit-cache and
    catalog/frontier-index statistics alongside the timings.
    """
    unknown = set(names) - set(_BENCHES)
    if unknown:
        raise ValidationError(
            f"unknown workloads: {sorted(unknown)}",
            context={"got": sorted(unknown), "valid": sorted(_BENCHES)},
        )
    results = []
    for name in names:
        with trace(f"bench.{name}", quick=quick):
            results.append(_BENCHES[name](quick))
    payload = {
        "suite": "repro-perf",
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": results,
        "metrics": metrics_snapshot(),
    }
    if output is not None:
        Path(output).write_text(json.dumps(payload, indent=2) + "\n")
    return payload
