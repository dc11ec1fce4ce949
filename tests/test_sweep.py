"""The sweep engine and the parallel keysearch driver.

The central contract under test is *bit-exactness*: the vectorized sweep
replicates the scalar model's operation order, so every grid point —
times, efficiencies, components, feasibility, reason strings — must
equal ``simulate_execution`` with ``==``, not ``isclose``.  The same
contract applies to the keysearch driver: 1 worker and N workers must
return identical objects.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.sensitivity import bound_sensitivity
from repro.obs.errors import ValidationError
from repro.parallel import parallel_keysearch, partition_chunks, run_chunks
from repro.perf import reference as ref
from repro.simulate.architectures import hierarchical_machine
from repro.simulate.execution import (
    efficiency_curve,
    simulate_execution,
    speedup_curve,
)
from repro.simulate.sweep import (
    InfeasibleReason,
    default_machine_catalog,
    sweep,
    validate_node_counts,
)
from repro.simulate.workloads import WORKLOAD_SUITE, find_workload

#: Deliberately awkward counts: odd primes (SIMD-pow territory), powers of
#: two, hypernode multiples and non-multiples, and a big tail.
PARITY_COUNTS = [1, 2, 3, 5, 7, 8, 12, 16, 24, 31, 57, 64, 95, 113,
                 128, 167, 200, 256]


# ---------------------------------------------------------------------------
# Bit-exact parity against the scalar model
# ---------------------------------------------------------------------------


def test_sweep_matches_scalar_model_bit_exactly():
    machines = default_machine_catalog()
    grid = sweep(machines, WORKLOAD_SUITE, PARITY_COUNTS)
    for i, machine in enumerate(machines):
        for k, n in enumerate(PARITY_COUNTS):
            if n % machine.hypernode_size:
                for j in range(len(WORKLOAD_SUITE)):
                    assert not grid.feasible[i, j, k]
                    assert grid.reason_codes[i, j, k] == \
                        InfeasibleReason.NODE_GRID
                    assert math.isinf(grid.times_s[i, j, k])
                continue
            configured = machine.with_nodes(n)
            for j, workload in enumerate(WORKLOAD_SUITE):
                r = simulate_execution(workload, configured)
                point = (machine.name, workload.name, n)
                assert bool(grid.feasible[i, j, k]) == r.feasible, point
                assert grid.times_s[i, j, k] == r.time_s, point
                assert grid.efficiencies[i, j, k] == r.efficiency, point
                assert grid.serial_time_s[i, j, k] == r.serial_time_s, point
                assert grid.compute_time_s[i, j, k] == r.compute_time_s, \
                    point
                assert grid.comm_time_s[i, j, k] == r.comm_time_s, point
                assert grid.reason_text(i, j, k) == r.infeasible_reason, \
                    point


def test_sweep_speedups_match_scalar_baseline():
    machines = default_machine_catalog()
    grid = sweep(machines, WORKLOAD_SUITE, PARITY_COUNTS)
    for i, machine in enumerate(machines):
        base_machine = machine.with_nodes(machine.hypernode_size)
        for j, workload in enumerate(WORKLOAD_SUITE):
            base = simulate_execution(workload, base_machine)
            assert grid.baseline_nodes[i] == machine.hypernode_size
            assert grid.baseline_times_s[i, j] == base.time_s
            for k, n in enumerate(PARITY_COUNTS):
                expected = 0.0
                if base.feasible and grid.feasible[i, j, k]:
                    expected = base.time_s / grid.times_s[i, j, k]
                assert grid.speedups[i, j, k] == expected


def test_result_at_reconstructs_scalar_result():
    machines = default_machine_catalog()
    grid = sweep(machines, WORKLOAD_SUITE, [16])
    for i, machine in enumerate(machines):
        for j, workload in enumerate(WORKLOAD_SUITE):
            want = simulate_execution(workload, machine.with_nodes(16))
            assert grid.result_at(i, j, 0) == want


def test_result_at_node_grid_point_raises():
    grid = sweep(hierarchical_machine(8, 8), WORKLOAD_SUITE[0], [3])
    assert grid.reason_codes[0, 0, 0] == InfeasibleReason.NODE_GRID
    with pytest.raises(ValidationError):
        grid.result_at(0, 0, 0)


def test_infeasible_reason_strings_cover_both_memory_cases():
    machines = default_machine_catalog()
    grid = sweep(machines, WORKLOAD_SUITE, PARITY_COUNTS)
    codes = set(np.unique(grid.reason_codes))
    # The suite + catalog is rich enough to hit every failure mode.
    assert {InfeasibleReason.NONE, InfeasibleReason.MIN_MEMORY,
            InfeasibleReason.NODE_MEMORY,
            InfeasibleReason.NODE_GRID} <= {InfeasibleReason(c)
                                            for c in codes}


def test_sweep_accepts_scalar_machine_and_workload():
    grid = sweep(default_machine_catalog()[0], WORKLOAD_SUITE[0], [4])
    assert grid.shape == (1, 1, 1)


def test_sweep_grid_scalar_reference_agrees():
    machines = default_machine_catalog()
    counts = np.array(PARITY_COUNTS)
    grid = sweep(machines, WORKLOAD_SUITE, counts)
    scalar = ref.sweep_grid_scalar(machines, WORKLOAD_SUITE, counts)
    assert np.array_equal(grid.feasible, scalar["feasible"])
    feas = grid.feasible
    assert np.array_equal(grid.times_s[feas], scalar["times_s"][feas])
    assert np.array_equal(grid.efficiencies[feas],
                          scalar["efficiencies"][feas])


# ---------------------------------------------------------------------------
# Rebuilt curve APIs
# ---------------------------------------------------------------------------


def test_speedup_curve_matches_scalar_reference():
    workload = find_workload("molecular dynamics")
    machine = default_machine_catalog()[3]  # ATM cluster
    counts = [1, 2, 4, 8, 16, 32, 64]
    got = speedup_curve(workload, machine, counts)
    want = ref.speedup_curve_scalar(workload, machine, counts)
    assert np.array_equal(got, want)


def test_efficiency_curve_matches_scalar_reference():
    workload = find_workload("weather prediction")
    machine = default_machine_catalog()[1]  # SMP
    counts = [1, 2, 4, 8, 16]
    got = efficiency_curve(workload, machine, counts)
    want = ref.efficiency_curve_scalar(workload, machine, counts)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# node_counts validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    [], [0], [-4], [1.5], [np.nan], [np.inf], [[1, 2]], [1, 2, 0],
])
def test_validate_node_counts_rejects(bad):
    with pytest.raises(ValidationError):
        validate_node_counts(bad)


def test_validate_node_counts_accepts_integral_floats():
    counts = validate_node_counts([1.0, 2.0, 16.0])
    assert counts.dtype == np.int64
    assert counts.tolist() == [1, 2, 16]


@pytest.mark.parametrize("curve", [speedup_curve, efficiency_curve])
def test_curves_validate_node_counts(curve):
    workload = WORKLOAD_SUITE[0]
    machine = default_machine_catalog()[0]
    with pytest.raises(ValidationError):
        curve(workload, machine, [1, 0, 4])
    with pytest.raises(ValidationError):
        curve(workload, machine, [2.5])


def test_sweep_rejects_empty_machines_and_workloads():
    with pytest.raises(ValidationError):
        sweep((), WORKLOAD_SUITE[0], [1])
    with pytest.raises(ValidationError):
        sweep(default_machine_catalog()[0], (), [1])


# ---------------------------------------------------------------------------
# Parallel driver: chunking
# ---------------------------------------------------------------------------


def test_partition_chunks_covers_exactly():
    for n_items in (0, 1, 5, 16, 17, 100):
        for n_chunks in (1, 3, 16, 200):
            ranges = partition_chunks(n_items, n_chunks)
            flat = [i for a, b in ranges for i in range(a, b)]
            assert flat == list(range(n_items))
            sizes = [b - a for a, b in ranges]
            assert all(s > 0 for s in sizes)
            if sizes:
                assert max(sizes) - min(sizes) <= 1


def test_partition_chunks_rejects_bad_args():
    with pytest.raises(ValidationError):
        partition_chunks(-1, 4)
    with pytest.raises(ValidationError):
        partition_chunks(10, 0)


def test_run_chunks_empty_and_parallel_map_edges():
    assert run_chunks(math.sqrt, [], max_workers=4) == []
    assert run_chunks(math.sqrt, [(4.0,), (9.0,)]) == [2.0, 3.0]
    with pytest.raises(ValidationError):
        run_chunks(math.sqrt, [(4.0,)], max_workers=0)


# ---------------------------------------------------------------------------
# Determinism: keysearch 1 worker vs N, and seeded or sliced grids
# ---------------------------------------------------------------------------

_PLAINTEXT = 0x0123456789ABCDEF
_PLANTED = 0x155  # low 10 bits


def _ciphertext() -> int:
    from repro.crypto.des import des_encrypt_block

    return des_encrypt_block(_PLAINTEXT, _PLANTED)


def test_parallel_keysearch_identical_across_worker_counts():
    ciphertext = _ciphertext()
    serial = parallel_keysearch(_PLAINTEXT, ciphertext, search_bits=10,
                                max_workers=1)
    fanned = parallel_keysearch(_PLAINTEXT, ciphertext, search_bits=10,
                                max_workers=2)
    assert serial == fanned
    assert serial.succeeded
    assert _PLANTED in serial.found_keys
    assert serial.keys_tried == 1 << 10


def test_parallel_keysearch_invariant_to_chunk_layout():
    ciphertext = _ciphertext()
    a = parallel_keysearch(_PLAINTEXT, ciphertext, search_bits=10,
                           max_workers=1, n_chunks=3)
    b = parallel_keysearch(_PLAINTEXT, ciphertext, search_bits=10,
                           max_workers=2, n_chunks=7)
    assert a.found_keys == b.found_keys
    assert a.keys_tried == b.keys_tried


def test_parallel_keysearch_validates():
    with pytest.raises(ValidationError):
        parallel_keysearch(0, 0, search_bits=0)
    with pytest.raises(ValidationError):
        parallel_keysearch(0, 0, search_bits=10, batch_size=0)


def test_parallel_bound_sensitivity_identical_across_worker_counts():
    first = bound_sensitivity(n_samples=40, seed=3)
    again = bound_sensitivity(n_samples=40, seed=3)
    assert np.array_equal(first.samples_mtops, again.samples_mtops)
    assert first.samples_mtops.size == 40
    assert (first.samples_mtops > 0).all()


def test_sweep_parallel_bit_identical_to_sweep():
    # Every grid point is independent of the others: a full sweep equals
    # its per-machine sweeps concatenated along the machine axis.
    machines = default_machine_catalog()
    counts = PARITY_COUNTS[:10]
    whole = sweep(machines, WORKLOAD_SUITE, counts)
    parts = [sweep(m, WORKLOAD_SUITE, counts) for m in machines]
    for name in ("feasible", "reason_codes", "serial_time_s",
                 "compute_time_s", "comm_time_s", "times_s", "speedups",
                 "efficiencies", "baseline_nodes", "baseline_times_s"):
        joined = np.concatenate([getattr(p, name) for p in parts])
        assert np.array_equal(getattr(whole, name), joined,
                              equal_nan=True), name
