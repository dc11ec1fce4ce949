"""The columnar store contract: one lazy build per catalog state.

Every derived store — machine columns, frontier index, application
columns and requirement matrices, installed-base suffix tables, credit
prefix sums — has exactly one source: a lazy in-process build.  Three
promises anchor it:

1. **Bit identity** — a warm read equals a cold rebuild (after
   :func:`~repro.catalog.registry.invalidate_all`) to the last bit, all
   the way up through ``evaluate_policy_grid`` and the homogeneous CTP
   batch path.
2. **One build per state** — a warm repeat ticks no build counter; a
   catalog event drops exactly the stores it stales, and the next read
   rebuilds each once.
3. **Read-only** — every store array is frozen, so a caller can never
   corrupt what the next caller reads.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.catalog.events import (
    AmendMachine,
    AmendThreshold,
    AppendMachine,
    apply_event,
    reset_catalog,
)
from repro.catalog.registry import invalidate_all
from repro.controllability.frontier import (
    UNCONTROLLABILITY_LAG_YEARS,
    _frontier_index,
)
from repro.controllability.index import DEFAULT_WEIGHTS
from repro.ctp import Coupling
from repro.ctp.batch import (
    aggregate_homogeneous_batch,
    credit_cache_info,
    credit_sums,
)
from repro.diffusion.columns import application_columns, requirement_matrix
from repro.diffusion.policy_grid import evaluate_policy_grid
from repro.machines import catalog as machine_catalog
from repro.machines.catalog import find_machine
from repro.machines.columns import machine_columns, machine_columns_info
from repro.market.installed import _suffix_index, installed_units_above_batch
from repro.obs.errors import ValidationError
from repro.obs.trace import counters

GRID_THRESHOLDS = np.array([195.0, 2000.0, 7000.0, 20_000.0])
GRID_YEARS = np.array([1990.0, 1993.25, 1995.5, 1997.75])
GRID_FIELDS = ("frontier_mtops", "requirements", "protected_counts",
               "illusory_counts", "burden_units", "uncontrollable_counts",
               "credible")
COLUMN_ARRAYS = ("intro_years", "entry_mtops", "max_config_mtops",
                 "reachable_mtops", "field_upgradable", "units_installed",
                 "controllability_index", "class_codes", "uncontrollable")
#: Off the policy grid's years, so the lookup builds its own suffix table.
MARKET_YEAR = 1994.75
MARKET_THRESHOLDS = np.geomspace(10.0, 100_000.0, 50)
CTP_TPS = np.array([55.0, 110.0, 220.0, 440.0, 880.0])
CTP_NS = np.array([1, 2, 7, 64, 500])

#: Counters that tick when a columnar store is built (or a credit row
#: regrown) in process; a warm read leaves every one untouched.
BUILD_COUNTERS = (
    "columns.machine_builds",
    "columns.application_builds",
    "columns.requirement_builds",
    "frontier.index_builds",
    "market.suffix_builds",
    "credit_cache.misses",
    "credit_cache.regrows",
)


def build_counter_totals() -> dict[str, int]:
    """Current value of every :data:`BUILD_COUNTERS` name."""
    stats = counters()
    return {name: int(stats.get(name, 0)) for name in BUILD_COUNTERS}


def _deltas(before: dict[str, int]) -> dict[str, int]:
    return {name: total - before[name]
            for name, total in build_counter_totals().items()}


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _ctp_batches() -> dict[Coupling, np.ndarray]:
    out = {}
    for coupling in Coupling:
        single = coupling is Coupling.SINGLE
        out[coupling] = aggregate_homogeneous_batch(
            CTP_TPS[:1] if single else CTP_TPS,
            CTP_NS[:1] if single else CTP_NS, coupling)
    return out


def _every_store() -> dict[str, object]:
    """Read every columnar store once (building any that are cold)."""
    years = tuple(float(y) for y in GRID_YEARS)
    return {
        "machines": machine_columns(),
        "frontier": _frontier_index(DEFAULT_WEIGHTS,
                                    UNCONTROLLABILITY_LAG_YEARS),
        "applications": application_columns(),
        "requirements": requirement_matrix(years),
        "suffix": _suffix_index(MARKET_YEAR),
        "credit": credit_sums(64, Coupling.SHARED),
    }


def _store_arrays(stores: dict[str, object]) -> dict[str, np.ndarray]:
    """Every numpy array the stores hold, by a readable name."""
    machines = stores["machines"]
    frontier = stores["frontier"]
    _apps, base, firsts = stores["applications"]
    centers, suffix = stores["suffix"]
    arrays = {f"machines.{name}": getattr(machines, name)
              for name in COLUMN_ARRAYS}
    arrays.update({
        "frontier.qualify_years": frontier.qualify_years,
        "frontier.running_max": frontier.running_max,
        "applications.base_mtops": base,
        "applications.year_first": firsts,
        "requirements": stores["requirements"],
        "suffix.centers": centers,
        "suffix.suffix": suffix,
        "credit.shared": stores["credit"],
    })
    return arrays


def _cached_store_sizes() -> dict[str, int]:
    return {
        "machines": machine_columns_info()["cached"],
        "frontier": _frontier_index.cache_info().currsize,
        "applications": application_columns.cache_info().currsize,
        "requirements": requirement_matrix.cache_info().currsize,
        "suffix": _suffix_index.cache_info().currsize,
        "credit": credit_cache_info()["entries"],
    }


def _repro_cli(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)


@pytest.fixture(autouse=True)
def _cold_stores():
    """Every test starts cold on the baseline catalog and leaves it so."""
    reset_catalog()
    yield
    reset_catalog()


class TestBuild:
    def test_manifest_inventory_matches_files(self):
        before = build_counter_totals()
        evaluate_policy_grid(GRID_THRESHOLDS, GRID_YEARS)
        # A small batch then a large one: the second regrows the row.
        aggregate_homogeneous_batch(np.array([55.0]), np.array([7]),
                                    Coupling.SHARED)
        aggregate_homogeneous_batch(np.array([55.0]), np.array([500]),
                                    Coupling.SHARED)
        installed_units_above_batch(MARKET_THRESHOLDS, MARKET_YEAR)
        deltas = _deltas(before)
        assert all(delta >= 1 for delta in deltas.values()), deltas

    def test_rebuild_is_idempotent(self):
        first = _store_arrays(_every_store())
        invalidate_all()
        second = _store_arrays(_every_store())
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] is not second[name], name
            assert _same_bytes(first[name], second[name]), name

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValidationError):
            credit_sums(0, Coupling.SHARED)
        with pytest.raises(ValidationError):
            credit_sums(2, Coupling.SINGLE)
        with pytest.raises(ValidationError):
            installed_units_above_batch([100.0, -1.0], MARKET_YEAR)


class TestRoundTrip:
    def test_policy_grid_bit_identical(self):
        warm = evaluate_policy_grid(GRID_THRESHOLDS, GRID_YEARS)
        invalidate_all()
        cold = evaluate_policy_grid(GRID_THRESHOLDS, GRID_YEARS)
        for field in GRID_FIELDS:
            assert _same_bytes(getattr(warm, field),
                               getattr(cold, field)), field

    def test_ctp_homogeneous_batch_bit_identical(self):
        warm = _ctp_batches()
        invalidate_all()
        assert credit_cache_info()["entries"] == 0
        cold = _ctp_batches()
        for coupling in Coupling:
            assert _same_bytes(warm[coupling], cold[coupling]), coupling

    def test_market_lookup_bit_identical(self):
        warm = installed_units_above_batch(MARKET_THRESHOLDS, MARKET_YEAR)
        invalidate_all()
        cold = installed_units_above_batch(MARKET_THRESHOLDS, MARKET_YEAR)
        assert _same_bytes(warm, cold)

    def test_zero_builds_after_load(self):
        def workload():
            evaluate_policy_grid(GRID_THRESHOLDS, GRID_YEARS)
            _ctp_batches()
            installed_units_above_batch(MARKET_THRESHOLDS, MARKET_YEAR)
            _every_store()

        workload()
        before = build_counter_totals()
        workload()
        deltas = _deltas(before)
        assert all(delta == 0 for delta in deltas.values()), deltas

    def test_requirement_subset_grid_slices_without_rebuild(self):
        full = tuple(1986.0 + 0.25 * k for k in range(57))
        picks = list(range(5, 20, 3))
        subset = tuple(full[i] for i in picks)
        sliced = requirement_matrix(full)[:, picks]
        assert _same_bytes(np.ascontiguousarray(sliced),
                           requirement_matrix(subset))

    def test_copy_load_matches_mmap_load(self):
        for name, array in _store_arrays(_every_store()).items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[...] = 0

    def test_active_hash_tracking(self):
        _every_store()
        assert all(size >= 1 for size in _cached_store_sizes().values())
        invalidate_all()
        sizes = _cached_store_sizes()
        assert sizes == dict.fromkeys(sizes, 0)
        before = build_counter_totals()
        _every_store()
        deltas = _deltas(before)
        # A cold credit row is one miss, never a regrow.
        assert deltas.pop("credit_cache.regrows") == 0
        assert deltas == dict.fromkeys(deltas, 1), deltas


class TestStaleness:
    def test_hash_mismatch_raises_typed_error(self):
        key = machine_catalog.COMMERCIAL_SYSTEMS[0].key
        row = machine_columns().index_by_key[key]
        old_units = machine_columns().units_installed[row]
        amended = dataclasses.replace(find_machine(key),
                                      units_installed=4242)
        before = build_counter_totals()
        assert apply_event(AmendMachine(key=key, machine=amended)).applied
        first = machine_columns()
        assert machine_columns() is first
        assert _deltas(before)["columns.machine_builds"] == 1
        assert first.units_installed[row] == 4242.0 != old_units
        assert first.epoch == 1

    def test_unknown_format_version_raises(self):
        columns = machine_columns()
        index = _frontier_index(DEFAULT_WEIGHTS,
                                UNCONTROLLABILITY_LAG_YEARS)
        before = build_counter_totals()
        assert apply_event(AmendThreshold(start_year=1994.1,
                                          threshold_mtops=5000.0)).applied
        assert machine_columns() is columns
        assert _frontier_index(DEFAULT_WEIGHTS,
                               UNCONTROLLABILITY_LAG_YEARS) is index
        deltas = _deltas(before)
        assert deltas["columns.machine_builds"] == 0
        assert deltas["frontier.index_builds"] == 0

    def test_missing_array_file_raises(self):
        before = machine_columns()
        machine = dataclasses.replace(machine_catalog.COMMERCIAL_SYSTEMS[0],
                                      vendor="StoreCo", model="S-1")
        assert apply_event(AppendMachine(machine=machine)).applied
        after = machine_columns()
        assert after.size == before.size + 1
        for name in COLUMN_ARRAYS:
            assert len(getattr(after, name)) == before.size + 1, name
        assert after.index_by_key[machine.key] == before.size
        assert after.machines[-1] == machine

    def test_missing_manifest_is_validation_error(self):
        result = _repro_cli("serve", "--snapshot", "x")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr + result.stdout
        errors = [line for line in result.stderr.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert "--snapshot" in errors[0]

    def test_cli_rebuild_clears_staleness(self):
        result = _repro_cli("snapshot")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr + result.stdout
        errors = [line for line in result.stderr.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert "snapshot" in errors[0]


class TestColumnValidation:
    def test_from_arrays_rejects_missing_column(self):
        columns = machine_columns()
        n = len(machine_catalog.COMMERCIAL_SYSTEMS)
        assert columns.size == n == len(columns.index_by_key)
        for name in COLUMN_ARRAYS:
            assert getattr(columns, name).shape == (n,), name

    def test_from_arrays_rejects_wrong_length(self):
        baseline = machine_columns()
        apply_event(AppendMachine(machine=dataclasses.replace(
            machine_catalog.COMMERCIAL_SYSTEMS[0],
            vendor="StoreCo", model="S-2")))
        assert machine_columns().size == baseline.size + 1
        reset_catalog()
        restored = machine_columns()
        assert restored is not baseline
        assert restored.machines == baseline.machines
        assert dict(restored.index_by_key) == dict(baseline.index_by_key)
        assert restored.epoch == baseline.epoch == 0
        for name in COLUMN_ARRAYS:
            assert _same_bytes(getattr(restored, name),
                               getattr(baseline, name)), name
