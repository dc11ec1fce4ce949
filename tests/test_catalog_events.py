"""Event-sourced catalog mutation: epochs, incremental index parity,
atomic invalidation, and the serving surfaces built on top.

The load-bearing property is **per-event bit-parity**: after every
applied event, the incrementally patched columnar stores and frontier
indexes must equal a from-scratch rebuild bit for bit
(``full_rebuild_parity``).  Around it: the knife-edge frontier append
(a new machine rating *exactly* the current running max must neither
regress the index nor flip the leader), threshold amendments straddling
``threshold_at`` bisect era boundaries, the epoch read/write guard that
lets an in-flight micro-batch complete against its admission epoch, the
epoch-keyed serve cache, and the pre-fork ``snapshot_stale`` fast
failure.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

from repro.catalog.events import (
    AmendMachine,
    AmendThreshold,
    AppendMachine,
    apply_event,
    full_rebuild_parity,
    parse_event,
    reset_catalog,
)
from repro.catalog.registry import (
    current_epoch,
    invalidate_all,
    invalidate_for,
    register_invalidation_hook,
    unregister_invalidation_hook,
)
from repro.controllability.frontier import (
    UNCONTROLLABILITY_LAG_YEARS,
    _frontier_index,
    lower_bound_uncontrollable,
)
from repro.controllability.index import DEFAULT_WEIGHTS, assess
from repro.diffusion.policy import threshold_at
from repro.machines.catalog import find_machine
from repro.machines.columns import machine_columns
from repro.obs.errors import (
    CatalogLookupError,
    SnapshotStaleError,
    ValidationError,
)
from repro.serve.cache import MISS, LRUCache
from repro.serve.server import ServeConfig, ServiceEngine


@pytest.fixture(autouse=True)
def _restore_catalog():
    """Every test leaves the baseline catalog, thresholds, and epoch 0."""
    yield
    reset_catalog()


def _payload(vendor="TestCo", model="Churn-1", **overrides) -> dict:
    machine = {
        "vendor": vendor, "model": model, "country": "USA",
        "year": 1995.5, "architecture": "smp", "n_processors": 4,
        "element": {"name": "tc", "clock_mhz": 150.0, "word_bits": 64,
                    "fp_ops_per_cycle": 1, "int_ops_per_cycle": 1,
                    "concurrent_int_fp": False},
        "quoted_ctp_mtops": 1800.0,
    }
    machine.update(overrides)
    return {"event": "append_machine", "machine": machine}


class TestEventApplication:
    def test_append_bumps_epoch_and_keeps_parity(self):
        assert current_epoch() == 0
        outcome = apply_event(parse_event(_payload()))
        assert outcome.applied and outcome.epoch == 1
        assert current_epoch() == 1
        assert find_machine("TestCo Churn-1").ctp_mtops == 1800.0
        report = full_rebuild_parity()
        assert report["all"], report

    def test_replay_is_explicit_noop(self):
        event = parse_event(_payload())
        first = apply_event(event)
        replay = apply_event(event)
        assert first.applied and not replay.applied
        assert replay.epoch == first.epoch == current_epoch() == 1

    def test_append_existing_key_with_different_fields_rejected(self):
        apply_event(parse_event(_payload()))
        with pytest.raises(ValidationError):
            apply_event(parse_event(_payload(quoted_ctp_mtops=999.0)))

    def test_amend_machine_parity_and_visibility(self):
        apply_event(parse_event(_payload()))
        before = machine_columns()
        row = before.index_by_key["TestCo Churn-1"]
        amended = {"event": "amend_machine", "key": "TestCo Churn-1",
                   "machine": _payload(units_installed=12)["machine"]}
        outcome = apply_event(parse_event(amended))
        assert outcome.applied and outcome.epoch == 2
        after = machine_columns()
        assert after.units_installed[after.index_by_key["TestCo Churn-1"]] \
            == 12.0
        assert before.units_installed[row] != 12.0
        assert find_machine("TestCo Churn-1").units_installed == 12
        assert full_rebuild_parity()["all"]

    def test_amend_baseline_machine_no_stale_path(self):
        """Satellite regression: after a mutation, *no* reader path may
        return pre-mutation values."""
        machine = find_machine("Cray CS6400 (64)")
        before_cols = machine_columns()
        row = before_cols.index_by_key[machine.key]
        before_units = float(before_cols.units_installed[row])
        before_index = assess(machine).index
        amended = dataclasses.replace(
            machine, units_installed=(machine.units_installed or 0) + 500)
        outcome = apply_event(AmendMachine(key=machine.key,
                                           machine=amended))
        assert outcome.applied
        live = find_machine(machine.key)
        assert live.units_installed == (machine.units_installed or 0) + 500
        after_cols = machine_columns()
        after_units = float(
            after_cols.units_installed[after_cols.index_by_key[machine.key]])
        assert after_units != before_units
        assert assess(live).index != before_index
        assert full_rebuild_parity()["all"]

    def test_epoch_strictly_monotonic_across_kinds(self):
        epochs = []
        epochs.append(apply_event(parse_event(_payload())).epoch)
        epochs.append(apply_event(AmendThreshold(
            start_year=1994.1, threshold_mtops=7000.0)).epoch)
        epochs.append(apply_event(parse_event(
            _payload(model="Churn-2"))).epoch)
        assert epochs == [1, 2, 3] and current_epoch() == 3

    def test_reset_restores_baseline(self):
        apply_event(parse_event(_payload()))
        apply_event(AmendThreshold(start_year=1994.1,
                                   threshold_mtops=7000.0))
        reset_catalog()
        assert current_epoch() == 0
        assert threshold_at(1995.0) == 1500.0
        with pytest.raises(CatalogLookupError):
            find_machine("TestCo Churn-1")
        assert full_rebuild_parity()["all"]

    def test_parse_event_rejects_unknown_kinds_and_extra_fields(self):
        with pytest.raises(ValidationError):
            parse_event({"event": "drop_machine", "key": "x"})
        with pytest.raises(ValidationError):
            parse_event({**_payload(), "surprise": 1})
        with pytest.raises(ValidationError):
            parse_event({"event": "amend_threshold", "start_year": 1994.1})


class TestFrontierEdgeCases:
    def test_knife_edge_append_keeps_leader_and_running_max(self):
        """A new machine rating exactly the current frontier max must
        not regress the running max, and the strict-> leader rule keeps
        the incumbent."""
        index = _frontier_index(DEFAULT_WEIGHTS, UNCONTROLLABILITY_LAG_YEARS)
        incumbent = index.leaders[-1]
        probe_year = incumbent.year + UNCONTROLLABILITY_LAG_YEARS + 0.5
        before = lower_bound_uncontrollable(probe_year)
        # "ZZEdge ..." sorts after the incumbent at the same year, so the
        # incumbent stays the leader under the first-at-max rule in both
        # the patched index and a full rebuild.
        clone = dataclasses.replace(incumbent, vendor="ZZEdge",
                                    model="Clone-1")
        outcome = apply_event(AppendMachine(machine=clone))
        assert outcome.applied
        after = lower_bound_uncontrollable(probe_year)
        assert after.mtops == before.mtops
        assert after.machine.key == incumbent.key
        assert full_rebuild_parity()["all"]

    def test_append_above_frontier_advances_running_max(self):
        index = _frontier_index(DEFAULT_WEIGHTS, UNCONTROLLABILITY_LAG_YEARS)
        incumbent = index.leaders[-1]
        probe_year = incumbent.year + UNCONTROLLABILITY_LAG_YEARS + 0.5
        before = lower_bound_uncontrollable(probe_year)
        champ = dataclasses.replace(
            incumbent, vendor="ZZEdge", model="Champ-1",
            quoted_ctp_mtops=before.mtops * 2,
            quoted_peak_mflops=None)
        apply_event(AppendMachine(machine=champ))
        after = lower_bound_uncontrollable(probe_year)
        assert after.mtops == before.mtops * 2
        assert after.machine.key == "ZZEdge Champ-1"
        assert full_rebuild_parity()["all"]


class TestThresholdEraBoundaries:
    def test_amend_inside_bisect_boundaries(self):
        """Amending the 1991.5 era must move exactly the half-open
        [1991.5, 1994.1) span the bisect serves."""
        assert threshold_at(1991.4999) == 160.0
        assert threshold_at(1991.5) == 195.0
        outcome = apply_event(AmendThreshold(start_year=1991.5,
                                             threshold_mtops=250.0))
        assert outcome.applied and current_epoch() == 1
        assert threshold_at(1991.4999) == 160.0
        assert threshold_at(1991.5) == 250.0
        assert threshold_at(1994.0999) == 250.0
        assert threshold_at(1994.1) == 1500.0
        assert full_rebuild_parity()["all"]

    def test_amend_threshold_noop_and_unknown_era(self):
        outcome = apply_event(AmendThreshold(start_year=1994.1,
                                             threshold_mtops=1500.0))
        assert not outcome.applied and current_epoch() == 0
        with pytest.raises(ValidationError):
            apply_event(AmendThreshold(start_year=1993.0,
                                       threshold_mtops=100.0))


class TestInvalidationRegistry:
    def test_invalidate_all_runs_every_hook(self):
        # Hooks register at import time; make sure the store module (the
        # only one not already pulled in transitively) is loaded.
        import repro.store  # noqa: F401

        ran = invalidate_all()
        assert "machines.columns" in ran
        assert "controllability.frontier" in ran
        assert "store.snapshot" in ran
        assert "diffusion.columns.requirements" in ran

    def test_invalidate_for_is_kind_precise(self):
        calls: list[tuple[str, int]] = []
        register_invalidation_hook(
            "test.machine_kinds",
            lambda epoch: calls.append(("machine", epoch)),
            kinds=("append_machine",))
        register_invalidation_hook(
            "test.nuclear_only",
            lambda epoch: calls.append(("nuclear", epoch)))
        try:
            ran = invalidate_for("append_machine", 7)
            assert "test.machine_kinds" in ran
            assert "test.nuclear_only" not in ran
            assert ("machine", 7) in calls and ("nuclear", 7) not in calls
            ran_all = invalidate_all(8)
            assert {"test.machine_kinds", "test.nuclear_only"} <= set(ran_all)
            assert ("nuclear", 8) in calls
        finally:
            assert unregister_invalidation_hook("test.machine_kinds")
            assert unregister_invalidation_hook("test.nuclear_only")

    def test_requirement_matrices_survive_machine_events(self):
        """APPLICATIONS-derived state is catalog-independent: the
        precise path must not purge it."""
        ran = invalidate_for("append_machine", 1)
        assert "diffusion.columns.requirements" not in ran


class TestEpochGuardInterleaving:
    def test_batch_admitted_at_epoch_n_completes_against_it(self):
        """A dispatch in flight under the read guard blocks the event
        writer; the batch's results reflect the admission epoch, and the
        event lands only after the batch drains."""
        from repro.serve.batching import MicroBatcher

        entered = threading.Event()
        release = threading.Event()

        def dispatch(requests):
            entered.set()
            assert release.wait(5.0)
            return [threshold_at(1995.0) for _ in requests]

        batcher = MicroBatcher("epochtest", dispatch, max_batch=4)
        try:
            future = batcher.submit(object())
            assert entered.wait(5.0)
            applier = threading.Thread(target=apply_event, args=(
                AmendThreshold(start_year=1994.1,
                               threshold_mtops=9000.0),))
            applier.start()
            time.sleep(0.1)
            # The writer waits behind the in-flight batch's read guard.
            assert applier.is_alive()
            assert current_epoch() == 0
            release.set()
            assert future.result(timeout=5.0) == 1500.0  # admission value
            applier.join(timeout=5.0)
            assert not applier.is_alive()
            assert current_epoch() == 1
            assert batcher.stats()["last_dispatch_epoch"] == 0
            # The next batch runs entirely post-event.
            assert batcher.submit(object()).result(timeout=5.0) == 9000.0
            assert batcher.stats()["last_dispatch_epoch"] == 1
        finally:
            release.set()
            batcher.stop()


class TestServeEpochConsistency:
    def test_epoch_keyed_cache_and_append_endpoint(self):
        engine = ServiceEngine(ServeConfig(cache_size=64))
        try:
            rate = {"clock_mhz": 100, "word_bits": 64,
                    "processors": 4, "year": 1995.0}
            status, before = engine.handle("rate", rate)
            assert status == 200
            engine.handle("rate", rate)
            assert engine.cache.info()["hits"] == 1

            status, body = engine.handle("catalog_append", parse := _payload())
            assert status == 200
            assert body["applied"] and body["epoch"] == 1
            assert engine.cache.info()["purges"] == 1
            assert len(engine.cache) == 0

            status, body = engine.handle("catalog_append", parse)
            assert status == 200 and not body["applied"]

            status, after = engine.handle("rate", rate)
            assert status == 200 and after == before  # rate is catalog-free
            assert engine.metrics()["serve"]["catalog_epoch"] == 1
            assert "catalog/append" in engine.healthz()["endpoints"]
        finally:
            engine.close()

    def test_threshold_amend_changes_served_rate_verdict(self):
        engine = ServiceEngine(ServeConfig(cache_size=64))
        try:
            rate = {"clock_mhz": 200, "word_bits": 64,
                    "processors": 16, "year": 1995.0}
            _, before = engine.handle("rate", rate)
            event = {"event": "amend_threshold", "start_year": 1994.1,
                     "threshold_mtops": before["ctp_mtops"] * 2}
            status, body = engine.handle("catalog_append", event)
            assert status == 200 and body["applied"]
            _, after = engine.handle("rate", rate)
            assert after["threshold_mtops"] == before["ctp_mtops"] * 2
            assert after["supercomputer"] != before["supercomputer"] \
                or not before["supercomputer"]
        finally:
            engine.close()

    def test_malformed_event_is_structured_400(self):
        engine = ServiceEngine(ServeConfig(cache_size=0))
        try:
            status, body = engine.handle("catalog_append",
                                         {"event": "explode"})
            assert status == 400 and body["error"]["type"] \
                == "ValidationError"
            status, body = engine.handle("catalog_append", [1, 2])
            assert status == 400
        finally:
            engine.close()


class TestLRUCacheEpochPurge:
    def test_purge_below_epoch(self):
        cache = LRUCache(8)
        cache.put((0, "a"), {"v": 1})
        cache.put((1, "a"), {"v": 2})
        cache.put((2, "b"), {"v": 3})
        cache.put("legacy-key", {"v": 4})  # epoch 0 by construction
        purged = cache.purge_below_epoch(2)
        assert purged == 3
        assert cache.get((2, "b")) == {"v": 3}
        assert cache.get((1, "a")) is MISS
        assert cache.get("legacy-key") is MISS
        info = cache.info()
        assert info["purges"] == 3 and info["entries"] == 1

    def test_purge_noop_below_or_at_existing_epochs(self):
        cache = LRUCache(8)
        cache.put((3, "x"), {"v": 1})
        assert cache.purge_below_epoch(3) == 0
        assert cache.get((3, "x")) == {"v": 1}


class TestSnapshotEpochs:
    def test_manifest_records_epoch_and_stale_error_carries_delta(
            self, tmp_path):
        from repro.store import build_snapshot, load_snapshot

        info = build_snapshot(tmp_path / "snap")
        assert info.manifest["epoch"] == 0
        load_snapshot(tmp_path / "snap")

        apply_event(parse_event(_payload()))
        # The event deactivated the snapshot (this process no longer
        # serves from it)...
        from repro.store import active_manifest_hash

        assert active_manifest_hash() is None
        # ...and re-loading the now-stale artifact reports how many
        # epochs the live catalog has moved past it.
        with pytest.raises(SnapshotStaleError) as excinfo:
            load_snapshot(tmp_path / "snap")
        assert excinfo.value.context["epoch_delta"] == 1

    def test_verify_active_snapshot_noop_without_snapshot(self):
        from repro.store import verify_active_snapshot

        verify_active_snapshot()  # must not raise

    def test_snapshot_after_events_round_trips(self, tmp_path):
        from repro.store import build_snapshot, clear_store_caches, \
            load_snapshot

        apply_event(parse_event(_payload()))
        info = build_snapshot(tmp_path / "snap")
        assert info.manifest["epoch"] == 1
        clear_store_caches()
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.manifest_hash == info.manifest_hash
        assert find_machine("TestCo Churn-1").ctp_mtops == 1800.0


class TestPreforkStaleFastFailure:
    def test_stale_worker_fails_fleet_with_diagnosis(self, tmp_path):
        from repro.machines import catalog as machine_catalog
        from repro.serve.prefork import PreforkServer
        from repro.store import build_snapshot, load_snapshot

        build_snapshot(tmp_path / "snap")
        load_snapshot(tmp_path / "snap")
        # Skew the catalog *without* the event path, so the snapshot
        # stays active while the live hash diverges — exactly the state
        # a worker must refuse to serve from.
        clone = dataclasses.replace(
            machine_catalog.COMMERCIAL_SYSTEMS[0],
            vendor="SkewCo", model="X1")
        machine_catalog.append_machine_entry(clone)
        with pytest.raises(SnapshotStaleError) as excinfo:
            PreforkServer(ServeConfig(port=0),
                          n_workers=2).start(ready_timeout=30.0)
        context = excinfo.value.context
        assert context["snapshot_hash"] != context["live_hash"]
        assert context["snapshot_hash"] and context["live_hash"]
        assert "repro snapshot --output" in context["rebuild"]
        assert "rebuild" in str(excinfo.value)


class TestCatalogCLI:
    def test_apply_local_events_file(self, tmp_path, capsys):
        from repro.cli import main

        events_file = tmp_path / "events.json"
        events_file.write_text(json.dumps([
            _payload(),
            {"event": "amend_threshold", "start_year": 1994.1,
             "threshold_mtops": 5000.0},
        ]))
        assert main(["catalog", "apply", str(events_file)]) == 0
        out = capsys.readouterr().out
        assert "append_machine TestCo Churn-1: applied, epoch 1" in out
        assert "amend_threshold 1994.1: applied, epoch 2" in out
        assert "catalog epoch is now 2" in out
        assert threshold_at(1995.0) == 5000.0

    def test_apply_rejects_bad_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["catalog", "apply", str(bad)]) != 0
        assert "error: events file is not valid JSON" \
            in capsys.readouterr().out
