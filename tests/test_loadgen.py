"""The open-loop load generator: determinism, honesty, knee detection;
plus the interleaved pair timer the speedup rows use.

The harness's whole claim is *coordinated-omission avoidance*: latency
runs from the scheduled Poisson arrival, so a server that falls behind
is charged for the queueing it caused instead of quietly thinning the
offered load.  These tests pin that with a deliberately rate-limited
``send`` (a lock held for a fixed service time), plus the deterministic
schedule contract and the knee-detection rules on synthetic results.

Real sleeps here are bounded: the slow-server run offers ~2x a ~100 rps
capacity for 0.25 s, so the whole module stays well under a second of
wall clock beyond interpreter overhead.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.obs.errors import ValidationError
from repro.perf.harness import time_pair
from repro.perf.loadgen import (
    LoadgenResult,
    arrival_offsets,
    open_loop_run,
    rate_sweep,
    saturation_knee,
)


def _result(offered: float, achieved: float, errors: int = 0,
            scheduled: float | None = None) -> LoadgenResult:
    return LoadgenResult(
        offered_rps=offered,
        scheduled_rps=offered if scheduled is None else scheduled,
        achieved_rps=achieved, duration_s=1.0,
        sent=int(offered), completed=int(achieved), errors=errors,
        p50_ms=1.0, p95_ms=2.0, p99_ms=3.0, max_ms=4.0)


class TestArrivals:
    def test_deterministic_per_seed(self):
        assert np.array_equal(arrival_offsets(100.0, 50, seed=7),
                              arrival_offsets(100.0, 50, seed=7))
        assert not np.array_equal(arrival_offsets(100.0, 50, seed=7),
                                  arrival_offsets(100.0, 50, seed=8))

    def test_offsets_increase_at_roughly_the_rate(self):
        offsets = arrival_offsets(200.0, 2000, seed=0)
        assert np.all(np.diff(offsets) >= 0)
        # Mean gap of 2000 exponential draws sits within 10% of 1/rate.
        assert offsets[-1] / 2000 == pytest.approx(1 / 200.0, rel=0.1)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValidationError):
            arrival_offsets(0.0, 10)
        with pytest.raises(ValidationError):
            arrival_offsets(100.0, 0)


class TestOpenLoopRun:
    def test_fast_server_sustains(self):
        result = open_loop_run(lambda p: True, [{"x": 1}],
                               rate_rps=400.0, duration_s=0.2, seed=0)
        assert result.sent == result.completed == 80
        assert result.errors == 0
        assert result.sustained
        assert result.p50_ms <= result.p95_ms <= result.p99_ms
        assert result.p99_ms <= result.max_ms

    def test_payloads_cycle_evenly(self):
        seen = []
        lock = threading.Lock()

        def send(payload):
            with lock:
                seen.append(payload["i"])
            return True

        payloads = [{"i": i} for i in range(3)]
        result = open_loop_run(send, payloads, rate_rps=500.0,
                               duration_s=0.05, seed=0)
        assert result.sent == len(seen) == 25
        # 25 requests over a 3-payload cycle: 9/8/8.
        assert sorted(seen.count(i) for i in range(3)) == [8, 8, 9]

    def test_falsy_and_raising_sends_count_as_errors(self):
        calls = iter(range(1000))

        def flaky(payload):
            n = next(calls)
            if n % 3 == 0:
                return False
            if n % 3 == 1:
                raise RuntimeError("boom")
            return True

        result = open_loop_run(flaky, [{}], rate_rps=300.0,
                               duration_s=0.1, seed=0)
        assert result.sent == 30
        assert result.errors == 20
        assert result.completed == 10
        assert not result.sustained

    def test_slow_server_charged_from_scheduled_arrival(self):
        # A lock held ~5 ms per request caps the server near 200 rps;
        # offering ~400 rps must show achieved < scheduled and latency
        # well above the 5 ms service time (the queueing is charged).
        gate = threading.Lock()

        def slow(payload):
            with gate:
                time.sleep(0.005)
            return True

        result = open_loop_run(slow, [{}], rate_rps=400.0,
                               duration_s=0.25, seed=0)
        assert result.errors == 0
        assert result.achieved_rps < 0.9 * result.scheduled_rps
        assert not result.sustained
        assert result.p95_ms > 5.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValidationError):
            open_loop_run(lambda p: True, [], rate_rps=10.0)
        with pytest.raises(ValidationError):
            open_loop_run(lambda p: True, [{}], rate_rps=10.0,
                          duration_s=0.0)


class TestSweepAndKnee:
    def test_sweep_sorts_rates_ascending(self):
        results = rate_sweep(lambda p: True, [{}],
                             rates_rps=[300.0, 100.0, 200.0],
                             duration_s=0.05, seed=0)
        assert [r.offered_rps for r in results] == [100.0, 200.0, 300.0]

    def test_knee_is_first_unsustained_rate(self):
        results = [_result(100.0, 99.0), _result(200.0, 150.0),
                   _result(400.0, 160.0)]
        assert saturation_knee(results) == 200.0

    def test_errors_mark_the_knee_even_at_full_rate(self):
        results = [_result(100.0, 100.0), _result(200.0, 200.0, errors=3)]
        assert saturation_knee(results) == 200.0

    def test_all_sustained_means_knee_beyond_sweep(self):
        results = [_result(100.0, 99.0), _result(200.0, 195.0)]
        assert saturation_knee(results) is None

    def test_knee_judged_against_realized_schedule(self):
        # The Poisson draw landed 15% hot (scheduled 115 for nominal
        # 100); achieving 104 of 115 would fail a naive achieved/offered
        # test but is a sustained realized schedule.
        hot = _result(100.0, 104.0, scheduled=115.0)
        assert hot.sustained
        assert saturation_knee([hot]) is None

    def test_tolerance_validated(self):
        with pytest.raises(ValidationError):
            saturation_knee([], tolerance=0.0)
        with pytest.raises(ValidationError):
            saturation_knee([], tolerance=1.5)

    def test_live_knee_detected_on_rate_limited_server(self):
        gate = threading.Lock()

        def slow(payload):
            with gate:
                time.sleep(0.004)
            return True

        results = rate_sweep(slow, [{}], rates_rps=[50.0, 450.0],
                             duration_s=0.2, seed=0)
        assert results[0].sustained
        assert saturation_knee(results) == 450.0


class TestResultShape:
    def test_as_dict_round_trips_every_field(self):
        result = _result(100.0, 99.0)
        payload = result.as_dict()
        assert payload["offered_rps"] == 100.0
        assert payload["scheduled_rps"] == 100.0
        assert set(payload) == {
            "offered_rps", "scheduled_rps", "achieved_rps", "duration_s",
            "sent", "completed", "errors", "p50_ms", "p95_ms", "p99_ms",
            "max_ms"}


class TestTimePair:
    def test_alternates_after_warmup_and_takes_min(self):
        calls: list[str] = []
        scalar, batch = time_pair(lambda: calls.append("a"),
                                  lambda: calls.append("b"),
                                  repeats=3, warmup=1)
        assert calls == ["a", "b"] * 4
        assert (scalar.name, batch.name) == ("scalar", "batch")
        for timing in (scalar, batch):
            assert (timing.repeats, timing.warmup) == (3, 1)
            assert 0 <= timing.best_seconds <= timing.mean_seconds

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            time_pair(lambda: None, lambda: None, repeats=0)
        with pytest.raises(ValidationError):
            time_pair(lambda: None, lambda: None, warmup=-1)
