"""Min-of-k wall-clock timing with warmup.

``time_workload`` runs a no-argument callable ``warmup`` times unmeasured
(to populate caches, JIT the first numpy dispatch, fault in pages), then
``repeats`` measured times, and reports the *minimum* — the standard
low-noise estimator for a deterministic workload (mean and max only add
scheduler noise).  ``time_pair`` does the same for a baseline and an
optimised workload in alternating runs, so a burst of host load lands on
both sides of a speedup rather than on one side's whole block.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.obs.errors import ValidationError
from repro.obs.trace import trace

__all__ = ["Timing", "time_pair", "time_workload"]


@dataclass(frozen=True)
class Timing:
    """One timed workload."""

    name: str
    best_seconds: float
    mean_seconds: float
    repeats: int
    warmup: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "repeats": self.repeats,
            "warmup": self.warmup,
        }


def _check_counts(repeats: int, warmup: int) -> None:
    if repeats < 1:
        raise ValidationError("repeats must be >= 1",
                              context={"got": repeats, "valid": ">= 1"})
    if warmup < 0:
        raise ValidationError("warmup must be >= 0",
                              context={"got": warmup, "valid": ">= 0"})


def time_workload(
    fn: Callable[[], object],
    name: str,
    repeats: int = 5,
    warmup: int = 1,
) -> Timing:
    """Time ``fn`` (min over ``repeats`` runs after ``warmup`` unmeasured
    runs)."""
    _check_counts(repeats, warmup)
    with trace("time_workload", name=name, repeats=repeats, warmup=warmup):
        for _ in range(warmup):
            fn()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return Timing(
        name=name,
        best_seconds=min(times),
        mean_seconds=sum(times) / len(times),
        repeats=repeats,
        warmup=warmup,
    )


def time_pair(
    baseline: Callable[[], object],
    optimised: Callable[[], object],
    repeats: int = 9,
    warmup: int = 1,
) -> tuple[Timing, Timing]:
    """Time ``baseline`` and ``optimised`` alternately, min-of-k on both.

    Each of ``repeats`` rounds runs the baseline, then the optimised
    workload, after ``warmup`` unmeasured rounds.  Returns the
    ``("scalar", "batch")`` timings a bench row records.
    """
    _check_counts(repeats, warmup)
    pair = (baseline, optimised)
    times: tuple[list[float], list[float]] = ([], [])
    with trace("time_pair", repeats=repeats, warmup=warmup):
        for _ in range(warmup):
            for fn in pair:
                fn()
        for _ in range(repeats):
            for fn, out in zip(pair, times):
                start = time.perf_counter()
                fn()
                out.append(time.perf_counter() - start)
    return tuple(
        Timing(name=name, best_seconds=min(ts),
               mean_seconds=sum(ts) / len(ts), repeats=repeats,
               warmup=warmup)
        for name, ts in zip(("scalar", "batch"), times))
