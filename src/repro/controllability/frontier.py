"""The uncontrollability frontier: the lower bound of Chapter 3.

Two rules turn per-product assessments into a time series:

1. **Classification** — only products whose composite index falls below the
   uncontrollable threshold join the frontier population (volume SMPs and
   workstations; never vendor-direct machine-room systems).
2. **The two-year lag** — "such systems become uncontrollable as they reach
   the end of their product cycle, approximately two years after they are
   first shipped" — so a product introduced at year *t* joins the
   population at *t + 2*.

Products are rated at their *maximum* configuration because field
upgradability makes the entry configuration meaningless for control
purposes.  Beyond catalog coverage the frontier is projected along the SMP
top-of-line trend, shifted right by the same lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence

import numpy as np

from repro._util import check_year
from repro.controllability.index import (
    Classification,
    ControllabilityWeights,
    DEFAULT_WEIGHTS,
    assess,
)
from repro.catalog.registry import register_invalidation_hook
from repro.machines import catalog as _catalog
from repro.machines.catalog import max_config_mtops
from repro.machines.spec import MachineSpec
from repro.obs.errors import TrendFitError
from repro.obs.trace import counter_inc, trace
from repro.trends.curves import ExponentialTrend, fit_exponential
from repro.trends.smp import smp_trend

__all__ = [
    "UNCONTROLLABILITY_LAG_YEARS",
    "FrontierPoint",
    "uncontrollable_population",
    "lower_bound_uncontrollable",
    "frontier_series",
    "frontier_trend",
    "projected_frontier_mtops",
    "projected_frontier_series",
    "clear_frontier_indexes",
    "frontier_index_info",
]

#: "...approximately two years after they are first shipped" (Chapter 3).
UNCONTROLLABILITY_LAG_YEARS = 2.0


@dataclass(frozen=True)
class FrontierPoint:
    """The frontier value at one date, with its defining machine."""

    year: float
    mtops: float
    machine: MachineSpec | None


@lru_cache(maxsize=256)
def _classified_population(
    weights: ControllabilityWeights,
    include_marginal: bool,
) -> tuple[MachineSpec, ...]:
    """Catalog machines whose composite index qualifies under ``weights``,
    sorted by (year, key).  One assessment pass per distinct weighting —
    the year/lag filter is applied at query time, so every year on a grid
    shares this work."""
    allowed = {Classification.UNCONTROLLABLE}
    if include_marginal:
        allowed.add(Classification.MARGINAL)
    return tuple(
        m
        for m in sorted(_catalog.COMMERCIAL_SYSTEMS,
                        key=lambda m: (m.year, m.key))
        if assess(m, weights).classification in allowed
    )


@dataclass(frozen=True)
class _FrontierIndex:
    """Precomputed frontier: qualify dates, running-max ratings, and the
    machine that set each plateau.  A frontier query is one bisect.

    Machine events drop every index; the next query rebuilds it from the
    live catalog (one classification pass and one accumulate).
    """

    qualify_years: np.ndarray       # sorted: machine year + lag
    running_max: np.ndarray         # running max of max-config ratings
    leaders: tuple[MachineSpec, ...]  # machine defining the plateau


def clear_frontier_indexes() -> None:
    """Drop memoized frontier indexes (tests and ablation hygiene)."""
    _frontier_index.cache_clear()
    _classified_population.cache_clear()


# Machine events drop every memoized index; each rebuilds lazily on its
# next query.
register_invalidation_hook(
    "controllability.frontier", lambda epoch: clear_frontier_indexes(),
    kinds=("append_machine", "amend_machine"))


@lru_cache(maxsize=256)
def _frontier_index(
    weights: ControllabilityWeights,
    lag_years: float,
) -> _FrontierIndex:
    counter_inc("frontier.index_builds")
    machines = _classified_population(weights, False)
    qualify = np.array([m.year + lag_years for m in machines])
    ratings = [max_config_mtops(m) for m in machines]
    running = np.maximum.accumulate(np.array(ratings)) if machines else np.empty(0)
    leaders: list[MachineSpec] = []
    best = 0.0
    leader: MachineSpec | None = None
    for m, rating in zip(machines, ratings):
        if rating > best:
            best = rating
            leader = m
        leaders.append(leader)
    qualify.setflags(write=False)
    running.setflags(write=False)
    return _FrontierIndex(
        qualify_years=qualify,
        running_max=running,
        leaders=tuple(leaders),
    )


def uncontrollable_population(
    year: float,
    weights: ControllabilityWeights = DEFAULT_WEIGHTS,
    lag_years: float = UNCONTROLLABILITY_LAG_YEARS,
    include_marginal: bool = False,
) -> list[MachineSpec]:
    """Catalog machines that are uncontrollable at ``year``.

    A machine qualifies when its composite index classifies it
    UNCONTROLLABLE (optionally MARGINAL) and it has been on the market for
    at least ``lag_years``.
    """
    check_year(year, "year")
    return [
        m for m in _classified_population(weights, include_marginal)
        if m.year + lag_years <= year
    ]


def lower_bound_uncontrollable(
    year: float,
    weights: ControllabilityWeights = DEFAULT_WEIGHTS,
    lag_years: float = UNCONTROLLABILITY_LAG_YEARS,
) -> FrontierPoint:
    """Performance of the most powerful uncontrollable system at ``year``.

    Each qualifying product is rated at its maximum configuration.  Years
    before any product qualifies get a zero frontier (everything was
    controllable in, say, 1980).
    """
    check_year(year, "year")
    counter_inc("frontier.bisect_lookups")
    index = _frontier_index(weights, lag_years)
    i = int(np.searchsorted(index.qualify_years, year, side="right")) - 1
    if i < 0:
        return FrontierPoint(year=year, mtops=0.0, machine=None)
    return FrontierPoint(
        year=year,
        mtops=float(index.running_max[i]),
        machine=index.leaders[i],
    )


def frontier_series(
    years: Sequence[float] | np.ndarray,
    weights: ControllabilityWeights = DEFAULT_WEIGHTS,
    lag_years: float = UNCONTROLLABILITY_LAG_YEARS,
) -> np.ndarray:
    """Frontier values on a year grid — one bisect per grid point against
    the cached running-max index (no per-year catalog re-assessment)."""
    grid = np.asarray(years, dtype=float)
    # Tags are attached through the yielded span (not trace kwargs) so the
    # profiling-off path skips the kwargs-dict construction: this function
    # runs in ~15us and the <5% instrumentation budget is ~100ns-tight.
    with trace("frontier.series") as span:
        if span is not None:
            span.tags["points"] = int(grid.size)
        counter_inc("frontier.grid_points", grid.size)
        index = _frontier_index(weights, lag_years)
        idx = np.searchsorted(index.qualify_years, grid, side="right") - 1
        out = np.zeros(grid.shape)
        mask = idx >= 0
        if index.running_max.size:
            out[mask] = index.running_max[idx[mask]]
        return out


def frontier_trend(
    fit_from: float = 1992.0,
    fit_through: float = 1999.9,
    weights: ControllabilityWeights = DEFAULT_WEIGHTS,
    lag_years: float = UNCONTROLLABILITY_LAG_YEARS,
) -> ExponentialTrend:
    """Exponential fit of the frontier over its catalog-supported span."""
    years = np.arange(fit_from, fit_through, 0.25)
    values = frontier_series(years, weights, lag_years)
    mask = values > 0
    if mask.sum() < 2:
        raise TrendFitError(
            "frontier has fewer than two positive samples to fit",
            context={"fit_from": fit_from, "fit_through": fit_through,
                     "positive_samples": int(mask.sum()), "valid": ">= 2"},
        )
    return fit_exponential(years[mask], values[mask])


def projected_frontier_mtops(
    year: float,
    fit_through: float = 1995.5,
    lag_years: float = UNCONTROLLABILITY_LAG_YEARS,
) -> float:
    """Frontier projected beyond catalog coverage.

    Uses the SMP top-of-line trend fitted through ``fit_through`` (what the
    study's authors could see), shifted right by the uncontrollability lag.
    Within catalog coverage prefer :func:`lower_bound_uncontrollable`.
    """
    check_year(year, "year")
    return float(smp_trend(fit_through).shifted(lag_years).value(year))


def projected_frontier_series(
    years: Sequence[float] | np.ndarray,
    fit_through: float = 1995.5,
    lag_years: float = UNCONTROLLABILITY_LAG_YEARS,
) -> np.ndarray:
    """Projected frontier over a year grid: the SMP trend is fitted once
    and evaluated on the whole grid, instead of refitting per year as
    repeated :func:`projected_frontier_mtops` calls would."""
    grid = np.asarray(years, dtype=float)
    if grid.size == 0:
        return np.zeros(grid.shape)
    return np.asarray(smp_trend(fit_through).shifted(lag_years).value(grid))


def frontier_index_info() -> dict[str, int]:
    """Introspection for :func:`repro.obs.metrics_snapshot`: how many
    weighting-specific frontier indexes are cached, and how hard the
    bisect path has been exercised."""
    from repro.obs.trace import counters

    stats = counters()
    cache = _frontier_index.cache_info()
    return {
        "cached_indexes": int(cache.currsize),
        "index_builds": int(stats.get("frontier.index_builds", 0)),
        "bisect_lookups": int(stats.get("frontier.bisect_lookups", 0)),
        "grid_points": int(stats.get("frontier.grid_points", 0)),
    }
