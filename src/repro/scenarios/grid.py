"""The (scenario x threshold x year) tensor engine.

:func:`evaluate_scenario_grid` lifts the Chapter-5 policy grid from "one
world, N policies" to "M worlds x N policies": every world's scorecard
columns are produced by the *same* broadcasts
:func:`repro.diffusion.policy_grid._grid_counts` runs, with the scenario
knobs applied as **column-level overlays** —

========================  =================================================
knob                      patched column
========================  =================================================
``decontrol``             in-force threshold series (scenario-local bisect;
                          the global ``THRESHOLD_HISTORY`` is never touched)
``frontier_shock``        frontier running-max, scaled by the piecewise
                          multiplier curve *after* the shared bisect index
``drift_rate``/``floor``  requirement matrix, rebuilt with the scenario's
                          decay parameters (same Python-scalar ``pow``)
========================  =================================================

— so no global state is mutated, and the historical-identity world takes
the *literal* ``_grid_counts`` + ``requirement_matrix`` path, making its
slice of the tensor bit-exact against
:func:`repro.diffusion.policy_grid.evaluate_policy_grid` by construction
rather than by testing alone (the tests assert it anyway).

Epoch discipline: the whole tensor build runs under the catalog read
guard (writers queue behind it — an ``amend_threshold`` mid-build cannot
produce a mixed-epoch tensor), the build epoch is recorded on the
:class:`ScenarioGrid`, and every read accessor re-checks it, raising
:class:`~repro.obs.errors.ScenarioEpochError` across an epoch change.
The world-tensor cache and scenario drift matrices are registered in the
invalidation registry under the ``"scenarios"`` hook (stale under every
event kind), so ``reset_catalog()``'s invalidate-all sweep and the
precise per-event path both clear them.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.apps.requirements import (
    DRIFT_FLOOR_FRACTION,
    DRIFT_RATE_PER_YEAR,
    ApplicationRequirement,
)
from repro.catalog.registry import (
    EVENT_KINDS,
    current_epoch,
    read_guard,
    register_invalidation_hook,
)
from repro.controllability.frontier import frontier_series
from repro.diffusion.columns import application_columns, requirement_matrix
from repro.diffusion.policy import PolicyEffectiveness
from repro.diffusion.policy_grid import (
    _SLAB_THRESHOLDS,
    _grid_counts,
    _validated_axes,
    PolicyGrid,
)
from repro.machines.columns import machine_columns
from repro.market.installed import installed_units_above_batch
from repro.obs.errors import ScenarioEpochError, ValidationError
from repro.obs.trace import counter_inc, trace
from repro.scenarios.spec import Scenario

__all__ = [
    "ScenarioGrid",
    "evaluate_scenario_grid",
    "clear_scenario_caches",
]

#: Memoized scenario-drift requirement matrices, keyed
#: ``(rate, floor, years)`` — the scenario-layer sibling of
#: ``requirement_matrix``'s lru_cache.
_DRIFT_MATRICES: dict[tuple[float, float, tuple[float, ...]], np.ndarray] = {}

#: Completed world tensors, keyed
#: ``(epoch, scenarios, thresholds, years)``.  Bounded FIFO: repeated
#: serve batches over the same axes hit; catalog events purge the lot.
_GRID_CACHE: dict[tuple, "ScenarioGrid"] = {}
_GRID_CACHE_MAX = 32


def clear_scenario_caches() -> None:
    """Drop every cached world tensor and scenario drift matrix."""
    _DRIFT_MATRICES.clear()
    _GRID_CACHE.clear()


# Any catalog mutation stales a world tensor: machines feed the frontier
# and uncontrollable counts, thresholds feed the historical in-force
# series — so the hook is stale under every event kind, and also runs on
# the invalidate_all sweep reset_catalog() performs.
register_invalidation_hook(
    "scenarios", lambda epoch: clear_scenario_caches(), kinds=EVENT_KINDS)


def _scenario_requirements(
    rate: float, floor: float, years_key: tuple[float, ...]
) -> np.ndarray:
    """Requirement matrix under a scenario drift regime.

    The exact loop of
    :func:`repro.diffusion.columns.requirement_matrix` with the
    scenario's ``(rate, floor)`` in place of the paper's constants —
    Python-scalar ``pow`` per distinct elapsed, never a vectorized
    ``**`` — so the historical parameters reproduce the historical
    matrix bit for bit (asserted in tests, relied on nowhere).
    """
    key = (rate, floor, years_key)
    cached = _DRIFT_MATRICES.get(key)
    if cached is not None:
        return cached
    counter_inc("scenarios.requirement_builds")
    apps, base, firsts = application_columns()
    decay = 1.0 - rate
    factors: dict[float, float] = {}
    out = np.empty((len(apps), len(years_key)))
    for a, first in enumerate(float(f) for f in firsts):
        for y, year in enumerate(years_key):
            elapsed = max(0.0, year - first)
            factor = factors.get(elapsed)
            if factor is None:
                factor = factors[elapsed] = max(decay ** elapsed, floor)
            out[a, y] = base[a] * factor
    out.setflags(write=False)
    _DRIFT_MATRICES[key] = out
    return out


def _world_columns(
    scenario: Scenario, t: np.ndarray, years_key: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           np.ndarray]:
    """One world's grid arrays: ``(frontier, requirements, protected,
    illusory, burden, uncontrollable)``.

    The historical identity delegates to the existing engine outright;
    overlay worlds re-run the same broadcasts against patched columns.
    """
    if scenario.is_historical:
        frontier, protected, illusory, burden, uncontrollable = (
            _grid_counts(t, years_key))
        return (frontier, requirement_matrix(years_key), protected,
                illusory, burden, uncontrollable)

    y = np.asarray(years_key, dtype=float)
    frontier = frontier_series(y) * scenario.frontier_multipliers(y)
    if scenario.drift_rate is None and scenario.drift_floor is None:
        requirements = requirement_matrix(years_key)
    else:
        rate = (DRIFT_RATE_PER_YEAR if scenario.drift_rate is None
                else scenario.drift_rate)
        floor = (DRIFT_FLOOR_FRACTION if scenario.drift_floor is None
                 else scenario.drift_floor)
        requirements = _scenario_requirements(rate, floor, years_key)

    above_frontier = requirements >= frontier[None, :]
    protected = np.empty((t.size, y.size), dtype=np.int64)
    covered_total = np.empty_like(protected)
    for a in range(0, t.size, _SLAB_THRESHOLDS):
        slab = t[a:a + _SLAB_THRESHOLDS]
        covered = requirements[None, :, :] >= slab[:, None, None]
        protected[a:a + _SLAB_THRESHOLDS] = (
            covered & above_frontier[None, :, :]).sum(axis=1)
        covered_total[a:a + _SLAB_THRESHOLDS] = covered.sum(axis=1)
    illusory = covered_total - protected

    # Burden against the *shocked* frontier: the installed suffix tables
    # are world-independent (no knob patches the machine catalog), only
    # the frontier cut point moves.
    burden = np.empty((t.size, y.size))
    for j, year in enumerate(years_key):
        units_above = installed_units_above_batch(t, year) if t.size else \
            np.empty(0)
        units_frontier = (
            float(installed_units_above_batch([frontier[j]], year)[0])
            if frontier[j] > 0.0 else 0.0
        )
        raw = units_above - units_frontier
        burden[:, j] = np.where(
            t < frontier[j], np.maximum(raw, 0.0), 0.0)

    cols = machine_columns()
    sub = cols.uncontrollable
    ratings = cols.max_config_mtops[sub]
    intros = cols.intro_years[sub]
    covered_m = (ratings[None, :] >= t[:, None]).astype(np.int64)
    available = (intros[:, None] <= y[None, :]).astype(np.int64)
    uncontrollable = covered_m @ available
    return frontier, requirements, protected, illusory, burden, \
        uncontrollable


def _world_slab(
    scenarios: tuple[Scenario, ...],
    thresholds_key: tuple[float, ...],
    years_key: tuple[float, ...],
) -> tuple[np.ndarray, ...]:
    """Every world's scorecard columns, stacked along the world axis.

    Each world is built on its own from the shared per-year quantities
    (frontier index, suffix tables, requirement matrices), so a world's
    slice does not depend on which other worlds share the call.
    """
    t = np.asarray(thresholds_key, dtype=float)
    parts = [_world_columns(s, t, years_key) for s in scenarios]
    return tuple(np.stack([p[k] for p in parts]) for k in range(6))


@dataclass(frozen=True)
class ScenarioGrid:
    """Chapter-5 scorecards for every (scenario, threshold, year) cell.

    World ``w`` is ``scenarios[w]``; the count/burden tensors are indexed
    ``[w, i, j]`` for ``thresholds[i]`` at ``years[j]``.  All arrays are
    read-only, and **every accessor re-checks the catalog epoch**: a grid
    built at epoch N raises :class:`ScenarioEpochError` once any catalog
    event has moved the world past N.
    """

    scenarios: tuple[Scenario, ...]
    thresholds: np.ndarray
    years: np.ndarray
    #: Per-world frontier series ``(n_worlds, n_years)`` (shock applied).
    frontier_mtops: np.ndarray
    #: Per-world requirement matrices ``(n_worlds, n_apps, n_years)``.
    requirements: np.ndarray = field(repr=False)
    protected_counts: np.ndarray
    illusory_counts: np.ndarray
    burden_units: np.ndarray
    uncontrollable_counts: np.ndarray
    #: Credibility of every candidate threshold: ``t >= frontier``.
    credible: np.ndarray
    #: The threshold each world's own timeline imposes per year (0.0
    #: before the world's first era).
    in_force_mtops: np.ndarray
    #: Whether the in-force threshold is itself credible (and exists).
    in_force_credible: np.ndarray
    #: Catalog epoch the tensor was evaluated under.
    epoch: int = field(default=0, compare=False)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.scenarios), int(self.thresholds.size),
                int(self.years.size))

    def _check_epoch(self) -> None:
        live = current_epoch()
        if live != self.epoch:
            raise ScenarioEpochError(
                "scenario grid was built under an earlier catalog epoch; "
                "re-evaluate before reading",
                context={"built_at": self.epoch, "current": live},
            )

    def world_index(self, scenario: Scenario | str) -> int:
        """The world axis position of ``scenario`` (by value or name)."""
        self._check_epoch()
        for w, s in enumerate(self.scenarios):
            if s == scenario or s.name == scenario:
                return w
        name = scenario if isinstance(scenario, str) else scenario.name
        raise ValidationError(
            f"scenario {name!r} is not on this grid",
            context={"got": name,
                     "valid": [s.name for s in self.scenarios]},
        )

    def result_at(self, w: int, i: int, j: int) -> PolicyEffectiveness:
        """The exact scalar scorecard at one tensor cell.

        Same reconstruction as :meth:`PolicyGrid.result_at`, against
        world ``w``'s requirement and frontier columns.
        """
        self._check_epoch()
        threshold = float(self.thresholds[i])
        year = float(self.years[j])
        frontier = float(self.frontier_mtops[w, j])
        apps, _base, _firsts = application_columns()
        column = self.requirements[w, :, j]
        protected: list[ApplicationRequirement] = []
        illusory: list[ApplicationRequirement] = []
        for a, app in enumerate(apps):
            requirement = float(column[a])
            if requirement < threshold:
                continue
            if requirement >= frontier:
                protected.append(app)
            else:
                illusory.append(app)
        cols = machine_columns()
        uncontrollable_covered = tuple(
            m for k, m in enumerate(cols.machines)
            if cols.intro_years[k] <= year
            and cols.max_config_mtops[k] >= threshold
            and cols.uncontrollable[k]
        )
        return PolicyEffectiveness(
            year=year,
            threshold_mtops=threshold,
            frontier_mtops=frontier,
            protected_applications=tuple(protected),
            illusory_applications=tuple(illusory),
            burden_units=float(self.burden_units[w, i, j]),
            uncontrollable_covered_systems=uncontrollable_covered,
        )

    def as_policy_grid(self, w: int) -> PolicyGrid:
        """World ``w``'s slice repackaged as a :class:`PolicyGrid`.

        For the historical world this *is* the grid
        ``evaluate_policy_grid`` returns (bit for bit); for overlay
        worlds it is the grid that world's columns imply, so every
        downstream ``PolicyGrid`` consumer works per world unchanged.
        """
        self._check_epoch()
        return PolicyGrid(
            thresholds=self.thresholds,
            years=self.years,
            frontier_mtops=self.frontier_mtops[w],
            requirements=self.requirements[w],
            protected_counts=self.protected_counts[w],
            illusory_counts=self.illusory_counts[w],
            burden_units=self.burden_units[w],
            uncontrollable_counts=self.uncontrollable_counts[w],
            credible=self.credible[w],
            epoch=self.epoch,
        )

    def divergence_year(self, w: int, baseline: int = 0) -> float | None:
        """First grid year where world ``w`` differs from ``baseline``
        in any column (frontier, requirements, in-force threshold, or
        any scorecard count at any candidate threshold); ``None`` when
        the worlds agree everywhere on the grid."""
        self._check_epoch()
        differs = (
            (self.frontier_mtops[w] != self.frontier_mtops[baseline])
            | (self.in_force_mtops[w] != self.in_force_mtops[baseline])
            | (self.requirements[w] != self.requirements[baseline]).any(
                axis=0)
            | (self.protected_counts[w]
               != self.protected_counts[baseline]).any(axis=0)
            | (self.illusory_counts[w]
               != self.illusory_counts[baseline]).any(axis=0)
            | (self.burden_units[w]
               != self.burden_units[baseline]).any(axis=0)
            | (self.uncontrollable_counts[w]
               != self.uncontrollable_counts[baseline]).any(axis=0)
        )
        hits = np.flatnonzero(differs)
        return float(self.years[hits[0]]) if hits.size else None

    def credibility_loss_year(self, w: int) -> float | None:
        """First grid year where world ``w``'s own in-force threshold
        sits below that world's frontier — the moment its control regime
        stops being credible; ``None`` if it never does on this grid."""
        self._check_epoch()
        lost = (self.in_force_mtops[w] > 0.0) & ~self.in_force_credible[w]
        hits = np.flatnonzero(lost)
        return float(self.years[hits[0]]) if hits.size else None

    def burden_delta(self, w: int, baseline: int = 0) -> float:
        """Total licensing burden of world ``w`` minus ``baseline``,
        summed over every (threshold, year) cell — positive means the
        world licenses more units without security benefit."""
        self._check_epoch()
        return float(self.burden_units[w].sum()
                     - self.burden_units[baseline].sum())


def evaluate_scenario_grid(
    scenarios: Sequence[Scenario],
    thresholds: Sequence[float] | np.ndarray,
    years: Sequence[float] | np.ndarray,
    _caller_holds_guard: bool = False,
) -> ScenarioGrid:
    """Evaluate the full (scenario x threshold x year) tensor.

    The build holds the catalog read guard end to end (writers queue
    until the tensor is complete), so every world is computed against
    one consistent epoch, recorded on the result.

    ``_caller_holds_guard`` is for dispatch paths that already hold the
    read guard (the serve MicroBatcher): the guard is **not** reentrant,
    so re-acquiring it under a waiting writer would deadlock.
    """
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ValidationError(
            "scenarios must be non-empty",
            context={"got": 0, "valid": ">= 1 scenario"},
        )
    for s in scenarios:
        if not isinstance(s, Scenario):
            raise ValidationError(
                "scenarios must be Scenario instances",
                context={"got": type(s).__name__, "valid": "Scenario"},
            )
    if len(set(scenarios)) != len(scenarios):
        raise ValidationError(
            "scenarios must be distinct",
            context={"got": [s.name for s in scenarios],
                     "valid": "no duplicate worlds"},
        )
    t, y = _validated_axes(thresholds, years)
    thresholds_key = tuple(float(v) for v in t)
    years_key = tuple(float(v) for v in y)

    guard = nullcontext() if _caller_holds_guard else read_guard()
    with guard:
        epoch = current_epoch()
        cache_key = (epoch, scenarios, thresholds_key, years_key)
        cached = _GRID_CACHE.get(cache_key)
        if cached is not None:
            counter_inc("scenarios.grid_hits")
            return cached
        counter_inc("scenarios.grid_builds")
        counter_inc("scenarios.grid_points",
                    len(scenarios) * t.size * y.size)
        with trace("scenarios.grid") as span:
            if span is not None:
                span.tags["worlds"] = len(scenarios)
                span.tags["thresholds"] = int(t.size)
                span.tags["years"] = int(y.size)
            (frontier, requirements, protected, illusory, burden,
             uncontrollable) = _world_slab(scenarios, thresholds_key,
                                           years_key)
            in_force = np.stack([
                np.asarray(s.threshold_in_force_series(y))
                for s in scenarios
            ])
            credible = t[None, :, None] >= frontier[:, None, :]
            in_force_credible = ((in_force >= frontier)
                                 & (in_force > 0.0))
            for arr in (t, y, frontier, requirements, protected, illusory,
                        burden, uncontrollable, credible, in_force,
                        in_force_credible):
                arr.setflags(write=False)
            grid = ScenarioGrid(
                scenarios=scenarios,
                thresholds=t,
                years=y,
                frontier_mtops=frontier,
                requirements=requirements,
                protected_counts=protected,
                illusory_counts=illusory,
                burden_units=burden,
                uncontrollable_counts=uncontrollable,
                credible=credible,
                in_force_mtops=in_force,
                in_force_credible=in_force_credible,
                epoch=epoch,
            )
            while len(_GRID_CACHE) >= _GRID_CACHE_MAX:
                _GRID_CACHE.pop(next(iter(_GRID_CACHE)))
            _GRID_CACHE[cache_key] = grid
            return grid
