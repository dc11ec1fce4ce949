"""Point queries on the Chapter-5 lattices as batch-local grids.

Every (threshold, year) cell of ``evaluate_policy_grid`` — and every
(scenario, threshold, year) cell of ``evaluate_scenario_grid`` —
depends only on its own coordinates, so a grid over a batch's own
deduplicated axes answers each point bit for bit as the scalar
evaluator does.  :func:`policy_cells` and :func:`scenario_cells` build
such grids for the points not answered since the catalog last changed:
one grid per world, or one per year instead when the threshold x year
cross product would be much larger than the points themselves, so the
cells a call builds stay linear in its point count.

Those earlier answers sit in one bounded
:class:`repro.catalog.registry.CountMemo`, :data:`MEMO`, keyed on the
point under the invalidation count read when the call starts, so every
applied event and every catalog reset makes it cold.  It is what keeps
a working set larger than the response cache (:mod:`repro.serve.cache`)
from rebuilding grids on every batch.  ``/metrics`` reports its hits and
misses, and the ``tiles.grid_builds`` counter, as ``serve.tiles.memo``.

The planner imports both functions from here at call time, and the
traced benchmark server wraps them by module attribute, so they keep
this module's name.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro._util import check_positive, check_year
from repro.catalog.registry import (
    MISS,
    CountMemo,
    invalidation_count,
    read_guard,
)
from repro.diffusion.policy import PolicyEffectiveness
from repro.diffusion.policy_grid import evaluate_policy_grid
from repro.obs.errors import ValidationError
from repro.obs.trace import counter_inc
from repro.scenarios.grid import evaluate_scenario_grid
from repro.scenarios.spec import Scenario

__all__ = ["MEMO", "ScenarioPoint", "policy_cells", "scenario_cells"]

#: A grid call's fixed cost in cells of cross-product work: about
#: 0.1 ms of set-up against 0.3-2 us a cell (2-core x86 host).
_GRID_CALL_CELLS = 100

#: The point memo: one ``/batch`` carries at most ``queue_limit``
#: (default 1,024) points, so it keeps several batches' worth, at well
#: under a kilobyte an answer.
MEMO = CountMemo(8_192)


@dataclass(frozen=True)
class ScenarioPoint:
    """One (scenario, threshold, year) answer."""

    scenario: Scenario
    cell: PolicyEffectiveness
    #: The threshold the world's own timeline imposes at this year
    #: (0.0 before the world's first era).
    threshold_in_force_mtops: float
    #: Whether that in-force threshold exists and clears the frontier.
    in_force_credible: bool


def _memoized(keys: list, compute: Callable[[list], list]) -> list:
    """Answers for ``keys``; ``compute`` gets the distinct keys not
    memoized under the current invalidation count."""
    count = invalidation_count()
    found = {key: MEMO.get(key, count) for key in dict.fromkeys(keys)}
    missing = [key for key, value in found.items() if value is MISS]
    if missing:
        for key, answer in zip(missing, compute(missing)):
            MEMO.put(key, answer, count)
            found[key] = answer
    return [found[key] for key in keys]


def _point(threshold: float, year: float) -> tuple[float, float]:
    t = float(threshold)
    y = float(year)
    check_positive(t, "threshold_mtops")
    check_year(y, "year")
    return t, y


def _axis(values) -> tuple[list[float], dict[float, int]]:
    """Sorted distinct ``values`` and each value's position on them."""
    axis = sorted(set(values))
    return axis, {v: k for k, v in enumerate(axis)}


def _grid_groups(points: list[tuple]) -> list[list[tuple]]:
    """Distinct points ending in (threshold, year), grouped into grids.

    One grid over all of them, unless its threshold x year cross product
    exceeds the points by more than a grid call's fixed cost for each
    extra grid that splitting by year takes; then one grid per year,
    whose cells are exactly its points.
    """
    by_year: dict[float, list[tuple]] = {}
    for point in points:
        by_year.setdefault(point[-1], []).append(point)
    n_thresholds = len({point[-2] for point in points})
    spare_cells = n_thresholds * len(by_year) - len(points)
    if spare_cells > _GRID_CALL_CELLS * (len(by_year) - 1):
        return list(by_year.values())
    return [points]


def _policy_grid_cells(
    points: list[tuple[float, float]],
) -> list[PolicyEffectiveness]:
    cells = {}
    for group in _grid_groups(points):
        ts, row = _axis(t for t, _ in group)
        ys, col = _axis(y for _, y in group)
        grid = evaluate_policy_grid(ts, ys)
        counter_inc("tiles.grid_builds")
        for t, y in group:
            cells[t, y] = grid.result_at(row[t], col[y])
    return [cells[point] for point in points]


def policy_cells(
    points: Sequence[tuple[float, float]],
) -> list[PolicyEffectiveness]:
    """Scalar scorecards for a batch of (threshold, year) points, the
    new ones read from ``evaluate_policy_grid`` over their distinct
    axes."""
    return _memoized([_point(t, y) for t, y in points], _policy_grid_cells)


def _scenario_grid_cells(
    points: list[tuple[Scenario, float, float]],
) -> list[ScenarioPoint]:
    by_world: dict[Scenario, list[tuple[Scenario, float, float]]] = {}
    for point in points:
        by_world.setdefault(point[0], []).append(point)
    answers = {}
    for scenario, world_points in by_world.items():
        for group in _grid_groups(world_points):
            ts, row = _axis(t for _, t, _ in group)
            ys, col = _axis(y for _, _, y in group)
            grid = evaluate_scenario_grid((scenario,), ts, ys,
                                          _caller_holds_guard=True)
            counter_inc("tiles.grid_builds")
            for point in group:
                _, t, y = point
                j = col[y]
                answers[point] = ScenarioPoint(
                    scenario=scenario,
                    cell=grid.result_at(0, row[t], j),
                    threshold_in_force_mtops=float(grid.in_force_mtops[0, j]),
                    in_force_credible=bool(grid.in_force_credible[0, j]),
                )
    return [answers[point] for point in points]


def scenario_cells(
    points: Sequence[tuple[Scenario, float, float]],
    _caller_holds_guard: bool = False,
) -> list[ScenarioPoint]:
    """Answers for a batch of (scenario, threshold, year) points, the
    new ones read from ``evaluate_scenario_grid``, one world at a time,
    over each world's distinct axes.

    The catalog read guard is held across the build and the reads, so
    every answer shares one epoch; dispatch paths that already hold it
    (the guard is not reentrant) pass ``_caller_holds_guard=True``.
    """
    pts: list[tuple[Scenario, float, float]] = []
    for scenario, threshold, year in points:
        if not isinstance(scenario, Scenario):
            raise ValidationError(
                "scenario must be a Scenario instance",
                context={"got": type(scenario).__name__,
                         "valid": "Scenario"},
            )
        pts.append((scenario, *_point(threshold, year)))
    guard = nullcontext() if _caller_holds_guard else read_guard()
    with guard:
        return _memoized(pts, _scenario_grid_cells)
