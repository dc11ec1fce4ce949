"""Vectorized Chapter-5 policy scorecards over (threshold, year) grids.

The design question of Chapter 5 — where should the control threshold sit,
and for how long does any choice stay credible? — is a two-dimensional
sweep: every candidate threshold against every year.  The scalar path
(:func:`repro.diffusion.policy.evaluate_policy`) re-walks the application
catalog, rebuilds the installed-base histogram, and re-classifies the
commercial catalog at every grid point; this module computes the whole
grid as a handful of array broadcasts over the shared columnar stores
(:mod:`repro.machines.columns`, :mod:`repro.diffusion.columns`,
the suffix index of :mod:`repro.market.installed`).

Bit-exactness is the contract, not a tolerance: every count, burden
value, and reconstructed scorecard equals the scalar path to the last
bit, because every comparison runs on values produced by the *same*
arithmetic (Python-scalar drift factors, the shared frontier bisect
index, suffix sums with the seed's summation order) — the sweep engine's
HALO_3D playbook applied to policy space.  ``PolicyGrid.result_at``
rebuilds the exact ``PolicyEffectiveness`` tuples the scalar call
returns, so callers can sweep with arrays and still drill into any cell
with full dataclass fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Mapping

import numpy as np

from repro._util import check_positive, check_year
from repro.obs.errors import ThresholdInfeasibleError, ValidationError
from repro.obs.trace import counter_inc, trace
from repro.apps.requirements import ApplicationRequirement
from repro.controllability.frontier import frontier_series
from repro.diffusion.columns import application_columns, requirement_matrix
from repro.catalog.registry import current_epoch
from repro.diffusion import policy as _policy
from repro.diffusion.policy import (
    LicenseDecision,
    PolicyEffectiveness,
    SafeguardTier,
    TIER_BY_DESTINATION,
)
from repro.machines.columns import machine_columns
from repro.machines.spec import MachineSpec
from repro.market.installed import installed_units_above_batch

__all__ = [
    "PolicyGrid",
    "evaluate_policy_grid",
    "threshold_at_series",
    "license_decision_batch",
]

#: Threshold rows per internal broadcast slab: bounds the transient
#: ``(slab, apps, years)`` coverage masks to a few megabytes however
#: large the requested grid is.
_SLAB_THRESHOLDS = 512


@dataclass(frozen=True)
class PolicyGrid:
    """Chapter-5 scorecards for every (threshold, year) grid point.

    Count/burden arrays are indexed ``[i, j]`` for ``thresholds[i]`` at
    ``years[j]``; all arrays are read-only.  :meth:`result_at`
    reconstructs the exact :class:`PolicyEffectiveness` the scalar
    evaluator returns at a point, from the stored requirement matrix and
    the shared machine columns.
    """

    thresholds: np.ndarray
    years: np.ndarray
    #: Uncontrollability frontier per year (shared bisect index).
    frontier_mtops: np.ndarray
    #: Drifted application minimums, ``(n_apps, n_years)``, bit-exact
    #: against ``ApplicationRequirement.min_at``.
    requirements: np.ndarray = field(repr=False)
    #: Applications protected / merely nominally covered, per point.
    protected_counts: np.ndarray
    illusory_counts: np.ndarray
    #: Installed units licensable without security benefit, per point.
    burden_units: np.ndarray
    #: Catalog systems above the threshold classified uncontrollable.
    uncontrollable_counts: np.ndarray
    #: The paper's credibility test: threshold at or above the frontier.
    credible: np.ndarray
    #: Catalog epoch the grid was evaluated under.
    epoch: int = field(default=0, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.thresholds.size), int(self.years.size))

    def result_at(self, i: int, j: int) -> PolicyEffectiveness:
        """The exact scalar scorecard at ``(thresholds[i], years[j])``.

        Membership is recovered by re-applying the scalar predicates to
        the stored columns: the requirement column and frontier are the
        very floats the scalar path compares, and the machine columns
        preserve catalog order, so the reconstructed tuples — order
        included — are the ones ``evaluate_policy`` builds.
        """
        threshold = float(self.thresholds[i])
        year = float(self.years[j])
        frontier = float(self.frontier_mtops[j])
        apps, _base, _firsts = application_columns()
        column = self.requirements[:, j]
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
            burden_units=float(self.burden_units[i, j]),
            uncontrollable_covered_systems=uncontrollable_covered,
        )


def _validated_axes(
    thresholds: Sequence[float] | np.ndarray,
    years: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    # Copies, not views: the grid freezes its axes, and a view would
    # either fail to freeze or alias caller-mutable memory.
    t = np.array(thresholds, dtype=float).ravel()
    y = np.array(years, dtype=float).ravel()
    bad = ~(np.isfinite(t) & (t > 0.0))
    if bad.any():
        check_positive(float(t[bad][0]), "thresholds")
    for year in y:
        check_year(float(year), "years")
    return t, y


def _grid_counts(
    t: np.ndarray, years_key: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Core broadcasts for one threshold slab over the full year axis.

    Returns ``(frontier, protected, illusory, burden, uncontrollable)``;
    the four grid arrays are ``(t.size, len(years_key))``.
    """
    y = np.asarray(years_key, dtype=float)
    frontier = frontier_series(y)
    requirements = requirement_matrix(years_key)
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

    # Burden: one cached suffix-table lookup per year serves the whole
    # threshold axis.  The where/maximum pair reproduces the scalar
    # branch exactly: zero at or above the frontier, clipped difference
    # of the same two suffix sums below it.
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
    # Exact integer counting: (thresholds x machines) @ (machines x
    # years) — both factors 0/1 int64, so the matmul is the count of
    # machines satisfying both predicates, no float rounding anywhere.
    covered_m = (ratings[None, :] >= t[:, None]).astype(np.int64)
    available = (intros[:, None] <= y[None, :]).astype(np.int64)
    uncontrollable = covered_m @ available
    return frontier, protected, illusory, burden, uncontrollable


def evaluate_policy_grid(
    thresholds: Sequence[float] | np.ndarray,
    years: Sequence[float] | np.ndarray,
) -> PolicyGrid:
    """Chapter-5 scorecards for every threshold x year pair, vectorized.

    Every grid point is bit-exact against
    :func:`repro.diffusion.policy.evaluate_policy` at that point — counts,
    burden, credibility, and (via :meth:`PolicyGrid.result_at`) the exact
    protected/illusory/uncontrollable membership tuples.
    """
    t, y = _validated_axes(thresholds, years)
    years_key = tuple(float(year) for year in y)
    counter_inc("policy.grid_builds")
    counter_inc("policy.grid_points", t.size * y.size)
    with trace("policy.grid") as span:
        if span is not None:
            span.tags["thresholds"] = int(t.size)
            span.tags["years"] = int(y.size)
        frontier, protected, illusory, burden, uncontrollable = (
            _grid_counts(t, years_key))
        requirements = requirement_matrix(years_key)
        credible = t[:, None] >= frontier[None, :]
        for arr in (t, y, frontier, protected, illusory, burden,
                    uncontrollable, credible):
            arr.setflags(write=False)
        return PolicyGrid(
            thresholds=t,
            years=y,
            frontier_mtops=frontier,
            requirements=requirements,
            protected_counts=protected,
            illusory_counts=illusory,
            burden_units=burden,
            uncontrollable_counts=uncontrollable,
            credible=credible,
            epoch=current_epoch(),
        )


def threshold_at_series(years: Sequence[float] | np.ndarray) -> np.ndarray:
    """:func:`repro.diffusion.policy.threshold_at` over a year grid.

    One vectorized bisect against the era-start column; any grid point
    before the first era raises the same
    :class:`ThresholdInfeasibleError` the scalar lookup does.
    """
    grid = np.asarray(years, dtype=float).ravel()
    for year in grid:
        check_year(float(year), "years")
    # Era columns are read through the policy module at call time: an
    # amend_threshold event swaps them, and a bound copy here would keep
    # serving the pre-event history.
    idx = np.searchsorted(_policy._ERA_STARTS, grid, side="right") - 1
    if (idx < 0).any():
        first_bad = float(grid[idx < 0][0])
        raise ThresholdInfeasibleError(
            f"no supercomputer threshold defined before "
            f"{_policy.THRESHOLD_HISTORY[0].start_year}",
            context={"got": first_bad,
                     "valid": f">= {_policy.THRESHOLD_HISTORY[0].start_year}"},
        )
    out = _policy._ERA_THRESHOLDS[idx]
    out.setflags(write=False)
    return out


def license_decision_batch(
    machines: Sequence[MachineSpec],
    destinations: Sequence[str],
    threshold_mtops: float,
) -> list[LicenseDecision]:
    """Decide a whole docket of license applications in one pass.

    Equivalent to ``ExportControlPolicy(threshold_mtops)
    .license_decision(m, d)`` per row, but ratings come from the shared
    ``reachable_mtops`` column (one catalog join instead of a
    max-configuration walk per application) and the tier logic runs as
    array predicates.  Decisions are reconstructed as the exact
    ``LicenseDecision`` dataclasses the scalar method returns.
    """
    check_positive(threshold_mtops, "threshold_mtops")
    machines = list(machines)
    destinations = list(destinations)
    if len(machines) != len(destinations):
        raise ValidationError(
            "machines and destinations must have equal length",
            context={"machines": len(machines),
                     "destinations": len(destinations)},
        )
    counter_inc("policy.license_batch_decisions", len(machines))
    cols = machine_columns()
    ratings = np.array([
        float(cols.reachable_mtops[cols.index_by_key[m.key]])
        if m.key in cols.index_by_key
        else (m.max_configuration().ctp_mtops if m.field_upgradable
              else m.ctp_mtops)
        for m in machines
    ])
    tiers = [
        TIER_BY_DESTINATION.get(d, SafeguardTier.GOVERNMENT_CERTIFICATION)
        for d in destinations
    ]
    supplier = np.array([t is SafeguardTier.SUPPLIER for t in tiers])
    restricted = np.array([t is SafeguardTier.RESTRICTED for t in tiers])
    ally = np.array([t is SafeguardTier.MAJOR_ALLY for t in tiers])
    covered = (ratings >= threshold_mtops) & ~supplier
    approved = ~covered | (covered & ~restricted)
    safeguards = covered & ~supplier & ~ally
    return [
        LicenseDecision(
            machine=m,
            destination=d,
            rating_mtops=float(ratings[k]),
            requires_license=bool(covered[k]),
            tier=tiers[k],
            approved=bool(approved[k]),
            safeguards_required=bool(safeguards[k]),
        )
        for k, (m, d) in enumerate(zip(machines, destinations))
    ]

