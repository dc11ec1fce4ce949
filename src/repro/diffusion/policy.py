"""The export-control regime: tiers, threshold history, effectiveness.

Chapter 1's history gives the threshold timeline (100 Mflops informal ->
160 Mflops proposed 1988 -> 195 Mtops 1991 -> 1,500 Mtops 1994) and note 15
gives the five safeguard tiers.  ``evaluate_policy`` scores a candidate
threshold the way Chapter 5 does: what does it actually protect (stalactites
above the frontier and above the threshold), and what burden does it impose
(licensable units that are uncontrollable anyway)?
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro._util import check_positive, check_year
from repro.obs.errors import ThresholdInfeasibleError
from repro.apps.catalog import APPLICATIONS
from repro.apps.requirements import ApplicationRequirement
from repro.controllability.frontier import lower_bound_uncontrollable
from repro.machines import catalog as _machine_catalog
from repro.machines.spec import MachineSpec
from repro.market.installed import installed_units_above

__all__ = [
    "SafeguardTier",
    "TIER_BY_DESTINATION",
    "ThresholdEra",
    "THRESHOLD_HISTORY",
    "threshold_at",
    "amend_threshold_era",
    "restore_baseline_threshold_history",
    "ExportControlPolicy",
    "LicenseDecision",
    "PolicyEffectiveness",
    "evaluate_policy",
]


class SafeguardTier(enum.Enum):
    """The five safeguard levels of 57 FR 20963 (paper, note 15)."""

    SUPPLIER = "supplier state (no controls)"
    MAJOR_ALLY = "major ally (minimal requirements)"
    SAFEGUARDS_PLAN = "safeguards plan required"
    GOVERNMENT_CERTIFICATION = "importing-government certification"
    RESTRICTED = "all safeguards; generally denied"


#: Representative destinations per tier (note 15's examples).
TIER_BY_DESTINATION: dict[str, SafeguardTier] = {
    "USA": SafeguardTier.SUPPLIER,
    "Japan": SafeguardTier.SUPPLIER,
    "UK": SafeguardTier.MAJOR_ALLY,
    "France": SafeguardTier.MAJOR_ALLY,
    "Germany": SafeguardTier.MAJOR_ALLY,
    "South Korea": SafeguardTier.SAFEGUARDS_PLAN,
    "Sweden": SafeguardTier.SAFEGUARDS_PLAN,
    "India": SafeguardTier.GOVERNMENT_CERTIFICATION,
    "PRC": SafeguardTier.GOVERNMENT_CERTIFICATION,
    "Russia": SafeguardTier.GOVERNMENT_CERTIFICATION,
    "Iran": SafeguardTier.RESTRICTED,
}


@dataclass(frozen=True)
class ThresholdEra:
    """One historical control-threshold regime."""

    start_year: float
    threshold_mtops: float
    label: str


#: Chapter 1's threshold history.  Pre-1991 thresholds were stated in
#: Mflops; they are carried here at their approximate Mtops equivalents.
THRESHOLD_HISTORY: tuple[ThresholdEra, ...] = (
    ThresholdEra(1984.5, 100.0, "bilateral accord, ~100 Mflops informal"),
    ThresholdEra(1988.9, 160.0, "proposed definition, 160 Mflops (Cray-1 peak)"),
    ThresholdEra(1991.5, 195.0, "renegotiated accord, 195 Mtops"),
    ThresholdEra(1994.1, 1_500.0, "current definition, 1,500 Mtops"),
)


#: Era start years / thresholds as read-only bisect columns.  The era in
#: force at ``year`` is the last start at or before it — one
#: ``searchsorted`` instead of a linear scan of every era per call.
_ERA_STARTS: np.ndarray = np.array(
    [era.start_year for era in THRESHOLD_HISTORY])
_ERA_THRESHOLDS: np.ndarray = np.array(
    [era.threshold_mtops for era in THRESHOLD_HISTORY])
_ERA_STARTS.setflags(write=False)
_ERA_THRESHOLDS.setflags(write=False)

#: The import-time history, kept for ``restore_baseline_threshold_history``.
_BASELINE_THRESHOLD_HISTORY: tuple[ThresholdEra, ...] = THRESHOLD_HISTORY


def _install_threshold_history(history: tuple[ThresholdEra, ...]) -> None:
    """Swap in a new era tuple and rebuild the bisect columns (four
    elements).  Re-exports on
    ``repro.diffusion`` are refreshed; epoch bumps and downstream cache
    invalidation are orchestrated by ``repro.catalog.events``."""
    global THRESHOLD_HISTORY, _ERA_STARTS, _ERA_THRESHOLDS
    import sys

    THRESHOLD_HISTORY = history
    _ERA_STARTS = np.array([era.start_year for era in history])
    _ERA_THRESHOLDS = np.array([era.threshold_mtops for era in history])
    _ERA_STARTS.setflags(write=False)
    _ERA_THRESHOLDS.setflags(write=False)
    package = sys.modules.get("repro.diffusion")
    if package is not None and hasattr(package, "THRESHOLD_HISTORY"):
        package.THRESHOLD_HISTORY = THRESHOLD_HISTORY


def amend_threshold_era(
    start_year: float,
    threshold_mtops: float,
    label: str | None = None,
) -> ThresholdEra:
    """Replace the era starting exactly at ``start_year``; returns the new
    era.  Unknown start years raise rather than silently inserting — era
    *insertion* is a policy-history rewrite, not an amendment."""
    from repro.obs.errors import ValidationError

    check_positive(threshold_mtops, "threshold_mtops")
    for i, era in enumerate(THRESHOLD_HISTORY):
        if era.start_year == start_year:
            amended = ThresholdEra(
                start_year=start_year,
                threshold_mtops=float(threshold_mtops),
                label=era.label if label is None else label,
            )
            _install_threshold_history(
                THRESHOLD_HISTORY[:i] + (amended,) + THRESHOLD_HISTORY[i + 1:]
            )
            return amended
    raise ValidationError(
        f"no threshold era starts at {start_year}",
        context={"got": start_year,
                 "valid": [era.start_year for era in THRESHOLD_HISTORY]},
    )


def restore_baseline_threshold_history() -> None:
    """Reinstate the import-time era tuple (``reset_catalog`` support)."""
    _install_threshold_history(_BASELINE_THRESHOLD_HISTORY)


def threshold_at(year: float) -> float:
    """The control threshold in force at ``year``.

    One bisect against the era-start column; dates before the first era
    raise the taxonomy's :class:`ThresholdInfeasibleError` (a
    ``ValueError``) rather than falling through.
    """
    check_year(year, "year")
    i = int(np.searchsorted(_ERA_STARTS, year, side="right")) - 1
    if i < 0:
        raise ThresholdInfeasibleError(
            f"no supercomputer threshold defined before "
            f"{THRESHOLD_HISTORY[0].start_year}",
            context={"got": year,
                     "valid": f">= {THRESHOLD_HISTORY[0].start_year}"},
        )
    return float(_ERA_THRESHOLDS[i])


@dataclass(frozen=True)
class ExportControlPolicy:
    """A candidate control regime: one threshold, the standard tiers."""

    threshold_mtops: float

    def __post_init__(self) -> None:
        check_positive(self.threshold_mtops, "threshold_mtops")

    def tier_for(self, destination: str) -> SafeguardTier:
        """Safeguard tier of a destination (unlisted -> certification)."""
        return TIER_BY_DESTINATION.get(
            destination, SafeguardTier.GOVERNMENT_CERTIFICATION
        )

    def license_decision(
        self, machine: MachineSpec, destination: str
    ) -> "LicenseDecision":
        """Decide one export-license application.

        The rated configuration is the family *maximum* when the machine
        is field-upgradable (the Chapter 3 loophole treated as the rule).
        """
        rating = (
            machine.max_configuration().ctp_mtops
            if machine.field_upgradable
            else machine.ctp_mtops
        )
        tier = self.tier_for(destination)
        covered = rating >= self.threshold_mtops and tier is not SafeguardTier.SUPPLIER
        approved = covered and tier in (
            SafeguardTier.MAJOR_ALLY, SafeguardTier.SAFEGUARDS_PLAN,
            SafeguardTier.GOVERNMENT_CERTIFICATION,
        ) or not covered
        if covered and tier is SafeguardTier.RESTRICTED:
            approved = False
        return LicenseDecision(
            machine=machine, destination=destination, rating_mtops=rating,
            requires_license=covered, tier=tier, approved=approved,
            safeguards_required=covered and tier not in
            (SafeguardTier.SUPPLIER, SafeguardTier.MAJOR_ALLY),
        )


@dataclass(frozen=True)
class LicenseDecision:
    """Outcome of one license application."""

    machine: MachineSpec
    destination: str
    rating_mtops: float
    requires_license: bool
    tier: SafeguardTier
    approved: bool
    safeguards_required: bool


@dataclass(frozen=True)
class PolicyEffectiveness:
    """Chapter 5-style scorecard for a candidate threshold at a date."""

    year: float
    threshold_mtops: float
    frontier_mtops: float
    #: Applications whose (drifted) minimum exceeds both threshold and
    #: frontier — what the policy actually protects.
    protected_applications: tuple[ApplicationRequirement, ...]
    #: Applications above the threshold but below the frontier — nominally
    #: covered, actually uncontrollable: pure credibility cost.
    illusory_applications: tuple[ApplicationRequirement, ...]
    #: Installed units above the threshold but below the frontier —
    #: licensing burden with no security benefit.
    burden_units: float
    #: Catalog systems above the threshold whose controllability class is
    #: uncontrollable (the enforcement gap).
    uncontrollable_covered_systems: tuple[MachineSpec, ...]

    @property
    def credible(self) -> bool:
        """A threshold below the frontier 'will try to control the
        uncontrollable' — the paper's credibility test."""
        return self.threshold_mtops >= self.frontier_mtops


def evaluate_policy(threshold_mtops: float, year: float) -> PolicyEffectiveness:
    """Score a candidate threshold at a date."""
    check_positive(threshold_mtops, "threshold_mtops")
    check_year(year, "year")
    frontier = lower_bound_uncontrollable(year).mtops
    protected, illusory = [], []
    for app in APPLICATIONS:
        requirement = app.min_at(year)
        if requirement < threshold_mtops:
            continue
        if requirement >= frontier:
            protected.append(app)
        else:
            illusory.append(app)
    burden = 0.0
    if threshold_mtops < frontier:
        burden = installed_units_above(threshold_mtops, year) - installed_units_above(
            frontier, year
        )
    from repro.controllability.index import Classification, assess

    uncontrollable_covered = tuple(
        m for m in _machine_catalog.COMMERCIAL_SYSTEMS
        if m.year <= year
        and m.max_configuration().ctp_mtops >= threshold_mtops
        and assess(m).classification is Classification.UNCONTROLLABLE
    )
    return PolicyEffectiveness(
        year=year,
        threshold_mtops=threshold_mtops,
        frontier_mtops=frontier,
        protected_applications=tuple(protected),
        illusory_applications=tuple(illusory),
        burden_units=max(burden, 0.0),
        uncontrollable_covered_systems=uncontrollable_covered,
    )
