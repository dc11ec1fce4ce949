"""Covert-acquisition premium model.

"When controls are effective, these countries pay a premium in time and
expense to acquire the systems, lack crucial vendor support and training,
run a high risk of detection, or are forced to pursue their goals using
much less desirable technological approaches" (Chapter 3).  The premium a
restricted buyer pays is driven by the *controllability* of the cheapest
adequate system:

* below the uncontrollability frontier: no premium worth mentioning —
  secondary markets, third-party channels, no vendor dependence;
* above it: delay, cost multiple, and detection probability all scale with
  the controllability index of the machines that could satisfy the
  requirement.

``simulate_acquisitions`` Monte-Carlos attempts so policy benches can
quote expected delay and interdiction rates under different thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive, check_year
from repro.catalog.registry import epoch_memo
from repro.obs.errors import ValidationError
from repro.obs.trace import counter_inc, trace
from repro.controllability.index import assess
from repro.machines import catalog as _catalog
from repro.machines.spec import MachineSpec

__all__ = [
    "AcquisitionAttempt",
    "AcquisitionStats",
    "acquisition_premium",
    "acquisition_premium_batch",
    "simulate_acquisitions",
    "simulate_acquisitions_batch",
    "clear_acquisition_caches",
]


@dataclass(frozen=True)
class AcquisitionAttempt:
    """Deterministic premium for acquiring a capability level.

    ``controllability`` is the acquisition severity in [0, 1] of the
    easiest system on the market (at ``year``) that meets the target —
    controllability class blended with product freshness; premiums scale
    with it.  ``machine`` is that system.
    """

    target_mtops: float
    year: float
    machine: MachineSpec | None
    controllability: float
    expected_delay_years: float
    cost_multiplier: float
    detection_probability: float

    @property
    def feasible(self) -> bool:
        """False when no cataloged system meets the target at all."""
        return self.machine is not None


@epoch_memo(maxsize=512)
def _market_at(year: float, lag_years: float = 0.0) -> tuple[MachineSpec, ...]:
    """Catalog systems on the market at ``year`` (memoized per date).

    Policy grids and Monte-Carlo sweeps ask for the same few dates
    thousands of times; the scan is pure, so one pass per distinct
    ``(year, lag)`` serves them all, until the next catalog event moves
    the invalidation count.
    """
    return tuple(m for m in _catalog.COMMERCIAL_SYSTEMS
                 if m.year + lag_years <= year)


#: Controllability index below which acquisition carries no class premium
#: (matches the UNCONTROLLABLE classification boundary's soft edge).
_SEVERITY_FLOOR = 0.35
#: Weight of the freshness term: a just-introduced product has no
#: secondary market yet (the two-year-lag rule applied to acquisition).
_FRESHNESS_WEIGHT = 0.6
_LAG_YEARS = 2.0


def _severity(machine: MachineSpec, year: float) -> float:
    """Acquisition difficulty of one machine at one date, in [0, 1]."""
    index = assess(machine).index
    class_severity = max(0.0, (index - _SEVERITY_FLOOR) / (1.0 - _SEVERITY_FLOOR)) ** 2
    freshness = _FRESHNESS_WEIGHT * float(
        np.clip((machine.year + _LAG_YEARS - year) / _LAG_YEARS, 0.0, 1.0)
    )
    return max(class_severity, freshness)


def acquisition_premium(
    target_mtops: float,
    year: float,
    safeguards_in_force: bool = True,
) -> AcquisitionAttempt:
    """Premium for covertly acquiring ``target_mtops`` at ``year``.

    The buyer shops for the *easiest* system whose maximum configuration
    meets the target (field upgrades being the known loophole).  Difficulty
    combines the machine's controllability class (quadratic above the
    uncontrollable band, so "the premium ... diminishes rapidly" below the
    frontier) with a freshness term (a just-shipped product has no
    secondary market — the two-year-lag rule).  Premiums:

    * delay: up to ~3 years for a controllable, safeguarded machine
      (matching the observed multi-year assimilation lags), negligible for
      mature uncontrollable products;
    * cost: up to ~3x (intermediaries, spares without vendor support);
    * detection: up to ~85% for one-of-a-kind direct-sale systems.
    """
    check_positive(target_mtops, "target_mtops")
    check_year(year, "year")
    def _reachable_rating(m: MachineSpec) -> float:
        # Only *field* upgrades are available to a covert buyer; vendor-
        # installed expansions are not (that is the Chapter 3 loophole's
        # exact boundary).
        return m.max_configuration().ctp_mtops if m.field_upgradable else m.ctp_mtops

    candidates = [
        m for m in _market_at(year) if _reachable_rating(m) >= target_mtops
    ]
    if not candidates:
        return AcquisitionAttempt(
            target_mtops=target_mtops, year=year, machine=None,
            controllability=1.0, expected_delay_years=float("inf"),
            cost_multiplier=float("inf"), detection_probability=1.0,
        )
    chosen = min(candidates, key=lambda m: (_severity(m, year), m.key))
    severity = _severity(chosen, year)
    scale = 1.0 if safeguards_in_force else 0.5
    return AcquisitionAttempt(
        target_mtops=target_mtops,
        year=year,
        machine=chosen,
        controllability=severity,
        expected_delay_years=3.0 * severity * scale,
        cost_multiplier=1.0 + 2.0 * severity * scale,
        detection_probability=min(0.85 * severity * scale, 0.95),
    )


def acquisition_premium_batch(
    targets_mtops: np.ndarray | list[float],
    year: float,
    safeguards_in_force: bool = True,
) -> list[AcquisitionAttempt]:
    """:func:`acquisition_premium` over a whole target grid at one date.

    The market is scanned and scored once: machines are sorted by the
    scalar path's selection key ``(severity, key)`` and the running
    maximum of reachable ratings over that order is bisected per target —
    the first position where the prefix maximum reaches the target is
    exactly the machine ``min(candidates, ...)`` picks, because at that
    position the maximum just increased, so that machine itself reaches
    the target and no earlier (easier) machine does.  Every premium field
    is computed with the scalar expression, so each element is
    bit-identical to the scalar call.
    """
    check_year(year, "year")
    targets = [float(t) for t in np.asarray(targets_mtops, dtype=float).ravel()]
    for t in targets:
        check_positive(t, "targets_mtops")
    with trace("acquisition.premium_batch") as span:
        if span is not None:
            span.tags["targets"] = len(targets)
        counter_inc("acquisition.premium_batch_calls")
        market = sorted(
            _market_at(year), key=lambda m: (_severity(m, year), m.key)
        )
        reachable = np.array([
            m.max_configuration().ctp_mtops if m.field_upgradable else m.ctp_mtops
            for m in market
        ])
        prefix_max = np.maximum.accumulate(reachable) if market else reachable
        scale = 1.0 if safeguards_in_force else 0.5
        out: list[AcquisitionAttempt] = []
        positions = np.searchsorted(prefix_max, np.asarray(targets), side="left")
        for target, pos in zip(targets, positions):
            p = int(pos)
            if p >= len(market):
                out.append(AcquisitionAttempt(
                    target_mtops=target, year=year, machine=None,
                    controllability=1.0, expected_delay_years=float("inf"),
                    cost_multiplier=float("inf"), detection_probability=1.0,
                ))
                continue
            chosen = market[p]
            severity = _severity(chosen, year)
            out.append(AcquisitionAttempt(
                target_mtops=target,
                year=year,
                machine=chosen,
                controllability=severity,
                expected_delay_years=3.0 * severity * scale,
                cost_multiplier=1.0 + 2.0 * severity * scale,
                detection_probability=min(0.85 * severity * scale, 0.95),
            ))
        return out


@dataclass(frozen=True)
class AcquisitionStats:
    """Monte-Carlo summary of repeated acquisition attempts."""

    target_mtops: float
    year: float
    n_attempts: int
    success_rate: float
    interdiction_rate: float
    mean_delay_years: float
    mean_cost_multiplier: float


def simulate_acquisitions(
    target_mtops: float,
    year: float,
    n_attempts: int = 1_000,
    seed: int = 0,
) -> AcquisitionStats:
    """Monte-Carlo acquisition attempts at one capability level.

    Each attempt draws a delay (exponential around the expected premium)
    and an interdiction event (Bernoulli at the detection probability);
    interdicted attempts are restarted with the delay accumulating, up to
    three tries, after which the buyer gives up.
    """
    if n_attempts < 1:
        raise ValidationError("n_attempts must be >= 1",
                              context={"got": n_attempts, "valid": ">= 1"})
    premium = acquisition_premium(target_mtops, year)
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_attempts]))
    if not premium.feasible:
        return AcquisitionStats(
            target_mtops=target_mtops, year=year, n_attempts=n_attempts,
            success_rate=0.0, interdiction_rate=1.0,
            mean_delay_years=float("inf"), mean_cost_multiplier=float("inf"),
        )
    max_tries = 3
    base_delay = max(premium.expected_delay_years, 1e-3)
    # Vectorized: per attempt, per try, draw interdiction and delay.
    caught = rng.random((n_attempts, max_tries)) < premium.detection_probability
    delays = rng.exponential(base_delay, size=(n_attempts, max_tries))
    first_clear = np.argmax(~caught, axis=1)
    ever_clear = ~caught.all(axis=1)
    tries_used = np.where(ever_clear, first_clear + 1, max_tries)
    # Delay accumulates over failed tries plus the successful one.
    take = np.arange(max_tries) < tries_used[:, None]
    total_delay = (delays * take).sum(axis=1)
    cost = premium.cost_multiplier * (1.0 + 0.25 * (tries_used - 1))
    return AcquisitionStats(
        target_mtops=target_mtops,
        year=year,
        n_attempts=n_attempts,
        success_rate=float(np.mean(ever_clear)),
        interdiction_rate=float(np.mean(caught[:, 0])),
        mean_delay_years=float(np.mean(total_delay[ever_clear]))
        if ever_clear.any() else float("inf"),
        mean_cost_multiplier=float(np.mean(cost[ever_clear]))
        if ever_clear.any() else float("inf"),
    )


def simulate_acquisitions_batch(
    targets_mtops: np.ndarray | list[float],
    year: float,
    n_attempts: int = 1_000,
    seed: int = 0,
) -> list[AcquisitionStats]:
    """:func:`simulate_acquisitions` over a target grid, one RNG matrix.

    Every scalar call seeds ``SeedSequence([seed, n_attempts])`` and draws
    the *same* uniform and exponential matrices — only the comparison
    probability and delay scale differ per target.  So the batch draws the
    two matrices once (``rng.exponential(scale, size)`` is exactly
    ``standard_exponential(size) * scale`` at the same stream position)
    and broadcasts them against the per-target premiums; the per-attempt
    arithmetic is elementwise-identical IEEE ops, and the final masked
    means run per target on the identical selected values, so every stat
    matches the scalar loop bit for bit.
    """
    if n_attempts < 1:
        raise ValidationError("n_attempts must be >= 1",
                              context={"got": n_attempts, "valid": ">= 1"})
    premiums = acquisition_premium_batch(targets_mtops, year)
    with trace("acquisition.simulate_batch") as span:
        if span is not None:
            span.tags["targets"] = len(premiums)
            span.tags["n_attempts"] = n_attempts
        counter_inc("acquisition.simulate_batch_calls")
        max_tries = 3
        rng = np.random.default_rng(np.random.SeedSequence([seed, n_attempts]))
        uniforms = rng.random((n_attempts, max_tries))
        std_exp = rng.standard_exponential(size=(n_attempts, max_tries))
        feasible = [p for p in premiums if p.feasible]
        detection = np.array([p.detection_probability for p in feasible])
        base_delay = np.array([
            max(p.expected_delay_years, 1e-3) for p in feasible
        ])
        cost_mult = np.array([p.cost_multiplier for p in feasible])
        # (targets, attempts, tries) broadcasts; reductions over the tries
        # axis mirror the scalar per-attempt sums element for element.
        caught = uniforms[None, :, :] < detection[:, None, None]
        delays = base_delay[:, None, None] * std_exp[None, :, :]
        first_clear = np.argmax(~caught, axis=2)
        ever_clear = ~caught.all(axis=2)
        tries_used = np.where(ever_clear, first_clear + 1, max_tries)
        take = np.arange(max_tries)[None, None, :] < tries_used[:, :, None]
        total_delay = (delays * take).sum(axis=2)
        cost = cost_mult[:, None] * (1.0 + 0.25 * (tries_used - 1))
        out: list[AcquisitionStats] = []
        k = 0
        for premium in premiums:
            if not premium.feasible:
                out.append(AcquisitionStats(
                    target_mtops=premium.target_mtops, year=year,
                    n_attempts=n_attempts, success_rate=0.0,
                    interdiction_rate=1.0, mean_delay_years=float("inf"),
                    mean_cost_multiplier=float("inf"),
                ))
                continue
            clear_k = ever_clear[k]
            out.append(AcquisitionStats(
                target_mtops=premium.target_mtops,
                year=year,
                n_attempts=n_attempts,
                success_rate=float(np.mean(clear_k)),
                interdiction_rate=float(np.mean(caught[k, :, 0])),
                mean_delay_years=float(np.mean(total_delay[k][clear_k]))
                if clear_k.any() else float("inf"),
                mean_cost_multiplier=float(np.mean(cost[k][clear_k]))
                if clear_k.any() else float("inf"),
            ))
            k += 1
        return out


def clear_acquisition_caches() -> None:
    """Drop the memoized market scans (tests and ablation hygiene — the
    acquisition-side analogue of
    :func:`repro.ctp.batch.clear_credit_cache`)."""
    _market_at.cache_clear()
