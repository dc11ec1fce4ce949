"""Symmetrical-multiprocessor performance trends (Figure 6).

Figure 6 plots, per vendor, the CTP of top-of-line SMP systems by year of
introduction, then shifts the envelope right by the two-year
market-maturity lag to obtain the uncontrollability frontier ("systems
considered uncontrollable in 1997 are being introduced in 1995").

The population is the catalog's SMP servers *in their maximum
configurations*, because field upgradability means an export-control
analysis must rate every chassis at the ceiling a user can quietly reach
(Chapter 3, "Scalability").
"""

from __future__ import annotations

from collections import defaultdict

from repro.machines.catalog import (
    commercial_by_architecture,
    max_config_mtops,
)
from repro.machines.spec import Architecture, MachineSpec
from repro.trends.curves import ExponentialTrend, TrendPoint, fit_exponential

__all__ = [
    "smp_systems",
    "smp_max_config_points",
    "smp_vendor_lines",
    "smp_trend",
]

#: SMPs whose *ceiling* falls below this rating (e.g. PC-class multis) are
#: not part of the Figure 6 population.  Workstation SMPs like the
#: SPARCstation 10 stay in: they are the most uncontrollable end of the
#: spectrum and anchor the envelope's early, low end.
_FRONTIER_FLOOR_MTOPS = 100.0


def smp_systems(through: float | None = None) -> list[MachineSpec]:
    """Catalog SMP servers by year (workstation-class SMPs excluded)."""
    systems = [
        m
        for m in commercial_by_architecture(Architecture.SMP)
        if max_config_mtops(m) >= _FRONTIER_FLOOR_MTOPS
    ]
    if through is not None:
        systems = [m for m in systems if m.year <= through]
    return systems


def smp_max_config_points(through: float | None = None) -> list[TrendPoint]:
    """(introduction year, max-configuration CTP) per SMP server family.

    Families present in the catalog at several configurations contribute
    one point: their ceiling (that is what an upgrader can reach).
    """
    best: dict[tuple[str, float], TrendPoint] = {}
    for m in smp_systems(through):
        key = (m.vendor, m.year)
        ceiling = max_config_mtops(m)
        prev = best.get(key)
        if prev is None or ceiling > prev.mtops:
            best[key] = TrendPoint(m.year, ceiling, label=m.key)
    return sorted(best.values(), key=lambda p: (p.year, p.label))


def smp_vendor_lines(through: float | None = None) -> dict[str, list[TrendPoint]]:
    """Figure 6's per-vendor "spaghetti": vendor -> points by year."""
    lines: dict[str, list[TrendPoint]] = defaultdict(list)
    for m in smp_systems(through):
        lines[m.vendor].append(
            TrendPoint(m.year, max_config_mtops(m), label=m.key)
        )
    return {v: sorted(pts, key=lambda p: p.year) for v, pts in sorted(lines.items())}


def smp_trend(through: float | None = None) -> ExponentialTrend:
    """Exponential fit of the SMP top-of-line envelope.

    Chapter 3: SMP performance "has grown by two orders of magnitude in the
    three years since their introduction" — the fit's growth rate lands in
    that range.
    """
    pts = smp_max_config_points(through)
    if len(pts) < 2:
        raise ValueError("not enough SMP systems in range to fit a trend")
    return fit_exponential([p.year for p in pts], [p.mtops for p in pts])
