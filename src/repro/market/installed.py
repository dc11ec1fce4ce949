"""Installed-base distribution over CTP — the "humps" of Figures 3 and 11.

Each catalog machine family contributes its installed units at its rating,
spread lognormally to reflect the mix of configurations actually sold
(entry systems outnumber maximum ones).  The resulting histogram is the
right-hand curve of the paper's threshold-selection picture: thresholds
should sit *above* a hump of installations (big decontrol benefit) and
*below* a hump of application requirements (small security cost).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro._util import check_positive, check_year
from repro.machines import catalog as _catalog
from repro.obs.trace import counter_inc

__all__ = [
    "LOG_BIN_EDGES",
    "installed_distribution",
    "installed_units_above",
    "installed_units_above_batch",
    "clear_installed_index",
    "market_value_between",
]

#: Quarter-decade bins from 0.01 Mtops to 1,000,000 Mtops (the low end
#: catches fully drifted 1940s-era application minimums).
LOG_BIN_EDGES: np.ndarray = 10.0 ** np.arange(-2.0, 6.01, 0.25)

#: Configuration spread around each family's cataloged rating (decades).
_CONFIG_SIGMA = 0.30
#: Quadrature points used to spread one family across bins.
_SPREAD_POINTS = 41


def _family_spread(rating: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic lognormal spread of one family's units.

    Returns (ratings, weights) with weights summing to 1.  Deterministic
    Gauss-grid quadrature keeps the distribution reproducible without a
    seed.
    """
    z = np.linspace(-2.5, 2.5, _SPREAD_POINTS)
    w = np.exp(-0.5 * z * z)
    w /= w.sum()
    return rating * 10.0 ** (_CONFIG_SIGMA * z), w


def installed_distribution(
    year: float,
    bin_edges: np.ndarray | None = None,
    deinstall_years: float = 8.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of installed units over CTP at ``year``.

    Families enter at their introduction year, build linearly to their
    cataloged installed base over two years, and retire ``deinstall_years``
    after introduction ("nearly all machines are taken out of service
    within 8-10 years").

    Returns ``(bin_edges, counts)``.
    """
    check_year(year, "year")
    check_positive(deinstall_years, "deinstall_years")
    edges = LOG_BIN_EDGES if bin_edges is None else np.asarray(bin_edges)
    counts = np.zeros(edges.size - 1)
    for m in _catalog.COMMERCIAL_SYSTEMS:
        if m.units_installed is None:
            continue
        age = year - m.year
        if age < 0 or age > deinstall_years:
            continue
        build = min(age / 2.0, 1.0)
        units = m.units_installed * build
        ratings, weights = _family_spread(m.ctp_mtops)
        idx = np.searchsorted(edges, ratings, side="right") - 1
        valid = (idx >= 0) & (idx < counts.size)
        np.add.at(counts, idx[valid], units * weights[valid])
    return edges, counts


@lru_cache(maxsize=512)
def _suffix_index(year: float) -> tuple[np.ndarray, np.ndarray]:
    """``(centers, suffix)`` for the default-bin distribution at ``year``.

    ``suffix[k]`` is ``counts[k:].sum()`` — computed as exactly that
    slice-sum for each ``k``, never as a reversed cumulative sum, so a
    lookup reproduces the seed's ``counts[centers >= t].sum()`` (an
    identical contiguous pairwise summation) bit for bit.  One
    distribution build serves every threshold queried at ``year``.
    """
    counter_inc("market.suffix_builds")
    edges, counts = installed_distribution(year)
    centers = np.sqrt(edges[:-1] * edges[1:])
    suffix = np.empty(counts.size + 1)
    for k in range(counts.size + 1):
        suffix[k] = counts[k:].sum()
    centers.setflags(write=False)
    suffix.setflags(write=False)
    return centers, suffix


def installed_units_above(threshold_mtops: float, year: float) -> float:
    """Installed units rated at or above a threshold at ``year``."""
    check_positive(threshold_mtops, "threshold_mtops")
    check_year(year, "year")
    centers, suffix = _suffix_index(float(year))
    k = int(np.searchsorted(centers, threshold_mtops, side="left"))
    return float(suffix[k])


def installed_units_above_batch(
    thresholds_mtops: np.ndarray | list[float],
    year: float,
) -> np.ndarray:
    """:func:`installed_units_above` over a whole threshold grid.

    One cached distribution build plus one vectorized bisect; every
    element is bit-identical to the scalar call at that threshold.
    """
    thresholds = np.asarray(thresholds_mtops, dtype=float)
    bad = ~(np.isfinite(thresholds) & (thresholds > 0.0))
    if bad.any():
        check_positive(float(thresholds[bad][0]), "thresholds_mtops")
    check_year(year, "year")
    centers, suffix = _suffix_index(float(year))
    return suffix[np.searchsorted(centers, thresholds, side="left")]


def clear_installed_index() -> None:
    """Drop cached per-year suffix tables (tests and ablation hygiene)."""
    _suffix_index.cache_clear()


# Suffix tables are keyed by year and aggregate the whole catalog's
# installed bases, so machine events stale them; threshold amendments
# cannot (thresholds are query inputs here, not table contents).
def _register_installed_hook() -> None:
    from repro.catalog.registry import register_invalidation_hook

    register_invalidation_hook(
        "market.installed.suffix",
        lambda epoch: clear_installed_index(),
        kinds=("append_machine", "amend_machine"),
    )


_register_installed_hook()


def market_value_between(
    low_mtops: float,
    high_mtops: float,
    year: float,
) -> float:
    """Approximate installed value (USD) of systems rated in a band.

    Uses each family's entry price as the per-unit value — conservative,
    since upgraded systems cost more.  This is the "economic gain ... from
    additional sales of computer systems falling between A and B" that the
    economic threshold policy weighs.
    """
    check_positive(low_mtops, "low_mtops")
    check_positive(high_mtops, "high_mtops")
    if high_mtops <= low_mtops:
        raise ValueError("high_mtops must exceed low_mtops")
    check_year(year, "year")
    total = 0.0
    for m in _catalog.COMMERCIAL_SYSTEMS:
        if m.units_installed is None or m.entry_price_usd is None:
            continue
        age = year - m.year
        if age < 0 or age > 8.0:
            continue
        if low_mtops <= m.ctp_mtops < high_mtops:
            total += m.units_installed * min(age / 2.0, 1.0) * m.entry_price_usd
    return total
