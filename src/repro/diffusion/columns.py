"""Application drift columns and the scalar-parity requirement matrix.

The policy grid needs every application's drifted minimum at every grid
year.  :func:`repro.apps.catalog.drifted_min_matrix` computes the same
quantity as a numpy broadcast, but its fractional power
``(1 - rate) ** elapsed`` runs through libmvec's SIMD ``pow``, which can
differ from Python's scalar ``pow`` by 1-2 ulp — fatal for a grid that
must be *bit-exact* against ``evaluate_policy`` (the sweep engine dodged
the same trap for HALO_3D's power law).  So the requirement matrix here
evaluates each drift factor with Python-scalar arithmetic — exactly the
expression :func:`repro.apps.requirements.drifted_min_mtops` uses — and
memoizes the result per year grid.  Factors are shared across
applications with equal elapsed time, so a build costs one scalar ``pow``
per distinct ``(year - year_first)`` value, not per matrix cell.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.catalog import APPLICATIONS
from repro.apps.requirements import (
    DRIFT_FLOOR_FRACTION,
    DRIFT_RATE_PER_YEAR,
    ApplicationRequirement,
)
from repro.obs.trace import counter_inc, trace

__all__ = [
    "application_columns",
    "requirement_matrix",
    "clear_requirement_matrices",
]


@lru_cache(maxsize=1)
def application_columns() -> tuple[
    tuple[ApplicationRequirement, ...], np.ndarray, np.ndarray
]:
    """``(apps, base_mtops, year_first)`` in ``APPLICATIONS`` order.

    The ``(base_mtops, drift_rate)`` parameters of every stalactite as
    read-only columns; row ``a`` describes ``apps[a]``, so masks over the
    requirement matrix reconstruct the exact application tuples the
    scalar policy loop builds.
    """
    counter_inc("columns.application_builds")
    apps = tuple(APPLICATIONS)
    base = np.array([a.min_mtops for a in apps])
    firsts = np.array([a.year_first for a in apps])
    base.setflags(write=False)
    firsts.setflags(write=False)
    return apps, base, firsts


@lru_cache(maxsize=64)
def requirement_matrix(years: tuple[float, ...]) -> np.ndarray:
    """Drifted minimums ``(n_apps, n_years)``, bit-exact vs ``min_at``.

    Every cell equals ``APPLICATIONS[a].min_at(years[y])`` to the last
    bit: the decay factor is computed with the same Python-scalar
    expression (``max((1.0 - rate) ** elapsed, floor)``), never with a
    vectorized ``**`` whose SIMD ``pow`` could drift by an ulp.  Memoized
    per year tuple, so repeated grid builds over the same years reuse one
    matrix.
    """
    counter_inc("columns.requirement_builds")
    apps, base, firsts = application_columns()
    with trace("columns.requirement_matrix") as span:
        if span is not None:
            span.tags["apps"] = len(apps)
            span.tags["years"] = len(years)
        rate = DRIFT_RATE_PER_YEAR
        floor = DRIFT_FLOOR_FRACTION
        decay = 1.0 - rate
        factors: dict[float, float] = {}
        out = np.empty((len(apps), len(years)))
        for a, first in enumerate(float(f) for f in firsts):
            for y, year in enumerate(years):
                elapsed = max(0.0, year - first)
                factor = factors.get(elapsed)
                if factor is None:
                    factor = factors[elapsed] = max(decay ** elapsed, floor)
                out[a, y] = base[a] * factor
        out.setflags(write=False)
        return out


def clear_requirement_matrices() -> None:
    """Drop memoized requirement state (tests and ablation hygiene)."""
    requirement_matrix.cache_clear()
    application_columns.cache_clear()
