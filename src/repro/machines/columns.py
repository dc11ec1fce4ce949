"""Columnar view of the commercial catalog: one array per attribute.

The Chapter 5 policy grid asks the same questions of every machine at
every (threshold, year) point — introduced yet?  rated above the
threshold?  classified uncontrollable? — and the scalar code answered
them by re-walking ``COMMERCIAL_SYSTEMS`` and re-running ``assess`` per
point.  This module flattens the catalog once into frozen, read-only
numpy columns (catalog order preserved, so a boolean mask over a column
reconstructs the exact machine tuple a scalar scan would have built) and
every grid engine, batch dispatcher, and future caller reads the same
arrays.

One ``assess()`` per machine, ever: the controllability columns are
filled from the memoized assessment path, and the whole column set is
itself built lazily once per catalog state — machine events drop it and
the next read rebuilds it (``columns.machine_builds`` counts builds;
``columns.machine_hits`` counts reuse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.catalog.registry import current_epoch, register_invalidation_hook
from repro.machines import catalog as _catalog
from repro.machines.catalog import max_config_mtops
from repro.machines.spec import MachineSpec
from repro.obs.trace import counter_inc, trace

__all__ = [
    "MachineColumns",
    "machine_columns",
    "clear_machine_columns",
    "machine_columns_info",
]


@dataclass(frozen=True)
class MachineColumns:
    """Frozen columnar mirror of ``COMMERCIAL_SYSTEMS`` (catalog order).

    Every array is read-only and indexed identically: row ``i`` describes
    ``machines[i]``, so ``machines[j] for j in np.flatnonzero(mask)``
    rebuilds the exact tuple a scalar catalog scan under the same
    predicate would return, in the same order.
    """

    machines: tuple[MachineSpec, ...]
    #: Introduction year of each family.
    intro_years: np.ndarray
    #: Entry-configuration CTP rating.
    entry_mtops: np.ndarray
    #: Maximum-configuration CTP rating (the control-relevant ceiling).
    max_config_mtops: np.ndarray
    #: Rating reachable by a field upgrader: max config when
    #: ``field_upgradable`` else the entry configuration — the Chapter 3
    #: loophole boundary shared by licensing and covert acquisition.
    reachable_mtops: np.ndarray
    #: True where the family is field-upgradable.
    field_upgradable: np.ndarray
    #: Cataloged installed units (NaN where the paper gives none).
    units_installed: np.ndarray
    #: Composite controllability index under the default weights.
    controllability_index: np.ndarray
    #: Integer classification codes (``repro.controllability.index``
    #: ordering: 0 uncontrollable, 1 marginal, 2 controllable).
    class_codes: np.ndarray
    #: True where the default-weights classification is UNCONTROLLABLE.
    uncontrollable: np.ndarray
    #: Catalog row by machine key, for O(1) request-to-column joins.
    index_by_key: Mapping[str, int] = field(compare=False)
    #: Catalog epoch the columns were built under.
    epoch: int = field(default=0, compare=False)

    @property
    def size(self) -> int:
        return len(self.machines)


def _frozen(values: object, dtype: object = float) -> np.ndarray:
    out = np.asarray(values, dtype=dtype)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def _build_columns() -> MachineColumns:
    from repro.controllability.index import _CLASS_CODES, assess

    counter_inc("columns.machine_builds")
    with trace("columns.machine_build") as span:
        machines = tuple(_catalog.COMMERCIAL_SYSTEMS)
        assessments = [assess(m) for m in machines]
        max_cfg = [max_config_mtops(m) for m in machines]
        reachable = [
            rating if m.field_upgradable else m.ctp_mtops
            for m, rating in zip(machines, max_cfg)
        ]
        codes = [_CLASS_CODES[a.classification] for a in assessments]
        if span is not None:
            span.tags["machines"] = len(machines)
        return MachineColumns(
            machines=machines,
            intro_years=_frozen([m.year for m in machines]),
            entry_mtops=_frozen([m.ctp_mtops for m in machines]),
            max_config_mtops=_frozen(max_cfg),
            reachable_mtops=_frozen(reachable),
            field_upgradable=_frozen(
                [m.field_upgradable for m in machines], dtype=bool),
            units_installed=_frozen(
                [np.nan if m.units_installed is None else m.units_installed
                 for m in machines]),
            controllability_index=_frozen([a.index for a in assessments]),
            class_codes=_frozen(codes, dtype=np.int8),
            uncontrollable=_frozen([c == 0 for c in codes], dtype=bool),
            index_by_key=MappingProxyType(
                {m.key: i for i, m in enumerate(machines)}),
            epoch=current_epoch(),
        )


def machine_columns() -> MachineColumns:
    """The columnar catalog, built lazily (one build per catalog state)."""
    if _build_columns.cache_info().currsize:
        counter_inc("columns.machine_hits")
    return _build_columns()


def clear_machine_columns() -> None:
    """Drop the cached column set (tests and ablation hygiene)."""
    _build_columns.cache_clear()


# Machine events drop the column set; the next read rebuilds it from the
# live catalog.
register_invalidation_hook(
    "machines.columns", lambda epoch: clear_machine_columns(),
    kinds=("append_machine", "amend_machine"))


def machine_columns_info() -> dict[str, int]:
    """Introspection for :func:`repro.obs.metrics_snapshot`."""
    from repro.obs.trace import counters

    stats = counters()
    return {
        "cached": int(_build_columns.cache_info().currsize),
        "builds": int(stats.get("columns.machine_builds", 0)),
        "hits": int(stats.get("columns.machine_hits", 0)),
    }
