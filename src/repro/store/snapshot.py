"""Versioned on-disk snapshots of the columnar stores.

Every serving process used to rebuild the same read-only state at
startup: the machine columns (one ``assess()`` per catalog machine), the
frontier bisect index, the application drift columns and requirement
matrices, the per-year installed-base suffix tables, and the credit
prefix sums.  Fine for one process; fatal for a pre-fork fleet, where N
workers would run the same rebuild N times, and for serverless-style
scale-out, where cold start is the latency floor.

A snapshot is a directory::

    <dir>/manifest.json        version, content hash, array inventory
    <dir>/arrays/<name>.npy    one raw .npy per array

Raw ``.npy`` files (not a compressed ``.npz``) so the loader can
``np.load(..., mmap_mode="r")``: arrays are faulted in lazily, shared
**page-for-page across forked workers**, and never copied per process.
The loader installs them through each store's ``install_*`` hook
(:func:`repro.machines.columns.install_machine_columns` and friends), so
cold start does **zero** columnar rebuilds — the ``*.builds`` counters
stay untouched, which the ``snapshot_cold_start`` benchmark gates on.

Staleness is structural, not temporal: the manifest records a SHA-256
over everything the arrays were derived from — the commercial catalog,
``THRESHOLD_HISTORY``, the application stalactites and drift constants,
the default controllability weights and CTP parameters, and the format
version.  :func:`load_snapshot` recomputes the live hash and raises
:class:`~repro.obs.errors.SnapshotStaleError` on any mismatch rather
than serving answers derived from a catalog that no longer exists.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.catalog.registry import (
    current_epoch,
    register_invalidation_hook,
)
from repro.obs.errors import SnapshotStaleError, ValidationError
from repro.obs.trace import counter_inc, counters, trace

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_SNAPSHOT_DIR",
    "DEFAULT_SNAPSHOT_YEARS",
    "BUILD_COUNTERS",
    "SnapshotInfo",
    "live_content_hash",
    "build_snapshot",
    "load_snapshot",
    "active_snapshot",
    "active_manifest_hash",
    "verify_active_snapshot",
    "clear_store_caches",
    "build_counter_totals",
]

#: Bump on any incompatible change to the artifact layout.
#: 2: added ``frontier.population_rows`` and the catalog ``epoch`` to the
#: manifest.  3: dropped ``frontier.population_rows``.
FORMAT_VERSION = 3

#: Where ``repro snapshot`` / ``repro serve --snapshot`` look by default.
DEFAULT_SNAPSHOT_DIR = Path(".repro-snapshot")

#: The canonical year grid snapshotted for the requirement matrix and the
#: installed-base suffix tables: 1986.0 .. 2000.0 quarterly.  Generated
#: as ``lo + k * step`` with exactly-representable steps so the floats
#: (and therefore the memoization keys) are reproducible everywhere.
DEFAULT_SNAPSHOT_YEARS: tuple[float, ...] = tuple(
    1986.0 + 0.25 * k for k in range(57))

#: Largest homogeneous element count whose credit prefix sums are
#: precomputed per coupling (the catalog tops out well below this).
DEFAULT_CREDIT_N = 512

#: Counters that tick when a columnar store is rebuilt in process.  A
#: snapshot-primed startup must leave every one of these untouched.
BUILD_COUNTERS = (
    "columns.machine_builds",
    "columns.application_builds",
    "columns.requirement_builds",
    "frontier.index_builds",
    "market.suffix_builds",
    "credit_cache.misses",
    "credit_cache.regrows",
)


@dataclass(frozen=True)
class SnapshotInfo:
    """One loaded (or just-built) snapshot."""

    path: Path
    manifest: dict
    n_arrays: int

    @property
    def manifest_hash(self) -> str:
        return self.manifest["content_hash"]


# The snapshot this process loaded, if any (reported by /healthz).
_ACTIVE: SnapshotInfo | None = None


def active_snapshot() -> SnapshotInfo | None:
    """The snapshot this process is serving from, or ``None``."""
    return _ACTIVE


def active_manifest_hash() -> str | None:
    """The loaded snapshot's content hash, or ``None`` (fresh build)."""
    return None if _ACTIVE is None else _ACTIVE.manifest_hash


# ---------------------------------------------------------------------------
# Content hashing
# ---------------------------------------------------------------------------


def _content_descriptor() -> str:
    """A canonical text rendering of everything the arrays derive from.

    ``repr`` of the frozen dataclasses is deterministic across processes
    (float repr is exact shortest-round-trip), so equal inputs hash equal
    and any edit to the catalog, thresholds, applications, weights, or
    schedule parameters changes the hash.
    """
    from repro.apps.catalog import APPLICATIONS
    from repro.apps.requirements import (
        DRIFT_FLOOR_FRACTION,
        DRIFT_RATE_PER_YEAR,
    )
    from repro.controllability.frontier import UNCONTROLLABILITY_LAG_YEARS
    from repro.controllability.index import DEFAULT_WEIGHTS
    from repro.ctp.aggregate import DEFAULT_PARAMETERS
    from repro.diffusion.policy import THRESHOLD_HISTORY
    from repro.machines.catalog import COMMERCIAL_SYSTEMS
    from repro.market.installed import LOG_BIN_EDGES

    parts = [
        f"format={FORMAT_VERSION}",
        "machines=" + ";".join(repr(m) for m in COMMERCIAL_SYSTEMS),
        "thresholds=" + ";".join(repr(e) for e in THRESHOLD_HISTORY),
        "applications=" + ";".join(repr(a) for a in APPLICATIONS),
        f"drift=({DRIFT_RATE_PER_YEAR!r},{DRIFT_FLOOR_FRACTION!r})",
        f"weights={DEFAULT_WEIGHTS!r}",
        f"ctp_params={DEFAULT_PARAMETERS!r}",
        f"lag={UNCONTROLLABILITY_LAG_YEARS!r}",
        "bins=" + ",".join(repr(float(e)) for e in LOG_BIN_EDGES),
    ]
    return "\n".join(parts)


def live_content_hash() -> str:
    """SHA-256 of the in-process catalog/threshold/schedule state."""
    return hashlib.sha256(
        _content_descriptor().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build_snapshot(
    path: Path | str = DEFAULT_SNAPSHOT_DIR,
    years: tuple[float, ...] = DEFAULT_SNAPSHOT_YEARS,
    credit_n: int = DEFAULT_CREDIT_N,
) -> SnapshotInfo:
    """Build every columnar store once and serialize it under ``path``.

    Idempotent: an existing snapshot directory is overwritten atomically
    array by array (the manifest is written last, so a crashed build is
    detected as an unreadable snapshot, never a silently partial one).
    """
    from repro.controllability.frontier import (
        UNCONTROLLABILITY_LAG_YEARS,
        _frontier_index,
    )
    from repro.controllability.index import DEFAULT_WEIGHTS
    from repro.ctp import Coupling
    from repro.ctp.batch import credit_sums
    from repro.diffusion.columns import (
        application_columns,
        requirement_matrix,
    )
    from repro.machines.columns import machine_columns
    from repro.market.installed import _suffix_index

    if credit_n < 1:
        raise ValidationError("credit_n must be >= 1",
                              context={"got": credit_n, "valid": ">= 1"})
    years = tuple(float(y) for y in years)
    if not years:
        raise ValidationError("years grid must not be empty",
                              context={"got": 0, "valid": ">= 1 year"})
    path = Path(path)
    arrays_dir = path / "arrays"
    arrays_dir.mkdir(parents=True, exist_ok=True)

    with trace("store.snapshot_build") as span:
        counter_inc("store.snapshot_builds")
        arrays: dict[str, np.ndarray] = {}

        # 1. Machine columns (one assess() per machine, here and never
        #    again for any process that loads the artifact).
        cols = machine_columns()
        for name in ("intro_years", "entry_mtops", "max_config_mtops",
                     "reachable_mtops", "field_upgradable",
                     "units_installed", "controllability_index",
                     "class_codes", "uncontrollable"):
            arrays[f"machine.{name}"] = getattr(cols, name)

        # 2. Frontier bisect index under the default weights and lag.
        #    Leaders serialize as catalog row numbers.
        index = _frontier_index(DEFAULT_WEIGHTS, UNCONTROLLABILITY_LAG_YEARS)
        row_by_key = {m.key: i for i, m in enumerate(cols.machines)}
        arrays["frontier.qualify_years"] = index.qualify_years
        arrays["frontier.running_max"] = index.running_max
        arrays["frontier.leader_rows"] = np.array(
            [row_by_key[m.key] for m in index.leaders], dtype=np.int64)

        # 3. Application drift columns + the requirement matrix over the
        #    canonical year grid (bit-exact scalar-pow construction).
        _apps, base, firsts = application_columns()
        arrays["apps.base_mtops"] = base
        arrays["apps.year_first"] = firsts
        arrays["apps.requirements"] = requirement_matrix(years)

        # 4. Installed-base suffix tables per canonical year.  Centers
        #    depend only on the bin edges, so one row serves all years.
        centers0, _ = _suffix_index(years[0])
        suffix_rows = np.stack(
            [_suffix_index(year)[1] for year in years])
        arrays["market.centers"] = centers0
        arrays["market.suffix_rows"] = suffix_rows

        # 5. Credit prefix sums per coupling at the default parameters.
        for coupling in Coupling:
            n = 1 if coupling is Coupling.SINGLE else credit_n
            arrays[f"credit.{coupling.name.lower()}"] = credit_sums(
                n, coupling)

        inventory = {}
        for name, array in arrays.items():
            filename = name.replace(".", "_") + ".npy"
            np.save(arrays_dir / filename, np.ascontiguousarray(array))
            inventory[name] = {
                "file": f"arrays/{filename}",
                "dtype": str(array.dtype),
                "shape": list(array.shape),
            }

        manifest = {
            "format_version": FORMAT_VERSION,
            "content_hash": live_content_hash(),
            "epoch": current_epoch(),
            "years": list(years),
            "credit_n": int(credit_n),
            "couplings": [c.name.lower() for c in Coupling],
            "arrays": inventory,
        }
        manifest_path = path / "manifest.json"
        tmp_path = path / "manifest.json.tmp"
        tmp_path.write_text(json.dumps(manifest, indent=2) + "\n")
        os.replace(tmp_path, manifest_path)
        if span is not None:
            span.tags["arrays"] = len(arrays)
    return SnapshotInfo(path=path, manifest=manifest, n_arrays=len(arrays))


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


def _read_manifest(path: Path) -> dict:
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise ValidationError(
            f"no snapshot manifest at {manifest_path}",
            context={"got": str(path),
                     "valid": "a directory built by `repro snapshot`"},
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError:
        raise SnapshotStaleError(
            "snapshot manifest is not valid JSON (partial build?)",
            context={"path": str(manifest_path)},
        ) from None
    if not isinstance(manifest, dict) or "content_hash" not in manifest:
        raise SnapshotStaleError(
            "snapshot manifest is missing its content hash",
            context={"path": str(manifest_path)},
        )
    return manifest


def _load_array(path: Path, manifest: dict, name: str,
                mmap: bool) -> np.ndarray:
    entry = manifest["arrays"].get(name)
    if entry is None:
        raise SnapshotStaleError(
            f"snapshot is missing array {name!r}",
            context={"array": name, "path": str(path)},
        )
    file_path = path / entry["file"]
    try:
        array = np.load(file_path, mmap_mode="r" if mmap else None)
    except (OSError, ValueError) as exc:
        raise SnapshotStaleError(
            f"snapshot array {name!r} is unreadable",
            context={"array": name, "path": str(file_path),
                     "cause": str(exc)},
        ) from None
    if list(array.shape) != entry["shape"] \
            or str(array.dtype) != entry["dtype"]:
        raise SnapshotStaleError(
            f"snapshot array {name!r} does not match its manifest entry",
            context={"array": name,
                     "got": f"{array.dtype}{array.shape}",
                     "valid": f"{entry['dtype']}{tuple(entry['shape'])}"},
        )
    if not mmap:
        array.setflags(write=False)
    return array


def load_snapshot(path: Path | str = DEFAULT_SNAPSHOT_DIR,
                  mmap: bool = True) -> SnapshotInfo:
    """Validate and install a snapshot into every columnar store.

    Raises :class:`SnapshotStaleError` when the manifest's content hash
    does not match the live catalog/threshold/schedule state, when the
    format version is unknown, or when any array is missing, unreadable,
    or mis-shaped — never installs a partial or stale snapshot.

    With ``mmap`` (the default), arrays are read-only memmaps: pages
    fault in on first touch and are shared by every process forked after
    the load.
    """
    from repro.controllability.frontier import (
        UNCONTROLLABILITY_LAG_YEARS,
        install_frontier_index,
    )
    from repro.controllability.index import DEFAULT_WEIGHTS
    from repro.ctp import Coupling
    from repro.ctp.batch import install_credit_sums
    from repro.diffusion.columns import (
        install_application_columns,
        install_requirement_matrix,
    )
    from repro.machines.columns import (
        install_machine_columns,
        machine_columns_from_arrays,
    )
    from repro.market.installed import install_suffix_index

    global _ACTIVE
    path = Path(path)
    with trace("store.snapshot_load") as span:
        manifest = _read_manifest(path)
        if manifest.get("format_version") != FORMAT_VERSION:
            raise SnapshotStaleError(
                "snapshot format version is not supported",
                context={"got": manifest.get("format_version"),
                         "valid": FORMAT_VERSION, "path": str(path)},
            )
        live = live_content_hash()
        if manifest["content_hash"] != live:
            raise SnapshotStaleError(
                "snapshot content hash does not match the live catalog — "
                "rebuild with `repro snapshot`",
                context={"got": manifest["content_hash"], "valid": live,
                         "path": str(path),
                         "epoch_delta": (current_epoch()
                                         - int(manifest.get("epoch", 0)))},
            )

        def load(name: str) -> np.ndarray:
            return _load_array(path, manifest, name, mmap)

        machine_arrays = {
            name.split(".", 1)[1]: load(name)
            for name in manifest["arrays"] if name.startswith("machine.")
        }
        install_machine_columns(machine_columns_from_arrays(machine_arrays))

        install_frontier_index(
            DEFAULT_WEIGHTS, UNCONTROLLABILITY_LAG_YEARS,
            qualify_years=load("frontier.qualify_years"),
            running_max=load("frontier.running_max"),
            leader_rows=load("frontier.leader_rows"),
        )

        years = tuple(float(y) for y in manifest["years"])
        install_application_columns(load("apps.base_mtops"),
                                    load("apps.year_first"))
        install_requirement_matrix(years, load("apps.requirements"))

        centers = load("market.centers")
        suffix_rows = load("market.suffix_rows")
        if len(suffix_rows) != len(years):
            raise SnapshotStaleError(
                "snapshot suffix tables do not cover the manifest years",
                context={"got": len(suffix_rows), "valid": len(years)},
            )
        for year, suffix in zip(years, suffix_rows):
            install_suffix_index(year, centers, suffix)

        for name in manifest.get("couplings", []):
            coupling = Coupling[name.upper()]
            install_credit_sums(load(f"credit.{name}"), coupling)

        counter_inc("store.snapshot_loads")
        if span is not None:
            span.tags["arrays"] = len(manifest["arrays"])
        info = SnapshotInfo(path=path, manifest=manifest,
                            n_arrays=len(manifest["arrays"]))
        _ACTIVE = info
        return info


def verify_active_snapshot() -> None:
    """Re-check the loaded snapshot against the *current* catalog state.

    A worker forked after its parent loaded a snapshot may discover —
    e.g. at startup, before reporting ready — that the in-process
    catalog no longer matches the artifact it is serving from (a
    mutation event landed between load and fork, or the snapshot on
    disk belongs to a different catalog build).  No-op when no snapshot
    is active; raises :class:`SnapshotStaleError` with both hashes and
    the epoch delta otherwise.
    """
    if _ACTIVE is None:
        return
    live = live_content_hash()
    if _ACTIVE.manifest_hash != live:
        raise SnapshotStaleError(
            "active snapshot no longer matches the live catalog — "
            "rebuild with `repro snapshot`",
            context={
                "got": _ACTIVE.manifest_hash,
                "valid": live,
                "path": str(_ACTIVE.path),
                "epoch_delta": (current_epoch()
                                - int(_ACTIVE.manifest.get("epoch", 0))),
            },
        )


# A catalog mutation moves the in-process stores past the loaded
# artifact: the process is no longer serving "from the snapshot", so
# deactivate it (healthz/metrics report a fresh-build identity and the
# fleet skew detector sees agreement again once every worker applies).
register_invalidation_hook(
    "store.snapshot", lambda epoch: _deactivate_snapshot(),
    kinds=("append_machine", "amend_machine", "amend_threshold"))


def _deactivate_snapshot() -> None:
    global _ACTIVE
    _ACTIVE = None


# ---------------------------------------------------------------------------
# Hygiene + introspection
# ---------------------------------------------------------------------------


def clear_store_caches() -> None:
    """Drop every installed/memoized columnar store (tests, benches, and
    ablation hygiene) — the next access rebuilds from scratch."""
    from repro.controllability.frontier import clear_frontier_indexes
    from repro.controllability.index import clear_assessment_caches
    from repro.ctp.batch import clear_credit_cache
    from repro.diffusion.columns import clear_requirement_matrices
    from repro.machines.columns import clear_machine_columns
    from repro.market.installed import clear_installed_index

    global _ACTIVE
    _ACTIVE = None
    clear_machine_columns()
    clear_requirement_matrices()
    clear_frontier_indexes()
    clear_installed_index()
    clear_credit_cache()
    clear_assessment_caches()


def build_counter_totals() -> dict[str, int]:
    """Current values of every store build counter (see
    :data:`BUILD_COUNTERS`); a snapshot-primed startup leaves all of
    them unchanged."""
    stats = counters()
    return {name: int(stats.get(name, 0)) for name in BUILD_COUNTERS}
