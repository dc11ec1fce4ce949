"""Event-sourced catalog mutation: mutate, bump the epoch, invalidate.

The paper's analyses assume a frozen world, but the 1990s policy process
was a stream of machine announcements and threshold revisions.  This
module is the single mutation path for that stream: three event kinds —

* ``append_machine`` — a new system enters the commercial catalog;
* ``amend_machine`` — an existing entry is corrected in place;
* ``amend_threshold`` — one era of ``THRESHOLD_HISTORY`` is revised;

— each applied under the registry's write guard (excluding in-flight
micro-batches) in three steps: install the new catalog or era tuple
(which rebuilds its own bisect index), bump the global catalog epoch,
and move the invalidation count.  Every catalog memo keys on that count
(:class:`repro.catalog.registry.CountMemo`), so whatever the event kind,
the machine columns, the frontier indexes and the other catalog stores
rebuild lazily on their next read, through the same build path as a
cold start.

Events are **idempotent**: re-applying an event that matches current
state returns ``applied=False`` without bumping the epoch.  That is what
lets ``repro catalog apply`` converge a pre-fork fleet by re-POSTing the
same event over fresh connections until every worker has acknowledged
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.catalog.registry import (
    _LOCK,
    _bump_epoch,
    _reset_epoch,
    current_epoch,
    invalidate_all,
    write_guard,
)
# The count bump has its own module name here so a tracer can time it by
# patching this module's attribute (benchmarks/e2e/traced_server.py).
from repro.catalog.registry import invalidate_all as invalidate_for
from repro.machines.spec import (
    Architecture,
    DistributionChannel,
    MachineSpec,
    SizeClass,
)
from repro.obs.errors import ValidationError
from repro.obs.trace import counter_inc, trace

__all__ = [
    "EVENT_KINDS",
    "AppendMachine",
    "AmendMachine",
    "AmendThreshold",
    "AppliedEvent",
    "apply_event",
    "machine_from_payload",
    "parse_event",
    "reset_catalog",
]


#: The mutation event kinds :func:`parse_event` understands.
EVENT_KINDS: tuple[str, ...] = ("append_machine", "amend_machine",
                                "amend_threshold")


@dataclass(frozen=True)
class AppendMachine:
    """A new commercial system announcement."""

    machine: MachineSpec
    kind = "append_machine"


@dataclass(frozen=True)
class AmendMachine:
    """Replace the catalog entry at ``key`` with ``machine``."""

    key: str
    machine: MachineSpec
    kind = "amend_machine"


@dataclass(frozen=True)
class AmendThreshold:
    """Revise the threshold era starting exactly at ``start_year``."""

    start_year: float
    threshold_mtops: float
    label: str | None = None
    kind = "amend_threshold"


@dataclass(frozen=True)
class AppliedEvent:
    """Outcome of one :func:`apply_event` call.

    ``applied=False`` marks an idempotent no-op: the event matched the
    current catalog state, so no epoch was consumed and no cache was
    touched.
    """

    kind: str
    key: str
    epoch: int
    applied: bool

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "key": self.key,
                "epoch": self.epoch, "applied": self.applied}


# ---------------------------------------------------------------------------
# Event parsing (JSON payload -> typed event)
# ---------------------------------------------------------------------------

_MACHINE_REQUIRED = ("vendor", "model", "country", "year", "architecture")
_MACHINE_OPTIONAL = (
    "n_processors", "element", "quoted_ctp_mtops", "quoted_peak_mflops",
    "entry_price_usd", "max_price_usd", "units_installed", "channel",
    "size_class", "field_upgradable", "max_processors",
    "product_cycle_years", "approx", "notes",
)
_ELEMENT_FIELDS = ("name", "clock_mhz", "word_bits", "fp_ops_per_cycle",
                   "int_ops_per_cycle", "concurrent_int_fp")


def _parse_enum(enum_cls: type, raw: object, field: str):
    if isinstance(raw, enum_cls):
        return raw
    token = str(raw).strip()
    name = token.upper().replace("-", "_").replace(" ", "_")
    if name in enum_cls.__members__:
        return enum_cls[name]
    for member in enum_cls:
        if member.value == token:
            return member
    raise ValidationError(
        f"{field}: unknown {enum_cls.__name__} {raw!r}",
        context={"got": raw,
                 "valid": sorted(enum_cls.__members__)},
    )


def machine_from_payload(payload: Mapping[str, Any]) -> MachineSpec:
    """Build a :class:`MachineSpec` from a JSON-shaped mapping.

    Mirrors the serve-schema conventions: unknown fields are rejected,
    enums accept their member name (any case) or value string, and spec
    invariants (positive year, element-or-quoted-rating) surface as
    ``ValidationError`` rather than bare asserts.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError(
            "machine payload must be an object",
            context={"got": type(payload).__name__, "valid": "object"},
        )
    unknown = set(payload) - set(_MACHINE_REQUIRED) - set(_MACHINE_OPTIONAL)
    if unknown:
        raise ValidationError(
            f"unknown machine fields: {', '.join(sorted(unknown))}",
            context={"got": sorted(unknown),
                     "valid": sorted(_MACHINE_REQUIRED + _MACHINE_OPTIONAL)},
        )
    missing = [f for f in _MACHINE_REQUIRED if f not in payload]
    if missing:
        raise ValidationError(
            f"missing machine fields: {', '.join(missing)}",
            context={"got": sorted(payload),
                     "valid": sorted(_MACHINE_REQUIRED)},
        )
    kwargs: dict[str, Any] = {
        "vendor": str(payload["vendor"]),
        "model": str(payload["model"]),
        "country": str(payload["country"]),
        "year": float(payload["year"]),
        "architecture": _parse_enum(
            Architecture, payload["architecture"], "architecture"),
    }
    element = payload.get("element")
    if element is not None:
        from repro.ctp.elements import ComputingElement

        if not isinstance(element, Mapping):
            raise ValidationError(
                "element must be an object",
                context={"got": type(element).__name__, "valid": "object"},
            )
        bad = set(element) - set(_ELEMENT_FIELDS)
        if bad:
            raise ValidationError(
                f"unknown element fields: {', '.join(sorted(bad))}",
                context={"got": sorted(bad), "valid": sorted(_ELEMENT_FIELDS)},
            )
        kwargs["element"] = ComputingElement(
            name=str(element.get("name", "custom")),
            clock_mhz=float(element["clock_mhz"]),
            word_bits=float(element.get("word_bits", 64.0)),
            fp_ops_per_cycle=float(element.get("fp_ops_per_cycle", 1.0)),
            int_ops_per_cycle=float(element.get("int_ops_per_cycle", 1.0)),
            concurrent_int_fp=bool(element.get("concurrent_int_fp", False)),
        )
    for field, cast in (
        ("n_processors", int),
        ("quoted_ctp_mtops", float),
        ("quoted_peak_mflops", float),
        ("entry_price_usd", float),
        ("max_price_usd", float),
        ("units_installed", int),
        ("max_processors", int),
        ("product_cycle_years", float),
        ("field_upgradable", bool),
        ("approx", bool),
        ("notes", str),
    ):
        if field in payload and payload[field] is not None:
            kwargs[field] = cast(payload[field])
    if "channel" in payload:
        kwargs["channel"] = _parse_enum(
            DistributionChannel, payload["channel"], "channel")
    if "size_class" in payload:
        kwargs["size_class"] = _parse_enum(
            SizeClass, payload["size_class"], "size_class")
    try:
        return MachineSpec(**kwargs)
    except (ValueError, AssertionError) as exc:
        raise ValidationError(
            f"invalid machine spec: {exc}",
            context={"got": dict(payload)},
        ) from exc


def parse_event(payload: Mapping[str, Any]):
    """Turn a JSON-shaped mapping into a typed catalog event."""
    if not isinstance(payload, Mapping):
        raise ValidationError(
            "event payload must be an object",
            context={"got": type(payload).__name__, "valid": "object"},
        )
    kind = payload.get("event")
    if kind == "append_machine":
        allowed = {"event", "machine"}
        extra = set(payload) - allowed
        if extra or "machine" not in payload:
            raise ValidationError(
                "append_machine takes exactly {event, machine}",
                context={"got": sorted(payload), "valid": sorted(allowed)},
            )
        return AppendMachine(machine=machine_from_payload(payload["machine"]))
    if kind == "amend_machine":
        allowed = {"event", "key", "machine"}
        extra = set(payload) - allowed
        if extra or "key" not in payload or "machine" not in payload:
            raise ValidationError(
                "amend_machine takes exactly {event, key, machine}",
                context={"got": sorted(payload), "valid": sorted(allowed)},
            )
        return AmendMachine(
            key=str(payload["key"]),
            machine=machine_from_payload(payload["machine"]),
        )
    if kind == "amend_threshold":
        allowed = {"event", "start_year", "threshold_mtops", "label"}
        extra = set(payload) - allowed
        if extra or "start_year" not in payload \
                or "threshold_mtops" not in payload:
            raise ValidationError(
                "amend_threshold takes {event, start_year, threshold_mtops"
                "[, label]}",
                context={"got": sorted(payload), "valid": sorted(allowed)},
            )
        label = payload.get("label")
        return AmendThreshold(
            start_year=float(payload["start_year"]),
            threshold_mtops=float(payload["threshold_mtops"]),
            label=None if label is None else str(label),
        )
    raise ValidationError(
        f"unknown event kind {kind!r}",
        context={"got": kind, "valid": list(EVENT_KINDS)},
    )


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def _commit(kind: str, key: str) -> AppliedEvent:
    """Bump the epoch and move the invalidation count as one step
    (called under the write guard, after the catalog mutation)."""
    with _LOCK:
        epoch = _bump_epoch()
        invalidate_for()
    counter_inc("catalog.events_applied")
    return AppliedEvent(kind, key, epoch, True)


def apply_event(event) -> AppliedEvent:
    """Apply one catalog event atomically; returns the outcome.

    Holds the registry write guard for the whole application, so no
    micro-batch dispatch can observe a half-applied event: a batch
    admitted at epoch N completes against epoch-N state, and the next
    batch sees epoch N+1 with the catalog already rebuilt and every
    catalog memo already cold.
    """
    from repro.machines import catalog as cat

    with write_guard(), trace("catalog.apply_event") as span:
        if span is not None:
            span.tags["kind"] = event.kind
        if isinstance(event, AppendMachine):
            machine = event.machine
            existing = cat._BY_KEY.get(machine.key)
            if existing is not None:
                if existing == machine:
                    counter_inc("catalog.event_noops")
                    return AppliedEvent(event.kind, machine.key,
                                        current_epoch(), False)
                raise ValidationError(
                    f"machine {machine.key!r} already cataloged with "
                    f"different fields; use amend_machine",
                    context={"got": machine.key, "valid": "a new key"},
                )
            cat.append_machine_entry(machine)
            return _commit(event.kind, machine.key)

        if isinstance(event, AmendMachine):
            machine = event.machine
            existing = cat.find_machine(event.key)
            if existing == machine and existing.key == machine.key:
                counter_inc("catalog.event_noops")
                return AppliedEvent(event.kind, machine.key,
                                    current_epoch(), False)
            cat.amend_machine_entry(event.key, machine)
            return _commit(event.kind, machine.key)

        if isinstance(event, AmendThreshold):
            from repro.diffusion import policy

            for era in policy.THRESHOLD_HISTORY:
                if era.start_year == event.start_year:
                    same_label = (event.label is None
                                  or event.label == era.label)
                    if era.threshold_mtops == event.threshold_mtops \
                            and same_label:
                        counter_inc("catalog.event_noops")
                        return AppliedEvent(
                            event.kind, str(event.start_year),
                            current_epoch(), False)
                    break
            policy.amend_threshold_era(
                event.start_year, event.threshold_mtops, event.label)
            return _commit(event.kind, str(event.start_year))

    raise ValidationError(
        f"unknown event object {type(event).__name__}",
        context={"got": type(event).__name__,
                 "valid": ["AppendMachine", "AmendMachine",
                           "AmendThreshold"]},
    )


def reset_catalog() -> None:
    """Restore the import-time catalog and threshold history, reset the
    epoch to 0, and move the invalidation count (tests, benchmarks, and
    ablation hygiene)."""
    from repro.diffusion import policy
    from repro.machines import catalog as cat

    with write_guard():
        cat.restore_baseline_catalog()
        policy.restore_baseline_threshold_history()
        with _LOCK:
            _reset_epoch()
            invalidate_all()
