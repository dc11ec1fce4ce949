"""Event-sourced catalog mutation (epoch, events, invalidation count).

``repro.catalog.registry`` is stdlib-only and safe to import from any
layer (serve, machines, …); it is imported eagerly here.  The event
machinery in :mod:`repro.catalog.events` pulls in most of the
repository and is exposed lazily (PEP 562) so that low-level modules can
``import repro.catalog`` for the registry without creating import
cycles.
"""

from __future__ import annotations

from repro.catalog.registry import (
    catalog_epoch_info,
    current_epoch,
    invalidate_all,
    read_guard,
    write_guard,
)

__all__ = [
    "EVENT_KINDS",
    "AppendMachine",
    "AmendMachine",
    "AmendThreshold",
    "AppliedEvent",
    "apply_event",
    "catalog_epoch_info",
    "current_epoch",
    "events",
    "invalidate_all",
    "parse_event",
    "read_guard",
    "reset_catalog",
    "write_guard",
]

_LAZY = {
    "EVENT_KINDS",
    "AppendMachine",
    "AmendMachine",
    "AmendThreshold",
    "AppliedEvent",
    "apply_event",
    "parse_event",
    "reset_catalog",
}


def __getattr__(name: str):
    if name == "events":
        import repro.catalog.events as events

        return events
    if name in _LAZY:
        from repro.catalog import events

        return getattr(events, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
