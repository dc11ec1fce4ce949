"""Request schemas: JSON payload -> canonical, hashable request objects.

Every serving endpoint parses its JSON body through one of these
``parse_*`` functions before any work happens, which buys three things:

* **validation up front** — a bad field raises :class:`ValidationError`
  (or :class:`CatalogLookupError` for an unknown machine) in the handler
  thread, so a malformed request can never poison a dispatched batch;
* **canonicalization** — defaults are filled in, machine keys are
  resolved against the catalog, and an omitted license threshold is
  resolved to the threshold in force, so equivalent payloads collapse to
  the same :attr:`cache_key` and hit the same LRU response-cache entry;
* **hashability** — the frozen request dataclasses are safe to carry
  across the micro-batching queue and to use as cache keys.

Unknown fields are rejected rather than ignored: silently dropping a
misspelled ``"procesors"`` would rate a different machine than the client
asked about, which for a licensing service is the worst failure mode.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro._util import check_year
from repro.core.threshold import ThresholdPolicy
from repro.ctp import ComputingElement, Coupling
from repro.diffusion.policy import threshold_at
from repro.machines.catalog import find_machine
from repro.machines.spec import MachineSpec
from repro.obs.errors import ValidationError

__all__ = [
    "ENDPOINTS",
    "GET_ENDPOINTS",
    "RateRequest",
    "LicenseRequest",
    "MachineRequest",
    "ReviewRequest",
    "PolicyRequest",
    "ScenarioRequest",
    "ThresholdAtRequest",
    "parse_request",
]


def _require_object(payload: object, endpoint: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ValidationError(
            f"/{endpoint} payload must be a JSON object",
            context={"got": type(payload).__name__, "valid": "object"},
        )
    return payload


def _reject_unknown(payload: Mapping, allowed: tuple[str, ...],
                    endpoint: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown /{endpoint} field(s): {', '.join(map(str, unknown))}",
            context={"got": unknown, "valid": sorted(allowed)},
        )


def _number(payload: Mapping, field: str, default: float | None) -> float:
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"{field} must be a number",
            context={"field": field, "got": value, "valid": "number"},
        )
    return float(value)


def _required(payload: Mapping, field: str, endpoint: str) -> object:
    if field not in payload:
        raise ValidationError(
            f"/{endpoint} requires field {field!r}",
            context={"field": field, "valid": "present"},
        )
    return payload[field]


def _positive(value: float, field: str) -> float:
    if not value > 0:
        raise ValidationError(
            f"{field} must be positive",
            context={"field": field, "got": value, "valid": "> 0"},
        )
    return value


def _boolean(payload: Mapping, field: str, default: bool) -> bool:
    value = payload.get(field, default)
    if not isinstance(value, bool):
        raise ValidationError(
            f"{field} must be a boolean",
            context={"field": field, "got": value, "valid": "true/false"},
        )
    return value


def _integer(payload: Mapping, field: str, default: int, minimum: int) -> int:
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{field} must be an integer",
            context={"field": field, "got": value, "valid": "integer"},
        )
    if value < minimum:
        raise ValidationError(
            f"{field} must be >= {minimum}",
            context={"field": field, "got": value, "valid": f">= {minimum}"},
        )
    return value


def _string(value: object, field: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ValidationError(
            f"{field} must be a non-empty string",
            context={"field": field, "got": value, "valid": "non-empty string"},
        )
    return " ".join(value.split())


def _coupling(payload: Mapping, default: str = "shared") -> Coupling:
    value = payload.get("coupling", default)
    valid = [c.name.lower() for c in Coupling]
    if not isinstance(value, str) or value.lower() not in valid:
        raise ValidationError(
            f"coupling must be one of {', '.join(valid)}",
            context={"field": "coupling", "got": value, "valid": valid},
        )
    return Coupling[value.upper()]


def _policy(payload: Mapping) -> ThresholdPolicy:
    value = payload.get("policy", "control_what_can_be_controlled")
    valid = [p.name.lower() for p in ThresholdPolicy]
    if not isinstance(value, str) or value.lower() not in valid:
        raise ValidationError(
            f"policy must be one of {', '.join(valid)}",
            context={"field": "policy", "got": value, "valid": valid},
        )
    return ThresholdPolicy[value.upper()]


@dataclass(frozen=True)
class RateRequest:
    """A canonical ``/rate`` request: one homogeneous configuration."""

    clock_mhz: float
    word_bits: float
    fp_per_cycle: float
    int_per_cycle: float
    concurrent: bool
    processors: int
    coupling: Coupling
    year: float

    _FIELDS = ("clock_mhz", "word_bits", "fp_per_cycle", "int_per_cycle",
               "concurrent", "processors", "coupling", "year")

    @property
    def cache_key(self) -> tuple:
        return ("rate", self.clock_mhz, self.word_bits, self.fp_per_cycle,
                self.int_per_cycle, self.concurrent, self.processors,
                self.coupling.name, self.year)

    def element(self) -> ComputingElement:
        return ComputingElement(
            name="serve", clock_mhz=self.clock_mhz, word_bits=self.word_bits,
            fp_ops_per_cycle=self.fp_per_cycle,
            int_ops_per_cycle=self.int_per_cycle,
            concurrent_int_fp=self.concurrent,
        )


def parse_rate(payload: object) -> RateRequest:
    payload = _require_object(payload, "rate")
    _reject_unknown(payload, RateRequest._FIELDS, "rate")
    _required(payload, "clock_mhz", "rate")
    clock = _positive(_number(payload, "clock_mhz", None), "clock_mhz")
    word = _positive(_number(payload, "word_bits", 64.0), "word_bits")
    fp = _number(payload, "fp_per_cycle", 1.0)
    integer = _number(payload, "int_per_cycle", 1.0)
    for name, value in (("fp_per_cycle", fp), ("int_per_cycle", integer)):
        if value < 0:
            raise ValidationError(
                f"{name} must be non-negative",
                context={"field": name, "got": value, "valid": ">= 0"},
            )
    if fp == 0 and integer == 0:
        raise ValidationError(
            "at least one of fp_per_cycle / int_per_cycle must be positive",
            context={"fp_per_cycle": fp, "int_per_cycle": integer,
                     "valid": "max > 0"},
        )
    processors = _integer(payload, "processors", 1, minimum=1)
    coupling = _coupling(payload)
    if coupling is Coupling.SINGLE and processors > 1:
        raise ValidationError(
            "SINGLE coupling admits exactly one element",
            context={"field": "processors", "got": processors,
                     "valid": "processors == 1"},
        )
    year = check_year(_number(payload, "year", 1995.5), "year")
    return RateRequest(
        clock_mhz=clock, word_bits=word, fp_per_cycle=fp,
        int_per_cycle=integer, concurrent=_boolean(payload, "concurrent",
                                                   False),
        processors=processors, coupling=coupling, year=year,
    )


@dataclass(frozen=True)
class LicenseRequest:
    """A canonical ``/license`` request: resolved machine + destination.

    ``threshold_mtops`` is always resolved (an omitted threshold becomes
    the one in force at ``year``), so payloads that spell the same
    decision differently share a cache entry.
    """

    machine: MachineSpec
    destination: str
    threshold_mtops: float
    year: float

    _FIELDS = ("machine", "destination", "threshold_mtops", "year")

    @property
    def cache_key(self) -> tuple:
        return ("license", self.machine.key, self.destination,
                self.threshold_mtops, self.year)


def parse_license(payload: object) -> LicenseRequest:
    payload = _require_object(payload, "license")
    _reject_unknown(payload, LicenseRequest._FIELDS, "license")
    machine = find_machine(
        _string(_required(payload, "machine", "license"), "machine"))
    destination = _string(_required(payload, "destination", "license"),
                          "destination")
    year = check_year(_number(payload, "year", 1995.5), "year")
    if "threshold_mtops" in payload:
        threshold = _positive(_number(payload, "threshold_mtops", None),
                              "threshold_mtops")
    else:
        threshold = threshold_at(year)
    return LicenseRequest(machine=machine, destination=destination,
                          threshold_mtops=threshold, year=year)


@dataclass(frozen=True)
class MachineRequest:
    """A canonical ``/machine`` request: one resolved catalog entry."""

    machine: MachineSpec

    _FIELDS = ("machine",)

    @property
    def cache_key(self) -> tuple:
        return ("machine", self.machine.key)


def parse_machine(payload: object) -> MachineRequest:
    payload = _require_object(payload, "machine")
    _reject_unknown(payload, MachineRequest._FIELDS, "machine")
    key = _string(_required(payload, "machine", "machine"), "machine")
    return MachineRequest(machine=find_machine(key))


@dataclass(frozen=True)
class ReviewRequest:
    """A canonical ``/review`` request: one review date + policy."""

    year: float
    policy: ThresholdPolicy

    _FIELDS = ("year", "policy")

    @property
    def cache_key(self) -> tuple:
        return ("review", self.year, self.policy.name)


def parse_review(payload: object) -> ReviewRequest:
    payload = _require_object(payload, "review")
    _reject_unknown(payload, ReviewRequest._FIELDS, "review")
    year = check_year(_number(payload, "year", 1995.5), "year")
    return ReviewRequest(year=year, policy=_policy(payload))


@dataclass(frozen=True)
class PolicyRequest:
    """A canonical ``/policy`` request: one candidate threshold + date.

    An omitted threshold resolves to the one in force at ``year``, so
    "score the current regime" payloads share a cache entry and a grid
    cell with their explicit spellings.
    """

    threshold_mtops: float
    year: float

    _FIELDS = ("threshold_mtops", "year")

    @property
    def cache_key(self) -> tuple:
        return ("policy", self.threshold_mtops, self.year)


def parse_policy(payload: object) -> PolicyRequest:
    payload = _require_object(payload, "policy")
    _reject_unknown(payload, PolicyRequest._FIELDS, "policy")
    year = check_year(_number(payload, "year", 1995.5), "year")
    if "threshold_mtops" in payload:
        threshold = _positive(_number(payload, "threshold_mtops", None),
                              "threshold_mtops")
    else:
        threshold = threshold_at(year)
    return PolicyRequest(threshold_mtops=threshold, year=year)


@dataclass(frozen=True)
class ScenarioRequest:
    """A canonical ``/scenario`` request: one world + threshold + date.

    ``scenario`` accepts either a preset name (``"flop_cap"``) or a full
    scenario object in the strict wire form; both canonicalize to the
    same frozen :class:`Scenario`, so equivalent spellings share a cache
    entry.  An omitted threshold resolves to the one *that world's*
    timeline imposes at ``year``.
    """

    scenario: "Scenario"
    threshold_mtops: float
    year: float

    _FIELDS = ("scenario", "threshold_mtops", "year")

    @property
    def cache_key(self) -> tuple:
        return ("scenario", self.scenario, self.threshold_mtops, self.year)


def parse_scenario(payload: object) -> ScenarioRequest:
    from repro.scenarios.spec import preset_scenario, scenario_from_payload

    payload = _require_object(payload, "scenario")
    _reject_unknown(payload, ScenarioRequest._FIELDS, "scenario")
    spec = payload.get("scenario", "historical")
    if isinstance(spec, str):
        scenario = preset_scenario(_string(spec, "scenario"))
    else:
        scenario = scenario_from_payload(spec)
    year = check_year(_number(payload, "year", 1995.5), "year")
    if "threshold_mtops" in payload:
        threshold = _positive(_number(payload, "threshold_mtops", None),
                              "threshold_mtops")
    else:
        threshold = scenario.threshold_in_force(year)
    return ScenarioRequest(scenario=scenario, threshold_mtops=threshold,
                           year=year)


@dataclass(frozen=True)
class ThresholdAtRequest:
    """A canonical ``/threshold_at`` request: one lookup date.

    The cheapest query the planner knows — one era bisect — and the one
    agentic clients issue constantly between heavier calls, so it gets
    its own endpoint (and JSON-RPC method) instead of riding on a full
    ``/review``.
    """

    year: float

    _FIELDS = ("year",)

    @property
    def cache_key(self) -> tuple:
        return ("threshold_at", self.year)


def parse_threshold_at(payload: object) -> ThresholdAtRequest:
    payload = _require_object(payload, "threshold_at")
    _reject_unknown(payload, ThresholdAtRequest._FIELDS, "threshold_at")
    year = check_year(_number(payload, "year", 1995.5), "year")
    return ThresholdAtRequest(year=year)


_PARSERS = {
    "rate": parse_rate,
    "license": parse_license,
    "machine": parse_machine,
    "review": parse_review,
    "policy": parse_policy,
    "scenario": parse_scenario,
    "threshold_at": parse_threshold_at,
}

#: The POST endpoints the service understands, in routing order.
ENDPOINTS = tuple(_PARSERS)

#: Read-only listing endpoints served over GET (no request body, no
#: parser): catalog machines and the threshold-era history, both
#: epoch-tagged so clients can correlate listings with mutations.
GET_ENDPOINTS = ("machines", "thresholds")


def parse_request(endpoint: str, payload: object):
    """Parse ``payload`` for ``endpoint``; raises ``ReproError`` on any
    malformed input (never lets a builtin exception escape)."""
    parser = _PARSERS.get(endpoint)
    if parser is None:
        raise ValidationError(
            f"unknown endpoint {endpoint!r}",
            context={"got": endpoint, "valid": sorted(_PARSERS)},
        )
    return parser(payload)
