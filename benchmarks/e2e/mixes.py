"""The four traffic mixes: deterministic request streams from a seed.

Each mix is one workload of the end-to-end benchmark.  The server only
ever sees the generated HTTP requests; everything here is plain data so
the benchmark can replay the same stream against any commit.

A ``/license`` query's year is drawn independently of its (machine,
destination) pair, as a client would ask it.  The server keys
``/license`` answers without the year, so two queries that differ only
in year share one cached (or planned) body, and the second reads back
the first one's year.  ``agentic_hot``, ``batch_wide`` and ``churn_mix``
ask the same pair in two years of one threshold era, so this happens on
every run; the output check (``oracle.py``) counts those answers on
their own.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["Item", "Mix", "MIXES", "HOT_VOCABULARY", "catalog_event",
           "license_query"]


@dataclass(frozen=True)
class Item:
    """One HTTP request of a mix: its path, JSON payload, and wire body."""

    path: str
    payload: dict
    body: bytes = field(repr=False, compare=False)

    @property
    def is_write(self) -> bool:
        return self.path == "/catalog/append"

    @property
    def queries(self) -> int:
        """Answered queries this request stands for (a /batch counts its
        slots; a catalog event answers none)."""
        if self.path == "/batch":
            return len(self.payload["requests"])
        return 0 if self.is_write else 1


def _item(path: str, payload: dict) -> Item:
    return Item(path, payload, json.dumps(payload).encode("utf-8"))


def _single(endpoint: str, payload: dict) -> Item:
    return _item(f"/{endpoint}", payload)


def _batch(queries: list[tuple[str, dict]]) -> Item:
    return _item("/batch", {"requests": [{"endpoint": e, **p}
                                         for e, p in queries]})


# ---------------------------------------------------------------------------
# shared vocabularies
# ---------------------------------------------------------------------------

MACHINES = (
    "Cray C916", "Cray T3D (64)", "Cray T90/32", "IBM SP2 (128)",
    "SGI PowerChallenge XL (18)", "Sun Enterprise 10000 (64)",
    "DEC VAX-11/780", "IBM 3090/250", "Cray Y-MP/8", "Cray C90/8",
    "Intel Paragon XP/S (150)", "Intel Paragon XP/S 140 (6768)",
    "Cray T3D (512)", "Thinking Machines CM-5 (1024)", "IBM SP2 (16)",
    "Convex Exemplar SPP1000 (16)", "Sun SPARCcenter 2000 (20)",
    "SGI Challenge XL (36)", "Cray CS6400 (64)", "SGI PowerOnyx (8)",
    "HP T-500 (12)", "DEC AlphaServer 8400 (12)", "Sun SPARCstation 10",
    "DEC 3000/500", "nCUBE nCUBE 2 (1024)", "IBM RS/6000-590",
    "HP 9000/735", "NEC SX-3/44", "Fujitsu VPP500 (80)",
    "Hitachi S-3800/480",
)

DESTINATIONS = (
    "USA", "Japan", "UK", "France", "Germany", "South Korea", "Sweden",
    "India", "PRC", "Russia", "Iran", "Brazil", "Israel", "Pakistan",
    "Singapore", "Egypt",
)

WORLDS = ("historical", "flop_cap", "accelerated_foreign",
          "early_decontrol", "sticky_requirements")

#: Two years of the 1,500-Mtops era: a /license query that omits its
#: threshold resolves to the same one in both.
_ERA_YEARS = (1994.5, 1996.5)


def license_query(machine: str, destination: str, year: float,
                  threshold_mtops: float | None = None) -> tuple[str, dict]:
    payload = {"machine": machine, "destination": destination, "year": year}
    if threshold_mtops is not None:
        payload["threshold_mtops"] = threshold_mtops
    return "license", payload


def _hot_vocabulary() -> tuple[tuple[str, dict], ...]:
    """The 39 queries of one agent's planning turns, over all seven
    query endpoints (the ``agentic_mix`` vocabulary plus six more
    catalog and license lookups)."""
    vocab: list[tuple[str, dict]] = []
    for year in (1992.0, 1994.0, 1995.5, 1997.0):
        vocab.append(("review", {"year": year}))
    for i in range(6):
        vocab.append(("rate", {
            "clock_mhz": 60.0 + 25.0 * i,
            "processors": 1 + 2 * i,
            "coupling": "shared" if i % 2 else "distributed",
            "year": 1992.0 + i,
        }))
    for t in (195.0, 2_000.0, 7_000.0, 10_000.0):
        for y in (1992.0, 1995.5):
            vocab.append(("policy", {"threshold_mtops": t, "year": y}))
    for world in ("historical", "flop_cap"):
        for y in (1993.0, 1996.0):
            vocab.append(("scenario", {"scenario": world, "year": y}))
    for year in (1992.0, 1993.5, 1994.0, 1995.5, 1997.0):
        vocab.append(("threshold_at", {"year": year}))
    for key in MACHINES[:6]:
        vocab.append(("machine", {"machine": key}))
    for key in MACHINES[:2]:
        vocab.append(license_query(key, "PRC", _ERA_YEARS[0]))
        for year in _ERA_YEARS:
            vocab.append(license_query(key, "India", year))
    return tuple(vocab)


HOT_VOCABULARY = _hot_vocabulary()


def _zipf_weights(n: int, s: float = 1.1) -> list[float]:
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    total = sum(weights)
    acc, out = 0.0, []
    for w in weights:
        acc += w / total
        out.append(acc)
    return out


_HOT_CUM = _zipf_weights(len(HOT_VOCABULARY))


def _hot(rng: random.Random) -> tuple[str, dict]:
    return rng.choices(HOT_VOCABULARY, cum_weights=_HOT_CUM)[0]


# ---------------------------------------------------------------------------
# cold query spaces
# ---------------------------------------------------------------------------

def _unique_rate(rng: random.Random) -> tuple[str, dict]:
    # 76 clocks x 32 sizes x 2 couplings x 21 years ~ 10^5 configurations.
    return "rate", {
        "clock_mhz": 25.0 + 5.0 * rng.randrange(76),
        "processors": 1 + rng.randrange(32),
        "coupling": rng.choice(("shared", "distributed")),
        "year": 1990.0 + 0.5 * rng.randrange(21),
    }


def _unique_license(rng: random.Random) -> tuple[str, dict]:
    # 30 machines x 16 destinations x 191 thresholds ~ 10^5 decisions,
    # each in one of 16 years.
    return license_query(rng.choice(MACHINES), rng.choice(DESTINATIONS),
                         1990.0 + 0.5 * rng.randrange(16),
                         1_000.0 + 100.0 * rng.randrange(191))


_POLICY_THRESHOLDS = tuple(round(100.0 * 10 ** (k / 20.0), 1)
                           for k in range(50))


_WIDE_SPACE = 2_016 + 1_050 + 1_200 + 960


def _wide_query_at(k: int) -> tuple[str, dict]:
    """Query ``k`` of ~5,200 distinct rate, policy, scenario and license
    queries."""
    if k < 2_016:  # 48 clocks x 7 sizes x 2 couplings x 3 years
        return "rate", {
            "clock_mhz": 30.0 + 10.0 * (k % 48),
            "processors": 2 ** (k // 48 % 7),
            "coupling": ("shared", "distributed")[k // 336 % 2],
            "year": (1992.0, 1994.0, 1996.0)[k // 672],
        }
    k -= 2_016
    if k < 1_050:  # 50 thresholds x 21 half-years
        return "policy", {"threshold_mtops": _POLICY_THRESHOLDS[k % 50],
                          "year": 1990.0 + 0.5 * (k // 50)}
    k -= 1_050
    if k < 1_200:  # 5 worlds x 20 thresholds x 12 years
        return "scenario", {"scenario": WORLDS[k % 5],
                            "threshold_mtops": _POLICY_THRESHOLDS[
                                2 * (k // 5 % 20) + 5],
                            "year": 1989.0 + k // 100}
    k -= 1_200  # 30 machines x 16 destinations x 2 years
    return license_query(MACHINES[k % 30], DESTINATIONS[k // 30 % 16],
                         _ERA_YEARS[k // 480])


def _wide_query(rng: random.Random) -> tuple[str, dict]:
    return _wide_query_at(rng.randrange(_WIDE_SPACE))


# ---------------------------------------------------------------------------
# catalog events (churn_mix)
# ---------------------------------------------------------------------------

_BASELINE_ERAS = ((1984.5, 100.0), (1988.9, 160.0), (1991.5, 195.0),
                  (1994.1, 1_500.0))


def _bench_machine(n: int, units: int) -> dict:
    return {
        "vendor": "Bench", "model": f"Churn-{n}", "country": "USA",
        "year": 1993.0 + n % 5, "architecture": "smp", "n_processors": 8,
        "element": {"name": "bench", "clock_mhz": 90.0 + 10.0 * (n % 7),
                    "word_bits": 64, "fp_ops_per_cycle": 1,
                    "int_ops_per_cycle": 1, "concurrent_int_fp": False},
        "quoted_ctp_mtops": 1_200.0 + 150.0 * (n % 11),
        "units_installed": units,
    }


def catalog_event(k: int) -> Item:
    """Event ``k`` of the churn rotation; every one changes the catalog
    (so each bumps the epoch by exactly one)."""
    n, kind = divmod(k, 3)
    if kind == 0:
        return _item("/catalog/append", {"event": "append_machine",
                                         "machine": _bench_machine(n, 10)})
    if kind == 1:
        return _item("/catalog/append", {
            "event": "amend_machine", "key": f"Bench Churn-{n}",
            "machine": _bench_machine(n, 20 + n)})
    start, base = _BASELINE_ERAS[n % 4]
    return _item("/catalog/append", {
        "event": "amend_threshold", "start_year": start,
        "threshold_mtops": base * (1.0 + 0.05 * (n // 4 + 1))})


#: A catalog event that matches the baseline catalog: it takes the
#: write path and applies nothing (``applied: false``, no epoch bump).
NOOP_EVENT = _item("/catalog/append", {
    "event": "amend_threshold", "start_year": _BASELINE_ERAS[0][0],
    "threshold_mtops": _BASELINE_ERAS[0][1]})


# ---------------------------------------------------------------------------
# the mixes
# ---------------------------------------------------------------------------

def _first_per_endpoint() -> list[tuple[str, dict]]:
    seen: dict[str, dict] = {}
    for endpoint, payload in HOT_VOCABULARY:
        seen.setdefault(endpoint, payload)
    return list(seen.items())


def _draw_unique(rng: random.Random) -> Item:
    return _single(*(_unique_license(rng) if rng.random() < 0.15
                     else _unique_rate(rng)))


def _draw_hot(rng: random.Random) -> Item:
    return _single(*_hot(rng))


def _draw_wide(rng: random.Random) -> Item:
    slots = [_hot(rng) for _ in range(13)] \
        + [_wide_query(rng) for _ in range(19)]
    rng.shuffle(slots)
    return _batch(slots)


def _warm_unique(seed: int) -> list[Item]:
    # No hot set: warm with 32 queries of the same distribution, from a
    # stream the timed phases never draw from.
    rng = random.Random(f"warm-{seed}")
    return [_batch([_unique_license(rng) if k % 7 == 0
                    else _unique_rate(rng) for k in range(32)])]


def _warm_hot(seed: int) -> list[Item]:
    return [_batch(list(HOT_VOCABULARY))]


def _warm_wide(seed: int) -> list[Item]:
    # The whole working set, hot queries last: tiles are built and the
    # response cache holds its steady-state mix before timing starts.
    queries = [_wide_query_at(k) for k in range(_WIDE_SPACE)]
    queries += HOT_VOCABULARY
    return [_batch(queries[i:i + 1_000])
            for i in range(0, len(queries), 1_000)]


def sweep(event: int) -> list[Item]:
    """One uncached request per query endpoint, then catalog event
    ``event``: sent after a traced run's timed phases so that every layer
    records work on every mix."""
    return [
        _single("rate", {"clock_mhz": 7.5, "processors": 3}),
        _single(*license_query("Cray T90/32", "Sweden", 1995.5, 1_234.5)),
        _single("policy", {"threshold_mtops": 333.3, "year": 1993.25}),
        _single("scenario", {"scenario": "early_decontrol",
                             "threshold_mtops": 444.4, "year": 1994.25}),
        _single("review", {"year": 1991.25}),
        _single("machine", {"machine": MACHINES[-1]}),
        _single("threshold_at", {"year": 1990.25}),
        catalog_event(event),
    ]


_UNIQUE_PROBES = (_single("rate", {"clock_mhz": 100.0, "processors": 4}),
                  _single(*license_query("Cray C916", "India", 1995.5,
                                         2_000.0)))
_HOT_PROBES = tuple(_single(*q) for q in _first_per_endpoint())


@dataclass(frozen=True)
class Mix:
    """One workload: request stream, probes, warm set."""

    name: str
    draw: Callable[[random.Random], Item]  # the next request of the stream
    probes: tuple[Item, ...]              # one per endpoint used (set-up)
    warm: Callable[[int], list[Item]]     # /batch requests sent untimed
    event_period_s: float | None = None   # catalog events, if any


MIXES = {mix.name: mix for mix in (
    Mix("rate_unique", _draw_unique, _UNIQUE_PROBES, _warm_unique),
    Mix("agentic_hot", _draw_hot, _HOT_PROBES, _warm_hot),
    Mix("batch_wide", _draw_wide, (_batch(_first_per_endpoint()),),
        _warm_wide),
    Mix("churn_mix", _draw_hot, _HOT_PROBES + (NOOP_EVENT,), _warm_hot,
        event_period_s=1.0),
)}
