"""The multi-query planner: one heterogeneous batch -> few fused scans.

The serving tier built so far coalesces *within* an endpoint: the
``/rate`` MicroBatcher turns N concurrent ratings into one
``ctp_homogeneous_batch`` call, the ``/policy`` batcher answers its
batch from batch-local grids, and so on.  An agentic client does not speak one
endpoint at a time — a single planning turn issues a ``/review`` that
needs a threshold, three ``/policy`` points in the same era, a
``/scenario`` point plus the ``/rate`` of the machine under discussion —
and until now each of those paid its own columnar pass even when they
share most of the work.

This module closes that gap with a classic query-planner shape:

1. **Canonicalize** — every sub-request is already a frozen, hashable
   schema object whose ``cache_key`` is its canonical identity.
2. **CSE** — identical sub-requests collapse to one *unique query*;
   duplicates only fan the computed body back out (``cse_hits``).
3. **Fuse** — unique queries are grouped into primitive columnar ops:
   one ``ctp_homogeneous_batch`` per coupling across *all* rating
   queries, one controllability matrix pass across all license queries,
   batch-local grids across all policy and all scenario point queries
   (:mod:`repro.tiles`), one era bisect per distinct year, one
   ``run_annual_review`` per distinct (year, policy).
4. **Reuse across endpoints** — a review computes the threshold in
   force at its year with the *same* ``threshold_at`` the rate /
   threshold-at queries need, so an in-plan review satisfies their era
   dependency for free (``reuse_hits``; see the dependency table in
   DESIGN.md, "Query planner & fusion").
5. **Execute under the catalog read guard** — the whole plan runs
   against one epoch; a queued mutation waits, so every answer in the
   batch is consistent with every other.
6. **Scatter** — results land per input slot, byte-identical to
   dispatching each request alone (every primitive op is bit-exact per
   row/cell, a property the serving tests already pin per endpoint).

Errors are isolated per unique query: an infeasible era year fails only
the slots that depend on it, and a fused op that raises is retried
query-by-query so a poisoned batch-mate can never change another slot's
answer (the fallback reproduces exactly what sequential dispatch would
have returned).

Every result slot is either a response body ``dict`` or the
``BaseException`` that sub-request alone would have raised — callers
(the MicroBatcher fan-out, the ``/batch`` envelope, the JSON-RPC
bridge) map exceptions to their transport's error shape.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from collections.abc import Sequence

import numpy as np

from repro.controllability.index import (
    CLASS_BY_CODE,
    DEFAULT_WEIGHTS,
    classify_index_matrix,
    index_matrix,
    score_matrix,
)
from repro.core.review import run_annual_review
from repro.ctp.batch import ctp_homogeneous_batch
from repro.diffusion.policy import ExportControlPolicy, threshold_at
from repro.catalog.registry import read_guard
from repro.obs.trace import counter_inc, trace

__all__ = [
    "QueryPlan",
    "build_plan",
    "execute_plan",
    "machine_body",
    "review_body",
    "threshold_at_body",
    "plan_stats",
    "reset_plan_stats",
]


# ---------------------------------------------------------------------------
# plan statistics (module-level: one planner per process), surfaced as
# ``serve.plan`` in /metrics and rolled up across a prefork fleet
# ---------------------------------------------------------------------------

_STATS_LOCK = threading.Lock()


def _fresh_stats() -> dict:
    return {
        "plans": 0,            # execute_plan calls
        "queries": 0,          # input slots across all plans
        "unique_queries": 0,   # slots surviving CSE
        "cse_hits": 0,         # duplicate slots served from a batch-mate
        "reuse_hits": 0,       # cross-endpoint reuses (review -> era)
        "ops": 0,              # primitive columnar ops executed
        "ops_fused": 0,        # ops that served >= 2 unique queries
        "fanout_histogram": {},  # unique queries per op -> count
    }


_STATS = _fresh_stats()


def _record_op(fanout: int) -> None:
    with _STATS_LOCK:
        _STATS["ops"] += 1
        if fanout >= 2:
            _STATS["ops_fused"] += 1
        hist = _STATS["fanout_histogram"]
        hist[fanout] = hist.get(fanout, 0) + 1


def plan_stats() -> dict:
    """JSON-serializable planner statistics since process start."""
    with _STATS_LOCK:
        out = dict(_STATS)
        out["fanout_histogram"] = {
            str(fanout): count
            for fanout, count in sorted(_STATS["fanout_histogram"].items())
        }
    return out


def reset_plan_stats() -> None:
    """Zero the counters (tests and benchmarks)."""
    global _STATS
    with _STATS_LOCK:
        _STATS = _fresh_stats()


# ---------------------------------------------------------------------------
# plan structure
# ---------------------------------------------------------------------------

class _Query:
    """One unique (post-CSE) query and the slots it fans out to."""

    __slots__ = ("request", "endpoint", "slots", "result")

    def __init__(self, request: object, endpoint: str) -> None:
        self.request = request
        self.endpoint = endpoint
        self.slots: list[int] = []
        self.result: object = None  # body dict or BaseException


class QueryPlan:
    """A compiled batch: slot order + unique queries, ready to execute."""

    def __init__(self, requests: Sequence[object]) -> None:
        self.n_slots = len(requests)
        self.uniques: dict[tuple, _Query] = {}
        self.slot_keys: list[tuple] = []
        for i, request in enumerate(requests):
            key = request.cache_key
            query = self.uniques.get(key)
            if query is None:
                query = self.uniques[key] = _Query(request, key[0])
            query.slots.append(i)
            self.slot_keys.append(key)

    @property
    def cse_hits(self) -> int:
        return self.n_slots - len(self.uniques)

    def by_endpoint(self, endpoint: str) -> list[_Query]:
        return [q for q in self.uniques.values() if q.endpoint == endpoint]

    def summary(self) -> dict:
        """The per-plan roll-up embedded in a ``/batch`` response."""
        return {
            "queries": self.n_slots,
            "unique_queries": len(self.uniques),
            "cse_hits": self.cse_hits,
        }


def build_plan(requests: Sequence[object]) -> QueryPlan:
    """Compile canonical requests into a deduplicated query plan.

    Accepts any mix of the seven canonical request types (rate, license,
    machine, review, policy, scenario, threshold_at); identity is the
    request's ``cache_key``, so equivalent payload spellings collapse
    exactly as they do in the response cache.
    """
    return QueryPlan(requests)


# ---------------------------------------------------------------------------
# response bodies — field-for-field identical to sequential dispatch
# (dict insertion order is serialization order, so it is part of the
# byte-identity contract)
# ---------------------------------------------------------------------------

def _rate_body(request, rating: float, threshold: float) -> dict:
    return {
        "endpoint": "rate",
        "ctp_mtops": rating,
        "threshold_mtops": threshold,
        "supercomputer": bool(rating >= threshold),
        "processors": request.processors,
        "coupling": request.coupling.name.lower(),
        "year": request.year,
    }


def _license_body(request, index: float, code: int) -> dict:
    decision = ExportControlPolicy(
        request.threshold_mtops
    ).license_decision(request.machine, request.destination)
    return {
        "endpoint": "license",
        "machine": request.machine.key,
        "destination": request.destination,
        "year": request.year,
        "rating_mtops": decision.rating_mtops,
        "threshold_mtops": request.threshold_mtops,
        "tier": decision.tier.name.lower(),
        "tier_label": decision.tier.value,
        "requires_license": decision.requires_license,
        "safeguards_required": decision.safeguards_required,
        "approved": decision.approved,
        "controllability_index": float(index),
        "classification": CLASS_BY_CODE[int(code)].value,
    }


def _policy_body(cell) -> dict:
    return {
        "endpoint": "policy",
        "threshold_mtops": cell.threshold_mtops,
        "year": cell.year,
        "frontier_mtops": cell.frontier_mtops,
        "credible": cell.credible,
        "protected_count": len(cell.protected_applications),
        "illusory_count": len(cell.illusory_applications),
        "protected_applications": [
            a.name for a in cell.protected_applications],
        "illusory_applications": [
            a.name for a in cell.illusory_applications],
        "burden_units": cell.burden_units,
        "uncontrollable_covered_systems": [
            m.key for m in cell.uncontrollable_covered_systems],
    }


def _scenario_body(request, point) -> dict:
    from repro.scenarios.spec import scenario_to_payload

    cell = point.cell
    return {
        "endpoint": "scenario",
        "scenario": request.scenario.name,
        "world": scenario_to_payload(request.scenario),
        "historical": request.scenario.is_historical,
        "threshold_mtops": cell.threshold_mtops,
        "year": cell.year,
        "frontier_mtops": cell.frontier_mtops,
        "credible": cell.credible,
        "protected_count": len(cell.protected_applications),
        "illusory_count": len(cell.illusory_applications),
        "burden_units": cell.burden_units,
        "uncontrollable_count":
            len(cell.uncontrollable_covered_systems),
        "threshold_in_force_mtops":
            point.threshold_in_force_mtops,
        "in_force_credible": point.in_force_credible,
    }


def machine_body(request) -> dict:
    """``/machine`` response: catalog lookup + controllability assessment."""
    from repro.controllability.index import assess

    machine = request.machine
    assessment = assess(machine)
    return {
        "endpoint": "machine",
        "machine": machine.key,
        "country": machine.country,
        "year": machine.year,
        "architecture": machine.architecture.value,
        "processors": machine.n_processors,
        "ctp_mtops": machine.ctp_mtops,
        "max_config_ctp_mtops": machine.max_configuration().ctp_mtops,
        "controllability_index": assessment.index,
        "classification": assessment.classification.value,
    }


def review_body(request) -> dict:
    """``/review`` response: one full annual-review run."""
    review = run_annual_review(request.year, request.policy)
    premises = review.premises
    return {
        "endpoint": "review",
        "year": request.year,
        "policy": request.policy.name.lower(),
        "premises": {
            f"premise{report.number}": report.holds
            for report in (premises.premise1, premises.premise2,
                           premises.premise3)
        },
        "bounds_mtops": {
            "lower_uncontrollable": review.bounds.uncontrollable_mtops,
            "lower_foreign": review.bounds.foreign_mtops,
            "upper_application": review.bounds.upper_application_mtops,
            "upper_theoretical": review.bounds.upper_theoretical_mtops,
        },
        "threshold_in_force_mtops": review.threshold_in_force,
        "recommended_threshold_mtops":
            review.recommendation.threshold_mtops,
        "threshold_is_stale": review.threshold_is_stale,
    }


def threshold_at_body(request) -> dict:
    """``/threshold_at`` response: the era threshold in force."""
    return {
        "endpoint": "threshold_at",
        "year": request.year,
        "threshold_mtops": threshold_at(request.year),
    }


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute_plan(plan: QueryPlan,
                 caller_holds_guard: bool = False) -> list[object]:
    """Run ``plan`` under one catalog read guard; scatter per slot.

    Returns one entry per input slot: the response body ``dict``, or the
    ``BaseException`` that sub-request alone would have raised.  Slots
    that shared a unique query share the same body object (responses are
    treated as immutable everywhere, exactly like LRU-cache hits).

    ``caller_holds_guard`` skips taking the read guard (it is not
    reentrant) when the caller — a MicroBatcher dispatch — already holds
    it for the whole batch.
    """
    guard = nullcontext() if caller_holds_guard else read_guard()
    with guard:
        with trace("serve.plan", size=plan.n_slots,
                   unique=len(plan.uniques)):
            _run_reviews(plan)
            eras = _resolve_eras(plan)
            _run_rates(plan, eras)
            _run_threshold_ats(plan, eras)
            _run_licenses(plan)
            _run_policies(plan)
            _run_scenarios(plan)
            _run_machines(plan)
    for query in plan.uniques.values():
        if query.result is None:  # unknown kind: fail its slots, not None
            query.result = RuntimeError(
                f"planner has no op for endpoint {query.endpoint!r}")
    with _STATS_LOCK:
        _STATS["plans"] += 1
        _STATS["queries"] += plan.n_slots
        _STATS["unique_queries"] += len(plan.uniques)
        _STATS["cse_hits"] += plan.cse_hits
    if plan.cse_hits:
        counter_inc("serve.plan.cse_hits", plan.cse_hits)
    return [plan.uniques[key].result for key in plan.slot_keys]


def _run_reviews(plan: QueryPlan) -> None:
    # Reviews run first: each one derives the threshold in force at its
    # year through the same scalar ``threshold_at``, so later era
    # resolution can reuse the in-batch value (review -> rate edge).
    for query in plan.by_endpoint("review"):
        try:
            query.result = review_body(query.request)
        except BaseException as exc:  # noqa: BLE001 — isolated per slot
            query.result = exc
        _record_op(1)


def _resolve_eras(plan: QueryPlan) -> dict[float, object]:
    """The threshold in force per distinct year, reused or bisected.

    Values are floats, or the exception a sequential ``threshold_at``
    call raised for that year (propagated to every dependent slot).
    """
    needed: dict[float, int] = {}
    for endpoint in ("rate", "threshold_at"):
        for query in plan.by_endpoint(endpoint):
            year = query.request.year
            needed[year] = needed.get(year, 0) + 1
    if not needed:
        return {}
    in_batch: dict[float, float] = {}
    for query in plan.by_endpoint("review"):
        if isinstance(query.result, dict):
            in_batch.setdefault(query.request.year,
                                query.result["threshold_in_force_mtops"])
    eras: dict[float, object] = {}
    reuses = 0
    for year, fanout in needed.items():
        if year in in_batch:
            # Bit-identical by construction: the review called the same
            # threshold_at(year) under the same epoch.
            eras[year] = in_batch[year]
            reuses += 1
            continue
        try:
            eras[year] = threshold_at(year)
        except BaseException as exc:  # noqa: BLE001 — isolated per year
            eras[year] = exc
        _record_op(fanout)
    if reuses:
        with _STATS_LOCK:
            _STATS["reuse_hits"] += reuses
        counter_inc("serve.plan.reuse_hits", reuses)
    return eras


def _finish_rate(query: _Query, rating: float,
                 eras: dict[float, object]) -> None:
    era = eras[query.request.year]
    if isinstance(era, BaseException):
        query.result = era
        return
    try:
        query.result = _rate_body(query.request, float(rating), era)
    except BaseException as exc:  # noqa: BLE001 — isolated per slot
        query.result = exc


def _run_rates(plan: QueryPlan, eras: dict[float, object]) -> None:
    # One fused ctp_homogeneous_batch per coupling across every rating
    # query in the plan; each rating is tp_i * S[n_i] against a shared
    # read-only prefix-sum row, so fused and per-request calls agree bit
    # for bit (the property the serve_load parity gate already pins).
    groups: dict[object, list[_Query]] = {}
    for query in plan.by_endpoint("rate"):
        groups.setdefault(query.request.coupling, []).append(query)
    for coupling, queries in groups.items():
        elements = [q.request.element() for q in queries]
        ns = np.array([q.request.processors for q in queries])
        try:
            ratings = ctp_homogeneous_batch(elements, ns, coupling)
        except BaseException:  # noqa: BLE001 — refuse shared-fate errors
            # A fused failure must not change any slot's answer: fall
            # back to rating each query alone, exactly as sequential
            # dispatch would have.
            for query in queries:
                try:
                    rating = ctp_homogeneous_batch(
                        [query.request.element()],
                        np.array([query.request.processors]), coupling)[0]
                except BaseException as exc:  # noqa: BLE001
                    query.result = exc
                    continue
                _finish_rate(query, rating, eras)
                _record_op(1)
            continue
        for query, rating in zip(queries, ratings):
            _finish_rate(query, rating, eras)
        _record_op(len(queries))


def _run_threshold_ats(plan: QueryPlan, eras: dict[float, object]) -> None:
    for query in plan.by_endpoint("threshold_at"):
        era = eras[query.request.year]
        if isinstance(era, BaseException):
            query.result = era
        else:
            query.result = {
                "endpoint": "threshold_at",
                "year": query.request.year,
                "threshold_mtops": era,
            }


def _run_licenses(plan: QueryPlan) -> None:
    # One score/index/classify matrix pass across every license query;
    # row arithmetic matches the scalar ``assess`` bit for bit.
    queries = plan.by_endpoint("license")
    if not queries:
        return
    weights = np.array([[DEFAULT_WEIGHTS.size, DEFAULT_WEIGHTS.units,
                         DEFAULT_WEIGHTS.channel, DEFAULT_WEIGHTS.price,
                         DEFAULT_WEIGHTS.scalability]])

    def matrix_pass(batch: list[_Query]) -> None:
        machines = tuple(q.request.machine for q in batch)
        scores = score_matrix(machines)
        indices = index_matrix(weights, scores)[0]
        codes = classify_index_matrix(
            indices, DEFAULT_WEIGHTS.uncontrollable_below,
            DEFAULT_WEIGHTS.controllable_at)
        for query, index, code in zip(batch, indices, codes):
            try:
                query.result = _license_body(query.request, index, code)
            except BaseException as exc:  # noqa: BLE001
                query.result = exc

    try:
        matrix_pass(queries)
    except BaseException:  # noqa: BLE001 — refuse shared-fate errors
        for query in queries:
            try:
                matrix_pass([query])
            except BaseException as exc:  # noqa: BLE001
                query.result = exc
            _record_op(1)
        return
    _record_op(len(queries))


def _run_policies(plan: QueryPlan) -> None:
    # Grids over the distinct thresholds and years of every policy point
    # in the plan.
    from repro.tiles import policy_cells

    queries = plan.by_endpoint("policy")
    if not queries:
        return
    try:
        cells = policy_cells(
            [(q.request.threshold_mtops, q.request.year) for q in queries])
    except BaseException:  # noqa: BLE001 — refuse shared-fate errors
        for query in queries:
            try:
                cell = policy_cells(
                    [(query.request.threshold_mtops, query.request.year)])[0]
                query.result = _policy_body(cell)
            except BaseException as exc:  # noqa: BLE001
                query.result = exc
            _record_op(1)
        return
    for query, cell in zip(queries, cells):
        query.result = _policy_body(cell)
    _record_op(len(queries))


def _run_scenarios(plan: QueryPlan) -> None:
    # One grid per world over its scenario points' distinct thresholds
    # and years; the plan already holds the read guard (it is not
    # reentrant).
    from repro.tiles import scenario_cells

    queries = plan.by_endpoint("scenario")
    if not queries:
        return

    def points_of(batch: list[_Query]) -> list:
        return scenario_cells(
            [(q.request.scenario, q.request.threshold_mtops,
              q.request.year) for q in batch],
            _caller_holds_guard=True)

    try:
        points = points_of(queries)
    except BaseException:  # noqa: BLE001 — refuse shared-fate errors
        for query in queries:
            try:
                query.result = _scenario_body(query.request,
                                              points_of([query])[0])
            except BaseException as exc:  # noqa: BLE001
                query.result = exc
            _record_op(1)
        return
    for query, point in zip(queries, points):
        query.result = _scenario_body(query.request, point)
    _record_op(len(queries))


def _run_machines(plan: QueryPlan) -> None:
    for query in plan.by_endpoint("machine"):
        try:
            query.result = machine_body(query.request)
        except BaseException as exc:  # noqa: BLE001 — isolated per slot
            query.result = exc
        _record_op(1)
