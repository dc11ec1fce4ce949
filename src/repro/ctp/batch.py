"""Batched CTP evaluation: rate N configurations in one NumPy pass.

The scalar pipeline (:func:`repro.ctp.metric.ctp` and friends) rates one
configuration per call, which is fine for a license decision and hopeless
for sweep-style studies — ablation grids, Monte-Carlo sensitivity runs,
and year-grid frontier scans all rate thousands of configurations with the
same handful of credit schedules.  This module provides the array
counterparts:

* :func:`theoretical_performance_batch` — per-element ``TP = R * L`` for a
  whole population of computing elements at once;
* :func:`credit_sums` — memoized credit-schedule *prefix sums*, so the CTP
  of ``n`` identical elements is a cached O(1) lookup (``tp * S_n`` with
  ``S_n = 1 + C_2 + ... + C_n``);
* :func:`aggregate_homogeneous_batch` / :func:`ctp_homogeneous_batch` —
  vectorized over arrays of ``(tp, n)`` pairs;
* :func:`aggregate_batch` / :func:`ctp_batch` — vectorized over (possibly
  ragged, possibly heterogeneous) element configurations.

All batch functions agree with their scalar counterparts to well below
1e-9 relative error (the only permitted difference is floating-point
summation order); the parity suite in ``tests/test_ctp_batch.py`` enforces
this across every coupling and cataloged configuration.

Cache strategy
--------------
Credit schedules depend only on ``(coupling, params, beta, n)``.  The cache
maps ``(coupling, params, beta)`` — all hashable, :class:`CTPParameters`
is frozen — to a growing prefix-sum array; a request for a larger ``n``
than cached regrows the array geometrically, so homogeneous ratings of any
shape eventually hit the O(1) path.  Distinct ``params`` (or ``beta``)
values get distinct cache rows, which is what makes ablation sweeps safe:
the regression test asserts a swept parameter never reuses a stale
schedule.

The cache is bounded: ablation sweeps over thousands of distinct
``(coupling, params, beta)`` rows evict least-recently-used rows beyond
``CREDIT_CACHE_MAX_ROWS`` instead of growing without bound.  Hits,
misses, regrows, and evictions are counted through :mod:`repro.obs`
(``credit_cache.*``) and reported by :func:`credit_cache_info`.

The cache is thread-safe: lookups, inserts, evictions, and
:func:`clear_credit_cache` all serialize behind one re-entrant lock, so
the serving layer may rate concurrent batches from many threads without
corrupting LRU order.  Cached rows are immutable (read-only arrays), so
views handed out before an eviction remain valid.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro._util import check_fraction
from repro.obs.errors import ValidationError
from repro.obs.trace import counter_inc, counters
from repro.ctp.aggregate import (
    Coupling,
    CTPParameters,
    DEFAULT_PARAMETERS,
    aggregation_credits,
)
from repro.ctp.elements import ComputingElement

__all__ = [
    "theoretical_performance_batch",
    "credit_sums",
    "credit_cache_info",
    "clear_credit_cache",
    "aggregate_homogeneous_batch",
    "aggregate_batch",
    "ctp_batch",
    "ctp_homogeneous_batch",
]


def theoretical_performance_batch(
    elements: Sequence[ComputingElement],
) -> np.ndarray:
    """Per-element ``TP = R * L`` in Mtops, one array pass.

    Matches :func:`repro.ctp.rates.theoretical_performance` element-wise:
    concurrent fixed/floating hardware adds rates, otherwise the faster
    unit governs.
    """
    if len(elements) == 0:
        return np.empty(0)
    clock = np.array([e.clock_mhz for e in elements])
    fp = np.array([e.fp_ops_per_cycle for e in elements])
    integer = np.array([e.int_ops_per_cycle for e in elements])
    concurrent = np.array([e.concurrent_int_fp for e in elements], dtype=bool)
    word = np.array([e.word_bits for e in elements])
    r_fp = clock * fp
    r_int = clock * integer
    rate = np.where(concurrent, r_fp + r_int, np.maximum(r_fp, r_int))
    return rate * (1.0 / 3.0 + word / 96.0)


# (coupling, params, beta) -> prefix sums [S_1, S_2, ..., S_k] with
# S_n = sum of the first n credits.  Regrown geometrically on demand,
# LRU-evicted beyond CREDIT_CACHE_MAX_ROWS.
_CREDIT_SUM_CACHE: OrderedDict[tuple[Coupling, CTPParameters, float | None],
                               np.ndarray] = OrderedDict()

# Concurrent /rate batches hit the cache from many threads; without a lock
# the OrderedDict's get/insert/move_to_end/popitem sequences can corrupt
# LRU order or double-evict.  RLock rather than Lock so clear/info helpers
# may call each other.  Rows are read-only arrays, so returning a view
# after releasing the lock is safe even if the row is evicted later.
_CREDIT_CACHE_LOCK = threading.RLock()

#: Generous row bound: a sweep touches a handful of schedules at a time,
#: so even aggressive ablation grids stay well under this while a runaway
#: sweep over thousands of distinct parameter rows no longer leaks memory.
CREDIT_CACHE_MAX_ROWS = 128


def _effective_beta(
    coupling: Coupling,
    params: CTPParameters,
    interconnect_beta: float | None,
) -> float | None:
    """Resolve the cluster discount so equivalent requests share a cache
    row (a CLUSTER request with ``beta=None`` is the same schedule as one
    passing ``params.cluster_beta`` explicitly; other couplings ignore
    beta entirely)."""
    if coupling is not Coupling.CLUSTER:
        return None
    beta = params.cluster_beta if interconnect_beta is None else interconnect_beta
    beta = check_fraction(beta, "interconnect_beta")
    if beta == 0.0:
        raise ValidationError("interconnect_beta must be positive",
                              context={"got": 0.0, "valid": "(0, 1]"})
    return beta


def credit_sums(
    n_max: int,
    coupling: Coupling,
    params: CTPParameters = DEFAULT_PARAMETERS,
    interconnect_beta: float | None = None,
) -> np.ndarray:
    """Memoized credit prefix sums ``[S_1 .. S_n_max]``.

    ``S_n`` is the total credit of ``n`` identical elements, so a
    homogeneous CTP is ``tp * S_n``.  The returned array is a read-only
    view of the cache; do not mutate it.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}",
                              context={"got": n_max, "valid": ">= 1"})
    key = (coupling, params, _effective_beta(coupling, params, interconnect_beta))
    with _CREDIT_CACHE_LOCK:
        cached = _CREDIT_SUM_CACHE.get(key)
        if cached is None or cached.size < n_max:
            if cached is None:
                counter_inc("credit_cache.misses")
            else:
                counter_inc("credit_cache.regrows")
            if coupling is Coupling.SINGLE:
                # SINGLE admits exactly one element; cache the trivial row.
                size = 1
                if n_max > 1:
                    raise ValidationError(
                        "SINGLE coupling admits exactly one element",
                        context={"got": n_max, "valid": "n == 1"},
                    )
            else:
                size = max(n_max,
                           2 * (cached.size if cached is not None else 8))
            credits = aggregation_credits(size, coupling, params,
                                          interconnect_beta)
            cached = np.cumsum(credits)
            cached.setflags(write=False)
            _CREDIT_SUM_CACHE[key] = cached
            while len(_CREDIT_SUM_CACHE) > CREDIT_CACHE_MAX_ROWS:
                _CREDIT_SUM_CACHE.popitem(last=False)
                counter_inc("credit_cache.evictions")
        else:
            counter_inc("credit_cache.hits")
        _CREDIT_SUM_CACHE.move_to_end(key)
        return cached[:n_max]


def credit_cache_info() -> dict[str, int]:
    """Cache introspection: current contents plus lifetime counters.

    ``entries`` (and its alias ``rows``) is the number of cached schedule
    rows — accurate after geometric regrow (a regrown row is still one
    row) and after :func:`clear_credit_cache` (zero).  ``total_length``
    is the summed length of the cached prefix-sum arrays.  The counters
    (``hits``/``misses``/``regrows``/``evictions``) accumulate since the
    last :func:`clear_credit_cache`.
    """
    stats = counters()
    with _CREDIT_CACHE_LOCK:
        entries = len(_CREDIT_SUM_CACHE)
        total_length = int(sum(a.size for a in _CREDIT_SUM_CACHE.values()))
    return {
        "entries": entries,
        "rows": entries,
        "total_length": total_length,
        "max_rows": CREDIT_CACHE_MAX_ROWS,
        "hits": int(stats.get("credit_cache.hits", 0)),
        "misses": int(stats.get("credit_cache.misses", 0)),
        "regrows": int(stats.get("credit_cache.regrows", 0)),
        "evictions": int(stats.get("credit_cache.evictions", 0)),
    }


def clear_credit_cache() -> None:
    """Drop all cached credit schedules and reset the ``credit_cache.*``
    counters (tests and ablation hygiene)."""
    from repro.obs.trace import reset_counters

    with _CREDIT_CACHE_LOCK:
        _CREDIT_SUM_CACHE.clear()
        reset_counters("credit_cache.")


def aggregate_homogeneous_batch(
    tps: Sequence[float] | np.ndarray,
    ns: Sequence[int] | np.ndarray,
    coupling: Coupling,
    params: CTPParameters = DEFAULT_PARAMETERS,
    interconnect_beta: float | None = None,
) -> np.ndarray:
    """CTP of many homogeneous configurations: ``tps[i]`` Mtops per element,
    ``ns[i]`` elements each.

    ``n == 1`` rows take the uniprocessor path regardless of ``coupling``
    (``S_1 = 1``), matching the scalar API's SINGLE fallback.
    """
    tp = np.asarray(tps, dtype=float)
    n = np.asarray(ns, dtype=np.int64)
    if tp.shape != n.shape or tp.ndim != 1:
        raise ValidationError(
            "tps and ns must be 1-D arrays of equal length",
            context={"tps_shape": tp.shape, "ns_shape": n.shape},
        )
    if tp.size == 0:
        return np.empty(0)
    if np.any(tp <= 0) or not np.all(np.isfinite(tp)):
        raise ValidationError(
            "all theoretical performances must be finite and positive",
            context={"min": float(tp.min()), "valid": "> 0"},
        )
    if np.any(n < 1):
        raise ValidationError("all element counts must be >= 1",
                              context={"min": int(n.min()), "valid": ">= 1"})
    n_max = int(n.max())
    if coupling is Coupling.SINGLE and n_max > 1:
        raise ValidationError("SINGLE coupling admits exactly one element",
                              context={"got": n_max, "valid": "n == 1"})
    sums = credit_sums(n_max, coupling, params, interconnect_beta)
    return tp * sums[n - 1]


def aggregate_batch(
    tps_per_config: Sequence[Sequence[float]] | np.ndarray,
    coupling: Coupling,
    params: CTPParameters = DEFAULT_PARAMETERS,
    interconnect_beta: float | None = None,
) -> np.ndarray:
    """CTP of N (possibly heterogeneous, possibly ragged) configurations.

    ``tps_per_config`` is either a 2-D array (one configuration per row) or
    a sequence of per-configuration TP sequences of varying length.  Each
    row is sorted descending and dotted with the credit schedule, exactly
    as :func:`repro.ctp.aggregate.aggregate` does one row at a time.
    """
    rows = [np.asarray(row, dtype=float) for row in tps_per_config]
    if len(rows) == 0:
        return np.empty(0)
    lengths = np.array([r.size for r in rows], dtype=np.int64)
    if np.any(lengths == 0):
        raise ValidationError(
            "at least one computing element is required per configuration",
            context={"empty_rows": int(np.sum(lengths == 0)),
                     "valid": ">= 1 element per configuration"},
        )
    if coupling is Coupling.SINGLE and int(lengths.max()) > 1:
        raise ValidationError("SINGLE coupling admits exactly one element",
                              context={"got": int(lengths.max()),
                                       "valid": "n == 1"})
    for r in rows:
        if r.ndim != 1:
            raise ValidationError(
                "each configuration must be a 1-D sequence of TPs",
                context={"got_ndim": r.ndim, "valid": "1-D"},
            )
        if np.any(r <= 0) or not np.all(np.isfinite(r)):
            raise ValidationError(
                "all theoretical performances must be finite and positive",
                context={"min": float(r.min()), "valid": "> 0"},
            )
    k_max = int(lengths.max())
    # Pad with zeros *after* validation: padded slots earn credit times
    # zero, so they cannot perturb the rating.
    mat = np.zeros((len(rows), k_max))
    for i, r in enumerate(rows):
        mat[i, : r.size] = r
    mat = -np.sort(-mat, axis=1)  # descending per row; zeros sink to the end
    if k_max == 1:
        return mat[:, 0].copy()
    credits = aggregation_credits(k_max, coupling, params, interconnect_beta)
    return mat @ credits


def ctp_batch(
    configurations: Sequence[Sequence[ComputingElement]],
    coupling: Coupling,
    params: CTPParameters = DEFAULT_PARAMETERS,
    interconnect_beta: float | None = None,
) -> np.ndarray:
    """CTP in Mtops of N element configurations in one pass.

    The batched equivalent of calling :func:`repro.ctp.metric.ctp` per
    configuration.  Element TPs are computed in a single flattened array
    pass, then re-split and aggregated per configuration.
    """
    flat: list[ComputingElement] = []
    lengths = []
    for config in configurations:
        config = list(config)
        lengths.append(len(config))
        flat.extend(config)
    tps = theoretical_performance_batch(flat)
    split = np.split(tps, np.cumsum(lengths)[:-1]) if lengths else []
    return aggregate_batch(split, coupling, params, interconnect_beta)


def ctp_homogeneous_batch(
    elements: Sequence[ComputingElement],
    ns: Sequence[int] | np.ndarray,
    coupling: Coupling,
    params: CTPParameters = DEFAULT_PARAMETERS,
    interconnect_beta: float | None = None,
) -> np.ndarray:
    """CTP of many homogeneous machines: ``ns[i]`` copies of
    ``elements[i]``.

    This is the catalog's common shape (every commercial system is ``n``
    identical processors), and the fully cached path: after the first call
    per coupling the per-machine cost is one multiply and one indexed
    lookup.
    """
    tps = theoretical_performance_batch(elements)
    return aggregate_homogeneous_batch(tps, ns, coupling, params,
                                       interconnect_beta)
