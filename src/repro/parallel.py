"""Process-parallel brute-force keysearch.

The paper's observation that a brute-force keysearch partitions "without
reference to the activities of the other processors" names the one
workload here whose chunks are big enough to pay for a process pool:
independent chunks, no communication, results reassembled in order.  The
policy, scenario, sweep and sensitivity grids run serially instead —
each finishes in a few milliseconds, less than a pool takes to start.

The driver mirrors :func:`repro.crypto.keysearch.keyspace_partition` —
contiguous chunks covering the work exactly once — and dispatches them
over a ``concurrent.futures.ProcessPoolExecutor``.

Design rules, all load-bearing for determinism:

* **Chunking is independent of the worker count.**  A chunk layout is a
  function of the input size (and an explicit ``n_chunks`` knob), never
  of ``max_workers``, so ``max_workers=1`` and ``max_workers=N`` produce
  bit-identical results.
* **Results are collected in submission order** (futures are resolved in
  the order the chunks were created), not completion order.
* **``max_workers=1`` is a true serial fallback** — the chunks run in
  the calling process with no executor, so the driver works on machines
  where process pools are unavailable and adds nothing to debugging.

Observability: the driver counts ``parallel.chunks_dispatched``,
``parallel.serial_fallback`` and ``parallel.worker_busy_ms`` (summed
in-chunk wall time, measured inside the workers), and records a
``parallel.run_chunks`` span whose ``utilization`` tag is the busy time
over ``workers x wall`` — 1.0 means every worker computed the whole
time.  Counters bumped *inside* worker processes stay in those
processes; only the driver's own counters are visible to the parent.

Worker functions must be module-level (picklable) callables.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from repro.obs.errors import ValidationError
from repro.obs.trace import counter_inc, trace

__all__ = [
    "partition_chunks",
    "run_chunks",
    "ParallelKeysearchResult",
    "parallel_keysearch",
]


def partition_chunks(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``n_items`` into at most ``n_chunks`` contiguous ranges.

    Mirrors :func:`repro.crypto.keysearch.keyspace_partition`: the ranges
    cover ``[0, n_items)`` exactly once, sizes differ by at most one, and
    empty ranges are dropped (so fewer than ``n_chunks`` ranges come back
    when there is less work than chunks).
    """
    if n_items < 0:
        raise ValidationError("n_items must be >= 0",
                              context={"got": n_items, "valid": ">= 0"})
    if n_chunks < 1:
        raise ValidationError("n_chunks must be >= 1",
                              context={"got": n_chunks, "valid": ">= 1"})
    base, extra = divmod(n_items, n_chunks)
    ranges = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    assert start == n_items
    return [r for r in ranges if r[0] < r[1]]


def _timed_chunk(fn: Callable, args: tuple) -> tuple[float, object]:
    """Worker-side wrapper: run one chunk and report its busy time."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def run_chunks(
    fn: Callable,
    chunk_args: Sequence[tuple],
    max_workers: int = 1,
) -> list:
    """Run ``fn(*args)`` for every args tuple; results in input order.

    ``fn`` must be a module-level (picklable) callable.  With
    ``max_workers=1`` (or a single chunk) everything runs serially in
    the calling process.
    """
    if max_workers < 1:
        raise ValidationError("max_workers must be >= 1",
                              context={"got": max_workers, "valid": ">= 1"})
    chunk_args = list(chunk_args)
    if not chunk_args:
        return []
    counter_inc("parallel.chunks_dispatched", len(chunk_args))
    workers = min(max_workers, len(chunk_args))
    with trace("parallel.run_chunks", chunks=len(chunk_args),
               workers=workers) as span:
        wall_start = time.perf_counter()
        if workers == 1:
            counter_inc("parallel.serial_fallback")
            timed = [_timed_chunk(fn, args) for args in chunk_args]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_timed_chunk, fn, args)
                           for args in chunk_args]
                # Resolved in submission order: deterministic reassembly.
                timed = [f.result() for f in futures]
        wall = time.perf_counter() - wall_start
        busy = sum(elapsed for elapsed, _ in timed)
        counter_inc("parallel.worker_busy_ms", busy * 1e3)
        if span is not None and wall > 0:
            span.tags["utilization"] = round(busy / (wall * workers), 3)
    return [result for _, result in timed]


# ---------------------------------------------------------------------------
# Keysearch: the paper's canonical zero-communication workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelKeysearchResult:
    """Outcome of an exhaustive parallel keysearch."""

    found_keys: tuple[int, ...]
    keys_tried: int
    chunks: int

    @property
    def found_key(self) -> int | None:
        """The smallest matching key (DES parity-flip equivalents mean
        there may be several), or ``None``."""
        return self.found_keys[0] if self.found_keys else None

    @property
    def succeeded(self) -> bool:
        return bool(self.found_keys)


def _keysearch_chunk(
    plaintext: int, ciphertext: int, base_key: int, search_bits: int,
    start: int, stop: int, batch_size: int,
) -> list[int]:
    """Exhaustively scan offsets ``[start, stop)``; all matches returned."""
    from repro.crypto.des import encrypt_blocks, int_to_bits
    from repro.crypto.keysearch import _candidate_bits

    plain_bits = int_to_bits(plaintext, 64)
    cipher_bits = int_to_bits(ciphertext, 64)
    mask = (1 << search_bits) - 1
    found: list[int] = []
    for s in range(start, stop, batch_size):
        offsets = np.arange(s, min(s + batch_size, stop), dtype=np.int64)
        keys = _candidate_bits(base_key, offsets, search_bits)
        out = encrypt_blocks(plain_bits, keys)
        hits = np.all(out == cipher_bits, axis=-1)
        if hits.any():
            found.extend(int((base_key & ~mask) | int(offset))
                         for offset in offsets[hits])
    return found


def parallel_keysearch(
    plaintext: int,
    ciphertext: int,
    base_key: int = 0,
    search_bits: int = 16,
    max_workers: int = 1,
    n_chunks: int | None = None,
    batch_size: int = 4_096,
) -> ParallelKeysearchResult:
    """Exhaustive brute-force search of the low ``search_bits`` keyspace.

    Unlike :func:`repro.crypto.keysearch.brute_force` (which stops at the
    first hit), every chunk scans its full range — which is what makes
    the result independent of both the worker count and the chunk
    layout: ``found_keys`` lists *all* matching keys in ascending order
    and ``keys_tried`` always equals ``2**search_bits``.
    """
    if not 1 <= search_bits <= 40:
        raise ValidationError(
            "search_bits must be in [1, 40] (demo-scale)",
            context={"got": search_bits, "valid": "[1, 40]"},
        )
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1",
                              context={"got": batch_size, "valid": ">= 1"})
    total = 1 << search_bits
    if n_chunks is None:
        # Worker-independent default so the whole result object —
        # including the chunk count — is identical for 1 vs N workers.
        n_chunks = 16
    ranges = partition_chunks(total, n_chunks)
    chunk_args = [
        (plaintext, ciphertext, base_key, search_bits, start, stop,
         batch_size)
        for start, stop in ranges
    ]
    with trace("parallel.keysearch", search_bits=search_bits,
               workers=max_workers, chunks=len(ranges)):
        results = run_chunks(_keysearch_chunk, chunk_args, max_workers)
    found = tuple(sorted(key for chunk in results for key in chunk))
    return ParallelKeysearchResult(found_keys=found, keys_tried=total,
                                   chunks=len(ranges))
