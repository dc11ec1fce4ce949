"""Judge a change against its parent from benchmark result files.

Usage::

    python3 benchmarks/e2e/compare.py --parent P/*.json --change C/*.json

Each argument is a result JSON written by ``run.py`` (or a directory of
them).  Runs pair up by (workload, seed); every end-to-end metric in
``BENCHMARK.json`` is judged per workload by this rule:

* at least 10 pairs, and neither side ran first in more than half of
  them (rounded up) -- otherwise *unresolved*;
* **gain**: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile spread, in the better direction;
* **regression**: the change's median is worse than the parent's by
  more than the metric's bound (a share of the parent's median);
* **unresolved**: the parent's own spread is wider than the bound,
  unless every change run reads better than every parent run;
* otherwise **within bound**.

Exits 1 if any (metric, workload) regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: list[Path]) -> dict[tuple[str, int], dict]:
    """Plain-run results keyed by (workload, seed)."""
    out = {}
    for path in paths:
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            doc = json.loads(file.read_text())
            if doc.get("trace") == 0 and not doc.get("smoke"):
                out[(doc["workload"], doc["seed"])] = doc
    return out


def judge(parent: list[float], change: list[float], parent_first: int,
          better: str, bound: float) -> tuple[str, dict]:
    """Verdict for one (metric, workload) from paired runs."""
    n = len(parent)
    if n < MIN_PAIRS:
        return f"unresolved ({n} pairs < {MIN_PAIRS})", {}
    if max(parent_first, n - parent_first) > math.ceil(n / 2):
        return "unresolved (run order not alternated)", {}
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, median_p, q3 = statistics.quantiles(parent, n=4)
    median_c = statistics.median(change)
    spread = q3 - q1
    worse = sign * (median_c - median_p) / median_p
    stats = {"parent_median": median_p, "parent_iqr": spread,
             "change_median": median_c, "worse_share": worse,
             "wins": wins, "pairs": n}
    if wins >= WIN_SHARE * n and worse < 0 and \
            abs(median_c - median_p) > spread:
        return "gain", stats
    all_better = max(sign * c for c in change) < min(sign * p
                                                     for p in parent)
    if spread / median_p > bound and not all_better:
        return f"unresolved (parent spread {spread / median_p:.1%} > " \
               f"bound {bound:.0%})", stats
    if worse > bound:
        return "regression", stats
    return "within bound", stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    parent, change = load(args.parent), load(args.change)
    keys = sorted(parent.keys() & change.keys())
    regressed = False
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        parent_first = sum(parent[(workload, s)]["started_at"]
                           < change[(workload, s)]["started_at"]
                           for s in seeds)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)]["metrics"][name]["value"]
                 for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"]
                 for s in seeds]
            verdict, stats = judge(p, c, parent_first, metric["better"],
                                   metric["bound"])
            regressed |= verdict == "regression"
            detail = ""
            if stats:
                detail = (f" parent {stats['parent_median']:.4g} "
                          f"(IQR {stats['parent_iqr']:.3g}) change "
                          f"{stats['change_median']:.4g} "
                          f"({stats['worse_share']:+.1%} worse) wins "
                          f"{stats['wins']}/{stats['pairs']}")
            print(f"{workload} {name}: {verdict};{detail} bound "
                  f"{metric['bound']:.0%}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
