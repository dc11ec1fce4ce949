"""Standalone benchmark runner: ``python benchmarks/perf/run_benchmarks.py``.

Equivalent to ``python -m repro bench``; kept here so the perf harness is
discoverable next to the paper-artifact benchmarks.  Pass ``--quick`` for
the CI smoke configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))


def main() -> int:
    from repro.perf.workloads import run_benchmarks

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--output", type=str,
                        default=str(REPO_ROOT / "BENCH_perf.json"))
    args = parser.parse_args()
    payload = run_benchmarks(quick=args.quick, output=args.output)
    for w in payload["workloads"]:
        speedup = ("n/a" if w["speedup"] is None
                   else f"{w['speedup']:.1f}x")
        print(f"{w['name']:<26} {speedup:>11} "
              f"(scalar {w['scalar']['best_seconds'] * 1e3:.2f} ms, "
              f"batch {w['batch']['best_seconds'] * 1e3:.2f} ms)")
    print(json.dumps({"wrote": args.output}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
