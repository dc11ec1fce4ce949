"""The benchmark end to end in smoke mode, and the comparison rule."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from compare import judge, main as compare_main
from mixes import MIXES
from run import CLOSED_S, MIN_SAMPLES, OPEN_S, open_schedule

HERE = Path(__file__).resolve().parent


SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("mix", MIXES.values(), ids=MIXES)
def test_open_loop_has_enough_samples(mix):
    assert OPEN_S + CLOSED_S == SPEC["run_seconds"]
    schedule = open_schedule(mix, 1, OPEN_S)
    assert sum(not item.is_write for _, item in schedule) >= MIN_SAMPLES


def _smoke(tmp_path: Path, workload: str, trace: int) -> tuple[dict, str]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "3", "--smoke", "--trace", str(trace), "--out",
               str(tmp_path)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=20, cwd=HERE.parents[1])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return result, done.stdout


def test_smoke_run_reports_every_end_to_end_metric(tmp_path):
    result, stdout = _smoke(tmp_path, "agentic_hot", 0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
        assert f"agentic_hot {metric['name']} " in stdout

    # A smoke result is never a comparison sample.
    assert compare_main(["--parent", str(tmp_path), "--change",
                         str(tmp_path)]) == 0


def test_traced_smoke_run_reports_every_layer(tmp_path):
    # churn_mix: catalog events in both phases, checked epoch by epoch.
    result, _ = _smoke(tmp_path, "churn_mix", 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["catalog.events_applied"]["value"] >= 2
    assert result["metrics"]["stages.coverage"]["value"] > 0.5


def test_rule_needs_ten_alternated_pairs():
    parent = [10.0 + 0.1 * k for k in range(10)]
    assert judge(parent[:9], parent[:9], 4, "lower", 0.1)[0].startswith(
        "unresolved (9 pairs")
    assert judge(parent, parent, 8, "lower", 0.1)[0].startswith(
        "unresolved (run order")


@pytest.mark.parametrize("change, verdict", [
    ([9.0 + 0.1 * k for k in range(10)], "gain"),
    ([10.0 + 0.1 * k for k in range(10)], "within bound"),
    ([12.0 + 0.1 * k for k in range(10)], "regression"),
])
def test_rule_verdicts(change, verdict):
    parent = [10.0 + 0.1 * k for k in range(10)]
    assert judge(parent, change, 5, "lower", 0.1)[0] == verdict
    flipped = [2 * 10.45 - c for c in change]  # mirror for higher-better
    assert judge([2 * 10.45 - p for p in parent], flipped, 5, "higher",
                 0.1)[0] == verdict


def test_spread_wider_than_bound_is_unresolved():
    parent = [10.0, 14.0] * 5
    change = [11.0, 13.0] * 5
    assert judge(parent, change, 5, "lower", 0.1)[0].startswith(
        "unresolved (parent spread")
