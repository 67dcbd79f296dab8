"""Self-check of the benchmark, run from the root of a checkout:

    python3 -m pytest -q perfbench/test_selfcheck.py

Runs every workload briefly: twice traced, to require that the exact counts
repeat, and once untraced, to require every end-to-end metric with its unit.
Also requires that the benchmark fails when the program is absent. Takes a
few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META = json.loads((HERE / "metrics.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def assert_declared(metrics: dict, declared: list[dict]) -> None:
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in declared}


def test_metadata_matches_benchmark_json():
    assert set(META["workloads"]) == set(WORKLOADS)
    assert set(META["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(META["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(META["exact_counts"]) <= set(META["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = result(run(workload, 0, 1))["metrics"]
    second = result(run(workload, 0, 1))["metrics"]
    assert_declared(first, SPEC["per_layer"])
    for name in META["exact_counts"]:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    metrics = result(run(workload, 1, 0))["metrics"]
    assert_declared(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
