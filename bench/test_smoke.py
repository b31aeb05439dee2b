"""Smoke test of the benchmark harness at toy size.

Runs every workload of BENCHMARK.json untraced and traced on toy-sized
inputs for half a second each, and checks the result line against the
metric lists there.  Also checks that the benchmark fails, printing no
result, where there is no package to measure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_toy_size(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--scale", "toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "tmp", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "class-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
