"""Smoke tests of the benchmark at tiny problem sizes.

Every metric BENCHMARK.json names must be printed with its unit, and the
benchmark must refuse to run where the jostspec sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(script, cwd, workload, trace):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(tmp_path, workload, trace):
    proc = _run(BENCH_DIR / "run.py", tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in expected}
    assert all(math.isfinite(metric["value"]) for metric in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path / BENCH_DIR.name / "run.py", tmp_path, "deep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
