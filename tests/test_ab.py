"""Smoke test of tools/ab.py: a tree against itself, at tiny sizes.

Only the report's structure is checked, never a ratio: timings vary."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_against_itself_reports_every_op(tmp_path):
    argv = [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT), "--workload", "certify"]
    argv += ["--tiny", "--rounds", "3"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "certify: 3 ops, 3 rounds (tiny)"
    assert lines[1].split() == ["op", "base", "min", "ms", "head", "min", "ms", "ratio"]
    number = r"\d+\.\d{3}"
    rows = [re.fullmatch(rf"(\S+) +({number}) +({number}) +({number})", line) for line in lines[2:6]]
    assert all(rows), lines[2:6]
    assert [m[1] for m in rows] == ["compare", "certify-N4", "certify-N8", "pass"]
    interval = rf"median {number} \[{number}, {number}\]"
    assert re.fullmatch(rf"pass ratio head/base: {interval}, head lower in [0-3] of 3", lines[6])
    assert len(lines) == 7
    # no output files are left behind
    assert not list(tmp_path.iterdir())
