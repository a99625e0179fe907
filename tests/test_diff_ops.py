"""Smoke test of tools/diff_ops.py: a tree against itself is identical."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_against_itself_is_identical(tmp_path):
    argv = [sys.executable, str(ROOT / "tools" / "diff_ops.py"), str(ROOT), str(ROOT), "--tiny", "--seeds", "11"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "11 ops, seeds 11 (tiny)"
    # one summary line per experiment, and no line of differences
    assert sorted(lines[1:]) == [
        "bands: 3 ops, 3 of 3 CSVs byte-identical",
        "certify: 2 ops, 2 of 2 CSVs byte-identical",
        "compare: 5 ops, 5 of 5 CSVs byte-identical",
        "entropy: 1 ops, 1 of 1 CSVs byte-identical",
    ]
