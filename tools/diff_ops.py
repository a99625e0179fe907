#!/usr/bin/env python3
"""Run the benchmark's CLI ops on two source trees and diff their outputs.

    python tools/diff_ops.py BASE HEAD [--seeds 11 12 13] [--tiny]

BASE and HEAD are checkouts of jostspec (directories holding src/jostspec).
The ops are the deep, sweep and certify workloads of perfbench/workloads.py
next to this script, built once per seed; both trees run the same config
files.  Each tree runs every op through its own jostspec.cli.main, in one
separate process per tree.

Prints, per experiment, how many CSVs are byte-identical and every op whose
exit code or standard error differs; per differing CSV, the largest relative
change of each numeric column that moved, the cells of other columns that
changed, and the metadata lines that differ.  Exits 0 when everything is
identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deep", "sweep", "certify")


def build_ops(workdir, seeds, tiny):
    """(key, experiment, config) of every op, the configs written under workdir."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS as BUILDERS

    ops = []
    for seed in seeds:
        for name in WORKLOADS:
            configs = workdir / "configs" / f"{name}-{seed}"
            configs.mkdir(parents=True)
            for op in BUILDERS[name].build(seed, configs, tiny):
                ops.append((f"{name}/{seed}/{op.tag}", op.experiment, str(op.config)))
    return ops


def worker():
    """Run the ops read from stdin with the jostspec on sys.path; print one
    JSON record per op: exit code (or the exception raised) and stderr."""
    from jostspec import cli

    warnings.simplefilter("always")
    records = []
    for key, experiment, config, out in json.load(sys.stdin):
        stderr, code = io.StringIO(), None
        with contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([experiment, "--config", config, "--out", out])
            except Exception as exc:  # a crashing op is reported, the run goes on
                code = f"raised {type(exc).__name__}: {exc}"
        records.append({"key": key, "code": code, "stderr": stderr.getvalue()})
    json.dump(records, sys.stdout)


def run_tree(tree, ops, outdir):
    """Every op through tree's CLI in one process; {key: record}."""
    jobs = [(key, exp, config, str(outdir / key)) for key, exp, config in ops]
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        input=json.dumps(jobs), capture_output=True, text=True, env=env, cwd=outdir, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: worker failed\n{proc.stderr}")
    return {r["key"]: r for r in json.loads(proc.stdout)}


def _split(text):
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    return meta, rows


def _relative(x, y):
    try:
        x, y = float(x), float(y)
    except ValueError:
        return None
    if x == y or (x != x and y != y):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def csv_changes(base, head):
    """Lines describing how the CSV text head differs from base."""
    (meta0, rows0), (meta1, rows1) = _split(base), _split(head)
    out = [f"meta - {a}\n      meta + {b}" for a, b in zip(meta0, meta1) if a != b]
    if len(meta0) != len(meta1) or len(rows0) != len(rows1) or rows0[:1] != rows1[:1]:
        return out + [f"shape differs: {len(rows0)} against {len(rows1)} rows"]
    header, moved, cells = rows0[0], defaultdict(float), defaultdict(int)
    for r0, r1 in zip(rows0[1:], rows1[1:]):
        for name, x, y in zip(header, r0, r1):
            rel = _relative(x, y)
            if rel is None:
                cells[name] += x != y
            elif rel:
                moved[name] = max(moved[name], rel)
    out += [f"{name}: max rel change {rel:.3g}" for name, rel in moved.items()]
    return out + [f"{name}: {n} cells differ" for name, n in cells.items() if n]


def compare(ops, results, outdirs):
    """Print the report; True when both trees agree everywhere."""
    base, head = results
    same = True
    by_experiment = defaultdict(list)
    for key, experiment, _ in ops:
        by_experiment[experiment].append(key)
    for experiment, keys in by_experiment.items():
        identical, written, lines = 0, 0, []
        for key in keys:
            r0, r1 = base[key], head[key]
            if r0["code"] != r1["code"]:
                lines.append(f"  {key}: exit {r0['code']} against {r1['code']}")
            if r0["stderr"] != r1["stderr"]:
                lines.append(f"  {key}: stderr differs\n    - {r0['stderr'].strip()}\n    + {r1['stderr'].strip()}")
            paths = [d / key / f"{experiment}.csv" for d in outdirs]
            texts = [p.read_text(encoding="utf-8") if p.exists() else None for p in paths]
            written += texts[0] is not None
            if texts[0] == texts[1]:
                identical += texts[0] is not None
            elif None in texts:
                lines.append(f"  {key}: CSV written by one tree only")
            else:
                lines.append(f"  {key}:")
                lines += [f"    {line}" for line in csv_changes(*texts)]
        print(f"{experiment}: {len(keys)} ops, {identical} of {written} CSVs byte-identical")
        for line in lines:
            print(line)
        same &= not lines
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="source tree to compare against")
    parser.add_argument("head", help="source tree under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    parser.add_argument("--tiny", action="store_true", help="the workloads' tiny problem sizes")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not (Path(tree) / "src" / "jostspec").is_dir():
            parser.error(f"{tree} has no src/jostspec")
    with tempfile.TemporaryDirectory(prefix="diff-ops-") as tmp:
        work = Path(tmp)
        ops = build_ops(work, args.seeds, args.tiny)
        outdirs = [work / "base", work / "head"]
        for d in outdirs:
            d.mkdir()
        results = [run_tree(tree, ops, d) for tree, d in zip((args.base, args.head), outdirs)]
        print(f"{len(ops)} ops, seeds {' '.join(map(str, args.seeds))}{' (tiny)' if args.tiny else ''}")
        return 0 if compare(ops, results, outdirs) else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        raise SystemExit(main())
