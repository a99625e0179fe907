#!/usr/bin/env python3
"""Time one benchmark workload on two source trees, interleaved, in one process.

    python tools/ab.py BASE HEAD --workload {deep,sweep,certify} [--rounds R] [--tiny]

BASE and HEAD are checkouts of jostspec (directories holding src/jostspec).
Both are imported into this process, as the packages jostspec_base and
jostspec_head, so they share the interpreter, the allocator and the CPU's
state.  The workload's ops come from perfbench/workloads.py next to this
script (seed 1); both trees run the same config files.  Each round runs one
pass of BASE and then one pass of HEAD (ABAB), a pass being every op once
through the tree's jostspec.cli.main from a cleared coefficient cache, as
perfbench/run.py times it.

Prints the minimum milliseconds of each op and of a pass on each tree, the
HEAD / BASE ratio of each round's passes as a median with a 95 % bootstrap
interval of that median, and the number of rounds in which HEAD was faster.
A ratio below 1 means HEAD is faster.  Quote the pass ratio: the minima of
ops that take a few milliseconds can differ by a fifth between two copies of
one tree.  perfbench/run.py stays the benchmark; this tool tells whether a
difference is within its resolution.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
BOOTSTRAP = 2000


def load_tree(tree, name):
    """The jostspec package of a source tree, imported as `name`."""
    package = Path(tree).resolve() / "src" / "jostspec"
    init, search = package / "__init__.py", [str(package)]
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def run_pass(package, ops, outdir):
    """Seconds of each op of one pass; a non-zero exit or an exception is an error."""
    cache = getattr(package.coefficients, "_cached_arrays", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()
    gc.collect()
    seconds = []
    for op in ops:
        argv = [op.experiment, "--config", str(op.config), "--out", str(outdir / op.tag)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            code = package.cli.main(argv)
            seconds.append(perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"{package.__name__}: {op.tag} exited {code}\n{stderr.getvalue()}")
    return seconds


def bootstrap_median(ratios, rng):
    """The median of ratios and a 95 % bootstrap interval of it."""
    samples = rng.choice(ratios, size=(BOOTSTRAP, len(ratios)))
    low, high = np.quantile(np.median(samples, axis=1), [0.025, 0.975])
    return statistics.median(ratios), float(low), float(high)


def main(argv=None):
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="source tree to compare against")
    parser.add_argument("head", help="source tree under test")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=50, help="BASE, HEAD pass pairs (default 50)")
    parser.add_argument("--tiny", action="store_true", help="the workload's tiny problem sizes")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not (Path(tree) / "src" / "jostspec").is_dir():
            parser.error(f"{tree} has no src/jostspec")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = [load_tree(args.base, "jostspec_base"), load_tree(args.head, "jostspec_head")]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        work = Path(tmp)
        (work / "configs").mkdir()
        ops = WORKLOADS[args.workload].build(SEED, work / "configs", args.tiny)
        outdirs = [work / "base", work / "head"]
        for package, outdir in zip(trees, outdirs):
            run_pass(package, ops, outdir)  # warm-up, not timed
        times = [[], []]
        for _ in range(args.rounds):
            for i, (package, outdir) in enumerate(zip(trees, outdirs)):
                times[i].append(run_pass(package, ops, outdir))
    per_op = np.array(times) * 1e3  # (tree, round, op) in ms
    passes = per_op.sum(axis=2)
    ratios = passes[1] / passes[0]
    median, low, high = bootstrap_median(ratios, np.random.default_rng(0))
    print(f"{args.workload}: {len(ops)} ops, {args.rounds} rounds{' (tiny)' if args.tiny else ''}")
    print(f"{'op':<24} {'base min ms':>12} {'head min ms':>12} {'ratio':>7}")
    rows = [(op.tag, per_op[0, :, j].min(), per_op[1, :, j].min()) for j, op in enumerate(ops)]
    for tag, base, head in rows + [("pass", passes[0].min(), passes[1].min())]:
        print(f"{tag:<24} {base:>12.3f} {head:>12.3f} {head / base:>7.3f}")
    lower = int((ratios < 1).sum())
    print(f"pass ratio head/base: median {median:.3f} [{low:.3f}, {high:.3f}], head lower in {lower} of {args.rounds}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
