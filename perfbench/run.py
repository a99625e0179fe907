#!/usr/bin/env python3
"""End-to-end benchmark of the jostspec command line.

Runs `jostspec.cli.main(argv)` in-process on seed-generated configs, checks
every output with the benchmark's own code, and prints one JSON result as
the last line of standard output:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 40 --trace 0

Load: one process, one thread, a closed loop with one CLI invocation (op)
at a time.  A pass runs every op of the workload once, from a cleared
coefficient cache; passes repeat while the next one is predicted to end
within --seconds, and at least MIN_PASSES run.  `--threads` is never passed,
so the CLI default of one thread applies.

Times are rescaled to a reference machine speed.  On a shared host the speed
of the CPU drifts by up to a factor of two over minutes, and CPU time drifts
with wall time, so the drift is not scheduling.  A fixed loop that does not
touch jostspec (`probe`) runs before every op and after the last one, at
least PROBES_PER_PASS times per pass, and before each set-up sample.  Timed
seconds are multiplied by (REFERENCE_S / median probe) ** SPEED_EXPONENT.
The raw wall seconds and the probes are kept in the record.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of tracer.py, plus the
tracing overhead (median traced pass minus median untraced pass).

The jostspec sources are imported from src/ next to this directory; without
them the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from tracer import ERROR_LABELS, TARGETS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ".perfbench-work"
MIN_PASSES = 2
SETUP_SAMPLES = 9
PROBE_LOOPS = 120_000
PROBES_PER_PASS = 9
REFERENCE_S = 0.010
# jostspec slows more than the probe when the host is busy: over 90 runs on a
# shared 2-core Intel Xeon VM, the log-log slope of pass seconds against probe
# seconds was 1.19 on deep and 1.42 on certify.
SPEED_EXPONENT = 1.3
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import jostspec; "
    "warm_up = getattr(getattr(jostspec, '_kernels', None), 'warm_up', None); "
    "warm_up and warm_up(); print(time.perf_counter() - t0)"
)


@dataclass
class OpResult:
    code: int | None
    error: str | None
    warned: bool
    data: bytes | None


def probe():
    """Seconds for a fixed interpreter-bound loop: the host's current speed."""
    t0 = perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return perf_counter() - t0


def rescale(seconds, probe_s):
    """Seconds at the reference speed, for work timed while the probe took probe_s."""
    return seconds * (REFERENCE_S / probe_s) ** SPEED_EXPONENT


def coefficient_cache():
    """The coefficient-array LRU cache, or None once the library drops it."""
    from jostspec import coefficients

    cache = getattr(coefficients, "_cached_arrays", None)
    return cache if hasattr(cache, "cache_info") else None


def run_op(cli, op, out):
    """One CLI invocation; only the call itself is timed."""
    csv = out / f"{op.experiment}.csv"
    csv.unlink(missing_ok=True)
    argv = [op.experiment, "--config", str(op.config), "--out", str(out)]
    code = error = None
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crashing op is counted as failed; the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    if code == 2:
        error = f"exit 2: {stderr.getvalue().strip()}"
    data = csv.read_bytes() if csv.exists() else None
    warned = any(w.category.__module__.startswith("jostspec") for w in caught)
    return seconds, OpResult(code, error, warned, data)


def run_pass(ops, outdir):
    from jostspec import cli

    # Every pass starts from the state of a fresh process.
    cache = coefficient_cache()
    if cache is not None:
        cache.cache_clear()
    gc.collect()
    per_gap = -(-PROBES_PER_PASS // (len(ops) + 1))
    total = 0.0
    probes = []
    results = []
    for op in ops:
        probes += [probe() for _ in range(per_gap)]
        seconds, result = run_op(cli, op, outdir / op.tag)
        total += seconds
        results.append(result)
    probes += [probe() for _ in range(per_gap)]
    return total, probes, results


def judge(op, result):
    if result.data is None:
        return checks.Verdict()
    if op.experiment == "bands":
        return checks.check_bands(op, result.code, result.data)
    if op.experiment == "compare":
        return checks.check_compare(result.code, result.data, op.params["grid_points"])
    if op.experiment == "entropy":
        return checks.check_entropy(result.code, result.data, op.params["N_list"])
    return checks.check_certify(result.code, result.data)


class Tally:
    """Failure counts per op.  The first pass is checked in full; later passes
    must repeat its exit codes and CSV bytes exactly.  Each op counts once,
    as failed if any of its invocations failed, so the counts depend on the
    seed alone and not on how many passes fit in --seconds."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None
        self.verdicts = None
        self.failed_tags = set()
        self.correct = True
        self.notes = {}

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return len(self.failed_tags)

    @staticmethod
    def _failure(r, first, verdict):
        """(reason, wrong) for a failed op, else None.  `wrong` marks output
        that is wrong although the program did not flag it."""
        if (r.code, r.data) != (first.code, first.data):
            return "output differs from the first pass", True
        if r.error is not None:
            return r.error, False
        if r.code not in (0, 3):
            return f"exit {r.code}", True
        if verdict.problems:
            return "; ".join(verdict.problems), True
        if verdict.inaccurate:
            return f"exit {r.code}, inaccurate", not (r.code == 3 or r.warned)
        if r.code == 3:
            return "exit 3", False
        return None

    def add(self, results):
        if self.first is None:
            self.first = results
            self.verdicts = [judge(op, r) for op, r in zip(self.ops, results)]
        for op, r, first, verdict in zip(self.ops, results, self.first, self.verdicts):
            failure = self._failure(r, first, verdict)
            if failure is None:
                continue
            reason, wrong = failure
            self.failed_tags.add(op.tag)
            self.correct = self.correct and not wrong
            reasons = self.notes.setdefault(op.tag, [])
            if reason not in reasons:
                reasons.append(reason)


def measure_setup(samples):
    """Seconds for a fresh interpreter to import jostspec and warm its kernels,
    with a probe before each sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    probes = []
    for _ in range(samples):
        probes.append(probe())
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times, probes


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "jostspec").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def layer_metrics(tracer, traced_passes, cache_hits, cache_misses, verdicts, overhead, probe_s):
    metrics = {}
    for label, *_ in TARGETS:
        self_s = tracer.self_s[label] / traced_passes
        metrics[f"{label}.calls"] = (tracer.calls[label] / traced_passes, "count")
        metrics[f"{label}.self_s"] = (self_s, "s")
        if label.startswith("kernels."):
            sites = tracer.sites[label] / traced_passes
            metrics[f"{label}.sites"] = (sites, "count")
            metrics[f"{label}.ns_per_site"] = (1e9 * self_s / sites if sites else 0.0, "ns")
    for label in ERROR_LABELS:
        metrics[label] = (tracer.errors[label] / traced_passes, "count")
    metrics["bands.edge_err_max"] = (max(v.edge_err for v in verdicts), "abs")
    lookups = cache_hits + cache_misses
    metrics["coefficients.cache_hit_ratio"] = (cache_hits / lookups if lookups else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead, "s")
    # Layer times are raw wall seconds; the probe gives the host speed they ran at.
    metrics["host.probe_s"] = (probe_s, "s")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Tiny problem sizes and one set-up sample, for the smoke test.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "jostspec" / "__init__.py").is_file():
        print(f"perfbench: jostspec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jostspec

    warm_up = getattr(getattr(jostspec, "_kernels", None), "warm_up", None)
    if warm_up is not None:
        warm_up()
    workload = WORKLOADS[args.workload]
    workdir = Path.cwd() / WORKDIR / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    ops = workload.build(args.seed, workdir, args.tiny)
    setup, setup_probes = measure_setup(1 if args.tiny else SETUP_SAMPLES)

    tally = Tally(ops)
    tracer = Tracer() if args.trace else None
    # (raw seconds, median probe seconds) of each pass
    untraced, traced = [], []
    cache_hits = cache_misses = 0
    deadline = perf_counter() + args.seconds
    while True:
        started = perf_counter()
        seconds, probes, results = run_pass(ops, workdir / "out")
        untraced.append((seconds, statistics.median(probes)))
        tally.add(results)
        if tracer is not None:
            tracer.install()
            try:
                seconds, probes, results = run_pass(ops, workdir / "out")
            finally:
                tracer.uninstall()
            cache = coefficient_cache()
            if cache is not None:
                cache_hits += cache.cache_info().hits
                cache_misses += cache.cache_info().misses
            traced.append((seconds, statistics.median(probes)))
            tally.add(results)
        spent = perf_counter() - started
        if len(untraced) + len(traced) >= MIN_PASSES and perf_counter() + spent > deadline:
            break

    run_s = statistics.median(rescale(s, p) for s, p in untraced)
    if tracer is None:
        compared = sum(v.compared for v in tally.verdicts)
        metrics = {
            "run_s": (run_s, "s"),
            "setup_s": (rescale(statistics.median(setup), statistics.median(setup_probes)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
            "oracle_agree_frac": (
                sum(v.agree for v in tally.verdicts) / compared if compared else 0.0,
                "ratio",
            ),
        }
    else:
        overhead = statistics.median(rescale(s, p) for s, p in traced) - run_s
        metrics = layer_metrics(
            tracer,
            len(traced),
            cache_hits,
            cache_misses,
            tally.verdicts,
            overhead,
            statistics.median(p for _, p in traced),
        )
        (workdir / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "backend": jostspec.backend() if hasattr(jostspec, "backend") else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ops_per_pass": len(ops),
        "reference_s": REFERENCE_S,
        "speed_exponent": SPEED_EXPONENT,
        "untraced_pass_s_and_probe_s": untraced,
        "traced_pass_s_and_probe_s": traced,
        "setup_samples_s": setup,
        "setup_probes_s": setup_probes,
        "failures": tally.notes,
    }
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({"record": record, **result}, indent=1), encoding="utf-8")
    for tag, notes in tally.notes.items():
        print(f"perfbench: {tag} failed: {'; '.join(notes)}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
