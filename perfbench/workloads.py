"""Seed-generated workloads.

A workload is the list of CLI invocations (ops) that one benchmark pass
runs.  Each op gets its own generated INI config; the program under test
only ever sees those files.  The same seed writes the same files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    """One `jostspec <experiment> --config <config>` invocation."""

    tag: str
    experiment: str
    config: Path
    a: tuple
    b: tuple
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object


def _numbers(values):
    return ", ".join(repr(float(x)) for x in values)


def _value(value):
    if isinstance(value, (list, tuple)):
        return ", ".join(str(x) for x in value)
    return str(value)


def _write(path, a, b, perturbation, experiment):
    lines = ["[block]", f"q = {len(a)}", f"a = {_numbers(a)}", f"b = {_numbers(b)}", "", "[perturbation]"]
    lines += [f"{key} = {value}" for key, value in perturbation.items()]
    lines += ["", "[experiment]"]
    lines += [f"{key} = {_value(value)}" for key, value in experiment.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ROADMAP baseline model: q = 2 background with a power-decay perturbation on b.
BASE_A = (1.0, 1.4)
BASE_B = (0.1, -0.2)
BASE_PERT = {
    "kind": "power_decay_oscillatory",
    "c": 0.8,
    "s": 0.5,
    "gamma": 0.2,
    "target": "b",
}


def _baseline_op(workdir, tag, experiment, params):
    config = _write(workdir / f"{tag}.ini", BASE_A, BASE_B, BASE_PERT, params)
    return Op(tag, experiment, config, BASE_A, BASE_B, params)


# The baseline workloads are the same for every seed.
def build_deep(seed, workdir, tiny):
    n, n_list, grid = (20, [10, 20], 20) if tiny else (1000, [500, 1000], 200)
    return [
        _baseline_op(workdir, "compare", "compare", {"N": n, "grid_points": grid, "margin": 0.1}),
        _baseline_op(workdir, "entropy", "entropy", {"N_list": n_list, "margin": 0.1}),
    ]


def build_sweep(seed, workdir, tiny):
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(3 if tiny else 24):
        q = 1 + i % 6
        a = rng.uniform(0.7, 1.6, q)
        b = rng.uniform(-0.6, 0.6, q)
        support = int(rng.integers(5, 31))
        # Perturbation sizes follow the randomized suite in tests/conftest.py.
        pert = {
            "kind": "finite_list",
            "alpha": _numbers(rng.uniform(-0.08, 0.08, support) * a.min()),
            "beta": _numbers(rng.uniform(-0.12, 0.12, support)),
        }
        params = {
            "N": math.ceil(support / q) + 3,
            "grid_points": 20 if tiny else 200,
            "margin": 0.05,
        }
        config = _write(workdir / f"model{i:02d}.ini", a, b, pert, params)
        a_t, b_t = tuple(float(x) for x in a), tuple(float(x) for x in b)
        ops.append(Op(f"model{i:02d}-bands", "bands", config, a_t, b_t, params))
        ops.append(Op(f"model{i:02d}-compare", "compare", config, a_t, b_t, params))
    return ops


def build_certify(seed, workdir, tiny):
    # The certificates sample with the CLI's default seed (0).  Their verdict
    # depends on that seed (diagonal_product_bound fails for 36 of the seeds
    # 0..199), which would make ok_frac vary between benchmark seeds.
    n_small, n_large, grid = (4, 8, 20) if tiny else (40, 80, 200)
    common = {"margin": 0.1}
    if tiny:
        common["n_grid"] = [4, 8]
    return [
        _baseline_op(workdir, "compare", "compare", {"N": n_small, "grid_points": grid, **common}),
        _baseline_op(workdir, f"certify-N{n_small}", "certify", {"N": n_small, **common}),
        _baseline_op(workdir, f"certify-N{n_large}", "certify", {"N": n_large, **common}),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep",
            "baseline model at N=1000: compare and entropy spend over 95% of their "
            "time in the backward-recursion and stripping kernels",
            build_deep,
        ),
        Workload(
            "sweep",
            "24 random short-support models, q=1..6, bands then compare: time goes to "
            "band scans and per-energy overhead on short chains",
            build_sweep,
        ),
        Workload(
            "certify",
            "baseline model certified at N=40 and N=80 after a compare at N=40: the only "
            "workload through RenormChain, period products and the Floquet grid",
            build_certify,
        ),
    )
}
