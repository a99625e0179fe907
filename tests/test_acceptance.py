"""End-to-end acceptance suite.

Each test exercises one numbered criterion at its stated tolerance and
prints one [acceptance] verdict line (run pytest with -s to see them all).
"""

import time

import numpy as np
import pytest

import jostspec as js
from jostspec.jost import _wronskian_terms


def _verdict(tag, ok, detail):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_c1_free_case_key_formula(free_model):
    t0 = time.perf_counter()
    grid = np.linspace(-1.9, 1.9, 101)
    values = np.array([js.ac_density(free_model, 4, e) for e in grid])
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(values - np.sqrt(4 - grid**2) / (2 * np.pi))))
    ok = err < 1e-8 and elapsed < 1.0
    assert _verdict(
        "C1 free-case key formula", ok, f"max_abs_err={err:.3e} time={elapsed:.3f}s"
    )


def test_c2_band_structure(free_block):
    free = js.band_edges(free_block).bands
    ok = len(free) == 1 and abs(free[0][0] + 2) < 1e-10 and abs(free[0][1] - 2) < 1e-10
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    bands = js.band_edges(block).bands
    expected = ((-3.0, -1.0), (1.0, 3.0))
    ok = ok and len(bands) == 2
    worst = 0.0
    for got, want in zip(bands, expected):
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    ok = ok and worst < 1e-10
    assert _verdict("C2 band structure", ok, f"worst_edge_err={worst:.3e}")


def test_c3_oracle_equivalence(acceptance_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for model, interval, n_trunc in acceptance_suite:
        key = js.density_curve(model, n_trunc, interval, 200, method="key_formula")
        oracle = js.density_curve(model, n_trunc, interval, 200, method="oracle")
        worst = max(worst, float(np.max(np.abs(key.values - oracle.values) / key.values)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    assert _verdict(
        "C3 oracle equivalence",
        ok,
        f"20 models, max_rel_err={worst:.3e} time={elapsed:.1f}s",
    )


def test_c4_wronskian_identity(acceptance_suite):
    worst = 0.0
    for model, interval, n_trunc in acceptance_suite:
        energies = np.linspace(interval.lo, interval.hi, 200)
        defect, scale = _wronskian_terms(model, n_trunc, energies)
        worst = max(worst, float(np.max(defect / scale)))
    ok = worst < 1e-9
    assert _verdict("C4 Wronskian identity", ok, f"max defect/scale={worst:.3e}")


def test_c5_product_form_reconstruction(acceptance_suite, free_model):
    worst = 0.0
    for model, interval, n_trunc in acceptance_suite:
        probes = [
            interval.lo + 0.25 * interval.width,
            interval.lo + 0.55 * interval.width,
            interval.lo + 0.85 * interval.width,
            complex(interval.midpoint(), interval.eps_I / 2),
        ]
        for zeta in probes:
            sol = js.jost_solution(model, n_trunc, zeta)
            form = js.product_representation(model, n_trunc, zeta)
            u1, u0 = js.reconstruct_boundary_pair(form)
            scale = max(abs(sol.u1), abs(sol.u0))
            worst = max(worst, abs(u1 - sol.u1) / scale, abs(u0 - sol.u0) / scale)
    clean = js.product_representation(free_model, 10, 0.4)
    exact = clean.phi_N == 1.0 and clean.nu_N == 0.0
    ok = worst < 1e-8 and exact
    assert _verdict(
        "C5 product-form reconstruction",
        ok,
        f"max_rel_err={worst:.3e} zero-pert exact={exact}",
    )


def test_c6_strip_certificate(acceptance_suite, free_block):
    all_pass = True
    for model, interval, _ in acceptance_suite:
        rep = js.check_floquet_bound(model.block, interval)
        all_pass = all_pass and rep.passed
    eps_i, c_i = js.interval_constants(free_block, (-1.0, 1.0))
    c_ok = abs(c_i - 0.25) < 1e-6
    ok = all_pass and c_ok
    assert _verdict(
        "C6 strip-bound certificate",
        ok,
        f"suite certificates pass={all_pass}, free C_I={c_i:.8f}",
    )


def test_c7_entropy_stability(free_block):
    t0 = time.perf_counter()
    interval = (-1.5, 1.5)
    n_values = [10, 20, 40, 80, 160, 320]

    family = js.make_model(
        free_block, js.PerturbationSpec.power(c=1.0, s=0.5, gamma=0.2)
    )
    entropies = [js.entropy_integral(family, n, interval, quad_order=64) for n in n_values]
    finite = all(np.isfinite(entropies))
    running_min = np.minimum.accumulate(entropies)
    change = abs(running_min[-1] - running_min[-3]) / abs(running_min[-3])
    stable = change < 0.05

    rng = np.random.default_rng(7)
    beta = 1.5 * rng.uniform(-1.0, 1.0, 320) / np.arange(1, 321) ** 0.25
    contrast = js.make_model(free_block, js.PerturbationSpec.finite(beta=beta))
    cvals = [js.entropy_integral(contrast, n, interval, quad_order=64) for n in n_values]
    decreasing = all(b < a for a, b in zip(cvals[:-1], cvals[1:]))

    elapsed = time.perf_counter() - t0
    ok = finite and stable and decreasing and elapsed < 120.0
    assert _verdict(
        "C7 entropy stability",
        ok,
        f"runmin_change={change:.3%} contrast_monotone={decreasing} time={elapsed:.1f}s",
    )


def test_c8_weak_convergence_sharpness(acceptance_suite):
    ok = True
    for model, _, _ in acceptance_suite:
        q = model.block.q
        for k in range(0, 9):
            n_trunc = (k + 1) // q + 2
            while (n_trunc - 1) * q <= k + 1:
                n_trunc += 1
            full = js.moment(model, None, k, k + 2)
            trunc = js.moment(model, n_trunc, k, k + 2)
            ok = ok and (full == trunc)
    assert _verdict("C8 weak-convergence sharpness", ok, "bit-identical moments k<=8")


def test_c9_harmonic_certificate(free_block):
    family = js.make_model(
        free_block, js.PerturbationSpec.power(c=1.0, s=0.5, gamma=0.2)
    )
    eps_i, c_i = js.interval_constants(free_block, (-1.5, 1.5))
    interval = js.AdmissibleInterval(-1.5, 1.5, eps_i, c_i)
    reports = {n: js.check_harmonic_hypotheses(family, n, interval) for n in (40, 80, 160)}
    all_pass = all(rep.passed for rep in reports.values())
    stable = True
    for name in ("plus_part_integral", "strip_lower", "top_upper"):
        vals = [max(reports[n].measured[f"{name}_N{n}"], 0.01) for n in (40, 80, 160)]
        stable = stable and max(vals) / min(vals) <= 2.0
    ok = all_pass and stable
    assert _verdict(
        "C9 harmonic-hypothesis certificate", ok, f"pass={all_pass} stable_2x={stable}"
    )
