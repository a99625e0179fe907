import numpy as np
import pytest

import jostspec as js


def _free_interval(free_block, lo=-1.0, hi=1.0):
    eps_i, c_i = js.interval_constants(free_block, (lo, hi))
    return js.AdmissibleInterval(lo, hi, eps_i, c_i, 0.1)


def test_floquet_bound_free_passes(free_block):
    iv = _free_interval(free_block)
    rep = js.check_floquet_bound(free_block, iv)
    assert rep.passed
    assert rep.measured["C_I"] == pytest.approx(0.25, abs=1e-6)
    assert rep.measured["worst_margin"] >= 0
    assert rep.measured["slope_floor_observed"] > 0.9 * rep.measured["C_I"]


def test_floquet_bound_rejects_inflated_constant():
    # closed-gap block: the trace derivative vanishes at E = 0, where the
    # true strip slope is smallest; an inflated C_I must be caught there
    block = js.periodic_block(2, [1.0, 1.0], [0.0, 0.0])
    forced = js.AdmissibleInterval(-0.5, 0.5, eps_I=0.05, C_I=2.0, margin=0.0)
    rep = js.check_floquet_bound(block, forced)
    assert not rep.passed
    assert abs(rep.worst_case["E"]) < 0.15
    assert rep.worst_case["margin"] < 0


def test_floquet_bound_margin_grows_with_height(free_block):
    # linear bound with quadratic deficit: the top probe row has the largest
    # slack, the bottom row the smallest
    iv = _free_interval(free_block)
    low, high = [], []
    for y in (iv.eps_I / 32, iv.eps_I):
        margins = []
        for e in np.linspace(iv.lo, iv.hi, 32):
            z = js.floquet_eigenvalue(free_block, complex(e, y)).z
            margins.append((1.0 - 0.9 * iv.C_I * y) - abs(z))
        (low if y < iv.eps_I else high).append(min(margins))
    assert high[0] > low[0]


def test_w_summability_zero_perturbation(free_block):
    model = js.make_model(free_block)
    rep = js.check_w_summability(model, 0.4 + 0.05j, (8, 16, 32, 64))
    assert rep.passed
    assert rep.measured["l2_norm_estimate"] == 0.0
    assert all(s == 0.0 for s in rep.measured["partial_sums"])


def test_w_summability_finite_support_saturates(free_block):
    model = js.make_model(free_block, js.PerturbationSpec.finite(beta=[0.3, -0.2, 0.1]))
    rep = js.check_w_summability(model, 0.4 + 0.05j, (8, 16, 32, 64))
    assert rep.passed
    inc = rep.measured["increments"]
    assert inc[-1] == 0.0  # constant beyond the support


def test_w_summability_oscillatory_family(free_block):
    # increments oscillate at shallow depths; the decay shows from m = 64 on
    model = js.make_model(free_block, js.PerturbationSpec.power(c=1.0, s=0.5, gamma=0.2))
    rep = js.check_w_summability(model, 0.4 + 0.05j, (64, 128, 256, 512))
    assert rep.passed
    inc = rep.measured["increments"]
    assert all(b <= a + 1e-12 for a, b in zip(inc[:-1], inc[1:]))
    assert inc[-1] < 0.05


def test_diagonal_products_zero_perturbation(free_block):
    iv = _free_interval(free_block, -1.5, 1.5)
    model = js.make_model(free_block)
    rep = js.check_diagonal_products(model, iv, seed=1)
    assert rep.passed
    assert rep.measured["B_alpha"] == 0.0
    assert rep.measured["B_delta"] == 0.0


def test_diagonal_products_finite_support(free_block):
    iv = _free_interval(free_block, -1.5, 1.5)
    model = js.make_model(
        free_block, js.PerturbationSpec.finite(beta=[0.25, -0.2, 0.15, 0.1])
    )
    rep = js.check_diagonal_products(model, iv, seed=1)
    assert rep.passed
    assert np.isfinite(rep.measured["B_alpha"])
    assert rep.measured["B_alpha"] > 0


def test_diagonal_products_stable_for_l2_family(free_block):
    iv = _free_interval(free_block, -1.5, 1.5)
    model = js.make_model(free_block, js.PerturbationSpec.power(c=1.0, s=0.5, gamma=0.2))
    rep = js.check_diagonal_products(model, iv, range_pairs=64, seed=3)
    assert rep.passed
    small, large = rep.measured["B_alpha_half_sample"], rep.measured["B_alpha"]
    assert large <= 1.2 * max(small, 1e-12) or large < 1e-12


def test_harmonic_hypotheses_zero_perturbation(free_block):
    iv = _free_interval(free_block, -1.5, 1.5)
    model = js.make_model(free_block)
    rep = js.check_harmonic_hypotheses(model, 10, iv)
    assert rep.passed
    # phi = 1, nu = 0: all constants tiny and N-independent
    assert rep.measured["plus_part_integral_ratio"] <= 1.01
    assert rep.measured["strip_lower_ratio"] <= 1.01


def test_harmonic_hypotheses_finite_support_stabilizes(free_block):
    model = js.make_model(free_block, js.PerturbationSpec.finite(beta=[0.3, -0.2, 0.1]))
    iv = _free_interval(free_block, -1.5, 1.5)
    rep = js.check_harmonic_hypotheses(model, 12, iv)
    assert rep.passed
    for name in ("plus_part_integral", "strip_lower", "top_upper"):
        assert rep.measured[f"{name}_ratio"] <= 1.05


def test_floquet_bound_on_randomized_suite(acceptance_suite):
    for model, iv, _ in acceptance_suite[:10]:
        rep = js.check_floquet_bound(model.block, iv)
        assert rep.passed, rep.worst_case


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: the doubling-stability test of check_diagonal_products "
        "depends on the sampling seed; on the baseline model seed 7 draws ranges "
        "whose fitted B_alpha grows from 0.76 to 0.97 (> 20%) when the sample doubles"
    ),
)
def test_diagonal_products_baseline_seed_7_stable():
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    model = js.make_model(block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))
    iv = js.widest_interval(js.admissible_intervals(block, margin=0.1))
    assert js.check_diagonal_products(model, iv, seed=7).passed
