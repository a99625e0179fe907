import math

import numpy as np
import pytest

import jostspec as js
from jostspec import certify, transfer
from jostspec.errors import ValidationError


def _free_interval(free_block, lo=-1.0, hi=1.0):
    return js.interval_constants(free_block, (lo, hi))


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
    forced = js.AdmissibleInterval(-0.5, 0.5, eps_I=0.05, C_I=2.0)
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
        _, z, _, _, _ = js.floquet(free_block, np.linspace(iv.lo, iv.hi, 32) + 1j * y)
        margins = (1.0 - 0.9 * iv.C_I * y) - np.abs(z)
        (low if y < iv.eps_I else high).append(margins.min())
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


@pytest.mark.parametrize("n_grid", [(128,), (64, 64), (), (0, 8)])
def test_w_summability_needs_two_distinct_positive_indices(free_block, n_grid):
    # with fewer than 2 distinct indices there is no increment to test
    model = js.make_model(free_block, js.PerturbationSpec.power(c=0.8, s=1.5, gamma=0.2))
    with pytest.raises(ValidationError, match="at least 2 distinct positive indices"):
        js.check_w_summability(model, 0.4 + 0.05j, n_grid)


def test_diagonal_products_zero_perturbation(free_block):
    iv = _free_interval(free_block, -1.5, 1.5)
    model = js.make_model(free_block)
    rep = js.check_diagonal_products(model, iv)
    assert rep.passed
    assert rep.measured["B_alpha"] == 0.0
    assert rep.measured["B_delta"] == 0.0


def test_diagonal_products_finite_support(free_block):
    iv = _free_interval(free_block, -1.5, 1.5)
    model = js.make_model(
        free_block, js.PerturbationSpec.finite(beta=[0.25, -0.2, 0.15, 0.1])
    )
    rep = js.check_diagonal_products(model, iv)
    assert rep.passed
    assert np.isfinite(rep.measured["B_alpha"])
    assert rep.measured["B_alpha"] > 0


def test_diagonal_products_stable_for_l2_family(free_block):
    iv = _free_interval(free_block, -1.5, 1.5)
    model = js.make_model(free_block, js.PerturbationSpec.power(c=1.0, s=0.5, gamma=0.2))
    rep = js.check_diagonal_products(model, iv)
    assert rep.passed
    small, large = rep.measured["B_alpha_half_blocks"], rep.measured["B_alpha"]
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


def test_diagonal_products_baseline_settles_from_64_blocks():
    # the sup over every range stops moving once the blocks reach 64
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    model = js.make_model(block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))
    iv = js.interval_constants(block, js.widest_trimmed_band(block, margin=0.1))
    for n_blocks in (64, 128, 256):
        rep = js.check_diagonal_products(model, iv, n_blocks=n_blocks)
        assert rep.passed
        assert rep.measured["B_alpha"] == pytest.approx(2.1795961229423826, rel=1e-12)
        assert rep.measured["B_delta"] == pytest.approx(6.814856221465232, rel=1e-12)
        # the products are largest at the lower end, closest to the axis
        assert (rep.worst_case["E"], rep.worst_case["y"]) == (iv.lo, iv.eps_I / 64)


def _brute_force_sup(ln, heights, m):
    """Per column, the max over 1 <= k < l <= m - 1 of
    |sum_{n=k}^{l} ln[n-1]| / (1 + y sqrt(l - k)), one range at a time;
    NaN where some range is not finite."""
    sup = np.empty(ln.shape[1])
    for col in range(ln.shape[1]):
        values = [
            abs(sum(ln[k - 1 : l, col])) / (1.0 + heights[col] * math.sqrt(l - k))
            for k in range(1, m)
            for l in range(k + 1, m)
        ]
        sup[col] = max(values) if all(map(math.isfinite, values)) else math.nan
    return sup


@pytest.mark.parametrize("forced", [False, True])
def test_diagonal_fit_matches_brute_force(free_block, forced):
    # the lag loop against a double loop over (k, l), column by column: alpha
    # and delta at the 16 strip points and 24 blocks, and 16 columns of
    # positive logarithms, whose largest ratio is the longest range.  forced
    # puts ln 0 into one column and NaN into another; both must come out
    # non-finite, at either block count
    n_blocks = 24
    iv = _free_interval(free_block, -1.5, 1.5)
    model = js.make_model(free_block, js.PerturbationSpec.power(c=1.0, s=0.5, gamma=0.2))
    energies = np.linspace(iv.lo, iv.hi, 4)
    heights = iv.eps_I * 0.25 ** np.arange(4)
    zetas = (energies[None, :] + 1j * heights[:, None]).ravel()
    w11, _, _, w22 = transfer.connection_matrices(model, n_blocks, zetas)
    drift = np.random.default_rng(5).uniform(0.0, 1.0, w11.shape)
    ln = np.concatenate([np.log(np.abs(1.0 + w11)), np.log(np.abs(1.0 + w22)), drift], axis=1)
    if forced:
        ln[5, 3] = -np.inf
        ln[7, 20] = np.nan
    y = np.tile(zetas.imag, 3)
    cum = np.cumsum(np.vstack([np.zeros(ln.shape[1]), ln]), axis=0)
    sups = certify._fit_diagonal_bound(y, cum, n_blocks // 2)
    for sup, m in zip(sups, (n_blocks // 2, n_blocks)):
        want = _brute_force_sup(ln, y, m)
        finite = np.isfinite(want)
        assert finite.sum() == (46 if forced else 48)
        assert (np.isfinite(sup) == finite).all()
        assert sup[finite] == pytest.approx(want[finite], rel=1e-12)
    if not forced:
        # the report's constants are the column maxima of the same fit
        rep = js.check_diagonal_products(model, iv, n_blocks=n_blocks)
        half, full = sups
        assert rep.measured == {
            "B_alpha": full[:16].max(),
            "B_delta": full[16:32].max(),
            "B_alpha_half_blocks": half[:16].max(),
            "B_delta_half_blocks": half[16:32].max(),
        }


def test_diagonal_products_need_a_range_in_half_the_blocks(free_block):
    # with fewer than 6 blocks, n_blocks // 2 blocks hold no range k < l
    # and the fit would pass on no data
    model = js.make_model(free_block)
    iv = _free_interval(free_block)
    with pytest.raises(ValidationError, match="n_blocks must be >= 6"):
        js.check_diagonal_products(model, iv, n_blocks=5)
    assert js.check_diagonal_products(model, iv, n_blocks=6).passed


def test_diagonal_products_half_blocks_never_exceed_full(acceptance_suite):
    # every range of n_blocks // 2 blocks is also a range of n_blocks blocks
    for model, iv, _ in acceptance_suite:
        rep = js.check_diagonal_products(model, iv)
        assert rep.passed, rep.measured
        for name in ("B_alpha", "B_delta"):
            assert rep.measured[f"{name}_half_blocks"] <= rep.measured[name]
