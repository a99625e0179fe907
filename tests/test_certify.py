import math

import numpy as np
import pytest

import jostspec as js
from conftest import random_block
from jostspec import bands, certify, transfer
from jostspec.errors import DegenerateBranchError, ValidationError


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


# A band (0, 2e-150) whose strip probes overflow: at Im zeta = 0.1 the trace
# is about (0.1 / 1e-150)^2, and its square is not finite.
TINY_BLOCK = js.periodic_block(2, [1e-150, 1e-150], [0.0, 0.0])
TINY_BAND = (1e-152, 1.99e-150)


def test_non_finite_strip_probe_raises():
    # interval_constants stops at its first probe, the top height
    with pytest.raises(DegenerateBranchError) as exc:
        js.interval_constants(TINY_BLOCK, TINY_BAND)
    assert str(exc.value) == "no finite Floquet multiplier at zeta = (1e-152+0.1j)"
    # the strip constants the non-finite probes would have certified: eps_I at
    # the first probe height, C_I from the real axis, where every value is finite
    forced = js.AdmissibleInterval(*TINY_BAND, eps_I=bands.EPS_PROBE, C_I=5.000062501171795e149)
    with pytest.raises(DegenerateBranchError) as exc:
        js.check_floquet_bound(TINY_BLOCK, forced)
    assert str(exc.value) == "no finite Floquet multiplier at zeta = (1e-152+0.003125j)"


@pytest.mark.parametrize("q", range(1, 7))
def test_inverse_strip_bound_is_implied(q):
    # |z^{-1}| >= 1 + 0.9 C_I y is not checked: on the certificate's grid its
    # margin never falls below the one of |z| <= 1 - 0.9 C_I y, bit for bit,
    # also for inflated constants, where the bound fails
    rng = np.random.default_rng(7200 + q)
    for _ in range(4):
        block = random_block(rng, q)
        for pair in js.trimmed_bands(block, margin=0.05):
            built = js.interval_constants(block, pair)
            energies = np.linspace(built.lo, built.hi, certify.FLOQUET_GRID)
            heights = np.linspace(built.eps_I / certify.FLOQUET_GRID, built.eps_I, certify.FLOQUET_GRID)
            zeta = energies[None, :] + 1j * heights[:, None]
            lam, coincide = transfer.decaying_branch(js.discriminant(block, zeta))
            assert not coincide.any()
            y = heights[:, None]
            for c_i in (built.C_I, 2.0, 10.0):
                m1 = (1.0 - 0.9 * c_i * y) - np.abs(1.0 / lam)
                assert np.array_equal(np.minimum(m1, np.abs(lam) - (1.0 + 0.9 * c_i * y)), m1)
                iv = js.AdmissibleInterval(built.lo, built.hi, built.eps_I, c_i)
                assert js.check_floquet_bound(block, iv).measured["worst_margin"] == m1.min()


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


@pytest.mark.parametrize("n_grid", [(16, 4000, 4001), (16, 32, 48), (8, 16, 64)])
def test_w_summability_needs_a_doubling_grid(free_block, n_grid):
    # increments over windows of different lengths are not comparable
    model = js.make_model(free_block, js.PerturbationSpec.power(c=0.8, s=1.5, gamma=0.2))
    with pytest.raises(ValidationError, match="n_grid must double"):
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


# The certificate panel: the margin-0.1 trimmed bands of the baseline q = 2
# block and a q = 3 block, each with six models, certified with the CLI's
# settings (N = 40, n_grid 16 .. 128, 128 blocks, the W probe at the band's
# midpoint eps_I / 2 above the axis).  in, in-slow and wvn satisfy the
# paper's hypothesis; out's q-variation is not square-summable.
PANEL_BLOCKS = (
    js.periodic_block(2, (1.0, 1.4), (0.1, -0.2)),
    js.periodic_block(3, (1.0, 1.3, 0.8), (0.2, -0.3, 0.0)),
)
PANEL_MODELS = {
    "zero": js.PerturbationSpec.zero(),
    "finite": js.PerturbationSpec.finite(alpha=[0.05, -0.03, 0.02], beta=[0.1, -0.05, 0.04, 0.02]),
    "in": js.PerturbationSpec.power(0.8, 0.5, 0.2),
    "in-slow": js.PerturbationSpec.power(0.8, 1.5, 0.6),
    "out": js.PerturbationSpec.power(0.8, 1.5, 0.2),
    "wvn": js.PerturbationSpec.power(2.0, 1.0, 1.0),
}
PANEL_ROWS = ("floquet_strip_bound", "w_square_summability", "diagonal_product_bound", "harmonic_hypotheses")
# Per band, in order, each model's verdicts on PANEL_ROWS (P passes, F fails).
PANEL_VERDICTS = (
    {"zero": "PPPP", "finite": "PPPP", "in": "PFPF", "in-slow": "PFPF", "out": "PFFF", "wvn": "PPPP"},
    {"zero": "PPPP", "finite": "PPPP", "in": "PPPP", "in-slow": "PFPP", "out": "PFPP", "wvn": "PPPP"},
    {"zero": "PPPP", "finite": "PPPP", "in": "PFPP", "in-slow": "PFPP", "out": "PFFF", "wvn": "PPPP"},
    {"zero": "PPPP", "finite": "PPPP", "in": "PPPP", "in-slow": "PFPP", "out": "PFPP", "wvn": "PPPP"},
    {"zero": "PPPP", "finite": "PPPP", "in": "PFPP", "in-slow": "PFPP", "out": "PFFP", "wvn": "PPPP"},
)


@pytest.fixture(scope="module")
def panel():
    verdicts = []
    for block in PANEL_BLOCKS:
        for band in js.trimmed_bands(block, 0.1):
            iv = js.interval_constants(block, band)
            zeta = complex(iv.midpoint(), 0.5 * iv.eps_I)
            row = {}
            for name, pert in PANEL_MODELS.items():
                model = js.make_model(block, pert)
                reports = (
                    js.check_floquet_bound(block, iv),
                    js.check_w_summability(model, zeta, (16, 32, 64, 128)),
                    js.check_diagonal_products(model, iv, n_blocks=128),
                    js.check_harmonic_hypotheses(model, 40, iv),
                )
                assert tuple(r.name for r in reports) == PANEL_ROWS
                row[name] = "".join("P" if r.passed else "F" for r in reports)
            verdicts.append(row)
    return tuple(verdicts)


def test_panel_verdicts(panel):
    assert panel == PANEL_VERDICTS


def _panel_label(verdicts, row):
    # a grid row separates when it passes every model but out on every band
    # and fails out on every band
    separates = all((band[name][row] == "P") == (name != "out") for band in verdicts for name in band)
    return "grid" if separates else "grid, does not separate"


def test_no_panel_row_separates_in_from_out(panel):
    labels = [_panel_label(panel, i) for i in range(len(PANEL_ROWS))]
    assert labels == ["grid, does not separate"] * len(PANEL_ROWS)
