import warnings

import numpy as np
import pytest

import jostspec as js
from conftest import random_block
from jostspec import jost
from jostspec.errors import BandEdgeError, EigenvectorDegeneracyError


def test_free_solution_is_geometric(free_model):
    sol = js.jost_solution(free_model, 5, 0.0)
    z = sol.z
    assert z == pytest.approx(-1j, abs=1e-14)
    for n in range(0, 7):
        assert sol.u[n] == pytest.approx(z ** (n - 5), abs=1e-12)
    assert abs(sol.u0) == pytest.approx(1.0, abs=1e-12)


def test_boundary_pair_matches_eigenvector(free_model):
    sol = js.jost_solution(free_model, 4, 0.3)
    _, (z,), (c,), (d,), _ = js.floquet(free_model.block, 0.3)
    assert sol.u[5] == z - d and sol.u[4] == c


def test_boundary_modulus_without_perturbation():
    # geometric solution: u_0 = z^{-N} C(E) with |z| = 1 on band interiors,
    # so |u_0| = |C(E)|; period one has C = 1 and the modulus is exactly 1
    rng = np.random.default_rng(31)
    for q in (1, 2, 3):
        block = random_block(rng, q)
        model = js.make_model(block)
        energies = np.linspace(*js.widest_trimmed_band(block, margin=0.2), 7)
        _, _, c_vals, _, _ = js.floquet(block, energies)
        for energy, c_val in zip(energies, c_vals):
            sol = js.jost_solution(model, 6, energy)
            assert abs(sol.u0) == pytest.approx(abs(c_val), rel=1e-10)
            if q == 1:
                assert abs(sol.u0) == pytest.approx(1.0, abs=1e-10)


def test_recursion_residuals_small(acceptance_suite):
    for model, iv, n_trunc in acceptance_suite[:6]:
        for zeta in (iv.midpoint(), complex(iv.midpoint(), iv.eps_I / 2)):
            sol = js.jost_solution(model, n_trunc, zeta)
            assert js.recursion_residuals(model, sol).max() < 1e-10


def test_green_free_values(free_model):
    g_real, g_off = js.green_11(free_model, 6, [0.0, 1j])
    assert g_real == pytest.approx(1j, abs=1e-12)
    assert g_off == pytest.approx(1j * (np.sqrt(5) - 1) / 2, abs=1e-10)


def test_green_herglotz_on_strip(free_model):
    g = js.green_11(free_model, 8, np.linspace(-1.8, 1.8, 21) + 1e-3j)
    assert (g.imag > 0).all()


def test_density_free_closed_form(free_model):
    rho = js.ac_density(free_model, 5, [0.0, 1.0])
    assert rho[0] == pytest.approx(1 / np.pi, abs=1e-12)
    assert rho[1] == pytest.approx(np.sqrt(3) / (2 * np.pi), abs=1e-12)


def test_density_outside_band_interior(free_model):
    with pytest.raises(BandEdgeError):
        js.ac_density(free_model, 5, 2.5)
    with pytest.raises(BandEdgeError):
        js.ac_density(free_model, 5, 2.0)


def test_wronskian_identity_free(free_model):
    assert js.wronskian_defect(free_model, 5, 0.0)[0] < 1e-14
    energies = np.array([-1.5, 0.0, 0.7])
    batch = js.wronskian_defect(free_model, 5, energies)
    assert batch.tolist() == [js.wronskian_defect(free_model, 5, e)[0] for e in energies]


def test_wronskian_identity_randomized():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        block = random_block(rng, 3)
        try:
            iv = js.interval_constants(block, js.widest_trimmed_band(block, margin=0.15))
        except js.JostspecError:
            continue
        support = int(rng.integers(3, 12))
        pert = js.PerturbationSpec.finite(
            alpha=rng.uniform(-0.05, 0.05, support), beta=rng.uniform(-0.1, 0.1, support)
        )
        model = js.make_model(block, pert)
        energy = rng.uniform(iv.lo, iv.hi)
        n_trunc = support // 3 + 3
        defect, scale = jost._wronskian_terms(model, n_trunc, np.array([energy]))
        worst = max(worst, float(defect[0] / scale[0]))
    assert worst < 1e-9


def test_vanishing_corner_entry_raises_at_the_first_such_point():
    # q = 2 with a_1 = 1 and b_1 = 0 has C(E) = E, which vanishes in the gap
    # (-0.22, 0.72) of this block: no eigenvector (z - D, C) there
    model = js.make_model(js.periodic_block(2, [1.0, 1.4], [0.0, 0.5]))
    message = r"^C\(zeta\) = 0 at zeta = 0\.0$"
    with pytest.raises(EigenvectorDegeneracyError, match=message):
        js.green_11(model, 3, [1.2 + 1e-3j, 0.0, -3.0])
    with pytest.raises(EigenvectorDegeneracyError, match=message):
        js.jost_solution(model, 3, 0.0)


def test_truncation_beyond_support_is_inert(free_block):
    pert = js.PerturbationSpec.finite(beta=[0.3, -0.2, 0.1])
    model = js.make_model(free_block, pert)
    # support ends at site 3 < (N-1)q for N >= 5
    g5 = js.green_11(model, 6, 0.7 + 1e-3j)
    g6 = js.green_11(model, 7, 0.7 + 1e-3j)
    assert abs(g6[0] - g5[0]) < 1e-10


def test_product_form_zero_perturbation_exact(free_model):
    form = js.product_forms(free_model, 8, [0.5])
    assert form.phi_N.tolist() == [1.0]
    assert form.nu_N.tolist() == [0.0]
    (u1,), (u0,) = js.reconstruct_boundary_pair(form)
    sol = js.jost_solution(free_model, 8, 0.5)
    assert u1 == pytest.approx(sol.u1, abs=1e-12)
    assert u0 == pytest.approx(sol.u0, abs=1e-12)


def test_product_form_reconstructs_boundary_pair(acceptance_suite):
    for model, iv, n_trunc in acceptance_suite[:8]:
        probes = [
            iv.lo + 0.3 * iv.width,
            iv.lo + 0.7 * iv.width,
            complex(iv.midpoint(), iv.eps_I / 2),
        ]
        form = js.product_forms(model, n_trunc, probes)
        for zeta, u1, u0 in zip(probes, *js.reconstruct_boundary_pair(form)):
            sol = js.jost_solution(model, n_trunc, zeta)
            scale = max(abs(sol.u1), abs(sol.u0))
            assert abs(u1 - sol.u1) / scale < 1e-8
            assert abs(u0 - sol.u0) / scale < 1e-8


def test_nu_scales_with_perturbation(free_block):
    iv = js.interval_constants(free_block, js.widest_trimmed_band(free_block, margin=0.2))
    zeta = complex(iv.midpoint(), iv.eps_I / 2)
    base = np.array([0.2, -0.15, 0.1, 0.05])
    sizes = []
    for scale in (1.0, 0.5, 0.25):
        model = js.make_model(free_block, js.PerturbationSpec.finite(beta=scale * base))
        form = js.product_forms(model, 10, [zeta])
        sizes.append(abs(form.nu_N[0]))
    assert sizes[1] < 0.75 * sizes[0]
    assert sizes[2] < 0.75 * sizes[1]


def test_density_against_50_digit_recursion():
    # The same backward recursion in 50-digit arithmetic from the same float64
    # boundary pair, so the working precision is the only difference.
    mpmath = pytest.importorskip("mpmath")
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    model = js.make_model(block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))
    lo, hi = js.widest_trimmed_band(block, margin=0.1)
    energies = (lo + 0.2 * (hi - lo), 0.5 * (lo + hi), lo + 0.8 * (hi - lo))
    _, zs, cs, ds, _ = js.floquet(block, energies)
    N = 1000
    a, b = js.truncate(model, N).coefficient_arrays(N * block.q)
    worst = 0.0
    with mpmath.workdps(50):
        am = [mpmath.mpf(float(x)) for x in a]
        bm = [mpmath.mpf(float(x)) for x in b]
        for energy, z, c, d, rho in zip(energies, zs, cs, ds, js.ac_density(model, N, energies)):
            u_hi, u_lo = mpmath.mpc(z - d), mpmath.mpc(c)
            for n in range(len(am) - 1, 0, -1):
                u_hi, u_lo = u_lo, -(am[n] * u_hi + (bm[n] - energy) * u_lo) / am[n - 1]
            ref = abs(mpmath.mpf(c.real) * z.imag) / (mpmath.pi * abs(block.a(0)) * abs(u_lo) ** 2)
            worst = max(worst, float(abs(rho - ref) / ref))
    assert worst <= 1e-12


def test_kappa_exceeds_one_on_strip(free_model):
    iv = js.interval_constants(free_model.block, js.widest_trimmed_band(free_model.block, margin=0.2))
    form = js.product_forms(free_model, 10, [complex(0.0, iv.eps_I / 2)])
    assert form.kappa[0] > 1.0


def test_boundary_factor_envelope_shape(free_block):
    # log |phi_N| stays bounded by a 1/y envelope as the strip height shrinks
    model = js.make_model(
        free_block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2)
    )
    heights = [0.1, 0.05, 0.025, 0.0125]
    products = []
    form = js.product_forms(model, 40, [complex(0.3, y) for y in heights])
    for y, phi, nu in zip(heights, form.phi_N, form.nu_N):
        grow = max(np.log(abs(phi) + abs(nu)), 0.0)
        products.append(grow * y)
    assert max(products) < 10 * (min(products) + 1.0)


def test_density_of_a_large_unscaled_u0_does_not_overflow():
    # |u_0|^2 overflows between 1.3e154 and the rescale threshold 1e280; the
    # log form takes over there, and wherever the recursion rescaled u_0;
    # elsewhere the density is the direct quotient, bit for bit
    num = np.array([1.0, 1e120, 1e300, 0.3])
    abs_u0 = np.array([1e200, 1e200, 1.0, 0.7])
    scale_log2 = np.array([0, 0, 600, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = jost.density_values(1.0, num, abs_u0, scale_log2)
        logs = jost.log_density(1.0, num, abs_u0, scale_log2)
    assert values[0] == 0.0
    assert values[1] == pytest.approx(1e120 / np.pi / 1e200 / 1e200, rel=1e-12)
    assert values[2] == pytest.approx(1e300 / np.pi / 2.0**600 / 2.0**600, rel=1e-12)
    assert values[3] == 0.3 / (np.pi * 0.7**2.0)
    assert logs[0] == pytest.approx(-np.log(np.pi) - 2.0 * np.log(1e200), rel=1e-14)
    assert logs[2] == pytest.approx(np.log(1e300) - np.log(np.pi) - 1200 * np.log(2.0), rel=1e-14)
