import warnings

import numpy as np
import pytest

import jostspec as js
from conftest import random_block
from jostspec import jost
from jostspec.errors import BandEdgeError


def test_free_solution_is_geometric(free_model):
    sol = js.jost_solution(free_model, 5, 0.0)
    z = sol.z
    assert z == pytest.approx(-1j, abs=1e-14)
    for n in range(0, 7):
        assert sol.u[n] == pytest.approx(z ** (n - 5), abs=1e-12)
    assert abs(sol.u0) == pytest.approx(1.0, abs=1e-12)


def test_boundary_pair_matches_eigenvector(free_model):
    sol = js.jost_solution(free_model, 4, 0.3)
    x, y = js.floquet_eigenvalue(free_model.block, 0.3).eigvec
    assert sol.u[5] == x and sol.u[4] == y


def test_boundary_modulus_without_perturbation():
    # geometric solution: u_0 = z^{-N} C(E) with |z| = 1 on band interiors,
    # so |u_0| = |C(E)|; period one has C = 1 and the modulus is exactly 1
    rng = np.random.default_rng(31)
    for q in (1, 2, 3):
        block = random_block(rng, q)
        model = js.make_model(block)
        iv = js.widest_interval(js.admissible_intervals(block, margin=0.2))
        for energy in np.linspace(iv.lo, iv.hi, 7):
            sol = js.jost_solution(model, 6, energy)
            c_val = js.floquet_eigenvalue(block, energy).eigvec[1]
            assert abs(sol.u0) == pytest.approx(abs(c_val), rel=1e-10)
            if q == 1:
                assert abs(sol.u0) == pytest.approx(1.0, abs=1e-10)


def test_recursion_residuals_small(acceptance_suite):
    for model, iv, n_trunc in acceptance_suite[:6]:
        for zeta in (iv.midpoint(), complex(iv.midpoint(), iv.eps_I / 2)):
            sol = js.jost_solution(model, n_trunc, zeta)
            assert js.recursion_residuals(model, sol).max() < 1e-10


def test_green_free_values(free_model):
    assert js.green_11(free_model, 6, 0.0) == pytest.approx(1j, abs=1e-12)
    expected = 1j * (np.sqrt(5) - 1) / 2
    assert js.green_11(free_model, 6, 1j) == pytest.approx(expected, abs=1e-10)


def test_green_herglotz_on_strip(free_model):
    for energy in np.linspace(-1.8, 1.8, 21):
        g = js.green_11(free_model, 8, complex(energy, 1e-3))
        assert g.imag > 0


def test_density_free_closed_form(free_model):
    assert js.ac_density(free_model, 5, 0.0) == pytest.approx(1 / np.pi, abs=1e-12)
    assert js.ac_density(free_model, 5, 1.0) == pytest.approx(
        np.sqrt(3) / (2 * np.pi), abs=1e-12
    )


def test_density_outside_band_interior(free_model):
    with pytest.raises(BandEdgeError):
        js.ac_density(free_model, 5, 2.5)
    with pytest.raises(BandEdgeError):
        js.ac_density(free_model, 5, 2.0)


def test_wronskian_identity_free(free_model):
    assert js.wronskian_defect(free_model, 5, 0.0) < 1e-14
    energies = np.array([-1.5, 0.0, 0.7])
    batch = js.wronskian_defect(free_model, 5, energies)
    assert batch.tolist() == [js.wronskian_defect(free_model, 5, e) for e in energies]


def test_wronskian_identity_randomized():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        block = random_block(rng, 3)
        try:
            intervals = js.admissible_intervals(block, margin=0.15)
        except js.JostspecError:
            continue
        iv = js.widest_interval(intervals)
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


def test_truncation_beyond_support_is_inert(free_block):
    pert = js.PerturbationSpec.finite(beta=[0.3, -0.2, 0.1])
    model = js.make_model(free_block, pert)
    # support ends at site 3 < (N-1)q for N >= 5
    g5 = js.green_11(model, 6, 0.7 + 1e-3j)
    g6 = js.green_11(model, 7, 0.7 + 1e-3j)
    assert abs(g6 - g5) < 1e-10


def test_product_form_zero_perturbation_exact(free_model):
    form = js.product_representation(free_model, 8, 0.5)
    assert form.phi_N == 1.0
    assert form.nu_N == 0.0
    u1, u0 = js.reconstruct_boundary_pair(form)
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
        for zeta in probes:
            sol = js.jost_solution(model, n_trunc, zeta)
            form = js.product_representation(model, n_trunc, zeta)
            u1, u0 = js.reconstruct_boundary_pair(form)
            scale = max(abs(sol.u1), abs(sol.u0))
            assert abs(u1 - sol.u1) / scale < 1e-8
            assert abs(u0 - sol.u0) / scale < 1e-8


def test_nu_scales_with_perturbation(free_block):
    iv = js.admissible_intervals(free_block, margin=0.2)[0]
    zeta = complex(iv.midpoint(), iv.eps_I / 2)
    base = np.array([0.2, -0.15, 0.1, 0.05])
    sizes = []
    for scale in (1.0, 0.5, 0.25):
        model = js.make_model(free_block, js.PerturbationSpec.finite(beta=scale * base))
        form = js.product_representation(model, 10, zeta)
        sizes.append(abs(form.nu_N))
    assert sizes[1] < 0.75 * sizes[0]
    assert sizes[2] < 0.75 * sizes[1]


def test_extended_precision_matches_double(acceptance_suite):
    model, iv, n_trunc = acceptance_suite[1]
    for zeta in (iv.midpoint(), complex(iv.midpoint(), 1e-3)):
        g_double = js.green_11(model, n_trunc, zeta)
        g_extended = js.green_11(model, n_trunc, zeta, precision="extended")
        assert abs(g_double - g_extended) < 1e-12 * abs(g_double)
    d = js.ac_density(model, n_trunc, iv.midpoint(), precision="extended")
    assert d == pytest.approx(js.ac_density(model, n_trunc, iv.midpoint()), rel=1e-12)


def test_extended_precision_against_50_digit_recursion():
    # The same backward recursion in 50-digit arithmetic from the same float64
    # boundary pair, so the working precision is the only difference.
    mpmath = pytest.importorskip("mpmath")
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    model = js.make_model(block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))
    iv = js.widest_interval(js.admissible_intervals(block, margin=0.1))
    N = 1000
    a, b = js.truncate(model, N).coefficient_arrays(N * block.q)
    worst_extended = worst_double = 0.0
    with mpmath.workdps(50):
        am = [mpmath.mpf(float(x)) for x in a]
        bm = [mpmath.mpf(float(x)) for x in b]
        for energy in (iv.lo + 0.2 * iv.width, iv.midpoint(), iv.lo + 0.8 * iv.width):
            fl = js.floquet_eigenvalue(block, energy)
            hi, lo = (mpmath.mpc(v) for v in fl.eigvec)
            for n in range(len(am) - 1, 0, -1):
                hi, lo = lo, -(am[n] * hi + (bm[n] - energy) * lo) / am[n - 1]
            c_val = fl.eigvec[1].real
            ref = abs(mpmath.mpf(c_val) * fl.z.imag) / (mpmath.pi * abs(block.a(0)) * abs(lo) ** 2)
            extended = js.ac_density(model, N, energy, precision="extended")
            double = js.ac_density(model, N, energy)
            worst_extended = max(worst_extended, float(abs(extended - ref) / ref))
            worst_double = max(worst_double, float(abs(double - ref) / ref))
    assert worst_extended <= 1e-15
    assert worst_extended < worst_double


def test_kappa_exceeds_one_on_strip(free_model):
    iv = js.admissible_intervals(free_model.block, margin=0.2)[0]
    form = js.product_representation(free_model, 10, complex(0.0, iv.eps_I / 2))
    assert form.kappa > 1.0


def test_boundary_factor_envelope_shape(free_block):
    # log |phi_N| stays bounded by a 1/y envelope as the strip height shrinks
    model = js.make_model(
        free_block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2)
    )
    heights = [0.1, 0.05, 0.025, 0.0125]
    products = []
    for y in heights:
        form = js.product_representation(model, 40, complex(0.3, y))
        grow = max(np.log(abs(form.phi_N) + abs(form.nu_N)), 0.0)
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
