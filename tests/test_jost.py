import dataclasses
import re
import warnings

import mpmath
import numpy as np
import pytest

import jostspec as js
from conftest import random_block
from jostspec import jost, measures, transfer
from jostspec.errors import BandEdgeError, EigenvectorDegeneracyError, ValidationError


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
    # |u_0|^2 overflows above 1.3e154, past the recursion's rescale
    # threshold 2**500 (3.3e150) but not past what density_values accepts;
    # the log form takes over there, and wherever the recursion rescaled
    # u_0; elsewhere the density is the direct quotient, bit for bit
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


SCALAR_MODEL = js.make_model(js.periodic_block(2, (1.0, 1.4), (0.1, -0.2)), js.PerturbationSpec.power(0.8, 0.5, 0.2))
SCALAR_CALLS = {
    "floquet": lambda x: transfer.floquet(SCALAR_MODEL.block, x),
    "connection_matrices": lambda x: transfer.connection_matrices(SCALAR_MODEL, 6, x),
    "green_11": lambda x: jost.green_11(SCALAR_MODEL, 6, x),
    "density_terms": lambda x: jost.density_terms(SCALAR_MODEL, 6, x),
    "ac_density": lambda x: jost.ac_density(SCALAR_MODEL, 6, x),
    "wronskian_defect": lambda x: jost.wronskian_defect(SCALAR_MODEL, 6, x),
    "product_forms": lambda x: jost.product_forms(SCALAR_MODEL, 6, x),
    "tail_m_function": lambda x: measures.tail_m_function(SCALAR_MODEL.block, x),
    "oracle_green_11": lambda x: measures.oracle_green_11(SCALAR_MODEL, 6, x),
}


def _arrays(value):
    """The arrays of a batched result: a tuple's entries or a dataclass's fields."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return [np.asarray(x) for x in (value if isinstance(value, tuple | list) else [value])]


@pytest.mark.parametrize("point", [1.2, np.float64(1.2), np.array(1.2)], ids=["float", "float64", "0-d"])
@pytest.mark.parametrize("name", list(SCALAR_CALLS))
def test_a_scalar_point_is_one_point(name, point):
    # every batched entry point treats a scalar as a sequence of one point
    got, want = _arrays(SCALAR_CALLS[name](point)), _arrays(SCALAR_CALLS[name]([1.2]))
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
@pytest.mark.parametrize("name", list(SCALAR_CALLS))
def test_points_of_more_than_one_dimension_are_rejected(name, shape):
    # a 2-D array of points is neither a sequence of points nor a rung axis
    with pytest.raises(ValidationError, match=re.escape(f"1-D sequence, got shape {shape}")):
        SCALAR_CALLS[name](np.full(shape, 1.2))


REAL_CALLS = ("ac_density", "density_terms", "wronskian_defect")


@pytest.mark.parametrize("points", [np.array([1.2 + 1e-3j]), [1.2 + 1e-3j], [1.2, 0.3j]], ids=["array", "list", "second"])
@pytest.mark.parametrize("name", REAL_CALLS)
def test_complex_points_of_a_real_energy_call_are_rejected(name, points):
    # a complex array lost its imaginary part, a list raised TypeError
    with pytest.raises(ValidationError, match=r"^energies must be real, got "):
        SCALAR_CALLS[name](points)


@pytest.mark.parametrize("points", ["abc", [1.2, "x"], [[1.2], 0.3]], ids=["string", "mixed", "ragged"])
@pytest.mark.parametrize("name", [*REAL_CALLS, "floquet", "green_11"])
def test_points_that_are_not_numbers_are_rejected(name, points):
    with pytest.raises(ValidationError, match=r"^points must be numbers, got "):
        SCALAR_CALLS[name](points)


@pytest.mark.parametrize(
    "points, index",
    [(None, 0), ([1.2, None], 1), ((None, 0.3), 0), ([np.nan, None], 1), (np.array([1.2, None]), 1)],
    ids=["none", "second", "tuple", "after-nan", "object-array"],
)
@pytest.mark.parametrize("name", ["floquet", "green_11", "ac_density", "tail_m_function"])
def test_a_missing_point_is_rejected(name, points, index):
    # NumPy reads None as nan+nanj: floquet returned fault 6, green_11 raised
    # "no finite Floquet multiplier", ac_density "energies must be real"
    with pytest.raises(ValidationError, match=rf"^points must be numbers, got None at point {index}$"):
        SCALAR_CALLS[name](points)


def test_a_nan_point_is_still_a_point():
    # the check for None leaves a NaN point to the NONFINITE fault
    *_, fault = transfer.floquet(SCALAR_MODEL.block, [1.2, np.nan])
    assert fault.tolist() == [0, transfer.NONFINITE]


def _form_fields(form):
    return [form.phi_N, form.nu_N, form.kappa, form.log_prefactor, form.lambda0, form.u_inv0]


# Each entry point of energies on an empty sequence: (results, their shapes).
EMPTY_BATCH = {
    "ac_density": lambda model, N, iv: ([js.ac_density(model, N, [])], [(0,)]),
    "green_11": lambda model, N, iv: ([js.green_11(model, N, [])], [(0,)]),
    "wronskian_defect": lambda model, N, iv: ([js.wronskian_defect(model, N, [])], [(0,)]),
    "density_terms": lambda model, N, iv: (list(jost.density_terms(model, N, [])), [(0,)] * 3),
    # no quadrature order: an empty per-order list
    "entropy_integrals": lambda model, N, iv: ([np.asarray(js.entropy_integrals(model, N, iv, []))], [(0,)]),
    "product_forms": lambda model, N, iv: (_form_fields(js.product_forms(model, N, [])), [(0,)] * 5 + [(2, 2, 0)]),
    "connection_matrices": lambda model, N, iv: (list(transfer.connection_matrices(model, N, [])), [(N - 1, 0)] * 4),
}


@pytest.mark.parametrize("name", sorted(EMPTY_BATCH))
@pytest.mark.parametrize("N", [20, 40])
def test_empty_batch_returns_empty_arrays(name, N):
    # at N = 40 the recursion walks a block of 64 sites; the group sizes of
    # its walk and of the chain's block products divide by the energy count
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    model = js.make_model(block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))
    results, shapes = EMPTY_BATCH[name](model, N, js.widest_trimmed_band(block, margin=0.1))
    assert [np.shape(x) for x in results] == shapes
