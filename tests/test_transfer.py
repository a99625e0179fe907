import numpy as np
import pytest

import jostspec as js
from conftest import random_block
from jostspec.errors import BandEdgeError, ValidationError


def test_one_step_free(free_model):
    m = js.one_step(free_model, 3, 0.0)
    assert (m.m11, m.m12, m.m21, m.m22) == (0.0, -1.0, 1.0, 0.0)
    mi = js.one_step(free_model, 3, 1j)
    assert (mi.m11, mi.m12, mi.m21, mi.m22) == (1j, -1.0, 1.0, 0.0)


def test_one_step_determinant_closed_form():
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    model = js.make_model(block)
    # n = 2: a(1) = 1, a(2) = 2
    m = js.one_step(model, 2, 0.37)
    assert m.det() == 0.5
    for n in range(1, 9):
        step = js.one_step(model, n, 0.41)
        assert step.det() == pytest.approx(model.a(n - 1) / model.a(n), rel=1e-15)


def test_one_step_rejects_bad_index(free_model):
    with pytest.raises(ValidationError):
        js.one_step(free_model, 0, 0.0)


def test_period_block_free(free_model):
    for energy in (-1.3, 0.0, 0.9):
        m = js.period_block_matrix(free_model, 0, energy)
        assert (m.m11, m.m12, m.m21, m.m22) == (energy, -1.0, 1.0, 0.0)


def test_period_block_two_step_product():
    block = js.periodic_block(2, [1.0, 1.0], [0.0, 0.0])
    model = js.make_model(block)
    for energy in np.linspace(-1.8, 1.8, 7):
        m = js.period_block_matrix(model, 0, energy)
        assert m.m11 == pytest.approx(energy**2 - 1, abs=1e-13)
        assert m.m12 == pytest.approx(-energy, abs=1e-13)
        assert m.m21 == pytest.approx(energy, abs=1e-13)
        assert m.m22 == pytest.approx(-1.0, abs=1e-13)


def test_period_block_unperturbed_det_is_one():
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    model = js.make_model(block)
    for n in (0, 1, 5):
        det = js.period_block_matrix(model, n, 0.7 + 0.2j).det()
        assert det == pytest.approx(1.0, abs=1e-12)


def test_period_block_det_boundary_ratio():
    block = js.periodic_block(2, [1.0, 1.3], [0.1, -0.1])
    pert = js.PerturbationSpec.finite(alpha=[0.1, -0.05, 0.07, 0.02], beta=[0.2])
    model = js.make_model(block, pert)
    q = block.q
    for n in (0, 1, 2):
        det = js.period_block_matrix(model, n, 0.5 + 0.3j).det()
        expected = model.a(n * q) / model.a((n + 1) * q)
        assert det == pytest.approx(expected, rel=1e-12)
    # a block past the first few is the product of its own one-step matrices
    decaying = js.make_model(block, js.PerturbationSpec.power(c=0.4, s=0.5, gamma=0.3, target="both"))
    for m in (model, decaying):
        for n in (3, 5):
            product = js.one_step(m, n * q + 1, 0.5 + 0.3j)
            for k in range(n * q + 2, (n + 1) * q + 1):
                product = js.one_step(m, k, 0.5 + 0.3j) @ product
            block_n = js.period_block_matrix(m, n, 0.5 + 0.3j)
            np.testing.assert_allclose(block_n.to_array(), product.to_array(), rtol=1e-14, atol=0)


def test_discriminant_free(free_block):
    for energy in np.linspace(-3, 3, 11):
        assert js.discriminant(free_block, energy) == pytest.approx(energy, abs=1e-14)


def test_discriminant_two_periodic():
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    for energy in np.linspace(-3.5, 3.5, 13):
        assert js.discriminant(block, energy) == pytest.approx(
            (energy**2 - 5) / 2, abs=1e-12
        )


def test_discriminant_derivative_two_periodic():
    # the discriminant (E^2 - 5) / 2 has derivative E
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    energies = np.linspace(-3.5, 3.5, 14)
    np.testing.assert_allclose(js.discriminant_derivative(block, energies), energies, rtol=1e-14, atol=0)
    for energy in energies:
        assert js.discriminant_derivative(block, float(energy)) == pytest.approx(energy, rel=1e-14, abs=0)


def test_discriminant_translation_covariance():
    rng = np.random.default_rng(5)
    block = random_block(rng, 3)
    shift = 0.37
    shifted = js.periodic_block(3, block.a_bg, tuple(b + shift for b in block.b_bg))
    for energy in np.linspace(-2, 2, 9):
        assert js.discriminant(shifted, energy) == pytest.approx(
            js.discriminant(block, energy - shift), abs=1e-12
        )


def test_floquet_free_band_interior(free_block):
    data = js.floquet_eigenvalue(free_block, 0.0)
    assert data.z == pytest.approx(-1j, abs=1e-14)
    assert data.z * data.z_inv == pytest.approx(1.0, abs=1e-12)
    assert data.eigvec == (pytest.approx(-1j), pytest.approx(1.0))


def test_floquet_free_outside_band(free_block):
    data = js.floquet_eigenvalue(free_block, 3.0)
    assert data.z == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-12)
    assert abs(data.z) < 1 < abs(data.z_inv)


def test_floquet_free_upper_half_plane(free_block):
    data = js.floquet_eigenvalue(free_block, 1j)
    assert data.z == pytest.approx(-1j * (np.sqrt(5) - 1) / 2, abs=1e-12)
    assert abs(data.z) == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-12)


def test_floquet_band_edge_error(free_block):
    with pytest.raises(BandEdgeError):
        js.floquet_eigenvalue(free_block, 2.0)


def test_floquet_branch_is_boundary_limit(free_block):
    # difference to the strip value shrinks linearly in the offset
    for energy in (-1.2, 0.3, 1.7):
        z0 = js.floquet_eigenvalue(free_block, energy).z
        d4 = abs(js.floquet_eigenvalue(free_block, complex(energy, 1e-4)).z - z0)
        d6 = abs(js.floquet_eigenvalue(free_block, complex(energy, 1e-6)).z - z0)
        assert d6 < 5e-5
        assert 20 < d4 / d6 < 500


def test_floquet_eigenvector_residual():
    rng = np.random.default_rng(17)
    for q in (1, 2, 3):
        block = random_block(rng, q)
        for zeta in (0.3 + 0.2j, -0.5 + 0.05j, 1.1 + 0.4j):
            data = js.floquet_eigenvalue(block, zeta)
            x, y = data.eigvec
            p = js.period_block_matrix(js.make_model(block), 0, zeta)
            rx, ry = p.apply((x, y))
            norm = np.hypot(abs(x), abs(y))
            assert abs(rx - data.z * x) < 1e-10 * norm
            assert abs(ry - data.z * y) < 1e-10 * norm


def test_floquet_eigenvector_two_periodic_real():
    block = js.periodic_block(2, [1.0, 1.0], [0.0, 0.0])
    x, y = js.floquet_eigenvector(block, 1.0)
    z = js.floquet_eigenvalue(block, 1.0).z
    # D(E) = -1, C(E) = E
    assert x == pytest.approx(z + 1.0, abs=1e-12)
    assert y == pytest.approx(1.0, abs=1e-12)


def test_renormalized_block_det_and_trace():
    block = js.periodic_block(2, [1.0, 2.0], [0.1, -0.3])
    model = js.make_model(block, js.PerturbationSpec.finite(alpha=[0.1, -0.05], beta=[0.2]))
    for n in (0, 1, 3):
        for zeta in (0.4 + 0.1j, 1.5 + 0.01j):
            p = js.renormalized_block(model, n, zeta)
            assert p.det() == pytest.approx(1.0, abs=1e-12)
    # zero perturbation: similarity preserves the discriminant
    clean = js.make_model(block)
    for zeta in (0.4 + 0.1j, -1.2 + 0.3j):
        tr = js.renormalized_block(clean, 2, zeta).trace()
        assert tr == pytest.approx(js.discriminant(block, zeta), abs=1e-12)


def test_renormalized_block_tail_bitexact_beyond_support():
    block = js.periodic_block(2, [1.0, 1.3], [0.1, -0.1])
    pert = js.PerturbationSpec.finite(alpha=[0.05, -0.02, 0.04], beta=[0.1, 0.2])
    perturbed = js.make_model(block, pert)
    clean = js.make_model(block)
    for zeta in (0.5 + 0.2j, 1.1 + 0.05j):
        p = js.renormalized_block(perturbed, 10, zeta)
        c = js.renormalized_block(clean, 10, zeta)
        assert (p.m11, p.m12, p.m21, p.m22) == (c.m11, c.m12, c.m21, c.m22)


def test_w_matrix_vanishes_without_perturbation():
    block = js.periodic_block(2, [1.0, 1.7], [0.2, -0.4])
    model = js.make_model(block)
    for n in (1, 2, 6):
        w = js.w_matrix(model, n, 0.8 + 0.05j)
        assert max(abs(w.m11), abs(w.m12), abs(w.m21), abs(w.m22)) < 1e-12


def test_w_matrix_scales_linearly_with_perturbation(free_block):
    def w_norm(delta):
        pert = js.PerturbationSpec.finite(beta=[0.0, 0.0, delta])
        model = js.make_model(free_block, pert)
        w = js.w_matrix(model, 3, 0.4 + 0.05j)
        return np.sqrt(
            abs(w.m11) ** 2 + abs(w.m12) ** 2 + abs(w.m21) ** 2 + abs(w.m22) ** 2
        )

    ratio = w_norm(1e-4) / w_norm(5e-5)
    assert 1.6 < ratio < 2.4


def test_w_norms_square_summable_for_l2_family(free_block):
    model = js.make_model(
        free_block, js.PerturbationSpec.power(c=0.6, s=0.5, gamma=0.2)
    )
    chain = js.RenormChain(model, 513, 0.4 + 0.05j)
    sums = {}
    running, next_mark = 0.0, 32
    for n in range(1, 513):
        running += chain.w_norm_sq(n)
        if n == next_mark:
            sums[n] = running
            next_mark *= 2
    # Cauchy along doubling ranges: increments shrink overall and stay small
    increments = np.diff(list(sums.values()))
    assert increments[-1] < increments[0]
    assert all(inc < 0.05 for inc in increments)
