"""Transfer algebra: the chain's period products, the discriminant and its
Floquet branches, and the renormalized block chain at single points."""

import numpy as np
import pytest

import jostspec as js
from conftest import identity_start_products, random_block
from jostspec import bands, transfer
from jostspec.errors import BandEdgeError


def period_matrices(model, zeta, q, n_blocks):
    """Blocks 0 .. n_blocks-1 of q one-step matrices each at one energy, as an
    (n_blocks, 2, 2) array; q = 1 gives the one-step matrices T_1, T_2, ...
    The entries transfer._period_products returns are checked against them."""
    a, b = model.coefficient_arrays(n_blocks * q)
    p11, p12, p21, p22 = identity_start_products(a, b, zeta, q, n_blocks)
    # the chain reads every entry but p12
    products = transfer._period_products(a, b, np.atleast_1d(np.asarray(zeta, dtype=complex)), q)
    for got, want in zip(products, (p11, p21, p22), strict=True):
        assert np.array_equal(got, want)
    return np.stack([p[:, 0] for p in (p11, p12, p21, p22)], axis=-1).reshape(n_blocks, 2, 2)


def unit_det_blocks(model, zeta, n_blocks):
    """The blocks conjugated by the boundary weights: diag(1, 1/a_nq) P_n
    diag(1, a_(n+1)q), of determinant one."""
    q = model.block.q
    a_nq = model.coefficient_arrays(n_blocks * q)[0][::q]
    p = period_matrices(model, zeta, q, n_blocks)
    p[:, 1, :] /= a_nq[:-1, None]
    p[:, :, 1] *= a_nq[1:, None]
    return p


def det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def test_one_step_free(free_model):
    assert period_matrices(free_model, 0.0, 1, 3)[2].tolist() == [[0.0, -1.0], [1.0, 0.0]]
    assert period_matrices(free_model, 1j, 1, 3)[2].tolist() == [[1j, -1.0], [1.0, 0.0]]


def test_one_step_determinant_closed_form():
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    model = js.make_model(block)
    # n = 2: a(1) = 1, a(2) = 2
    assert det2(period_matrices(model, 0.37, 1, 2)[1]) == 0.5
    steps = period_matrices(model, 0.41, 1, 8)
    for n in range(1, 9):
        assert det2(steps[n - 1]) == pytest.approx(model.a(n - 1) / model.a(n), rel=1e-15)


def test_period_block_free(free_model):
    for energy in (-1.3, 0.0, 0.9):
        assert period_matrices(free_model, energy, 1, 1)[0].tolist() == [[energy, -1.0], [1.0, 0.0]]


def test_period_block_two_step_product():
    block = js.periodic_block(2, [1.0, 1.0], [0.0, 0.0])
    model = js.make_model(block)
    for energy in np.linspace(-1.8, 1.8, 7):
        m = period_matrices(model, energy, 2, 1)[0]
        want = [[energy**2 - 1, -energy], [energy, -1.0]]
        np.testing.assert_allclose(m, want, rtol=0, atol=1e-13)


def test_period_block_unperturbed_det_is_one():
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    blocks = period_matrices(js.make_model(block), 0.7 + 0.2j, 2, 6)
    for n in (0, 1, 5):
        assert det2(blocks[n]) == pytest.approx(1.0, abs=1e-12)


def test_period_block_det_boundary_ratio():
    block = js.periodic_block(2, [1.0, 1.3], [0.1, -0.1])
    pert = js.PerturbationSpec.finite(alpha=[0.1, -0.05, 0.07, 0.02], beta=[0.2])
    model = js.make_model(block, pert)
    q = block.q
    zeta = 0.5 + 0.3j
    blocks = period_matrices(model, zeta, q, 3)
    for n in (0, 1, 2):
        expected = model.a(n * q) / model.a((n + 1) * q)
        assert det2(blocks[n]) == pytest.approx(expected, rel=1e-12)
    # a block past the first few is the product of its own one-step matrices
    decaying = js.make_model(block, js.PerturbationSpec.power(c=0.4, s=0.5, gamma=0.3, target="both"))
    for m in (model, decaying):
        blocks, steps = period_matrices(m, zeta, q, 6), period_matrices(m, zeta, 1, 6 * q)
        for n in (3, 5):
            product = steps[n * q]
            for k in range(n * q + 2, (n + 1) * q + 1):
                product = steps[k - 1] @ product
            np.testing.assert_allclose(blocks[n], product, rtol=1e-14, atol=0)


def test_discriminant_free(free_block):
    for energy in np.linspace(-3, 3, 11):
        assert js.discriminant(free_block, energy) == pytest.approx(energy, abs=1e-14)


def test_discriminant_two_periodic():
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    for energy in np.linspace(-3.5, 3.5, 13):
        assert js.discriminant(block, energy) == pytest.approx(
            (energy**2 - 5) / 2, abs=1e-12
        )


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
    delta, z, c, d, fault = js.floquet(free_block, 0.0)
    assert fault.tolist() == [0]
    assert z[0] == pytest.approx(-1j, abs=1e-14)
    assert z[0] + 1.0 / z[0] == pytest.approx(delta[0], abs=1e-12)
    assert (z[0] - d[0], c[0]) == (pytest.approx(-1j), pytest.approx(1.0))


def test_floquet_free_outside_band(free_block):
    delta, z, _, _, fault = js.floquet(free_block, 3.0)
    assert fault.tolist() == [0]
    assert z[0] == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-12)
    assert z[0] + 1.0 / z[0] == pytest.approx(delta[0], abs=1e-12)


def test_floquet_free_upper_half_plane(free_block):
    _, z, _, _, fault = js.floquet(free_block, 1j)
    assert fault.tolist() == [0]
    assert z[0] == pytest.approx(-1j * (np.sqrt(5) - 1) / 2, abs=1e-12)
    assert abs(z[0]) == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-12)


def test_floquet_band_edge_error(free_block):
    *_, fault = js.floquet(free_block, [1.0, 2.0, -2.0, 2.0 + 1e-3j])
    assert fault.tolist() == [0, transfer.BAND_EDGE, transfer.BAND_EDGE, 0]
    with pytest.raises(BandEdgeError, match=r"^\|discriminant\| = 2 at E = 2\.0$"):
        js.jost_solution(js.make_model(free_block), 3, 2.0)


def test_floquet_branch_is_boundary_limit(free_block):
    # difference to the strip value shrinks linearly in the offset
    for energy in (-1.2, 0.3, 1.7):
        _, (z0, z4, z6), _, _, fault = js.floquet(free_block, [energy, complex(energy, 1e-4), complex(energy, 1e-6)])
        assert not fault.any()
        d4, d6 = abs(z4 - z0), abs(z6 - z0)
        assert d6 < 5e-5
        assert 20 < d4 / d6 < 500


def test_floquet_eigenvector_residual():
    rng = np.random.default_rng(17)
    zetas = [0.3 + 0.2j, -0.5 + 0.05j, 1.1 + 0.4j]
    for q in (1, 2, 3):
        block = random_block(rng, q)
        _, zs, cs, ds, fault = js.floquet(block, zetas)
        assert not fault.any()
        for zeta, z, x, y in zip(zetas, zs, zs - ds, cs):
            rx, ry = period_matrices(js.make_model(block), zeta, q, 1)[0] @ [x, y]
            norm = np.hypot(abs(x), abs(y))
            assert abs(rx - z * x) < 1e-10 * norm
            assert abs(ry - z * y) < 1e-10 * norm


def test_floquet_eigenvector_two_periodic_real():
    block = js.periodic_block(2, [1.0, 1.0], [0.0, 0.0])
    _, (z,), (c,), (d,), _ = js.floquet(block, 1.0)
    # D(E) = -1, C(E) = E
    assert z - d == pytest.approx(z + 1.0, abs=1e-12)
    assert c == pytest.approx(1.0, abs=1e-12)


def test_renormalized_block_det_and_trace():
    block = js.periodic_block(2, [1.0, 2.0], [0.1, -0.3])
    model = js.make_model(block, js.PerturbationSpec.finite(alpha=[0.1, -0.05], beta=[0.2]))
    a, b = model.coefficient_arrays(8)
    for zeta in (0.4 + 0.1j, 1.5 + 0.01j):
        blocks = unit_det_blocks(model, zeta, 4)
        lam, _, faults = transfer.chain_blocks(a, b, [zeta], 2, 0, 4)
        assert not faults.any()
        for n in (0, 1, 3):
            assert det2(blocks[n]) == pytest.approx(1.0, abs=1e-12)
            # with det 1, lambda_n and 1/lambda_n are the block's eigenvalues
            lam_n = lam[n, 0]
            assert lam_n + 1.0 / lam_n == pytest.approx(np.trace(blocks[n]), abs=1e-12)
    # zero perturbation: similarity preserves the discriminant
    clean = js.make_model(block)
    a, b = clean.coefficient_arrays(6)
    for zeta in (0.4 + 0.1j, -1.2 + 0.3j):
        lam, _, _ = transfer.chain_blocks(a, b, [zeta], 2, 2, 1)
        delta = js.discriminant(block, zeta)
        assert lam[0, 0] + 1.0 / lam[0, 0] == pytest.approx(delta, abs=1e-12)
        assert np.trace(unit_det_blocks(clean, zeta, 3)[2]) == pytest.approx(delta, abs=1e-12)


def test_renormalized_block_tail_bitexact_beyond_support():
    block = js.periodic_block(2, [1.0, 1.3], [0.1, -0.1])
    pert = js.PerturbationSpec.finite(alpha=[0.05, -0.02, 0.04], beta=[0.1, 0.2])
    perturbed = js.make_model(block, pert)
    clean = js.make_model(block)
    for zeta in (0.5 + 0.2j, 1.1 + 0.05j):
        p = unit_det_blocks(perturbed, zeta, 11)[10]
        c = unit_det_blocks(clean, zeta, 11)[10]
        assert p.tolist() == c.tolist()
        lam_p, u_p, _ = transfer.chain_blocks(*perturbed.coefficient_arrays(22), [zeta], 2, 10, 1)
        lam_c, u_c, _ = transfer.chain_blocks(*clean.coefficient_arrays(22), [zeta], 2, 10, 1)
        assert lam_p.tolist() == lam_c.tolist()
        assert [x.tolist() for x in u_p] == [x.tolist() for x in u_c]


def test_connection_matrices_vanish_without_perturbation():
    block = js.periodic_block(2, [1.0, 1.7], [0.2, -0.4])
    w = transfer.connection_matrices(js.make_model(block), 7, [0.8 + 0.05j])
    assert np.max(np.abs(w)) < 1e-12


def test_connection_matrix_scales_linearly_with_perturbation(free_block):
    def w_norm(delta):
        pert = js.PerturbationSpec.finite(beta=[0.0, 0.0, delta])
        w = transfer.connection_matrices(js.make_model(free_block, pert), 4, [0.4 + 0.05j])
        # W_3
        return np.sqrt(sum(abs(x[2, 0]) ** 2 for x in w))

    ratio = w_norm(1e-4) / w_norm(5e-5)
    assert 1.6 < ratio < 2.4


def test_w_norms_square_summable_for_l2_family(free_block):
    model = js.make_model(
        free_block, js.PerturbationSpec.power(c=0.6, s=0.5, gamma=0.2)
    )
    w = transfer.connection_matrices(model, 513, [0.4 + 0.05j])
    # partial sums of ||W_n||_F^2 up to n = 32, 64, ..., 512
    running = np.cumsum(sum(np.abs(x[:, 0]) ** 2 for x in w))
    sums = running[[31, 63, 127, 255, 511]]
    # Cauchy along doubling ranges: increments shrink overall and stay small
    increments = np.diff(sums)
    assert increments[-1] < increments[0]
    assert all(inc < 0.05 for inc in increments)


@pytest.mark.parametrize("q", range(1, 7))
def test_chain_and_floquet_take_one_branch(q):
    # without perturbation each block's lambda_n is the background's
    # multiplier, 1 / z: in bands, in gaps, outside the spectrum, off the axis
    block = random_block(np.random.default_rng(70 + q), q)
    edges = np.array([e for pair in bands._edge_pairs(block) for e in pair])
    mids = 0.5 * (edges[:-1] + edges[1:])
    strip = [mids[::2] + 1j * y for y in (1e-3, 0.1, 1.0)]
    points = np.concatenate([mids, [edges[0] - 0.5, edges[-1] + 0.5], *strip])
    lam, _, faults = transfer.chain_blocks(*js.make_model(block).coefficient_arrays(4 * q), points, q, 0, 4)
    _, z, _, _, fault = js.floquet(block, points)
    assert not faults.any() and not fault.any()
    np.testing.assert_allclose(lam * z, 1.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("q", range(1, 7))
def test_floquet_real_axis_data_are_the_real_product(q):
    # floquet forms one period a complex step above a real point; the real
    # parts of its trace and lower row are the float64 product's, bit for
    # bit, in bands, in gaps and beyond the spectrum
    rng = np.random.default_rng(90 + q)
    for _ in range(10):
        block = random_block(rng, q)
        pairs = bands._edge_pairs(block)
        lo, hi = pairs[0][0], pairs[-1][1]
        gaps = [rng.uniform(e1, e2, 20) for (_, e1), (e2, _) in zip(pairs[:-1], pairs[1:])]
        inside = [rng.uniform(e1, e2, 20) for e1, e2 in pairs]
        energies = np.concatenate([*inside, *gaps, rng.uniform(lo - 3.0, hi + 3.0, 100)])
        delta, _, c, d, _ = js.floquet(block, energies)
        p11, p21, p22 = transfer._background_period(block, energies)
        for got, want in ((delta, p11 + p22), (delta, js.discriminant(block, energies)), (c, p21), (d, p22)):
            assert not got.imag.any()
            assert np.array_equal(got.real, want)


def test_discriminant_keeps_the_shape_of_its_points(free_block):
    # discriminant is elementwise over a scalar or an array of any shape
    block = js.periodic_block(2, (1.0, 1.4), (0.1, -0.2))
    grid = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    assert js.discriminant(block, grid).shape == (3, 4)
    assert np.array_equal(js.discriminant(block, grid).ravel(), js.discriminant(block, grid.ravel()))
    assert np.ndim(js.discriminant(block, 0.3)) == 0
    assert js.discriminant(free_block, [1 + 2j]).dtype == np.complex128
    assert js.discriminant(free_block, 1).dtype == np.float64


@pytest.mark.parametrize("scale", [1.0, 1e-150])
def test_real_axis_branch_is_the_strip_limit_at_any_scale(scale):
    # bands of width ~1e-150 lie far below an absolute step of 1e-100, which
    # gave the conjugate z on bands 0 and 2 without a fault; the step is
    # relative to a°_0
    block = js.periodic_block(3, scale * np.array([1.0, 1.3, 0.8]), scale * np.array([0.1, -0.2, 0.05]))
    pairs = bands._edge_pairs(block)
    points = np.array([lo + f * (hi - lo) for lo, hi in pairs for f in (0.25, 0.5, 0.75)])
    above = points + 1e-9j * np.repeat([hi - lo for lo, hi in pairs], 3)
    both = np.concatenate([points, above])
    _, z, _, _, fault = js.floquet(block, both)
    lam, _, faults = transfer.chain_blocks(*js.make_model(block).coefficient_arrays(2 * block.q), both, block.q, 0, 2)
    assert not fault.any() and not faults.any()
    np.testing.assert_allclose(z[: points.size], z[points.size :], rtol=0, atol=1e-7)
    np.testing.assert_allclose(lam[:, : points.size], lam[:, points.size :], rtol=0, atol=1e-7)


@pytest.mark.parametrize(
    "block, zeta, code",
    [
        (js.periodic_block(1, [1.0], [0.0]), 2.0, transfer.BAND_EDGE),
        (js.periodic_block(1, [1.0], [0.0]), -2.0, transfer.BAND_EDGE),
        # discriminant E^2 / 1e10 - 2: a derivative below DERIV_TOL at E = -4
        (js.periodic_block(2, [1e5, 1e5], [0.0, 0.0]), -4.0, transfer.FLAT_DELTA),
        (js.periodic_block(1, [1.0], [0.0]), 0.5 + 1e-20j, transfer.COINCIDE),
    ],
    ids=["edge-top", "edge-bottom", "flat", "coincide"],
)
def test_chain_and_floquet_report_one_fault_code(block, zeta, code):
    *_, fault = js.floquet(block, [zeta])
    _, _, faults = transfer.chain_blocks(*js.make_model(block).coefficient_arrays(3 * block.q), [zeta], block.q, 0, 3)
    assert fault.tolist() == [code]
    assert faults.ravel().tolist() == [code] * 3
