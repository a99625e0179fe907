"""Energy-batched kernels against a pure-Python reference recursion."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import jostspec as js
from conftest import random_block
from jostspec import _kernels
from jostspec.errors import BandEdgeError


def reference_jost(a, b, zeta, u_top, u_second):
    """The backward recursion one energy and one site at a time, rescaling
    every stored value when the guard fires."""
    m = len(a) - 1
    u = np.empty(m + 2, dtype=complex)
    u[m + 1], u[m] = u_top, u_second
    scale = 0
    for n in range(m, 0, -1):
        u[n - 1] = -(a[n] * u[n + 1] + (b[n] - zeta) * u[n]) / a[n - 1]
        if abs(u[n - 1]) > _kernels.RESCALE_THRESHOLD:
            u[n - 1 :] *= 2.0 ** -_kernels.RESCALE_SHIFT
            scale += _kernels.RESCALE_SHIFT
    return u, scale


def reference_batched_jost(a, b, zeta, u_top, u_second, rows=None):
    """The batched recursion with a magnitude check at every step, as it was
    before the growth bound gated the guard."""
    zeta, hi, lo = _kernels._energy_arrays(zeta, u_top, u_second)
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    m = a.shape[0] - 1
    scale_log2 = np.zeros(zeta.shape, dtype=np.int64)
    factor = 2.0 ** (-_kernels.RESCALE_SHIFT)
    if rows is not None:
        rows[m + 1] = hi
        rows[m] = lo
    for n in range(m, 0, -1):
        new = -(a[n] * hi + (b[n] - zeta) * lo) / a[n - 1]
        big = np.abs(new) > _kernels.RESCALE_THRESHOLD
        if rows is not None:
            rows[n - 1] = new
        if big.any():
            new[big] *= factor
            lo[big] *= factor
            scale_log2[big] += _kernels.RESCALE_SHIFT
            if rows is not None:
                rows[n - 1 :, big] *= factor
        hi, lo = lo, new
    return lo, hi, scale_log2


def reference_strip(a, b, zeta, m_start, n_from):
    m = m_start
    for n in range(n_from, 0, -1):
        m = 1.0 / (b[n] - zeta - a[n] * a[n] * m)
    return m


@pytest.fixture(scope="module")
def baseline_model():
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    return js.make_model(block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))


def _batch(model, N, energies):
    work = js.truncate(model, N)
    a, b = work.coefficient_arrays(N * work.block.q)
    _, z, c, d, _ = js.floquet(work.block, energies)
    return a, b, np.array(energies, dtype=complex), z - d, c


def _rel(x, y):
    return abs(x - y) / abs(y)


SIX_ENERGIES = [0.35, 0.8, 1.2, complex(0.35, 1e-3), complex(0.8, 0.05), complex(1.9, 0.3)]


def _assert_bit_identical(a, b, zeta, tops, seconds):
    rows, ref_rows = (np.empty((len(a) + 1, len(zeta)), dtype=complex) for _ in range(2))
    got = _kernels.jost_backward(a, b, zeta, tops, seconds, rows=rows)
    ref = reference_batched_jost(a, b, zeta, tops, seconds, rows=ref_rows)
    assert all(np.array_equal(x, y) for x, y in zip(got, ref))
    assert np.array_equal(rows, ref_rows)
    got = _kernels.jost_backward(a, b, zeta, tops, seconds)
    assert all(np.array_equal(x, y) for x, y in zip(got, ref))
    return got


@pytest.mark.parametrize(
    "N, energies, scales",
    [(60, SIX_ENERGIES, [0] * 6), (4000, [0.8, complex(0.3, 1e-3), 1.5], [0, 600, 0])],
    ids=["six-energies", "rescale"],
)
def test_jost_backward_matches_the_per_step_guard_bit_for_bit(baseline_model, N, energies, scales):
    got = _assert_bit_identical(*_batch(baseline_model, N, energies))
    assert got[2].tolist() == scales


@st.composite
def guarded_chains(draw):
    q = draw(st.integers(1, 4))
    a = draw(st.lists(st.floats(0.05, 5.0), min_size=q, max_size=q))
    b = draw(st.lists(st.floats(-5.0, 5.0), min_size=q, max_size=q))
    # the first energy is off the axis, so its solution grows and the guard
    # fires at least every few hundred sites
    heights = [draw(st.floats(0.5, 3.0))] + draw(st.lists(st.floats(0.0, 3.0), max_size=3))
    zeta = np.array([complex(draw(st.floats(-12.0, 12.0)), y) for y in heights])
    top = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    second = complex(draw(st.floats(0.1, 2.0)), draw(st.floats(-2.0, 2.0)))
    return np.resize(a, 601), np.resize(b, 601), zeta, top, second


@settings(derandomize=True, deadline=None, max_examples=40)
@given(guarded_chains())
def test_gated_guard_matches_the_per_step_guard(chain):
    # a low threshold and a small shift make the guard fire many times on 600
    # sites, so the bound is reset from the actual pair again and again
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "RESCALE_THRESHOLD", 1e6)
        mp.setattr(_kernels, "RESCALE_SHIFT", 10)
        _assert_bit_identical(*chain)


def test_jost_backward_batch_matches_reference(baseline_model):
    energies = SIX_ENERGIES
    a, b, zeta, tops, seconds = _batch(baseline_model, 60, energies)
    u0, u1, scale = _kernels.jost_backward(a, b, zeta, tops, seconds)
    assert u0.shape == u1.shape == scale.shape == (len(energies),)
    for i, energy in enumerate(energies):
        ref, ref_scale = reference_jost(a, b, complex(energy), tops[i], seconds[i])
        assert scale[i] == ref_scale
        assert _rel(u0[i], ref[0]) <= 1e-13
        assert _rel(u1[i], ref[1]) <= 1e-13


def test_rescale_guard_is_per_energy(baseline_model):
    # 8000 sites: the off-axis energy overflows the guard once, the real
    # band-interior energies never do
    energies = [0.8, complex(0.3, 1e-3), 1.5]
    a, b, zeta, tops, seconds = _batch(baseline_model, 4000, energies)
    u0, u1, scale = _kernels.jost_backward(a, b, zeta, tops, seconds)
    assert scale.tolist() == [0, 600, 0]
    for i, energy in enumerate(energies):
        ref, ref_scale = reference_jost(a, b, complex(energy), tops[i], seconds[i])
        assert scale[i] == ref_scale
        assert _rel(u0[i], ref[0]) <= 1e-13
        assert _rel(u1[i], ref[1]) <= 1e-13


def test_solution_rows_share_the_final_scale(baseline_model):
    sol = js.jost_solution(baseline_model, 4000, complex(0.3, 1e-3))
    assert sol.scale_log2 == 600
    assert js.recursion_residuals(baseline_model, sol).max() < 1e-10
    a, b, zeta, tops, seconds = _batch(baseline_model, 4000, [complex(0.3, 1e-3)])
    u0, u1, _ = _kernels.jost_backward(a, b, zeta, tops, seconds)
    assert (sol.u0, sol.u1) == (u0[0], u1[0])
    ref, _ = reference_jost(a, b, zeta[0], tops[0], seconds[0])
    assert np.max(np.abs(sol.u - ref) / np.abs(ref)) <= 1e-13


def test_strip_downward_batch_matches_reference(baseline_model):
    zetas = [complex(e, y) for e in (-0.9, 0.35, 1.2) for y in (1e-5, 1e-3, 0.2)]
    work = js.truncate(baseline_model, 300)
    depth = 299 * 2
    a, b = work.coefficient_arrays(depth)
    tails = js.tail_m_function(work.block, zetas)
    got = _kernels.strip_downward(a, b, np.array(zetas), tails, depth)
    assert got.shape == (len(zetas),)
    for g, z, t in zip(got, zetas, tails):
        assert _rel(g, reference_strip(a, b, z, t, depth)) <= 1e-13


def indexed_strip(a, b, zeta, m_start, n_from):
    """The batched stripping loop over NumPy scalars a[n], b[n], with a[n]^2
    formed at every site, as it was before the site lists."""
    zeta, m = _kernels._energy_arrays(zeta, m_start)
    for n in range(n_from, 0, -1):
        m = 1.0 / (b[n] - zeta - a[n] * a[n] * m)
    return m


@pytest.mark.parametrize("points", [1, 2, 200])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_strip_downward_matches_indexed_loop_bit_for_bit(q, points):
    rng = np.random.default_rng(10 * q + points)
    model = js.make_model(random_block(rng, q), js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))
    depth = 60 * q
    a, b = model.coefficient_arrays(depth)
    # real and strip energies
    heights = np.where(rng.random(points) < 0.5, 0.0, rng.uniform(0.0, 0.2, points))
    zetas = rng.uniform(-2.5, 2.5, points) + 1j * heights
    tails = rng.normal(size=points) + 1j * rng.uniform(0.01, 1.0, points)
    got = _kernels.strip_downward(a, b, zetas, tails, depth)
    assert np.array_equal(got, indexed_strip(a, b, zetas, tails, depth), equal_nan=True)


def test_batched_density_matches_pointwise(baseline_model):
    iv = js.widest_trimmed_band(baseline_model.block, margin=0.1)
    curve = js.density_curve(baseline_model, 50, iv, 21)
    pointwise = [js.ac_density(baseline_model, 50, e)[0] for e in curve.grid]
    assert curve.values.tolist() == pointwise
    oracle = js.density_curve(baseline_model, 50, iv, 21, method="oracle")
    pointwise = [js.oracle_green_11(baseline_model, 50, e)[0].imag / np.pi for e in oracle.grid]
    assert oracle.values.tolist() == pointwise


def test_density_curve_names_the_band_edge_energy():
    # closed gap at E = 0: the discriminant E^2 - 2 touches -2 mid-grid
    model = js.make_model(js.periodic_block(2, [1.0, 1.0], [0.0, 0.0]))
    with pytest.raises(BandEdgeError, match=r"E = 0\.0 is not"):
        js.density_curve(model, 5, (-1.0, 1.0), 5)


def test_first_failing_energy_in_grid_order_is_reported(free_model):
    # -2.0 and 2.0 are both band edges; the lower one comes first
    with pytest.raises(BandEdgeError, match=r"E = -2\.0 is not"):
        js.density_curve(free_model, 5, (-2.0, 2.0), 9)
    nodes, _ = leggauss(4)
    outside = [e for e in 1.75 + 0.75 * nodes if e > 2.0]
    assert len(outside) == 2
    with pytest.raises(BandEdgeError, match=re.escape(f"E = {outside[0]} is not")):
        js.entropy_integrals(free_model, 5, (1.0, 2.5), (4,))
