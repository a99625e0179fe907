"""Energy-batched kernels against a pure-Python reference recursion."""

import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import jostspec as js
from conftest import identity_start_products, random_block
from jostspec import _kernels, transfer
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
    # with rows the call is the per-site recursion at any length; without
    # rows, only a chain shorter than BLOCK takes the per-site step alone
    rows, ref_rows = (np.empty((len(a) + 1, len(zeta)), dtype=complex) for _ in range(2))
    got = _kernels.jost_backward(a, b, zeta, tops, seconds, rows=rows)
    ref = reference_batched_jost(a, b, zeta, tops, seconds, rows=ref_rows)
    assert all(np.array_equal(x, y) for x, y in zip(got, ref))
    assert np.array_equal(rows, ref_rows)
    if len(a) <= _kernels.BLOCK:
        assert all(np.array_equal(x, y) for x, y in zip(_kernels.jost_backward(a, b, zeta, tops, seconds), ref))
    return got


@pytest.mark.parametrize(
    "N, energies, scales",
    [
        (31, SIX_ENERGIES, [0] * 6),
        (31, [0.8, complex(0.3, 400.0), 1.5], [0, 600, 0]),
        (150, [0.8, complex(0.3, 400.0), 1.5], [0, 2400, 0]),
    ],
    ids=["six-energies", "rescale", "rows-past-a-block"],
)
def test_jost_backward_matches_the_per_step_guard_bit_for_bit(baseline_model, N, energies, scales):
    # 62 sites are shorter than BLOCK; at Im zeta = 400 the solution passes
    # the threshold within them, and four times on 300 sites
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


def _unscaled(u, scale_log2):
    """u * 2**scale_log2 as mantissas and exponents of its real and imaginary
    parts, exact at magnitudes beyond the range of a double."""
    parts = []
    for x in (u.real, u.imag):
        mantissa, exponent = np.frexp(x)
        parts += [mantissa, np.where(mantissa == 0, 0, exponent + scale_log2)]
    return parts


@settings(derandomize=True, deadline=None, max_examples=40)
@given(guarded_chains())
def test_gated_guard_matches_the_per_step_guard(chain):
    # The guard only moves exponents: a low threshold and a small shift make
    # it fire many times on 600 sites, on block products, pairs and single
    # sites alike, so the bound is reset from the actual values again and
    # again; u * 2**scale_log2 equals the default run's bit for bit, of the
    # block walk and of the per-site recursion a call with rows takes, and
    # so does every row on the final scale (rows that fall below the normal
    # range of either run lose bits there).
    a = chain[0]
    rows = np.empty((len(a) + 1, len(chain[2])), dtype=complex)
    default, default_sites = _kernels.jost_backward(*chain), _kernels.jost_backward(*chain, rows=rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "RESCALE_THRESHOLD", 1e6)
        mp.setattr(_kernels, "RESCALE_SHIFT", 10)
        low_rows = np.empty_like(rows)
        low, low_sites = _kernels.jost_backward(*chain), _kernels.jost_backward(*chain, rows=low_rows)
    assert low[2][0] > 0 and low_sites[2][0] > 0
    tiny = np.finfo(float).tiny
    pairs = ((rows.real, low_rows.real), (rows.imag, low_rows.imag))
    both = [(x == 0) & (y == 0) | (np.abs(x) >= tiny) & (np.abs(y) >= tiny) for x, y in pairs]
    runs = ((low, default), (low_sites, default_sites))
    compared = [(x, lo[2], y, de[2], ...) for lo, de in runs for x, y in zip(lo[:2], de[:2])]
    compared.append((low_rows, low_sites[2], rows, default_sites[2], both[0] & both[1]))
    for got, got_scale, want, want_scale, keep in compared:
        got, want = _unscaled(got, got_scale), _unscaled(want, want_scale)
        assert all(np.array_equal(x[keep], y[keep]) for x, y in zip(got, want))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(guarded_chains(), st.integers(2, 7).map(lambda j: j * _kernels.BLOCK + 1))
def test_split_run_continues_bit_for_bit(chain, k):
    # The recursion ladder's property: a run split at a block boundary
    # k = 1 (mod BLOCK) into a[k-1:], b[k-1:] and then a[:k], b[:k], the
    # second started from the pair (u_k, u_{k-1}) the first returns and the
    # scale_log2 added up, is the unsplit run bit for bit, real and off-axis
    # energies alike.  A low threshold makes the guard fire in both segments,
    # where each segment's growth bound, from its own coefficients, differs
    # from the whole run's.
    a, b, zeta, top, second = chain
    zeta = np.concatenate([zeta, zeta.real])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "RESCALE_THRESHOLD", 1e6)
        mp.setattr(_kernels, "RESCALE_SHIFT", 10)
        whole = _kernels.jost_backward(a, b, zeta, top, second)
        u_lo, u_hi, upper = _kernels.jost_backward(a[k - 1 :], b[k - 1 :], zeta, top, second)
        u0, u1, lower = _kernels.jost_backward(a[:k], b[:k], zeta, u_hi, u_lo)
    assert upper[0] > 0 and lower[0] > 0
    assert np.array_equal(u0, whole[0]) and np.array_equal(u1, whole[1])
    assert np.array_equal(upper + lower, whole[2])


@st.composite
def joined_rungs(draw):
    # one or two rungs that join a chain's walk at block boundaries, the
    # second at or below the first, each from its own pair
    sites = sorted(draw(st.lists(st.integers(2, 7).map(lambda j: j * _kernels.BLOCK + 1), min_size=1, max_size=2)))
    parts, positive = st.floats(-2.0, 2.0), st.floats(0.1, 2.0)
    pairs = [(complex(draw(parts), draw(parts)), complex(draw(positive), draw(parts))) for _ in sites]
    return list(zip(sites[::-1], pairs))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(guarded_chains(), joined_rungs())
def test_joined_rungs_equal_the_split_runs_bit_for_bit(chain, rungs):
    # jost's ladder joins a shallower truncation's pair (u_k, u_{k-1}) inside
    # the deepest one's kernel call, at block boundary k.  The joined call
    # equals the split runs, at each join site, that concatenate the rung's
    # pair to the rows the run above returns, bit for bit, real and off-axis
    # energies alike, with the guard firing in every segment.
    a, b, zeta, top, second = chain
    zeta = np.concatenate([zeta, zeta.real])
    joins = [(k, np.full((1, zeta.size), hi), np.full((1, zeta.size), lo)) for k, (hi, lo) in rungs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "RESCALE_THRESHOLD", 1e6)
        mp.setattr(_kernels, "RESCALE_SHIFT", 10)
        joined = _kernels.jost_backward(a, b, zeta, top, second, joins=joins)
        upper, lower, scale, hi = np.full((1, zeta.size), top), np.full((1, zeta.size), second), 0, len(a)
        for k, rung_upper, rung_lower in joins:
            u_lo, u_hi, s = _kernels.jost_backward(a[k - 1 : hi], b[k - 1 : hi], zeta, upper, lower)
            assert hi == k or s[0, 0] > 0
            upper, lower = np.concatenate([u_hi, rung_upper]), np.concatenate([u_lo, rung_lower])
            scale, hi = np.concatenate([scale + s, np.zeros((1, zeta.size), dtype=np.int64)]), k
        u0, u1, s = _kernels.jost_backward(a[:hi], b[:hi], zeta, upper, lower)
    assert joined[0].shape == (1 + len(rungs), zeta.size)
    assert np.array_equal(joined[0], u0) and np.array_equal(joined[1], u1)
    assert np.array_equal(joined[2], scale + s)
    assert (s[:, 0] > 0).all()


@pytest.mark.parametrize("k", [1, 2 * _kernels.BLOCK, 10 * _kernels.BLOCK + 1], ids=["below", "inside", "above"])
def test_a_join_off_the_block_walk_raises(k):
    # 600 sites walk the block boundaries 65 .. 577; a join anywhere else
    # would drop its rung
    a, b = np.ones(601), np.zeros(601)
    joins = [(k, np.ones((1, 2)), np.ones((1, 2)))]
    with pytest.raises(ValueError, match="block boundaries"):
        _kernels.jost_backward(a, b, [0.5, 1.0], 1.0, 1.0, joins=joins)


@st.composite
def periodic_block_chains(draw):
    # a chain whose a repeats in every block (q | BLOCK, or a q-periodic
    # pattern restarted at each block) and whose b does not
    q = draw(st.integers(1, 4))
    pattern = np.resize(draw(st.lists(st.floats(0.05, 5.0), min_size=q, max_size=q)), _kernels.BLOCK)
    blocks = draw(st.integers(1, 5))
    a = np.append(np.tile(pattern, blocks), pattern[0])
    b = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=a.size, max_size=a.size)))
    # the last energy lies beyond the spectrum, so the products grow and the
    # guard fires
    energies = np.array([draw(st.floats(-12.0, 12.0)) for _ in range(3)] + [40.0])
    axis = draw(st.sampled_from(["real", "strip", "mixed"]))
    heights = {"real": 0.0, "strip": 0.3, "mixed": np.array([0.0, 0.3, 0.0, 1e-3])}[axis]
    zeta = energies if axis == "real" else energies + 1j * heights
    return a, b, zeta


@settings(derandomize=True, deadline=None, max_examples=40)
@given(periodic_block_chains(), st.floats(1.25, 2.0))
def test_uniform_site_columns_match_the_per_block_path_bit_for_bit(chain, factor):
    # Where a repeats in every block, inv_n = 1/a_{n-1} and y_n = -a_n/a_{n-1}
    # (the stripping's -a_n^2) are the same for every block, and a step
    # multiplies by one 0-d value per site.  One more block whose a differs
    # forces the per-block columns; on the shared blocks both calls give the
    # same products and shifts, bit for bit, with the guard firing.
    a, b, zeta = chain
    a_x = np.concatenate([a, a[1 : _kernels.BLOCK + 1] * factor])
    b_x = np.concatenate([b, b[1 : _kernels.BLOCK + 1]])
    g = (len(a) - 1) // _kernels.BLOCK
    growth = float(np.max(a_x) + np.max(np.abs(b_x)) + np.max(np.abs(zeta))) / np.min(a_x) + 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "RESCALE_THRESHOLD", 1e6)
        mp.setattr(_kernels, "RESCALE_SHIFT", 10)
        for columns in (
            lambda a, b: (1.0 / a[:-1], -a[1:] / a[:-1], b[1:]),
            lambda a, b: (None, -(a[1:] * a[1:]), b[1:]),
        ):
            uniform, shifts = _kernels._block_products(columns(a, b), zeta, growth)
            per_block, per_block_shifts = _kernels._block_products(columns(a_x, b_x), zeta, growth)
            assert shifts is not None and per_block_shifts is not None
            assert np.array_equal(uniform.view(np.uint64), per_block[:, :, :g].view(np.uint64))
            assert np.array_equal(shifts, per_block_shifts[:g])


# Perturbations of the baseline block whose q-variation is square-summable
# (in; in-slow, whose sum converges slowly) and is not (out).
ACCURACY_MODELS = {
    "in": js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2),
    "in-slow": js.PerturbationSpec.power(c=0.8, s=1.5, gamma=0.6),
    "out": js.PerturbationSpec.power(c=0.8, s=1.5, gamma=0.2),
}


@pytest.mark.parametrize("name", sorted(ACCURACY_MODELS))
def test_jost_backward_against_50_digit_recursion(baseline_model, name):
    # The same recursion in 50-digit arithmetic from the same float64
    # boundary pair, at 8 real band energies (float64 block products) and
    # 8 strip points (complex ones), each set in one call, on 1000 sites:
    # 15 blocks and the per-site step on the top 40 sites.
    block, N = baseline_model.block, 500
    lo, hi = js.widest_trimmed_band(block, margin=0.1)
    energies = np.linspace(lo, hi, 8)
    a, b, zeta, tops, seconds = _batch(js.make_model(block, ACCURACY_MODELS[name]), N, [*energies, *energies + 0.01j])
    calls = [_kernels.jost_backward(a, b, zeta[half], tops[half], seconds[half]) for half in (slice(8), slice(8, 16))]
    u0 = np.concatenate([u for u, _, _ in calls])
    scale_log2 = np.concatenate([s for _, _, s in calls])
    worst = 0.0
    with mpmath.workdps(50):
        am = [mpmath.mpf(float(x)) for x in a]
        bm = [mpmath.mpf(float(x)) for x in b]
        for i, point in enumerate(zeta):
            z = mpmath.mpc(point)
            u_hi, u_lo = mpmath.mpc(tops[i]), mpmath.mpc(seconds[i])
            for n in range(len(am) - 1, 0, -1):
                u_hi, u_lo = u_lo, -(am[n] * u_hi + (bm[n] - z) * u_lo) / am[n - 1]
            got = mpmath.mpc(complex(u0[i])) * mpmath.mpf(2) ** int(scale_log2[i])
            worst = max(worst, float(abs(got - u_lo) / abs(u_lo)))
    assert worst <= 1e-12


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
    # jost_solution's rows are the per-site recursion, bit for bit; the block
    # walk of the call without rows agrees with its u_0, u_1 and scale
    sol = js.jost_solution(baseline_model, 4000, complex(0.3, 1e-3))
    assert sol.scale_log2 == 600
    assert js.recursion_residuals(baseline_model, sol).max() < 1e-10
    a, b, zeta, tops, seconds = _batch(baseline_model, 4000, [complex(0.3, 1e-3)])
    ref_rows = np.empty((len(a) + 1, 1), dtype=complex)
    reference_batched_jost(a, b, zeta, tops, seconds, rows=ref_rows)
    assert np.array_equal(sol.u, ref_rows.ravel())
    u0, u1, scale = _kernels.jost_backward(a, b, zeta, tops, seconds)
    assert scale[0] == sol.scale_log2
    assert _rel(u0[0], sol.u0) <= 1e-13 and _rel(u1[0], sol.u1) <= 1e-13
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


def reference_strip_50(a, b, energy, m_start, n_from):
    """The stripping map at a real energy in 50-digit arithmetic."""
    with mpmath.workdps(50):
        e, m = mpmath.mpf(float(energy)), mpmath.mpc(m_start.real, m_start.imag)
        for n in range(n_from, 0, -1):
            m = 1 / (mpmath.mpf(float(b[n])) - e - mpmath.mpf(float(a[n])) ** 2 * m)
        return complex(m)


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
    want = indexed_strip(a, b, zetas, tails, depth)
    # off-axis energies keep the per-site map, and so do real ones on a
    # chain shorter than a block
    per_site = (heights > 0) | (depth < _kernels.BLOCK)
    assert np.array_equal(got[per_site], want[per_site], equal_nan=True)
    short = min(depth, _kernels.BLOCK - 1)
    assert np.array_equal(
        _kernels.strip_downward(a, b, zetas, tails, short), indexed_strip(a, b, zetas, tails, short), equal_nan=True
    )
    # real energies on a block or more walk blocks.  Against a 50-digit
    # stripping the worst case measured 4.8e-13 in m and 1.03e-12 in Im m
    # (the per-site map 5.2e-13 and 3.9e-13)
    for zeta, tail, m in zip(zetas[~per_site], tails[~per_site], got[~per_site]):
        ref = reference_strip_50(a, b, zeta.real, tail, depth)
        assert _rel(m, ref) <= 3e-12
        assert _rel(m.imag, ref.imag) <= 3e-12


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_period_products_match_identity_start_loop_bit_for_bit(q):
    rng = np.random.default_rng(70 + q)
    # real, complex-step, strip and lower half-plane heights
    heights = np.array([0.0, 1e-100, 1e-3, 0.3, -0.05])
    for n_blocks in range(1, 21):
        # a, b and Re zeta on a 0.1 grid, so that Re zeta = b[k] occurs; the
        # + 0.0 turns a rounded -0.0 into +0.0 (the products and a division
        # differ in the sign of a zero from a -0.0 part of zeta - b[k])
        a = np.round(rng.uniform(0.3, 2.0, n_blocks * q + 1), 1)
        b = np.round(rng.uniform(-1.0, 1.0, n_blocks * q + 1), 1) + 0.0
        b[rng.integers(1, n_blocks * q + 1, 2)] = 0.0
        re = np.concatenate([rng.choice(b[1:], 4), np.round(rng.uniform(-2.5, 2.5, 4), 1) + 0.0, [0.0]])
        zeta = (re[None, :] + 1j * heights[:, None]).ravel()
        got = transfer._period_products(a, b, zeta, q)
        p11, _, p21, p22 = identity_start_products(a, b, zeta, q, n_blocks)
        for x, y in zip(got, (p11, p21, p22), strict=True):
            assert x.shape == y.shape == (n_blocks, zeta.size)
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    # Re zeta = -0.0 on b[k] = +0.0, or Im zeta = -0.0, may flip the sign of
    # a zero entry, never a value
    zeta = np.empty(heights.size + 1, dtype=np.complex128)
    zeta.real, zeta.imag = -0.0, np.append(heights, -0.0)
    got = transfer._period_products(a, b, zeta, q)
    p11, _, p21, p22 = identity_start_products(a, b, zeta, q, n_blocks)
    for x, y in zip(got, (p11, p21, p22), strict=True):
        assert np.array_equal(x, y)


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


@pytest.mark.parametrize("points", [1, 7, 8, 9, 200])
def test_each_column_equals_its_own_call_bit_for_bit(baseline_model, points):
    # Batches on both sides of the SIMD width: the first 8k columns run in
    # the vector loop, the rest in its scalar tail, and a call of one column
    # runs in the scalar tail alone.  A low threshold makes the guard fire,
    # while the growth bound, from the batch's largest |zeta|, differs from
    # the one of a single column.  Real energies take the stripping's block
    # walk, beside the per-site map of strip energies in a mixed batch.
    a, b = js.truncate(baseline_model, 300).coefficient_arrays(600)
    block_products, shifted = _kernels._block_products, []

    def spy(*args):
        prod, shifts = block_products(*args)
        shifted.append(shifts is not None)
        return prod, shifts

    for axis in ("strip", "real", "mixed"):
        rng = np.random.default_rng(points)
        zetas = rng.uniform(-2.5, 2.5, points) + 1j * rng.uniform(1e-4, 0.3, points)
        if axis != "strip":
            zetas.imag[:: 1 if axis == "real" else 2] = 0.0
        tops, seconds, tails = (rng.normal(size=points) + 1j * rng.normal(size=points) for _ in range(3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "RESCALE_THRESHOLD", 1e6)
            mp.setattr(_kernels, "RESCALE_SHIFT", 10)
            # the block walk, and the per-site recursion of a call with rows
            rows = np.empty((len(a) + 1, points), dtype=complex)
            batch = _kernels.jost_backward(a, b, zetas, tops, seconds)
            batch_sites = _kernels.jost_backward(a, b, zetas, tops, seconds, rows=rows)
            assert batch[2].max() > 0 and batch_sites[2].max() > 0
            for i in range(points):
                one = slice(i, i + 1)
                own = _kernels.jost_backward(a, b, zetas[one], tops[one], seconds[one])
                assert all(np.array_equal(x[one], y) for x, y in zip(batch, own))
                own_rows = np.empty((len(a) + 1, 1), dtype=complex)
                own = _kernels.jost_backward(a, b, zetas[one], tops[one], seconds[one], rows=own_rows)
                assert all(np.array_equal(x[one], y) for x, y in zip(batch_sites, own))
                assert np.array_equal(rows[:, one], own_rows)
            mp.setattr(_kernels, "_block_products", spy)
            shifted.clear()
            stripped = _kernels.strip_downward(a, b, zetas, tails, 600)
            assert any(shifted) == (axis != "strip")
            for i in range(points):
                one = slice(i, i + 1)
                assert np.array_equal(stripped[one], _kernels.strip_downward(a, b, zetas[one], tails[one], 600))


@pytest.mark.parametrize("sites", [40, 2600])
@pytest.mark.parametrize("axis", ["strip", "real", "mixed"])
def test_each_rung_equals_its_own_call_bit_for_bit(baseline_model, axis, sites):
    # Boundary pairs of shape (rungs, energies) beside one row of energies:
    # each rung's row equals the call with that rung's pair alone.  2600
    # sites at 400 energies fill two groups of block products (20 blocks a
    # group) and a per-site top of 40 sites; 40 sites take the per-site step
    # alone.  A low threshold makes the guard fire, on some rungs more often
    # than on others, as their pairs' magnitudes differ.
    a, b = js.truncate(baseline_model, sites // 2).coefficient_arrays(sites)
    rng = np.random.default_rng(sites)
    zetas = rng.uniform(-2.5, 2.5, 400) + 1j * rng.uniform(1e-4, 0.3, 400)
    if axis != "strip":
        zetas.imag[:: 1 if axis == "real" else 2] = 0.0
    size = 10.0 ** np.arange(-3, 6, 4)[:, None]
    tops, seconds = (size * (rng.normal(size=(3, 400)) + 1j * rng.normal(size=(3, 400))) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "RESCALE_THRESHOLD", 1e6)
        mp.setattr(_kernels, "RESCALE_SHIFT", 10)
        batch = _kernels.jost_backward(a, b, zetas, tops, seconds)
        assert [x.shape for x in batch] == [(3, 400)] * 3
        assert len(set(batch[2].max(axis=1).tolist())) > 1
        for rung in range(3):
            own = _kernels.jost_backward(a, b, zetas, tops[rung], seconds[rung])
            assert all(np.array_equal(x[rung], y) for x, y in zip(batch, own))


def test_ladder_forms_each_block_product_once_per_energy(baseline_model):
    # N = 500 joins N = 1000 at site 961: it walks its own 40 top sites one
    # at a time, and below site 961 its pairs ride on the deep rung's block
    # products.  The ladder forms the same block products, over the same
    # 24 energies, as the deep rung alone: one block walk of 31 blocks, with
    # no split at the join.
    block_products, formed = _kernels._block_products, []

    def spy(columns, zeta, *args):
        # the block walks' calls, not floquet's one-period product
        if len(args) == 1:
            formed.append((len(zeta), columns[2].size))
        return block_products(columns, zeta, *args)

    iv = js.widest_trimmed_band(baseline_model.block, margin=0.1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_block_products", spy)
        ladder = js.entropy_integrals(baseline_model, [500, 1000], iv, (8, 16))
        ladder_formed, formed[:] = formed[:], []
        deep = js.entropy_integrals(baseline_model, 1000, iv, (8, 16))
    assert ladder[1] == deep
    assert ladder_formed == formed == [(24, 31 * _kernels.BLOCK)]


def test_strip_at_an_energy_on_a_diagonal_coefficient(baseline_model):
    # At E = b_n the stripping's x_n = b_n - E is +0.0, where (E - b_n) (-1)
    # was -0.0: the block products, and so m, are the same by value
    a, b = js.truncate(baseline_model, 300).coefficient_arrays(600)
    inside = [(lo < b[1:]) & (b[1:] < hi) for lo, hi in js.trimmed_bands(baseline_model.block, margin=0.05)]
    energies = b[1:][np.logical_or(*inside)]
    assert energies.size == 13
    growth = float(np.max(a * a) + np.max(np.abs(b)) + np.max(np.abs(energies)))
    # the stripping's nine blocks below site 577, and one-site blocks, the
    # site matrices themselves, where x_n is +0.0 against -0.0
    columns = (-(a[1:577] * a[1:577]), b[1:577])
    for size in (_kernels.BLOCK, 1):
        new, _ = _kernels._block_products((None, *columns), energies, growth, size)
        old, _ = _kernels._block_products((np.full(576, -1.0), *columns), energies, growth, size)
        assert np.array_equal(new, old)
    assert not np.array_equal(np.signbit(new), np.signbit(old))
    tails = js.tail_m_function(baseline_model.block, energies)
    got = _kernels.strip_downward(a, b, energies, tails, 600)
    want = indexed_strip(a, b, energies, tails, 600)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    for i in range(energies.size):
        one = slice(i, i + 1)
        assert np.array_equal(got[one], _kernels.strip_downward(a, b, energies[one], tails[one], 600))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 6), off_axis=st.booleans(), strip=st.booleans())
def test_one_site_blocks_equal_their_site_matrices_from_cast_columns(seed, blocks, off_axis, strip):
    # one-site blocks take no step: their x_n comes from the real columns,
    # bit for bit as from columns cast to the energies' dtype
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 2.0, blocks + 1), rng.uniform(-1.0, 1.0, blocks + 1)
    energies = rng.uniform(-3.0, 3.0, 17) + (1j * rng.uniform(-1.0, 1.0, 17) if off_axis else 0.0)
    columns = tuple(v[:, None] for v in (1.0 / a[1:], -a[:-1] / a[1:], b[1:]))
    if strip:
        columns = (None, *columns[1:])
    prod, shifts = _kernels._block_products(columns, energies, 0.0, 1)
    inv, y, b_n = (None if v is None else v.astype(energies.dtype) for v in columns)
    x = b_n - energies if strip else (energies - b_n) * inv
    want = np.array([[np.zeros_like(x), np.ones_like(x)], [np.broadcast_to(y, x.shape), x]])
    assert shifts is None and prod.dtype == energies.dtype
    assert prod.tobytes() == want.tobytes()


def test_strip_block_walk_past_the_double_range_of_a_block():
    # at a = 1e5 the product of a_n over a block, 1e320, overflows a double,
    # and the stripping guard fires within every block
    rng = np.random.default_rng(5)
    block = js.periodic_block(2, 1e5 * rng.uniform(0.7, 1.6, 2), 1e5 * rng.uniform(-0.6, 0.6, 2))
    model = js.make_model(block, js.PerturbationSpec.power(c=8e4, s=0.5, gamma=0.2))
    a, b = js.truncate(model, 150).coefficient_arrays(298)
    energies = np.concatenate([np.linspace(*iv, 9)[1:-1] for iv in js.trimmed_bands(block, margin=1e3)])
    tails = js.tail_m_function(block, energies)
    got = _kernels.strip_downward(a, b, energies, tails, 298)
    want = indexed_strip(a, b, energies, tails, 298)
    # measured 1.2e-13 in m and 9.6e-14 in Im m
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    assert np.max(np.abs(got.imag - want.imag) / want.imag) <= 1e-12


@pytest.fixture(scope="module")
def deep_arrays(baseline_model):
    # 40,000 sites of the baseline model at N = 20000, and 8 energies
    a, b = js.truncate(baseline_model, 20000).coefficient_arrays(40000)
    zetas = np.linspace(0.35, 0.8, 8) + 1e-3j
    return a, b, zetas, np.ones(8, dtype=complex)


def _traced_peak(kernel, *args):
    tracemalloc.start()
    try:
        kernel(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_site_loops_hold_one_complex_copy_per_coefficient(deep_arrays):
    # The recursion's 625 blocks fit one group: 8 B per site for each of
    # 1/a, -a/a and b as block columns, and the complex products (1.69 MB in
    # all); 16 B per site for b and a^2 in the stripping map (1.28 MB).  At
    # real energies the stripping walks blocks: 8 B per site for each of
    # -a^2 and b as block columns, and a^2 and -a^2 over the sites (1.32 MB)
    a, b, zetas, ones = deep_arrays
    assert (a.dtype, b.dtype) == (np.float64, np.float64)
    assert _traced_peak(_kernels.jost_backward, a, b, zetas, ones, ones) <= 2.5e6
    assert _traced_peak(_kernels.strip_downward, a, b, zetas, ones, 40000) <= 1.6e6
    assert _traced_peak(_kernels.strip_downward, a, b, zetas.real, ones, 40000) <= 2.5e6


def test_block_walk_memory_at_a_wide_batch(baseline_model):
    # 2000 sites at 4096 real energies: a group holds GROUP block x energy
    # entries, so the products stay a few hundred kB beside the per-energy
    # buffers, and no (sites x energies) array is formed (65 MB)
    a, b = js.truncate(baseline_model, 1000).coefficient_arrays(2000)
    energies = np.linspace(-2.5, 2.5, 4096)
    ones = np.ones(energies.size, dtype=complex)
    assert _traced_peak(_kernels.jost_backward, a, b, energies, ones, ones) <= 2.5e6
