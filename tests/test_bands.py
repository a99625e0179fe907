import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jostspec as js
from conftest import random_block
from jostspec import bands
from jostspec.errors import DegenerateBranchError, NoAdmissibleIntervalError, ValidationError
from jostspec.transfer import _background_period_matrix


def test_free_band(free_block):
    bs = js.band_edges(free_block)
    assert len(bs.bands) == 1
    lo, hi = bs.bands[0]
    assert lo == pytest.approx(-2.0, abs=1e-10)
    assert hi == pytest.approx(2.0, abs=1e-10)


def test_two_periodic_bands():
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    bs = js.band_edges(block)
    assert len(bs.bands) == 2
    (l1, r1), (l2, r2) = bs.bands
    assert l1 == pytest.approx(-3.0, abs=1e-10)
    assert r1 == pytest.approx(-1.0, abs=1e-10)
    assert l2 == pytest.approx(1.0, abs=1e-10)
    assert r2 == pytest.approx(3.0, abs=1e-10)


def test_shifted_free_band():
    block = js.periodic_block(1, [1.0], [1.0])
    bs = js.band_edges(block)
    lo, hi = bs.bands[0]
    assert lo == pytest.approx(-1.0, abs=1e-10)
    assert hi == pytest.approx(3.0, abs=1e-10)


def test_closed_gap_merges_bands():
    # free operator written as a 2-periodic block: double root at E = 0
    block = js.periodic_block(2, [1.0, 1.0], [0.0, 0.0])
    bs = js.band_edges(block)
    assert len(bs.bands) == 1
    lo, hi = bs.bands[0]
    assert lo == pytest.approx(-2.0, abs=1e-10)
    assert hi == pytest.approx(2.0, abs=1e-10)


def test_band_edges_satisfy_tolerance():
    rng = np.random.default_rng(23)
    for q in (1, 2, 3):
        block = random_block(rng, q)
        bs = js.band_edges(block)
        assert 1 <= len(bs.bands) <= q
        for lo, hi in bs.bands:
            assert abs(abs(js.discriminant(block, lo)) - 2.0) < 1e-10
            assert abs(abs(js.discriminant(block, hi)) - 2.0) < 1e-10
        # disjoint and ordered
        for (a, b), (c, d) in zip(bs.bands[:-1], bs.bands[1:]):
            assert b < c


def _separate_matrix_edges(block):
    # the 2q edges from the periodic and antiperiodic matrices, each built
    # and diagonalized on its own
    a, b = np.array(block.a_bg), np.array(block.b_bg)
    edges = []
    for sign in (1.0, -1.0):
        m = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
        m[-1, 0] += sign * a[-1]
        m[0, -1] += sign * a[-1]
        edges.extend(np.linalg.eigvalsh(m).tolist())
    return sorted(edges)


def test_band_edges_match_separate_matrices_bit_for_bit():
    rng = np.random.default_rng(31)
    blocks = [random_block(rng, q) for q in range(1, 9) for _ in range(4)]
    for block in blocks:
        edges = _separate_matrix_edges(block)
        assert [x.hex() for pair in js.band_edges(block).bands for x in pair] == [x.hex() for x in edges]
    # b = -0 on the diagonal: the antiperiodic edges are zeros, and +0.0 as
    # from a sum of diagonal matrices
    block = js.periodic_block(2, [1.0, 1.0], [-0.0, -0.0])
    edges = _separate_matrix_edges(block)
    assert [x.hex() for pair in bands._edge_pairs(block) for x in pair] == [x.hex() for x in edges]


@pytest.mark.parametrize(
    "a, b, gap",
    [
        # open gaps that a 64q-point sign scan merged into their neighbours
        (
            (1.141573393913634, 1.238197423795592, 1.3566207617149524, 1.1722665479229668, 1.2067343983207346),
            (-0.009859344469839937, 0.13824839869260663, -0.30224734193657016, 0.06313611493383608, 0.20686418209353452),
            0.0473,
        ),
        (
            (1.376281219009515, 1.0169066865848004, 1.4199231263900312),
            (-0.48715492647564856, 0.4150374764509278, 0.40620722001914633),
            0.0383,
        ),
    ],
)
def test_narrow_open_gap_found(a, b, gap):
    block = js.periodic_block(len(a), a, b)
    bands = js.band_edges(block).bands
    assert len(bands) == block.q
    assert min(lo - hi for (_, hi), (lo, _) in zip(bands[:-1], bands[1:])) == pytest.approx(gap, abs=1e-4)


@st.composite
def blocks(draw):
    q = draw(st.integers(1, 6))
    a = draw(st.lists(st.floats(0.7, 1.6), min_size=q, max_size=q))
    b = draw(st.lists(st.floats(-0.6, 0.6), min_size=q, max_size=q))
    return js.periodic_block(q, a, b)


@settings(derandomize=True, deadline=None)
@given(blocks())
def test_band_structure_properties(block):
    bands = js.band_edges(block).bands
    for lo, hi in bands:
        assert abs(abs(js.discriminant(block, lo)) - 2.0) < 1e-10
        assert abs(abs(js.discriminant(block, hi)) - 2.0) < 1e-10
        assert np.all(np.abs(js.discriminant(block, np.linspace(lo, hi, 401))) <= 2.0 + 1e-9)
    for (_, hi), (lo, _) in zip(bands[:-1], bands[1:]):
        assert abs(js.discriminant(block, 0.5 * (lo + hi))) > 2.0
    for pair in js.trimmed_bands(block, margin=0.05):
        iv = js.interval_constants(block, pair)
        grid = np.linspace(iv.lo, iv.hi, 401)
        for values in (np.diff(js.discriminant(block, grid)), _background_period_matrix(block, grid)[2]):
            assert np.all(values > 0) or np.all(values < 0)


def test_widest_interval_ties_go_to_the_highest():
    # the two bands of a q = 2 background have equal widths
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    lower, upper = js.trimmed_bands(block, margin=0.1)
    assert upper[1] - upper[0] == pytest.approx(lower[1] - lower[0], abs=1e-9)
    assert js.widest_trimmed_band(block, 0.1) == upper
    assert bands._widest_index([lower, upper]) == 1
    assert bands._widest_index([upper, lower]) == 0
    nearly = (lower[0] - 1e-12, lower[1])
    assert bands._widest_index([nearly, upper]) == 1
    wider = (lower[0] - 1e-6, lower[1])
    assert bands._widest_index([wider, upper]) == 0


@pytest.mark.parametrize("margin", [0.05, 0.1])
@pytest.mark.parametrize("q", range(1, 7))
def test_widest_admissible_interval_matches_widest_of_all(q, margin):
    rng = np.random.default_rng(7000 + q)
    checked = 0
    for _ in range(6):
        block = random_block(rng, q)
        try:
            every = [js.interval_constants(block, pair) for pair in js.trimmed_bands(block, margin)]
        except (NoAdmissibleIntervalError, DegenerateBranchError):
            continue
        expected = every[bands._widest_index([(iv.lo, iv.hi) for iv in every])]
        # dataclass equality: lo, hi, eps_I and C_I all match exactly, so a
        # band's strip constants do not depend on the bands beside it
        assert js.interval_constants(block, js.widest_trimmed_band(block, margin)) == expected
        checked += 1
    assert checked > 0


def test_widest_admissible_interval_tie_and_empty(free_block):
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    assert js.widest_trimmed_band(block, 0.1) == js.trimmed_bands(block, 0.1)[1]
    with pytest.raises(NoAdmissibleIntervalError):
        js.widest_trimmed_band(free_block, margin=2.5)


def test_admissible_free(free_block):
    pairs = js.trimmed_bands(free_block, margin=0.1)
    assert len(pairs) == 1
    iv = js.interval_constants(free_block, pairs[0])
    assert iv.lo == pytest.approx(-1.9, abs=1e-9)
    assert iv.hi == pytest.approx(1.9, abs=1e-9)
    assert iv.eps_I > 0 and iv.C_I > 0


def test_admissible_excludes_corner_zero():
    # C(E) = E and discriminant derivative both vanish at 0 for this block
    block = js.periodic_block(2, [1.0, 1.0], [0.0, 0.0])
    intervals = [js.interval_constants(block, pair) for pair in js.trimmed_bands(block, margin=0.1)]
    assert len(intervals) == 2
    (a1, b1), (a2, b2) = [(iv.lo, iv.hi) for iv in intervals]
    assert b1 == pytest.approx(-0.1, abs=1e-6)
    assert a2 == pytest.approx(0.1, abs=1e-6)


def test_admissible_margin_too_large(free_block):
    with pytest.raises(NoAdmissibleIntervalError):
        js.trimmed_bands(free_block, margin=2.5)


def test_interval_constants_free_symmetric(free_block):
    iv = js.interval_constants(free_block, (-1.0, 1.0))
    assert (iv.lo, iv.hi) == (-1.0, 1.0)
    assert iv.C_I == pytest.approx(0.25, abs=1e-6)
    assert iv.eps_I > 0
    # minimum of |delta'| / sqrt(4 - delta^2) still sits at E = 0
    assert js.interval_constants(free_block, (-1.9, 1.9)).C_I == pytest.approx(0.25, abs=1e-6)


def test_interval_constants_two_periodic():
    # the discriminant (E^2 - 5) / 2 has derivative E
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    for lo, hi in js.trimmed_bands(block, 0.1):
        grid = np.linspace(lo, hi, bands.GRID_POINTS)
        delta = (grid**2 - 5.0) / 2.0
        expected = 0.5 * np.min(np.abs(grid) / np.sqrt(4.0 - delta**2))
        assert js.interval_constants(block, (lo, hi)).C_I == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize("q", range(1, 7))
def test_bloch_slope_matches_central_difference(q):
    block = random_block(np.random.default_rng(90 + q), q)
    theta, h = np.linspace(0.1, np.pi - 0.1, 41), 1e-5
    below, at, above = (np.linalg.eigvalsh(bands._bloch(block, np.exp(1j * t))) for t in (theta - h, theta, theta + h))
    for k in range(q):
        slope = bands._bloch_slope(block, 2.0 * np.cos(theta), at[:, k])
        np.testing.assert_allclose(slope, (above[:, k] - below[:, k]) / (2.0 * h), rtol=0, atol=1e-8)


def test_scaled_block_has_no_critical_point():
    # The slope scales with the coefficients, so no band interior is a
    # critical point at any scale.  The strip probe still stops on the
    # absolute COINCIDE_TOL at this scale (ROADMAP, smaller items).
    scale = 1e11
    base = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    block = js.periodic_block(2, [scale, 1.4 * scale], [0.1 * scale, -0.2 * scale])
    for pair in js.trimmed_bands(block, 0.1 * scale):
        with pytest.raises(DegenerateBranchError, match="^eigenvalue moduli coincide"):
            js.interval_constants(block, pair)
    for lo, hi in js.trimmed_bands(base, 0.1):
        grid = np.linspace(lo, hi, bands.GRID_POINTS)
        slope = bands._bloch_slope(base, js.discriminant(base, grid), grid)
        scaled = bands._bloch_slope(block, js.discriminant(block, scale * grid), scale * grid)
        np.testing.assert_allclose(scaled, scale * slope, rtol=1e-10)


def test_interval_constants_monotone_under_shrinking(free_block):
    small = js.interval_constants(free_block, (0.5, 1.5))
    large = js.interval_constants(free_block, (0.2, 1.8))
    assert small.C_I >= large.C_I - 1e-12


def test_interval_constants_reject_band_edge(free_block):
    with pytest.raises(DegenerateBranchError):
        js.interval_constants(free_block, (1.5, 2.5))


@pytest.mark.parametrize(
    "b, interval",
    # bands (-1.99985, 0) and (3e-4, 2.00015); (-2, 0) and (0, 2) with a closed gap; the free band [-2, 2]
    [([0.0, 3e-4], (-1.5, 1.6)), ([0.0, 0.0], (-1.0, 1.0)), ([0.0, 0.0], (1.0, 2.0))],
    ids=["narrow-gap", "closed-gap", "band-edge"],
)
def test_interval_outside_one_band_interior_is_rejected(b, interval):
    # the 129-point grid of interval_constants misses the narrow gap; the edges do not
    block = js.periodic_block(2, [1.0, 1.0], b)
    for check in (bands.band_interior, js.interval_constants):
        with pytest.raises(DegenerateBranchError, match="is not inside one band interior"):
            check(block, interval)


def test_strip_bound_holds_on_finer_grid(free_block):
    iv = js.interval_constants(free_block, js.widest_trimmed_band(free_block, margin=0.1))
    energies = np.linspace(iv.lo, iv.hi, 57)
    heights = iv.eps_I * 0.5 ** np.arange(5)
    for y in heights:
        _, z, _, _, fault = js.floquet(free_block, energies + 1j * y)
        assert not fault.any()
        assert (np.abs(z) < 1.0).all()
        assert (np.abs(z) <= 1.0 - 0.9 * iv.C_I * y).all()


@pytest.mark.parametrize(
    "fields, message",
    [
        # the strip grid would lie in the lower half-plane
        ((-1.0, 1.0, -0.05, 0.25), "eps_I and C_I must be positive and finite"),
        # the strip grid would lie on the real axis, where the moduli coincide
        ((-1.0, 1.0, 0.0, 0.25), "eps_I and C_I must be positive and finite"),
        # every margin of the strip check would be NaN
        ((-1.0, 1.0, 0.05, np.nan), "eps_I and C_I must be positive and finite"),
        ((-1.0, 1.0, np.inf, 0.25), "eps_I and C_I must be positive and finite"),
        ((-1.0, 1.0, 0.05, 0.0), "eps_I and C_I must be positive and finite"),
        ((1.0, -1.0, 0.05, 0.25), "interval must be two finite numbers lo < hi"),
        ((-np.inf, 1.0, 0.05, 0.25), "interval must be two finite numbers lo < hi"),
    ],
    ids=["negative-eps", "zero-eps", "nan-C", "inf-eps", "zero-C", "reversed", "infinite-lo"],
)
def test_admissible_interval_validates_its_fields(fields, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        js.AdmissibleInterval(*fields)
