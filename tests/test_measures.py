import math
import re

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import jostspec as js
from conftest import random_block
from jostspec import _kernels, bands, jost, measures
from jostspec.errors import (
    BandEdgeError,
    DegenerateBranchError,
    OracleConvergenceError,
    ValidationError,
    ZeroJostError,
)


def test_tail_m_free_closed_form(free_block):
    (m,) = js.tail_m_function(free_block, 1j)
    assert m == pytest.approx(1j * (np.sqrt(5) - 1) / 2, abs=1e-12)


def test_tail_m_near_axis_matches_density(free_block):
    (m,) = js.tail_m_function(free_block, 1e-3j)
    assert m.imag == pytest.approx(1.0, abs=2e-3)


def test_tail_m_fixed_point_residual():
    rng = np.random.default_rng(9)
    for q in (1, 2, 3):
        block = random_block(rng, q)
        zetas = (0.3 + 1e-2j, -0.7 + 1e-4j, 1j)
        for zeta, m in zip(zetas, js.tail_m_function(block, zetas)):
            m_next = m
            for k in range(block.q, 0, -1):
                ak = block.a(k)
                m_next = 1.0 / (block.b(k) - zeta - ak * ak * m_next)
            assert abs(m - m_next) < 1e-13
            assert m.imag > 0


def test_tail_m_and_oracle_on_the_axis_and_below_it(free_block):
    # at a real band-interior energy both return the boundary value that
    # density_curve(method="oracle") takes; with N = 1 the oracle is the tail
    model = js.make_model(BASELINE_BLOCK, POWER)
    band = js.widest_trimmed_band(BASELINE_BLOCK, 0.1)
    curve = js.density_curve(model, 20, band, 5, method="oracle")
    assert (js.oracle_green_11(model, 20, curve.grid).imag / np.pi).tolist() == curve.values.tolist()
    curve = js.density_curve(model, 1, band, 5, method="oracle")
    assert (js.tail_m_function(BASELINE_BLOCK, curve.grid).imag / np.pi).tolist() == curve.values.tolist()
    # the free tail (-E + i sqrt(4 - E^2)) / 2
    assert js.tail_m_function(free_block, 0.5)[0] == pytest.approx(complex(-0.5, np.sqrt(3.75)) / 2, abs=1e-15)
    free = js.make_model(free_block)
    for evaluate in (lambda z: js.tail_m_function(free_block, z), lambda z: js.oracle_green_11(free, 3, z)):
        with pytest.raises(ValidationError, match=r"^Im zeta < 0 at zeta = \(0\.5-0\.001j\)$"):
            evaluate(0.5 - 1e-3j)
        with pytest.raises(BandEdgeError, match=r"^E = 2\.5 is not in a band interior$"):
            evaluate(2.5)


def test_oracle_equals_tail_without_perturbation(free_block):
    model = js.make_model(free_block)
    for n_trunc in (1, 3, 8):
        assert js.oracle_green_11(model, n_trunc, 1j) == pytest.approx(
            js.tail_m_function(free_block, 1j), abs=1e-13
        )


def test_oracle_matches_jost_green(acceptance_suite):
    for model, iv, n_trunc in acceptance_suite[:8]:
        zeta = complex(iv.midpoint(), 1e-3)
        (g,) = js.green_11(model, n_trunc, zeta)
        (og,) = js.oracle_green_11(model, n_trunc, zeta)
        assert abs(g - og) / abs(g) < 1e-8
        assert og.imag > 0


def test_oracle_equivalence_down_to_low_strips(acceptance_suite):
    for model, iv, n_trunc in acceptance_suite[:4]:
        zetas = [complex(iv.lo + 0.4 * iv.width, y) for y in (1e-3, 1e-4)]
        g = js.green_11(model, n_trunc, zetas)
        og = js.oracle_green_11(model, n_trunc, zetas)
        assert (np.abs(g - og) / np.abs(g) < 1e-8).all()


def test_density_curve_free_key_formula(free_model):
    iv = js.widest_trimmed_band(free_model.block, margin=0.1)
    curve = js.density_curve(free_model, 4, iv, 101, method="key_formula")
    reference = np.sqrt(4 - curve.grid**2) / (2 * np.pi)
    assert np.max(np.abs(curve.values - reference)) < 1e-8
    assert curve.meta == {"N": 4, "method": "key_formula"}


def test_density_curve_free_oracle(free_model):
    iv = js.widest_trimmed_band(free_model.block, margin=0.1)
    curve = js.density_curve(free_model, 4, iv, 101, method="oracle")
    reference = np.sqrt(4 - curve.grid**2) / (2 * np.pi)
    assert np.max(np.abs(curve.values - reference)) < 1e-5


def test_density_methods_cross_agree(acceptance_suite):
    model, iv, n_trunc = acceptance_suite[0]
    key = js.density_curve(model, n_trunc, iv, 60, method="key_formula")
    orc = js.density_curve(model, n_trunc, iv, 60, method="oracle")
    assert np.max(np.abs(key.values - orc.values) / key.values) < 1e-5


def test_density_curve_rejects_unknown_method(free_model):
    with pytest.raises(ValidationError):
        js.density_curve(free_model, 4, (-1.0, 1.0), 11, method="fancy")


def test_entropy_free_reference(free_model):
    nodes, weights = leggauss(64)
    reference = float(
        np.sum(weights * np.log(np.sqrt(4 - nodes**2) / (2 * np.pi)))
    )  # interval [-1, 1]: no affine rescale needed
    (value,) = js.entropy_integrals(free_model, 5, (-1.0, 1.0), (64,))
    assert value == pytest.approx(reference, abs=1e-8)


def test_entropy_continuity_in_perturbation_size(free_block):
    base = np.array([0.3, -0.25, 0.2, 0.1])
    (clean,) = js.entropy_integrals(js.make_model(free_block), 8, (-1.5, 1.5), (64,))
    gaps = []
    for scale in (1.0, 0.5, 0.25):
        model = js.make_model(free_block, js.PerturbationSpec.finite(beta=scale * base))
        (val,) = js.entropy_integrals(model, 8, (-1.5, 1.5), (64,))
        gaps.append(abs(val - clean))
    assert gaps[0] > gaps[1] > gaps[2]


def test_entropy_quadrature_converged(free_model):
    v32, v64 = js.entropy_integrals(free_model, 5, (-1.0, 1.0), (32, 64))
    assert abs(v64 - v32) < 1e-6


def test_moment_free_catalan(free_model):
    assert js.moment(free_model, None, 2, 8) == 1.0
    assert js.moment(free_model, None, 4, 8) == 2.0
    assert js.moment(free_model, None, 6, 8) == 5.0
    for k in (1, 3, 5, 7):
        assert js.moment(free_model, None, k, 12) == 0.0


def test_moment_against_dense_matrix():
    rng = np.random.default_rng(3)
    block = random_block(rng, 2)
    pert = js.PerturbationSpec.finite(alpha=rng.uniform(-0.1, 0.1, 6), beta=rng.uniform(-0.2, 0.2, 6))
    model = js.make_model(block, pert)
    depth = 12
    a, b = model.coefficient_arrays(depth)
    dense = np.diag(b[1 : depth + 1]) + np.diag(a[1:depth], 1) + np.diag(a[1:depth], -1)
    for k in range(0, 9):
        power = np.linalg.matrix_power(dense, k)
        assert js.moment(model, None, k, depth) == pytest.approx(power[0, 0], rel=1e-12)


def test_moment_depth_validation(free_model):
    with pytest.raises(ValidationError):
        js.moment(free_model, None, 4, 5)


def moment_by_lists(model, N_or_full, k, depth):
    """<delta_1, J^k delta_1> by Python-list tridiagonal steps, each row
    summed as (a_(i+1) v_(i+1) + b_(i+1) v_i) + a_i v_(i-1)."""
    work = model if N_or_full is None else js.truncate(model, N_or_full)
    a, b = work.coefficient_arrays(depth)
    v = [0.0] * depth
    v[0] = 1.0
    for _ in range(k):
        w = [0.0] * depth
        w[0] = a[1] * v[1] + b[1] * v[0]
        for i in range(1, depth - 1):
            w[i] = a[i + 1] * v[i + 1] + b[i + 1] * v[i] + a[i] * v[i - 1]
        w[depth - 1] = b[depth] * v[depth - 1] + a[depth - 1] * v[depth - 2]
        v = w
    return float(v[0])


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "pert",
    [js.PerturbationSpec.power(0.3, 0.5, 0.2, target="both"), js.PerturbationSpec.finite([0.05, -0.03] * 4, [0.1, -0.08, 0.02] * 3)],
    ids=["power-both", "finite_list"],
)
def test_moment_matches_list_steps_bit_for_bit(q, pert):
    model = js.make_model(random_block(np.random.default_rng(q), q), pert)
    for N in (None, 1, 3, 8):
        for k in range(12):
            for depth in (k + 2, k + 5, 30):
                assert js.moment(model, N, k, depth) == moment_by_lists(model, N, k, depth)


def test_moment_truncation_invisible_beyond_radius(acceptance_suite):
    for model, _, _ in acceptance_suite[:6]:
        q = model.block.q
        for k in range(0, 9):
            n_trunc = (k + 1) // q + 3  # (N-1)q > k+1
            assert js.moment(model, n_trunc, k, k + 2) == js.moment(model, None, k, k + 2)


def reference_tail(block, zeta):
    """An independent periodic-tail closure one energy at a time in Python
    complex arithmetic: Mobius product, cancellation-free roots, the root
    with the smaller contraction ratio, stripping passes to a 1e-14
    residual.  The Im m > 0 root must agree with it to rounding."""
    g11, g12, g21, g22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for k in range(1, block.q + 1):
        f21, f22 = -block.a(k) ** 2, block.b(k) - zeta
        g11, g12, g21, g22 = g12 * f21, g11 + g12 * f22, g22 * f21, g21 + g22 * f22
    det_g = float(np.prod(np.square(block.a_bg)))
    if abs(g21) < 1e-300:
        candidates = [g12 / (g22 - g11)]
    else:
        bb = g22 - g11
        s = complex(np.sqrt(complex(bb * bb + 4.0 * g21 * g12)))
        top = -(bb + s) if abs(bb + s) >= abs(bb - s) else -(bb - s)
        candidates = [0j] if top == 0 else [top / (2.0 * g21), -2.0 * g12 / top]
    # the smallest ratio below 1; the first candidate on a tie
    ratios = [det_g / abs(g21 * m + g22) ** 2 for m in candidates]
    _, best = min((r, i) for i, r in enumerate(ratios) if r < 1.0)
    m = candidates[best]
    for _ in range(100):
        m_next = m
        for k in range(block.q, 0, -1):
            m_next = 1.0 / (block.b(k) - zeta - block.a(k) ** 2 * m_next)
        residual, m = abs(m_next - m), m_next
        if residual < 1e-14:
            break
    return m


def test_batched_tail_matches_reference_loop():
    rng = np.random.default_rng(41)
    for q in range(1, 7):
        block = random_block(rng, q)
        bands = js.band_edges(block).bands
        energies = np.linspace(bands[0][0] - 0.5, bands[-1][1] + 0.5, 23)
        zetas = [complex(e, y) for e in energies for y in (1e-5, 1e-3, 1.0)]
        got = js.tail_m_function(block, zetas)
        for g, zeta in zip(got, zetas):
            ref = reference_tail(block, zeta)
            assert abs(g - ref) <= 1e-13 * abs(ref)


def test_tail_of_a_point_does_not_depend_on_its_batch():
    rng = np.random.default_rng(43)
    block = random_block(rng, 3)
    model = js.make_model(block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))
    # 200 energies over the bands, as close as 0.004 to an edge, on and off
    # the axis: every point's values come from elementwise steps on its own zeta
    bands = js.trimmed_bands(block, margin=0.004)
    energies = np.concatenate([np.linspace(lo, hi, 67) for lo, hi in bands])[:200]
    zetas = [complex(e, y) for e in energies for y in (1e-3, 0.0, 1e-4, 1e-5)]
    batched = {
        "tail_m_function": lambda z: (js.tail_m_function(block, z),),
        "oracle_green_11": lambda z: (js.oracle_green_11(model, 6, z),),
        "green_11": lambda z: (js.green_11(model, 6, z),),
        "floquet": lambda z: js.floquet(block, z),
    }
    for name, evaluate in batched.items():
        batch = list(zip(*(x.tolist() for x in evaluate(zetas))))
        assert len(batch) == 800, name
        alone = [tuple(x[0].item() for x in evaluate(z)) for z in zetas]
        assert batch == alone, name


@pytest.mark.parametrize(
    "zetas, error, message",
    [
        # a band edge on the axis, then coinciding moduli 1e-20 above a band
        ([0.3 + 1e-3j, 2.0, 0.5 + 1e-20j], BandEdgeError, r"^\|discriminant\| = 2 at E = 2\.0$"),
        (
            [0.3, 0.5 + 1e-20j, -2.0],
            DegenerateBranchError,
            r"^eigenvalue moduli coincide at zeta = \(0\.5\+1e-20j\)$",
        ),
    ],
    ids=["real-first", "off-axis-first"],
)
def test_green_raises_the_first_failing_point_of_a_mixed_batch(free_model, zetas, error, message):
    *_, fault = js.floquet(free_model.block, zetas)
    assert np.count_nonzero(fault) == 2
    with pytest.raises(error, match=message):
        js.green_11(free_model, 4, zetas)


# Error order: a batched evaluation raises what a loop over its points would
# raise first, with the same class and message.  The messages below are
# those of the per-point loop.  In the q = 2 block with a = 1e5 the
# discriminant is E^2 / 1e10 - 2, so 0.1 < |E| < 5 is band interior with a
# derivative below DERIV_TOL, and |E| < 0.1 is within 1e-12 of the edge at 0.
FLAT_BLOCK = js.periodic_block(2, [1e5, 1e5], [0.0, 0.0])


@pytest.mark.parametrize(
    "method, flat_error, flat_message",
    [
        # passing energies, then a flat-derivative one, then the band edge
        pytest.param(
            "key_formula",
            DegenerateBranchError,
            r"^discriminant derivative vanishes at E = -4\.0$",
            id="key_formula",
        ),
        # the oracle needs no derivative: passing energies, then the band edge
        pytest.param("oracle", BandEdgeError, r"^E = 0\.0 is not in a band interior$", id="oracle"),
    ],
)
def test_key_formula_raises_the_first_failing_energy(free_model, method, flat_error, flat_message):
    with pytest.raises(flat_error, match=flat_message):
        js.density_curve(js.make_model(FLAT_BLOCK), 3, (-12.0, 0.0), 4, method=method)
    with pytest.raises(BandEdgeError, match=r"^E = 2\.0 is not in a band interior$"):
        js.density_curve(free_model, 3, (0.0, 3.0), 7, method=method)


def test_entropy_raises_the_first_failing_node():
    model = js.make_model(FLAT_BLOCK)
    # every node below the top one is flat; the top one is at the band edge
    nodes, _ = leggauss(8)
    first = -1.975 + 2.025 * nodes[0]
    with pytest.raises(DegenerateBranchError, match=re.escape(f"vanishes at E = {first}")):
        js.entropy_integrals(model, 3, (-4.0, 0.05), (8,))
    # three passing nodes, then one above the band
    nodes, _ = leggauss(4)
    last = 145000.0 + 155000.0 * nodes[3]
    with pytest.raises(BandEdgeError, match=re.escape(f"E = {last} is not in a band interior")):
        js.entropy_integrals(model, 3, (-10000.0, 300000.0), (4,))


def test_entropy_integrals_is_entropy_integral_per_order():
    model = js.make_model(
        js.periodic_block(2, [1.0, 1.4], [0.1, -0.2]), js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2)
    )
    band = js.widest_trimmed_band(model.block, margin=0.1)
    orders = (8, 16, 64)
    got = js.entropy_integrals(model, 60, band, orders)
    assert got == [js.entropy_integrals(model, 60, band, (order,))[0] for order in orders]


def _first_error(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("interval, failing", [((1.0, 2.5), 4), ((1.0, 2.05), 8)])
def test_entropy_integrals_raise_the_first_failing_order(free_model, interval, failing):
    # on (1.0, 2.05) the 4-point rule stays inside the band and the 8-point
    # rule does not
    got = _first_error(lambda: js.entropy_integrals(free_model, 5, interval, (4, 8)))
    assert got == _first_error(lambda: js.entropy_integrals(free_model, 5, interval, (failing,)))
    assert got[0] is BandEdgeError
    if failing == 8:
        assert np.isfinite(js.entropy_integrals(free_model, 5, interval, (4,))).all()


BASELINE = js.make_model(
    js.periodic_block(2, [1.0, 1.4], [0.1, -0.2]), js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2)
)


@pytest.mark.parametrize("N, expected", [(5000, -53.099270), (10000, -57.658446), (20000, -58.205379)])
def test_entropy_is_finite_where_the_density_underflows(N, expected):
    # from N = 5000 on some 64-point nodes have ln(density) below -745, where
    # the density as a double is 0.0; the integrand is ln(density) itself
    iv = js.interval_constants(BASELINE.block, js.widest_trimmed_band(BASELINE.block, 0.1))
    nodes = 0.5 * (iv.hi + iv.lo) + 0.5 * (iv.hi - iv.lo) * leggauss(64)[0]
    ln_rho = jost.log_density(BASELINE.block.a(0), *jost.density_terms(BASELINE, N, nodes))
    assert ln_rho.min() < -745.0
    values = js.entropy_integrals(BASELINE, N, iv, (64, 128))
    assert np.isfinite(values).all()
    assert values[0] == pytest.approx(expected, abs=1e-6)


def _quotient_then_log_entropy(model, N, iv, order):
    # reference route: the density as a double (the direct quotient, or exp
    # of the log form where the recursion rescaled), then math.log per node
    nodes, weights = leggauss(order)
    half = 0.5 * (iv.hi - iv.lo)
    num, abs_u0, scale_log2 = jost.density_terms(model, N, 0.5 * (iv.hi + iv.lo) + half * nodes)
    scale = math.pi * abs(model.block.a(0))
    total = 0.0
    for w, n, u, shift in zip(weights, num, abs_u0, scale_log2):
        with np.errstate(over="ignore"):
            denom = scale * np.float_power(u, 2.0)
        if shift == 0 and np.isfinite(denom):
            value = n / denom
        else:
            log_value = math.log(n) - math.log(scale) - 2.0 * (math.log(u) + int(shift) * math.log(2.0))
            value = math.exp(log_value) if log_value > -745.0 else 0.0
        total += w * math.log(value)
    return half * total


@pytest.mark.parametrize("N", [20, 500, 1000, 3000])
def test_log_space_entropy_matches_the_quotient_then_log_route(N):
    iv = js.interval_constants(BASELINE.block, js.widest_trimmed_band(BASELINE.block, 0.1))
    got = js.entropy_integrals(BASELINE, N, iv, (64, 128))
    expected = [_quotient_then_log_entropy(BASELINE, N, iv, order) for order in (64, 128)]
    assert got == pytest.approx(expected, rel=1e-12, abs=0)


def reference_terms(model, N, energies):
    """density_terms as one backward recursion from the top of truncation N
    down to site 0, with no ladder."""
    a, b = js.truncate(model, N).coefficient_arrays(N * model.block.q)
    _, z, c, d, _ = js.floquet(model.block, energies)
    u0, _, scale_log2 = _kernels.jost_backward(a, b, np.asarray(energies, dtype=complex), z - d, c)
    return np.abs(c.real * z.imag), np.hypot(u0.real, u0.imag), scale_log2


def _assert_ladder_terms(model, ladder, energies):
    rungs = jost._density_ladder(model, ladder, energies)
    assert len(rungs) == len(ladder)
    for N, terms in zip(ladder, rungs):
        want = reference_terms(model, N, energies)
        assert all(np.array_equal(x, y) for x, y in zip(terms, want)), N
        assert all(np.array_equal(x, y) for x, y in zip(jost.density_terms(model, N, energies), want)), N
    return rungs


@pytest.mark.parametrize("ladder", [(1, 2), (2, 4), (3, 6), (40, 80), (10, 20, 40, 80), (80, 3, 40, 3)], ids=str)
@pytest.mark.parametrize("target", ["a", "b", "both"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_recursion_ladder_rungs_are_their_own_recursions_bit_for_bit(q, target, ladder):
    # a shallower N runs its own top q + 1 steps (site (N-1)q reads a
    # coefficient the deeper N perturbs when the target is a or both), then
    # rides the deepest N's walk as a column block down to site 0
    rng = np.random.default_rng(q)
    block = js.periodic_block(q, rng.uniform(0.8, 1.5, q), rng.uniform(-0.4, 0.4, q))
    model = js.make_model(block, js.PerturbationSpec.power(c=0.3, s=0.5, gamma=0.3, target=target))
    energies = [lo + t * (hi - lo) for lo, hi in js.band_edges(block).bands for t in (0.1, 0.45, 0.8)]
    _assert_ladder_terms(model, ladder, energies)


def test_rescaling_recursion_ladder_is_bit_for_bit():
    # near the band edges the guard rescales both N's columns on the shared
    # sites, by up to 2**1800 at N = 5000 and 2**6000 at N = 20000
    energies = [-2.44, -2.4, -2.36, -0.5, 0.4, 1.2, 2.3, 2.34]
    rungs = _assert_ladder_terms(BASELINE, (5000, 20000), energies)
    assert [scale_log2.max() for _, _, scale_log2 in rungs] == [1800, 6000]


@pytest.mark.parametrize("c", [0.5, 2.0, -1.0])
def test_wigner_von_neumann_exponent_at_depth(c):
    # On the free block, b_n = c cos(n) / n has a resonance at
    # E_0 = 2 cos(1/2), where rho_N(E_0) decays like N^-kappa with
    # kappa = |c| / (2 sin(1/2)).  The slope of ln rho_N between N = 10^3 and
    # 10^4 is within 1e-3 of -kappa (3.1e-4, 5.0e-5 and 2.5e-5 off): a check
    # of the recursion at depth that does not go through the oracle.
    model = js.make_model(js.periodic_block(1, [1.0], [0.0]), js.PerturbationSpec.power(c, 1.0, 1.0))
    energy = [2.0 * math.cos(0.5)]
    logs = [jost.log_density(1.0, *jost.density_terms(model, N, energy))[0] for N in (1000, 10000)]
    slope = (logs[1] - logs[0]) / math.log(10.0)
    assert abs(slope + abs(c) / (2.0 * math.sin(0.5))) <= 1e-3


def test_entropy_ladder_keeps_order_and_duplicates():
    iv = js.interval_constants(BASELINE.block, js.widest_trimmed_band(BASELINE.block, 0.1))
    got = js.entropy_integrals(BASELINE, [40, 10, 40], iv, (16, 32))
    assert got == [js.entropy_integrals(BASELINE, N, iv, (16, 32)) for N in (40, 10, 40)]
    assert got[0] != got[1]
    assert js.entropy_integrals(BASELINE, np.array([10]), iv, (16,)) == [js.entropy_integrals(BASELINE, 10, iv, (16,))]


def _vanishing_u0(monkeypatch, zeros):
    """Make the recursion ladder return u_0 = 0 at the node zeros[N] of N."""
    real_ladder = jost._recursion_ladder

    def forcing(model, Ns, zetas, tops, seconds):
        forced = []
        for N, (u0, u1, scale_log2) in zip(Ns, real_ladder(model, Ns, zetas, tops, seconds)):
            if N in zeros:
                u0 = u0.copy()
                u0[zeros[N]] = 0.0
            forced.append((u0, u1, scale_log2))
        return forced

    monkeypatch.setattr(jost, "_recursion_ladder", forcing)


@pytest.mark.parametrize(
    "Ns, zeros, node",
    [((20, 10), {10: 0, 20: 3}, 3), ((10, 20), {10: 0, 20: 3}, 0), ((10, 20, 10), {20: 1}, 1)],
)
def test_entropy_ladder_raises_the_first_failing_n(monkeypatch, Ns, zeros, node):
    iv = js.interval_constants(BASELINE.block, js.widest_trimmed_band(BASELINE.block, 0.1))
    energy = 0.5 * (iv.hi + iv.lo) + 0.5 * (iv.hi - iv.lo) * leggauss(8)[0][node]
    _vanishing_u0(monkeypatch, zeros)
    with pytest.raises(ZeroJostError, match=re.escape(f"u_0 = 0 at zeta = {energy}")):
        js.entropy_integrals(BASELINE, Ns, iv, (8,))


@pytest.mark.parametrize(
    "zeros, error",
    [({}, BandEdgeError), ({10: 0}, BandEdgeError), ({5: 0}, ZeroJostError), ({5: 1}, ZeroJostError)],
)
def test_entropy_ladder_raises_a_node_error_for_the_first_n(free_model, monkeypatch, zeros, error):
    # on (1.0, 2.5) the 4-point nodes 2 and 3 lie above the band: the first
    # N raises for node 2 unless its own u_0 vanishes at an earlier node
    _vanishing_u0(monkeypatch, zeros)
    with pytest.raises(error):
        js.entropy_integrals(free_model, (5, 10), (1.0, 2.5), (4,))


def test_oracle_raises_the_first_failing_point(free_block):
    # beyond |zeta| ~ 1e154 the period product overflows: the q = 2 closure
    # has no finite root, the q = 1 closure underflows to Im m = 0;
    # E = 0 lies in the gap of the q = 2 block, E = 0.5 in its upper band
    model = js.make_model(js.periodic_block(2, [1.0, 1.4], [0.1, -0.2]))
    no_root = r"^no fixed point with Im m > 0 at zeta = \(5e\+199\+0\.001j\)$"
    gap = r"^E = 0\.0 is not in a band interior$"
    with pytest.raises(BandEdgeError, match=gap):
        js.density_curve(model, 3, (0.0, 1e200), 3, method="oracle")
    with pytest.raises(OracleConvergenceError, match=no_root):
        js.oracle_green_11(model, 3, [0.3 + 1e-3j, 0.5 + 0j, 5e199 + 1e-3j, 0j])
    with pytest.raises(BandEdgeError, match=gap):
        js.oracle_green_11(model, 3, [0.3 + 1e-3j, 0.5 + 0j, 0j, 5e199 + 1e-3j])
    with pytest.raises(ValidationError, match=r"^Im zeta < 0 at zeta = \(0\.5-0\.001j\)$"):
        js.oracle_green_11(model, 3, [0.3 + 1e-3j, 0.5 - 1e-3j, 0j, 5e199 + 1e-3j])
    with pytest.raises(OracleConvergenceError, match=no_root):
        js.oracle_green_11(model, 3, 5e199 + 1e-3j)
    # E = 0.5 alone is no failure: it gives the oracle density's boundary value
    curve = js.density_curve(model, 3, (0.5, 0.6), 2, method="oracle")
    assert (js.oracle_green_11(model, 3, 0.5).imag / np.pi).tolist() == curve.values[:1].tolist()
    with pytest.raises(OracleConvergenceError, match=no_root):
        js.oracle_green_11(js.make_model(free_block), 3, 5e199 + 1e-3j)


def test_overflowing_tail_closure_raises():
    # Far out near the axis the discriminant overflows and the root comes
    # out -inf+infj, which has Im m > 0; the finiteness test must fail the
    # closure on both entry points instead of passing it through.
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    message = r"^no fixed point with Im m > 0 at zeta = \(1e\+100\+0\.001j\)$"
    with pytest.raises(OracleConvergenceError, match=message):
        js.tail_m_function(block, 1e100 + 0.001j)
    with pytest.raises(OracleConvergenceError, match=message):
        js.oracle_green_11(js.make_model(block), 3, 1e100 + 0.001j)


BASELINE_BLOCK = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
POWER = js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2)


def test_tail_just_off_the_axis_is_the_boundary_value():
    # Im zeta = 1e-30 is below every rounding of the period product at
    # E = -0.9, so the root with Im m > 0 is the real-axis root bit for bit
    off = js.tail_m_function(BASELINE_BLOCK, -0.9 + 1e-30j)
    on = js.tail_m_function(BASELINE_BLOCK, -0.9)
    assert off.tolist() == on.tolist()


def test_tail_at_a_large_band_scale_matches_closed_form():
    # q = 1, a = 1e13: m = (-E + i sqrt(4 a^2 - E^2)) / (2 a^2); Im zeta is
    # 18 orders below the band scale, where a contraction ratio is 1 within
    # rounding
    a, zeta = 1e13, -1.75e13 + 1e-5j
    (m,) = js.tail_m_function(js.periodic_block(1, [a], [0.0]), zeta)
    exact = (-zeta + 1j * np.sqrt(4 * a * a - zeta * zeta)) / (2 * a * a)
    assert abs(m - exact) <= 1e-12 * abs(exact)


def test_tail_near_a_band_edge_against_50_digit_root():
    # 3.3e-3 inside the edge 1.5531209 of this block, at Im zeta = 1e-5
    mpmath = pytest.importorskip("mpmath")
    block = random_block(np.random.default_rng(43), 3)
    zeta = 1.5564118 + 1e-5j
    m = complex(js.tail_m_function(block, zeta)[0])
    with mpmath.workdps(50):
        z = mpmath.mpc(zeta.real, zeta.imag)
        g11, g12, g21, g22 = mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1)
        for k in range(1, block.q + 1):
            f21 = -mpmath.mpf(float(block.a(k))) ** 2
            f22 = mpmath.mpf(float(block.b(k))) - z
            g11, g12, g21, g22 = g12 * f21, g11 + g12 * f22, g22 * f21, g21 + g22 * f22
        bb = g22 - g11
        s = mpmath.sqrt(bb * bb + 4 * g21 * g12)
        roots = [(-bb + s) / (2 * g21), (-bb - s) / (2 * g21)]
        assert sorted(r.imag > 0 for r in roots) == [False, True]
        ref = next(r for r in roots if r.imag > 0)
        assert float(abs(m - ref) / abs(ref)) <= 1e-13


def reference_real_axis_green(mpmath, model, N, energy):
    """G(1,1) at a real band-interior energy in 50-digit arithmetic: the
    Im m > 0 root of the periodic tail's fixed-point quadratic, then
    coefficient stripping down to the boundary."""
    work = js.truncate(model, N)
    block = work.block
    depth = (N - 1) * block.q
    a, b = work.coefficient_arrays(depth)
    with mpmath.workdps(50):
        e = mpmath.mpf(float(energy))
        g11, g12, g21, g22 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        for k in range(1, block.q + 1):
            f21 = -mpmath.mpf(float(block.a(k))) ** 2
            f22 = mpmath.mpf(float(block.b(k))) - e
            g11, g12, g21, g22 = g12 * f21, g11 + g12 * f22, g22 * f21, g21 + g22 * f22
        bb = g22 - g11
        disc = bb * bb + 4 * g21 * g12
        assert disc < 0
        m = mpmath.mpc(-bb, mpmath.sqrt(-disc)) / (2 * g21)
        if m.imag < 0:
            m = mpmath.conj(m)
        for n in range(depth, 0, -1):
            m = 1 / (mpmath.mpf(float(b[n])) - e - mpmath.mpf(float(a[n])) ** 2 * m)
        return m


def test_real_axis_oracle_and_key_formula_against_50_digit_stripping():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    worst_key = worst_oracle = 0.0
    for q in (1, 2, 3):
        block = random_block(rng, q)
        model = js.make_model(block, POWER)
        lo, hi = js.widest_trimmed_band(block, margin=0.1)
        energies = [lo + 0.2 * (hi - lo), 0.5 * (lo + hi), lo + 0.8 * (hi - lo)]
        for N in (20, 1000):
            oracle = js.oracle_green_11(model, N, energies).imag / np.pi
            for energy, orc, key in zip(energies, oracle, js.ac_density(model, N, energies)):
                ref = reference_real_axis_green(mpmath, model, N, energy).imag / mpmath.pi
                worst_key = max(worst_key, float(abs(key - ref) / ref))
                worst_oracle = max(worst_oracle, float(abs(orc - ref) / ref))
    assert worst_key <= 1e-11
    assert worst_oracle <= 1e-11


def test_off_axis_oracle_approaches_the_real_axis_value_linearly():
    # G(E + i eps) - G(E) = O(eps) inside a band: 10x closer per decade
    model = js.make_model(BASELINE_BLOCK, POWER)
    lo, hi = js.widest_trimmed_band(BASELINE_BLOCK, margin=0.1)
    energy = 0.5 * (lo + hi)
    epsilons = np.array([1e-3, 1e-4, 1e-5])
    on_axis, *off_axis = js.oracle_green_11(model, 20, [energy, *(energy + 1j * epsilons)])
    slopes = np.abs(np.array(off_axis) - on_axis) / epsilons
    assert max(slopes) <= 1.1 * min(slopes)
    assert max(slopes) <= 10.0


def test_oracle_agrees_with_key_formula_close_to_band_edges():
    # margin 1e-3 puts grid points within 1e-3 of the edge 1.5531209 of this
    # block, where the oracle's tail is the real-axis root with Im m > 0
    block = random_block(np.random.default_rng(43), 3)
    model = js.make_model(block, POWER)
    for iv in js.trimmed_bands(block, margin=1e-3):
        key = js.density_curve(model, 20, iv, 101)
        oracle = js.density_curve(model, 20, iv, 101, method="oracle")
        assert np.max(np.abs(oracle.values - key.values) / key.values) <= 1e-11


BASELINE = js.make_model(
    js.periodic_block(2, [1.0, 1.4], [0.1, -0.2]), js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2)
)


@pytest.mark.parametrize(
    "pick",
    [lambda lo, hi: (hi, lo), lambda lo, hi: (math.nan, hi), lambda lo, hi: (lo, math.inf)],
    ids=["reversed", "nan", "inf"],
)
def test_reversed_or_non_finite_interval_is_rejected(monkeypatch, pick):
    interval = pick(*js.widest_trimmed_band(BASELINE.block, 0.1))
    # rejected before any density is computed
    monkeypatch.setattr(measures, "ac_density", None)
    monkeypatch.setattr(measures, "_density_ladder", None)
    checks = (
        lambda: bands.band_interior(BASELINE.block, interval),
        lambda: js.interval_constants(BASELINE.block, interval),
        lambda: js.density_curve(BASELINE, 40, interval, 5),
        lambda: js.entropy_integrals(BASELINE, 40, interval, [16]),
    )
    for check in checks:
        with pytest.raises(ValidationError, match=r"^interval must be two finite numbers lo < hi"):
            check()


def test_nan_energy_raises_the_oracles_band_edge_error():
    with pytest.raises(BandEdgeError) as oracle:
        js.oracle_green_11(BASELINE, 40, [0.5, math.nan])
    assert str(oracle.value) == "E = nan is not in a band interior"
    for key_formula in (jost.density_terms, jost.ac_density):
        with pytest.raises(BandEdgeError, match=f"^{re.escape(str(oracle.value))}$"):
            key_formula(BASELINE, 40, [0.5, math.nan])
