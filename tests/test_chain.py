"""Energy-batched renormalized block chain and product representation against
a per-energy reference loop, their error order, and pinned certificate
constants."""

import cmath
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jostspec as js
from jostspec import certify, jost, transfer
from jostspec.errors import DiagonalizationError, ZeroJostError

REL = 1e-12


def reference_chain(model, n_blocks, zeta):
    """lambda_n and U_n^{-1} one block at a time in Python complex arithmetic."""
    q = model.block.q
    z = complex(zeta)
    real = z.imag == 0.0
    a, b = model.coefficient_arrays(n_blocks * q)
    zeval = z + 1j * transfer.CS_STEP * a[0] if real else z
    lams, uinvs = [], []
    for n in range(n_blocks):
        p11, p12, p21, p22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
        for k in range(n * q + 1, (n + 1) * q + 1):
            t11 = (zeval - b[k]) / a[k]
            t12 = -a[k - 1] / a[k]
            p11, p12, p21, p22 = t11 * p11 + t12 * p21, t11 * p12 + t12 * p22, p11, p12
        a_lo, a_hi = float(a[n * q]), float(a[(n + 1) * q])
        rho = a_lo / a_hi
        tr = p11 + p22 / rho
        if real and abs(tr.real) < 2.0:
            sign = math.copysign(1.0, tr.imag)
            lam = complex(tr.real, sign * math.sqrt(4.0 - tr.real**2)) / 2.0
        elif real:
            lam = complex(tr.real + math.copysign(math.sqrt(tr.real**2 - 4.0), tr.real)) / 2.0
        else:
            s = cmath.sqrt(tr * tr - 4.0)
            lam = (tr + s if abs(tr + s) >= abs(tr - s) else tr - s) / 2.0
        lams.append(lam)
        uinvs.append((rho / lam - p22, rho * lam - p22, a_lo * p21, a_lo * p21))
    return lams, uinvs


def reference_w(prev, cur):
    if prev == cur:
        return (0j, 0j, 0j, 0j)
    p11, p12, p21, p22 = prev
    c11, c12, c21, c22 = cur
    det = p11 * p22 - p12 * p21
    return (
        (p22 * c11 - p12 * c21) / det - 1.0,
        (p22 * c12 - p12 * c22) / det,
        (-p21 * c11 + p11 * c21) / det,
        (-p21 * c12 + p11 * c22) / det - 1.0,
    )


def reference_product(model, N, zeta):
    """The product walk at one energy; also returns the diagonal-step count."""
    lams, uinvs = reference_chain(js.truncate(model, N), N, zeta)
    v0, v1, logpref, diagonal = 1.0 + 0j, 0j, 0j, 0
    for n in range(N - 1, 0, -1):
        lam = lams[n]
        w11, w12, w21, w22 = reference_w(uinvs[n - 1], uinvs[n])
        if w11 == w12 == w21 == w22 == 0:
            v1 = v1 / (lam * lam)
            logpref += cmath.log(lam)
            diagonal += 1
            continue
        t0, t1 = lam * v0, v1 / lam
        denom = lam * (1.0 + w11)
        v0, v1 = ((1.0 + w11) * t0 + w12 * t1) / denom, (w21 * t0 + (1.0 + w22) * t1) / denom
        logpref += cmath.log(lam) + cmath.log(1.0 + w11)
    fields = {
        "phi_N": v0,
        "nu_N": v1,
        "log_prefactor": logpref,
        "kappa": min(abs(x) for x in lams),
        "lambda0": lams[0],
        "c0": uinvs[0][2] / float(model.a(0)),
    }
    return fields, diagonal


def reference_forms(model, N, points):
    """product_forms as a two-block walk: one chain_blocks and one
    connection_entries call per block, each step a NumPy operation over all
    points, with the step coefficients taken from e = det (I + W_n).  The
    chunked walk must match it bit for bit."""
    work = js.truncate(model, N)
    q = work.block.q
    a, b = work.coefficient_arrays(N * q)
    shape = (len(points),)
    chain = (np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))
    walk = (np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))

    def block(n):
        lam, u, faults = transfer.chain_blocks(a, b, points, q, n, 1)
        hit = faults[0] != 0
        chain[0][hit] = faults[0, hit]
        chain[1][hit] = n
        return lam[0], tuple(x[0] for x in u)

    def record(mask, code, n):
        fresh = mask & (walk[0] == 0)
        walk[0][fresh] = code
        walk[1][fresh] = n

    lam, u = block(N - 1)
    kappa = np.abs(lam)
    v0 = np.ones(shape, dtype=np.complex128)
    v1 = np.zeros(shape, dtype=np.complex128)
    logpref = np.zeros(shape, dtype=np.complex128)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for n in range(N - 1, 0, -1):
            lam_prev, u_prev = block(n - 1)
            kappa = np.minimum(kappa, np.abs(lam_prev))
            (e11, e12, e21, e22), det, same = transfer.connection_entries(u_prev, u)
            record(~same & (det == 0), transfer.SINGULAR_U, n - 1)
            record(~same & (e11 == 0), transfer.DEAD_ALPHA, n)
            r = 1.0 / (lam * (lam * e11))
            v0, v1 = v0 + (e12 * r) * v1, (e21 / e11) * v0 + (e22 * r) * v1
            # ln|lambda| + ln|1 + alpha| + i (arg lambda + arg(1 + alpha)),
            # with 1 + alpha = e11 / det, and 1 exactly on a diagonal step
            one_alpha = np.where(same, 1.0 + 0j, e11 / det)
            ln_abs = np.log(np.abs(lam)) + np.log(np.abs(one_alpha))
            logpref = logpref + (ln_abs + 1j * (np.angle(lam) + np.angle(one_alpha)))
            lam, u = lam_prev, u_prev
    # a point's chain fault comes before its walk fault
    code, index = (np.where(chain[0] != 0, c, w) for c, w in zip(chain, walk))
    error = transfer._first_fault_error(points, code, index)
    if error is not None:
        raise error
    return {
        "phi_N": v0,
        "nu_N": v1,
        "kappa": kappa,
        "log_prefactor": logpref,
        "lambda0": lam,
        "u_inv0": np.array([[u[0], u[1]], [u[2], u[3]]]),
    }


def assert_close(got, want, scale=None):
    scale = abs(want) if scale is None else scale
    assert abs(complex(got) - complex(want)) <= REL * scale, (got, want)


@pytest.fixture(scope="module")
def baseline_model():
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    return js.make_model(block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))


# band interior |tr| < 2, gap and outer |tr| > 2, and strip energies
REAL_INTERIOR = [-2.0, -1.0, 0.8, 1.5, 2.2]
REAL_OUTSIDE = [0.3, 2.4, 3.5]
STRIP = [complex(-1.0, 1e-3), complex(0.8, 0.05), complex(1.9, 0.3), complex(0.3, 0.02)]
POINTS = REAL_INTERIOR + REAL_OUTSIDE + STRIP


def test_chain_blocks_match_reference(baseline_model):
    n_blocks = 24
    a, b = baseline_model.coefficient_arrays(n_blocks * 2)
    lam, u, faults = transfer.chain_blocks(a, b, POINTS, 2, 0, n_blocks)
    assert lam.shape == faults.shape == (n_blocks, len(POINTS))
    assert not faults.any()
    w11, w12, w21, w22 = transfer.connection_matrices(baseline_model, n_blocks, POINTS)
    traces = []
    for i, zeta in enumerate(POINTS):
        ref_lam, ref_u = reference_chain(baseline_model, n_blocks, zeta)
        for n in range(n_blocks):
            assert_close(lam[n, i], ref_lam[n])
            for got, want in zip((x[n, i] for x in u), ref_u[n]):
                assert_close(got, want)
            traces.append(ref_lam[n] + 1.0 / ref_lam[n])
        for n in range(1, n_blocks):
            # W_n relative to the computed product U_{n-1} U_n^{-1} = I + W_n
            want = reference_w(ref_u[n - 1], ref_u[n])
            scale = 1.0 + max(abs(x) for x in want)
            for got, ref in zip((w11[n - 1, i], w12[n - 1, i], w21[n - 1, i], w22[n - 1, i]), want):
                assert_close(got, ref, scale)
    # both real branches are exercised
    real_traces = np.array(traces).real[: n_blocks * len(REAL_INTERIOR + REAL_OUTSIDE)]
    assert (np.abs(real_traces) < 2).any() and (np.abs(real_traces) > 2).any()


def test_product_forms_match_reference(baseline_model):
    N = 30
    form = js.product_forms(baseline_model, N, POINTS)
    assert form.phi_N.shape == (len(POINTS),)
    for i, zeta in enumerate(POINTS):
        want, diagonal = reference_product(baseline_model, N, zeta)
        assert diagonal == 0
        single = js.product_forms(baseline_model, N, [zeta])
        for name, ref in want.items():
            assert_close(getattr(form, name)[i], ref)
            assert_close(getattr(single, name)[0], ref)
        (u1,), (u0,) = js.reconstruct_boundary_pair(single)
        sol = js.jost_solution(baseline_model, N, zeta)
        scale = max(abs(sol.u0), abs(sol.u1))
        assert abs(u0 - sol.u0) <= 1e-8 * scale and abs(u1 - sol.u1) <= 1e-8 * scale


def eight_product_entries(prev, cur):
    """connection_entries and W with every entry of U_{n-1} and U_n^{-1} read
    on its own: eight products for e = det (I + W), four divisions for W, and
    four comparisons for W = 0.  Returns (e, det, same, w)."""
    p11, p12, p21, p22 = prev
    c11, c12, c21, c22 = cur
    same = (p11 == c11) & (p12 == c12) & (p21 == c21) & (p22 == c22)
    det = p11 * p22 - p12 * p21
    e = (p22 * c11 - p12 * c21, p22 * c12 - p12 * c22, -p21 * c11 + p11 * c21, -p21 * c12 + p11 * c22)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        w = (e[0] / det - 1.0, e[1] / det, e[2] / det, e[3] / det - 1.0)
    e = tuple(np.where(same, one, x) for one, x in zip((1.0 + 0j, 0j, 0j, 1.0 + 0j), e))
    w = tuple(np.where(same, 0j, x) for x in w)
    return e, det, same, w


def bits(x):
    # the IEEE bit patterns, so +0.0 and -0.0 differ
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("kind", ["baseline", "finite_list"])
def test_connection_entries_match_eight_products_bit_for_bit(baseline_model, kind):
    q, n_blocks = 2, 40
    if kind == "baseline":
        model, points = baseline_model, POINTS
    else:
        model, points = _support_model_and_points(q)
    a, b = model.coefficient_arrays(n_blocks * q)
    _, u, _ = transfer.chain_blocks(a, b, points, q, 0, n_blocks)
    # the precondition: the lower row of each U_n^{-1} has equal entries
    assert np.array_equal(u[2], u[3])
    prev, cur = tuple(x[:-1] for x in u), tuple(x[1:] for x in u)
    e, det, same = transfer.connection_entries(prev, cur)
    want_e, want_det, want_same, want_w = eight_product_entries(prev, cur)
    w = transfer.connection_matrices(model, n_blocks, points)
    for got, ref in zip((*e, det, *w), (*want_e, want_det, *want_w)):
        assert np.array_equal(bits(got), bits(ref))
    assert np.array_equal(same, want_same)
    # W = 0 exactly past the finite support only
    zero = (np.array(w) == 0).all(axis=0)
    assert zero.any() == (kind == "finite_list") and not zero.all()


def _division_step_walk(lam, e, N):
    """(phi_N, nu_N) of the walk with the division step on the entries
    e = det (I + W_n): t0 = lambda v0, t1 = v1 / lambda, then each entry of
    e (t0, t1) divided by lambda e11."""
    v0 = np.ones(lam.shape[1], dtype=np.complex128)
    v1 = np.zeros(lam.shape[1], dtype=np.complex128)
    for n in range(N - 1, 0, -1):
        e11, e12, e21, e22 = (x[n - 1] for x in e)
        t0, t1, denom = lam[n] * v0, v1 / lam[n], lam[n] * e11
        v0, v1 = (e11 * t0 + e12 * t1) / denom, (e21 * t0 + e22 * t1) / denom
    return v0, v1


def _exact_walk(lam, e, N, i):
    """(phi_N, nu_N) at point i in 40-digit arithmetic from the double chain
    data lambda_n and e = det (I + W_n):
    phi <- phi + e12 nu / (lambda^2 e11), nu <- (e21 phi + e22 nu / lambda^2) / e11."""
    with mpmath.workdps(40):
        phi, nu = mpmath.mpc(1), mpmath.mpc(0)
        for n in range(N - 1, 0, -1):
            lam_n = mpmath.mpc(complex(lam[n, i]))
            e11, e12, e21, e22 = (mpmath.mpc(complex(x[n - 1, i])) for x in e)
            lam2 = lam_n * lam_n
            phi, nu = phi + e12 * nu / (lam2 * e11), (e21 * phi + e22 * nu / lam2) / e11
        return phi, nu


# Perturbations of the baseline block whose q-variation is square-summable
# (in; in-slow, whose sum converges slowly) and is not (out).
ACCURACY_MODELS = {
    "in": js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2),
    "in-slow": js.PerturbationSpec.power(c=0.8, s=1.5, gamma=0.6),
    "out": js.PerturbationSpec.power(c=0.8, s=1.5, gamma=0.2),
}


@pytest.mark.parametrize("name", sorted(ACCURACY_MODELS))
def test_folded_step_against_exact_walk(baseline_model, baseline_interval, name):
    N, iv = 320, baseline_interval
    es = np.linspace(iv.lo, iv.hi, 6)
    points = np.concatenate([es + 0j, es + 1j * iv.eps_I * 0.5 ** np.arange(0, 12, 2)])
    work = js.truncate(js.make_model(baseline_model.block, ACCURACY_MODELS[name]), N)
    a, b = work.coefficient_arrays(N * 2)
    lam, u, faults = transfer.chain_blocks(a, b, points, 2, 0, N)
    assert not faults.any()
    e, _, _ = transfer.connection_entries(tuple(x[:-1] for x in u), tuple(x[1:] for x in u))
    form = js.product_forms(work, N, points)
    old = _division_step_walk(lam, e, N)
    errors = {"folded": [], "division": []}
    for i in range(len(points)):
        phi, nu = _exact_walk(lam, e, N, i)
        scale = max(abs(phi), abs(nu))
        for key, (got_phi, got_nu) in (("folded", (form.phi_N, form.nu_N)), ("division", old)):
            err = max(abs(mpmath.mpc(complex(got_phi[i])) - phi), abs(mpmath.mpc(complex(got_nu[i])) - nu))
            errors[key].append(float(err / scale))
    # at most one rounding unit per step, and no worse than the division
    # step at its worst point or in the median
    assert max(errors["folded"]) <= N * 2.0**-53
    assert max(errors["folded"]) <= max(errors["division"])
    assert np.median(errors["folded"]) <= np.median(errors["division"])



@st.composite
def walk_cases(draw):
    """(model, N, points): a random q-periodic background, q = 1..4, with a
    small finite or power-law perturbation, truncated at N, and band-interior,
    gap, outer and strip points.  A large perturbation can leave (phi_N, nu_N)
    far below the states the walk passes through, a cancellation no step
    rule bounds relative to (phi_N, nu_N); these stay well clear of it."""
    q = draw(st.integers(1, 4))
    a = draw(st.lists(st.floats(0.7, 1.6), min_size=q, max_size=q))
    b = draw(st.lists(st.floats(-0.6, 0.6), min_size=q, max_size=q))
    block = js.periodic_block(q, a, b)
    N = draw(st.integers(2, 48))
    if draw(st.booleans()):
        support = draw(st.integers(1, N * q))
        alpha = draw(st.lists(st.floats(-0.05, 0.05), min_size=support, max_size=support))
        beta = draw(st.lists(st.floats(-0.08, 0.08), min_size=support, max_size=support))
        pert = js.PerturbationSpec.finite(alpha=alpha, beta=beta)
    else:
        pert = js.PerturbationSpec.power(
            c=draw(st.floats(0.01, 0.1)), s=draw(st.floats(0.5, 1.5)), gamma=draw(st.floats(0.2, 0.6))
        )
    bands = js.band_edges(block).bands
    interior = [lo + draw(st.floats(0.1, 0.9)) * (hi - lo) for lo, hi in bands]
    gaps = [(x[1] + y[0]) / 2 for x, y in zip(bands, bands[1:]) if y[0] - x[1] > 0.3]
    outer = [bands[0][0] - 0.4, bands[-1][1] + 0.7]
    strip = [complex(e, 10.0 ** draw(st.floats(-3, 0))) for e in interior]
    return js.truncate(js.make_model(block, pert), N), N, np.array(interior + gaps + outer + strip, dtype=complex)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(walk_cases())
def test_walk_on_random_blocks_against_exact_walk(case):
    # the bound of test_folded_step_against_exact_walk, on random blocks and
    # at every kind of point
    model, N, points = case
    q = model.block.q
    a, b = model.coefficient_arrays(N * q)
    lam, u, faults = transfer.chain_blocks(a, b, points, q, 0, N)
    # no walk where a block is parabolic, as at a closed gap
    assume(not faults.any())
    e, det, _ = transfer.connection_entries(tuple(x[:-1] for x in u), tuple(x[1:] for x in u))
    # nor where 1 + alpha_n = e11 / det is near 0: there e11 is a cancelled
    # value, possibly an exact 0 that rounding moved, a DEAD_ALPHA that
    # e11 == 0 misses (a symmetric block at its gap centre)
    assume((np.abs(e[0]) >= 1e-6 * np.abs(det)).all())
    form = js.product_forms(model, N, points)
    for i in range(len(points)):
        phi, nu = _exact_walk(lam, e, N, i)
        err = max(abs(mpmath.mpc(complex(form.phi_N[i])) - phi), abs(mpmath.mpc(complex(form.nu_N[i])) - nu))
        assert float(err / max(abs(phi), abs(nu))) <= N * 2.0**-53


C = jost.CHUNK
FORM_FIELDS = ("phi_N", "nu_N", "kappa", "log_prefactor", "lambda0", "u_inv0")


def _support_model_and_points(q):
    """A random q-periodic background with a finite perturbation reaching
    past two chunks of blocks, and band-interior, gap, outer and strip points."""
    rng = np.random.default_rng(40 + q)
    block = js.periodic_block(q, rng.uniform(0.8, 1.5, q), rng.uniform(-0.4, 0.4, q))
    support = 2 * C + 3
    pert = js.PerturbationSpec.finite(
        alpha=rng.uniform(-0.05, 0.05, support), beta=rng.uniform(-0.08, 0.08, support)
    )
    bands = js.band_edges(block).bands
    interior = [lo + t * (hi - lo) for lo, hi in bands for t in (0.3, 0.55)]
    gaps = [(x[1] + y[0]) / 2 for x, y in zip(bands, bands[1:]) if y[0] - x[1] > 0.05]
    outer = [bands[0][0] - 0.4, bands[-1][1] + 0.7]
    strip = [complex(e, y) for e, y in zip(interior, (1e-3, 0.05, 0.3, 0.02, 0.1, 1e-2, 0.2, 0.04))]
    return js.make_model(block, pert), interior + gaps + outer + strip


@pytest.mark.parametrize("N", [1, 2, C - 1, C, C + 1, 3 * C + 5, 160])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_chunked_walk_matches_two_block_walk_bit_for_bit(q, N):
    model, points = _support_model_and_points(q)
    form = js.product_forms(model, N, points)
    want = reference_forms(model, N, points)
    for name in FORM_FIELDS:
        assert np.array_equal(getattr(form, name), want[name], equal_nan=True), name
    if N == 160:
        # both branches of the step: W_n = 0 past the support, nonzero inside it
        zero = (np.array(transfer.connection_matrices(model, N, points)) == 0).all(axis=(0, 2))
        assert zero.any() and not zero.all()


@pytest.mark.parametrize(
    "ladder",
    # in the last, the deepest top 3C + 2 lies whole chunks above the joins
    # 2C + 2 and C + 2, and the join C + 3 lies between two of those cuts
    [(1, 2), (2, 4), (3, 6), (40, 80), (10, 20, 40, 80), (80, 3, 40, 3), (C + 5, C + 6, 2 * C + 5, 3 * C + 3)],
    ids=str,
)
@pytest.mark.parametrize("target", ["a", "b", "both"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_ladder_rungs_match_two_block_walk_bit_for_bit(q, target, ladder):
    # A shallower N joins the deepest N's walk at block N - 3; with target a
    # or both, its blocks N - 2 and N - 1 differ from the deeper ones, as
    # they read a[(N-1)q].  Each rung, in the given order with duplicates
    # kept, must be its own walk bit for bit.
    model, points = _support_model_and_points(q)
    model = js.make_model(model.block, js.PerturbationSpec.power(c=0.3, s=0.5, gamma=0.3, target=target))
    rungs = jost._product_ladder(model, ladder, points)
    assert len(rungs) == len(ladder)
    for N, (form, error) in zip(ladder, rungs):
        assert error is None
        want = reference_forms(model, N, points)
        for name in FORM_FIELDS:
            assert np.array_equal(getattr(form, name), want[name], equal_nan=True), (N, name)


CERTIFICATE_FIELDS = ("phi_N", "nu_N", "lambda0", "u_inv0")


def assert_certificate_walk(model, Ns, points):
    """The ladder without the prefactor gives each rung's certificate fields
    and error bit for bit as the full ladder, and None for the rest."""
    full = jost._product_ladder(model, Ns, points)
    bare = jost._product_ladder(model, Ns, points, prefactor=False)
    for N, (want, want_error), (form, error) in zip(Ns, full, bare):
        assert form.log_prefactor is None and form.kappa is None, N
        for name in CERTIFICATE_FIELDS:
            assert np.array_equal(getattr(form, name), getattr(want, name), equal_nan=True), (N, name)
        assert (type(error), str(error), getattr(error, "zeta", None)) == (
            type(want_error),
            str(want_error),
            getattr(want_error, "zeta", None),
        )
    return bare


@pytest.mark.parametrize(
    "ladder",
    [(1, 2), (2, 4), (3, 6), (40, 80), (10, 20, 40, 80), (80, 3, 40, 3), (C + 5, C + 6, 2 * C + 5, 3 * C + 3)],
    ids=str,
)
@pytest.mark.parametrize("target", ["a", "b", "both"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_certificate_walk_skips_only_the_prefactor(q, target, ladder):
    model, points = _support_model_and_points(q)
    model = js.make_model(model.block, js.PerturbationSpec.power(c=0.3, s=0.5, gamma=0.3, target=target))
    for N, (form, error) in zip(ladder, assert_certificate_walk(model, ladder, points)):
        assert error is None
        want = reference_forms(model, N, points)
        for name in CERTIFICATE_FIELDS:
            assert np.array_equal(getattr(form, name), want[name], equal_nan=True), (N, name)


def _chunk_kinds(model, N, points):
    """Per chunk of the one-rung walk from the top: whether all, some or none
    of its (step, point) pairs have W_n = 0."""
    zero = (np.array(transfer.connection_matrices(model, N, points)) == 0).all(axis=0)
    kinds, hi = set(), N - 1
    while hi > 0:
        lo = max(hi - C, 0)
        kinds.add("all" if zero[lo:hi].all() else "some" if zero[lo:hi].any() else "none")
        hi = lo
    return kinds


@pytest.mark.parametrize(
    "q, kinds",
    [(1, {"all", "some", "none"}), (2, {"all", "some", "none"}), (3, {"all", "none"}), (4, {"all", "some"})],
)
def test_certificate_walk_on_finite_support_matches_reference(q, kinds):
    # chunks with every step, some steps and no step at W_n = 0: the masked
    # step and the unmasked one must give the same bits
    model, points = _support_model_and_points(q)
    assert _chunk_kinds(model, 160, points) == kinds
    [(form, error)] = assert_certificate_walk(model, [160], points)
    assert error is None
    want = reference_forms(model, 160, points)
    for name in CERTIFICATE_FIELDS:
        assert np.array_equal(getattr(form, name), want[name], equal_nan=True), name


def test_certificate_walk_keeps_the_first_failing_point():
    # E = 2.5 fails at block 1 for both N, E = 3.0 at block 4 for N = 8 only
    rungs = assert_certificate_walk(_parabolic_model([0, 0.5, 0, 0, 1.0]), (4, 8), [3.0 + 0j, 2.5 + 0j])
    assert [str(error) for _, error in rungs] == ["block 1 is parabolic at E = 2.5", "block 4 is parabolic at E = 3.0"]


def test_boundary_factor_forms_no_argument(monkeypatch, baseline_model, certify_points):
    # the certificates read no log prefactor, so its arguments are never formed
    def raising(*args, **kwargs):
        raise AssertionError("np.angle called")

    monkeypatch.setattr(np, "angle", raising)
    values = certify._boundary_factor_values(baseline_model, (40, 80), certify_points)
    assert [v.shape for v in values] == [certify_points.shape] * 2


def test_certificate_walk_memory_does_not_grow_with_depth(baseline_model, certify_points):
    peaks = {}
    for N in (100, 1000):
        certify._boundary_factor_values(baseline_model, (N, 2 * N), certify_points)  # fills the cache
        tracemalloc.start()
        certify._boundary_factor_values(baseline_model, (N, 2 * N), certify_points)
        peaks[N] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[1000] <= 1.5 * peaks[100], peaks


def test_product_ladder_walks_the_shared_blocks_once(monkeypatch, baseline_model, certify_points):
    # N = 40 walks its own blocks 39 .. 37 and joins N = 80 at block 37: 3 + 80
    # blocks, where two separate walks would take 40 + 80
    counts = []
    chain_blocks = transfer.chain_blocks

    def counting(a, b, zetas, q, first, count):
        counts.append(count)
        return chain_blocks(a, b, zetas, q, first, count)

    monkeypatch.setattr(transfer, "chain_blocks", counting)
    jost._product_ladder(baseline_model, (40, 80), certify_points)
    assert sum(counts) == 83


def test_walk_memory_does_not_grow_with_depth(baseline_model, baseline_interval):
    iv = baseline_interval
    egrid = np.linspace(iv.lo, iv.hi, 96) + 0j
    es, ys = np.linspace(iv.lo, iv.hi, 16), iv.eps_I * 0.5 ** np.arange(12)
    points = np.concatenate([egrid, (es[None, :] + 1j * ys[:, None]).ravel()])
    assert points.size == 288
    peaks = {}
    for N in (100, 1000):
        js.product_forms(baseline_model, N, points)  # fills the coefficient cache
        tracemalloc.start()
        js.product_forms(baseline_model, N, points)
        peaks[N] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[1000] <= 1.5 * peaks[100], peaks


@pytest.fixture(scope="module")
def certify_points(baseline_interval):
    """The 288 probe points of check_harmonic_hypotheses on the baseline
    interval: 96 real energies, then 16 x 8 strip and 16 x 4 top points."""
    iv = baseline_interval
    es = np.linspace(iv.lo, iv.hi, 16)
    ys = np.concatenate([iv.eps_I * 0.5 ** np.arange(8), np.linspace(0.75 * iv.eps_I, iv.eps_I, 4)])
    return np.concatenate([np.linspace(iv.lo, iv.hi, 96) + 0j, (es[None, :] + 1j * ys[:, None]).ravel()])


def per_block_log_sums(model, N, points):
    """Per point, the math.fsum of ln|f| and of cmath.phase(f) over the
    factors f = lambda_n and 1 + alpha_n of the steps n = N-1 .. 1, taken in
    Python scalar arithmetic from the batched chain."""
    work = js.truncate(model, N)
    q = work.block.q
    a, b = work.coefficient_arrays(N * q)
    lam, _, _ = transfer.chain_blocks(a, b, points, q, 0, N)
    w11 = transfer.connection_matrices(work, N, points)[0]
    factors = np.concatenate([lam[1:], 1.0 + w11]).T.tolist()
    re = [math.fsum(math.log(abs(f)) for f in col) for col in factors]
    im = [math.fsum(cmath.phase(f) for f in col) for col in factors]
    return np.array(re), np.array(im)


def test_log_prefactor_sums_per_block_logs_at_depth(baseline_model, certify_points):
    N = 1000
    form = js.product_forms(baseline_model, N, certify_points)
    re, im = per_block_log_sums(baseline_model, N, certify_points)
    assert np.all(np.abs(form.log_prefactor.real - re) <= 1e-12 * np.abs(re))
    # the unwrapped sum of the arguments, far outside (-pi, pi] on the axis
    assert np.all(np.abs(form.log_prefactor.imag - im) <= 1e-12 * np.abs(im))
    assert np.abs(im).max() > 100 * math.pi
    # an outer real energy of a q = 6 block: |lambda_n| ~ 3e9 per block, and
    # ln|.| stays finite where a product of the factors would overflow
    block = js.periodic_block(6, [1.0, 0.9, 1.2, 1.1, 0.8, 1.3], [0.1, -0.2, 0.0, 0.3, -0.1, 0.2])
    model = js.make_model(block, js.PerturbationSpec.power(c=0.8, s=0.5, gamma=0.2))
    outer = js.product_forms(model, N, [40.0])
    re, _ = per_block_log_sums(model, N, [40.0])
    assert abs(outer.lambda0[0]) > 1e9 and re[0] > 2e4
    assert np.isfinite([outer.log_prefactor[0], outer.phi_N[0], outer.nu_N[0]]).all()
    assert abs(outer.log_prefactor[0].real - re[0]) <= 1e-12 * re[0]


def test_walk_computes_each_points_branch_only(monkeypatch, baseline_model, certify_points):
    # one product_forms call: the real-axis branch sees the 96 real columns
    # only, the complex square root of decaying_branch the 192 strip columns
    widths = {"_real_branch": set(), "decaying_branch": set()}
    for name in widths:

        def recording(*args, _name=name, _branch=getattr(transfer, name)):
            widths[_name].add(args[0].shape[-1])
            return _branch(*args)

        monkeypatch.setattr(transfer, name, recording)
    js.product_forms(baseline_model, 20, certify_points)
    assert widths == {"_real_branch": {96}, "decaying_branch": {192}}


def test_finite_support_takes_exact_diagonal_steps():
    block = js.periodic_block(2, [1.0, 1.3], [0.1, -0.1])
    model = js.make_model(
        block, js.PerturbationSpec.finite(alpha=[0.05, -0.02, 0.04], beta=[0.1, 0.2, -0.1, 0.05])
    )
    points = [0.5, 1.2, complex(0.5, 0.2), complex(1.1, 0.05)]
    short, long = js.product_forms(model, 12, points), js.product_forms(model, 20, points)
    # W_n is exactly 0 beyond the support (n >= 3) and nonzero below it
    exact_zero = (np.array(transfer.connection_matrices(model, 20, points)) == 0).all(axis=0)
    assert exact_zero[2:].all() and not exact_zero[:2].any()
    for i, zeta in enumerate(points):
        want, diagonal = reference_product(model, 20, zeta)
        # the support ends at site 4, so blocks 2.. (sites 5..) carry the bare
        # background and W_n = 0 exactly for n >= 3
        assert diagonal == 17
        for name, ref in want.items():
            assert_close(getattr(long, name)[i], ref)
        # the diagonal steps leave (phi, nu) = (1, 0) untouched, so the walk
        # reaches the support with the same pair from any depth
        assert long.phi_N[i] == short.phi_N[i]
        assert long.nu_N[i] == short.nu_N[i]
    # without a perturbation every step is diagonal and (phi, nu) stays (1, 0)
    # exactly; the general step with W = 0 would round lambda / lambda
    energies = np.linspace(0.45, 1.25, 17)
    clean = js.product_forms(js.make_model(block), 20, np.concatenate([energies, energies + 0.05j]))
    assert (clean.phi_N == 1.0).all() and (clean.nu_N == 0.0).all()


def _parabolic_model(beta):
    # free background: block n has trace E - beta_(n+1), parabolic at |.| = 2
    return js.make_model(js.periodic_block(1, [1.0], [0.0]), js.PerturbationSpec.finite(beta=beta))


@pytest.mark.parametrize(
    "beta, points, first, message, n",
    [
        # E = 3 fails at block 4 and E = 2.5 at block 2: the first point wins
        ([0, 0, 0.5, 0, 1.0], [0.3, 3.0, 2.5], 3.0, "block 4 is parabolic at E = 3.0", 4),
        # E = 2.5 fails at blocks 2 and 4: the lowest block wins
        ([0, 0, 0.5, 0, 0.5], [0.3, 2.5], 2.5, "block 2 is parabolic at E = 2.5", 2),
        ([0, 0, 0.5], [complex(0.3, 0.1), -1.5, 2.0], -1.5, "block 2 is parabolic at E = -1.5", 2),
    ],
)
def test_first_failing_point_raises_the_pointwise_error(beta, points, first, message, n):
    # messages and indices as the per-energy implementation reported them
    model = _parabolic_model(beta)
    with pytest.raises(DiagonalizationError) as batched:
        certify._boundary_factor_values(model, (8, 16), [complex(p) for p in points])
    with pytest.raises(DiagonalizationError) as single:
        js.product_forms(model, 8, [first])
    for exc in (batched.value, single.value):
        assert (str(exc), exc.n, exc.zeta) == (message, n, complex(first))


def _vanishing_factors(monkeypatch, zeros):
    """Make certify's ladder return phi_N = nu_N = 0 at the point zeros[i]
    of the i-th N, so that the boundary factor vanishes there."""
    real_ladder = jost._product_ladder

    def forcing(model, Ns, points, **kwargs):
        forced = []
        for i, (form, error) in enumerate(real_ladder(model, Ns, points, **kwargs)):
            if i in zeros:
                phi, nu = form.phi_N.copy(), form.nu_N.copy()
                phi[zeros[i]] = nu[zeros[i]] = 0.0
                form = dataclasses.replace(form, phi_N=phi, nu_N=nu)
            forced.append((form, error))
        return forced

    monkeypatch.setattr(certify, "_product_ladder", forcing)


@pytest.mark.parametrize(
    "beta, points, zeros, error, message",
    [
        # N = 4 fails at block 1 (E = 2.5), 8 also at block 4 (E = 3.0), its first point
        ([0, 0.5, 0, 0, 1.0], [3.0, 2.5], {}, DiagonalizationError, "block 1 is parabolic at E = 2.5"),
        # only 8 reaches the perturbation of block 4
        ([0, 0, 0, 0, 1.0], [3.0, 0.4, 1.5], {}, DiagonalizationError, "block 4 is parabolic at E = 3.0"),
        # N = 4's vanishing factor comes before 8's fault
        ([0, 0, 0, 0, 1.0], [3.0, 0.4, 1.5], {0: 1}, ZeroJostError, "vanishes at zeta = 0.4"),
        # N = 4's vanishing factor comes before 8's at an earlier point
        ([0, 0, 0, 0, 0.1], [3.0, 0.4, 1.5], {0: 2, 1: 0}, ZeroJostError, "vanishes at zeta = 1.5"),
        ([0, 0, 0, 0, 0.1], [3.0, 0.4, 1.5], {1: 0}, ZeroJostError, "vanishes at zeta = 3.0"),
    ],
)
def test_harmonic_ladder_raises_n_before_2n(monkeypatch, beta, points, zeros, error, message):
    # check_harmonic_hypotheses walks N and 2N as one ladder and raises what
    # N, then 2N, would raise on its own
    _vanishing_factors(monkeypatch, zeros)
    with pytest.raises(error) as exc:
        certify._boundary_factor_values(_parabolic_model(beta), (4, 8), [complex(p) for p in points])
    assert str(exc.value).endswith(message)


@pytest.mark.parametrize(
    "points, forced, message, n",
    [
        # point 0 fails at n = 5 and n = 3: the walk meets n = 5 first
        (
            [0.4, 3.0, complex(0.2, 0.1)],
            {(5, 0): "alpha", (3, 0): "alpha", (6, 1): "alpha", (2, 2): "singular"},
            "1 + alpha_5 = 0 at zeta = 0.4",
            5,
        ),
        # E = 3 has a parabolic block 4: it is reported before the walk fault
        ([3.0, complex(0.2, 0.1)], {(6, 0): "alpha", (2, 1): "singular"}, "block 4 is parabolic at E = 3.0", 4),
        # a singular U_{n-1} is found before alpha_n is formed
        ([complex(0.2, 0.1)], {(2, 0): "singular", (1, 0): "alpha"}, "U_1 is singular", 1),
        ([complex(0.2, 0.1)], {(4, 0): "both"}, "U_3 is singular", 3),
        # faults on both sides of a chunk boundary: the bottom step of the
        # upper chunk comes before the top step of the lower one
        ([0.4], {(C + 3, 0): "singular", (C + 2, 0): "alpha"}, f"U_{C + 2} is singular", C + 2),
        # a walk fault in the top chunk, a parabolic block in a lower chunk:
        # the block fault replaces the record the walk fault filled first
        ([3.0], {(C + 4, 0): "alpha"}, "block 4 is parabolic at E = 3.0", 4),
    ],
)
def test_walk_faults_follow_pointwise_order(monkeypatch, points, forced, message, n):
    # Exact zeros of 1 + alpha_n or det U_{n-1} do not occur on real models,
    # so the connection step is made to report them at the chosen (n, point):
    # e11 = 0 is 1 + alpha_n = 0, and det = 0 with distinct eigenbases a
    # singular U_{n-1}.
    # With N = 2C + 3 the walk makes three chunks, of steps 1..2, 3..C+2 and
    # C+3..2C+2; a chunk's call carries step n on row n - lo - 1.
    model = _parabolic_model([0, 0, 0, 0, 1.0])
    N = 2 * C + 3
    tops = iter(range(N - 1, 0, -C))
    real_entries = transfer.connection_entries

    def forcing(prev, cur):
        hi = next(tops)
        lo = max(hi - C, 0)
        (e11, e12, e21, e22), det, same = real_entries(prev, cur)
        assert e11.shape == (hi - lo, len(points))
        e11, det, same = e11.copy(), det.copy(), same.copy()
        for (at, i), kind in forced.items():
            if lo < at <= hi and kind in ("alpha", "both"):
                e11[at - lo - 1, i] = 0.0
            if lo < at <= hi and kind in ("singular", "both"):
                det[at - lo - 1, i], same[at - lo - 1, i] = 0.0, False
        return (e11, e12, e21, e22), det, same

    monkeypatch.setattr(transfer, "connection_entries", forcing)
    with pytest.raises(DiagonalizationError) as exc:
        js.product_forms(model, N, points)
    assert next(tops, None) is None
    assert (str(exc.value), exc.value.n) == (message, n)
    assert exc.value.zeta == complex(points[0])


@pytest.mark.parametrize("point", [0.4, np.float64(0.4), complex(0.4, 0.0), np.complex128(0.4)])
def test_dead_alpha_message_reads_a_real_point_as_real(point):
    # certify passes complex points, so the message must not depend on the type
    error = transfer._fault_error(transfer.DEAD_ALPHA, 5, point)
    assert (str(error), error.zeta) == ("1 + alpha_5 = 0 at zeta = 0.4", 0.4 + 0j)


@pytest.mark.parametrize(
    "points, forced, message, n",
    [
        # E = 3 has a parabolic block 4: it comes before its own singular U_1
        ([3.0, 0.4], [(2, 0), (1, 1)], "block 4 is parabolic at E = 3.0", 4),
        # point 0 has singular U_4 and U_2: the lowest n wins
        ([0.4, 3.0], [(5, 0), (3, 0)], "U_2 is singular", 2),
        # a scalar is one point
        (3.0, [], "block 4 is parabolic at E = 3.0", 4),
    ],
)
def test_connection_matrices_follow_pointwise_order(monkeypatch, points, forced, message, n):
    model = _parabolic_model([0, 0, 0, 0, 1.0])
    real_entries = transfer.connection_entries

    def forcing(prev, cur):
        e, det, same = real_entries(prev, cur)
        det, same = det.copy(), same.copy()
        for at, i in forced:
            det[at - 1, i], same[at - 1, i] = 0.0, False
        return e, det, same

    monkeypatch.setattr(transfer, "connection_entries", forcing)
    with pytest.raises(DiagonalizationError) as exc:
        transfer.connection_matrices(model, 8, points)
    assert (str(exc.value), exc.value.n, exc.value.zeta) == (message, n, complex(np.ravel(points)[0]))


def test_coinciding_moduli_have_no_branch():
    # a real discriminant inside (-2, 2) has two roots on the unit circle
    delta = np.array([1.0 + 0j, 3.0 + 0j, 2.5j])
    lam, coincide = transfer.decaying_branch(delta)
    assert coincide.tolist() == [True, False, False]
    assert (np.abs(lam[1:]) > 1.0).all() and np.allclose(lam * lam - delta * lam + 1.0, 0.0)


# Constants of the baseline model recorded from the per-energy implementation.
PINNED_HARMONIC = {
    "plus_part_integral_N6": 1.0118715163926428,
    "plus_part_integral_N12": 1.0191497275797419,
    "strip_lower_N6": 0.07353771076769626,
    "strip_lower_N12": 0.07174823008296072,
    "top_upper_N6": 1.2663030060840985,
    "top_upper_N12": 1.3015568617285345,
}
# The diagonal-product fit at 64 blocks, where it has settled; the halves are
# the fit at 32 blocks.
PINNED_DIAGONAL = {
    "B_alpha": 2.1795961229423826,
    "B_delta": 6.814856221465232,
    "B_alpha_half_blocks": 2.0038663444704383,
    "B_delta_half_blocks": 6.707159667700491,
}


@pytest.fixture(scope="module")
def baseline_interval():
    block = js.periodic_block(2, [1.0, 1.4], [0.1, -0.2])
    return js.interval_constants(block, js.widest_trimmed_band(block, 0.1))


def test_pinned_harmonic_constants(baseline_model, baseline_interval):
    rep = js.check_harmonic_hypotheses(baseline_model, 6, baseline_interval)
    assert rep.passed
    for name, value in PINNED_HARMONIC.items():
        assert rep.measured[name] == pytest.approx(value, rel=1e-10)



def test_harmonic_grid_walks_each_point_once(monkeypatch, baseline_model, baseline_interval):
    # the top row at eps_I is the strip's row 0: the walk takes the 272
    # distinct points, and the constants are those of the 288-point grid
    # walked in full, bit for bit
    iv, Ns = baseline_interval, (40, 80)
    walked = []
    real_ladder = certify._product_ladder

    def spy(model, ladder_Ns, points, prefactor=True):
        walked.append(points)
        return real_ladder(model, ladder_Ns, points, prefactor)

    monkeypatch.setattr(certify, "_product_ladder", spy)
    got = certify._harmonic_constants(baseline_model, Ns, iv)
    (points,) = walked
    assert len(points) == len(set(points.tolist())) == 272
    egrid, es = np.linspace(iv.lo, iv.hi, 96), np.linspace(iv.lo, iv.hi, 16)
    ys, tops = iv.eps_I * 0.5 ** np.arange(8), np.linspace(0.75 * iv.eps_I, iv.eps_I, 4)
    rows = (es[None, :] + 1j * np.concatenate([ys, tops])[:, None]).ravel()
    want = []
    for f in certify._boundary_factor_values(baseline_model, Ns, np.concatenate([egrid + 0j, rows])):
        f_real, f_strip, f_top = np.split(f, [96, 96 + 8 * 16])
        c_plus = float(np.trapezoid(np.maximum(f_real, 0.0), egrid))
        worst_lower = max(0.0, float(np.max(-f_strip.reshape(8, 16) * ys[:, None])))
        want.append((c_plus, worst_lower, float(np.max(f_top))))
    assert np.array_equal(bits(np.array(got)), bits(np.array(want)))

def test_pinned_diagonal_constants(baseline_model, baseline_interval):
    rep = js.check_diagonal_products(baseline_model, baseline_interval, n_blocks=64)
    assert rep.passed
    for name, value in PINNED_DIAGONAL.items():
        assert rep.measured[name] == pytest.approx(value, rel=1e-10)


def test_pinned_summability_and_strip_constants(baseline_model, baseline_interval):
    iv = baseline_interval
    rep = js.check_w_summability(baseline_model, complex(iv.midpoint(), 0.5 * iv.eps_I), (8, 16, 32))
    assert rep.passed
    want = [0.5380965695947356, 0.5793789944333612, 0.6031667587666932]
    assert rep.measured["partial_sums"] == pytest.approx(want, rel=1e-10)
    rep = js.check_floquet_bound(baseline_model.block, iv)
    assert rep.passed
    assert rep.measured["worst_margin"] == pytest.approx(0.0017345927974078412, rel=1e-10)
    assert rep.measured["slope_floor_observed"] == pytest.approx(0.9606120456048661, rel=1e-10)
    assert (rep.worst_case["E"], rep.worst_case["y"]) == (np.linspace(iv.lo, iv.hi, 32)[8], 0.003125)


def test_vanishing_diagonal_factor_fails_the_fit(monkeypatch, baseline_model, baseline_interval):
    # 1 + alpha_11 = 0 at the first strip energy: ln 0 enters the cumulative
    # sums, and the fitted bound must come out non-finite, not silently capped
    real_entries = transfer.connection_entries

    def forcing(prev, cur):
        (e11, e12, e21, e22), det, same = real_entries(prev, cur)
        e11 = e11.copy()
        e11[10, 0] = 0.0
        return (e11, e12, e21, e22), det, same

    monkeypatch.setattr(transfer, "connection_entries", forcing)
    rep = js.check_diagonal_products(baseline_model, baseline_interval, n_blocks=32)
    assert not rep.passed
    assert not math.isfinite(rep.measured["B_alpha"])


def test_vanishing_boundary_factor_raises(monkeypatch, baseline_model):
    # a zero factor would make f_N = +inf, which the strip lower bound would
    # take silently; the first such point raises instead, on the (N, 2N)
    # ladder that check_harmonic_hypotheses walks
    _vanishing_factors(monkeypatch, {0: slice(1, None), 1: slice(1, None)})
    with pytest.raises(ZeroJostError, match=r"at zeta = 1\.5$"):
        certify._boundary_factor_values(baseline_model, (6, 12), np.array([0.8, 1.5, 0.3 + 0.02j]))
