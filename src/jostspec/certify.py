"""Numerical certificates: strip eigenvalue bounds, square-summability of the
connection matrices, diagonal-product growth, and the three harmonic-function
hypotheses for the boundary factor.

Certificates fit their constants from probe data and test stability under
refinement; they are deterministic given (model, grid spec).  Each
certificate evaluates its whole probe grid in one energy-batched call: the
Floquet grid through transfer.floquet, the chain certificates through
connection_matrices and the product walk, which the harmonic certificate
takes for N and 2N as one ladder over their shared blocks.  A grid point
that the pointwise evaluation would reject raises the same error, for the
first such point in grid order, and N's errors come before 2N's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import count
from .errors import ValidationError, ZeroJostError
from .jost import _product_ladder
from .transfer import connection_matrices, floquet, floquet_error

__all__ = [
    "CertReport",
    "check_floquet_bound",
    "check_w_summability",
    "check_diagonal_products",
    "check_harmonic_hypotheses",
]


@dataclass(frozen=True, eq=False)
class CertReport:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    grid_spec: str = ""
    worst_case: dict = field(default_factory=dict)


# Energies and heights of the Floquet strip grid.
FLOQUET_GRID = 32
# check_w_summability passes only if the last increment is below this.
W_TAIL_TOL = 0.05


def check_floquet_bound(block, interval) -> CertReport:
    """Verify |z(E+iy)| <= 1 - 0.9 C_I y on a FLOQUET_GRID x FLOQUET_GRID
    grid over I x (0, eps_I], z from floquet.  The 0.9 slack absorbs the
    quadratic remainder of the linear strip bound.  The first probe in
    (height, energy) order with a Floquet fault raises its floquet_error.

    The inverse bound |z^{-1}| >= 1 + 0.9 C_I y follows and is not checked:
    with t = 0.9 C_I y, its margin |z|^{-1} - 1 - t exceeds this one,
    1 - t - |z|, by |z| + |z|^{-1} - 2 >= 0."""
    c_i = interval.C_I
    eps = interval.eps_I
    energies = np.linspace(interval.lo, interval.hi, FLOQUET_GRID)
    heights = np.linspace(eps / FLOQUET_GRID, eps, FLOQUET_GRID)
    # rows are heights, so the raveled grid is in (height, energy) probe order
    zeta = (energies[None, :] + 1j * heights[:, None]).ravel()
    _, z, _, _, fault = floquet(block, zeta)
    bad = np.flatnonzero(fault)
    if bad.size:
        raise floquet_error(fault[bad[0]], zeta[bad[0]])
    modulus = np.abs(z).reshape(heights.size, energies.size)
    y = heights[:, None]
    margins = (1.0 - 0.9 * c_i * y) - modulus
    slope_floor = float(np.min((1.0 - modulus) / y))
    k, j = np.unravel_index(np.argmin(margins), margins.shape)
    worst = {"margin": float(margins[k, j]), "E": float(energies[j]), "y": float(heights[k])}
    passed = worst["margin"] >= 0.0
    return CertReport(
        name="floquet_strip_bound",
        passed=passed,
        measured={
            "C_I": c_i,
            "eps_I": eps,
            "slope_floor_observed": slope_floor,
            "worst_margin": worst["margin"],
        },
        grid_spec=f"{FLOQUET_GRID}x{FLOQUET_GRID} probes over [{interval.lo}, {interval.hi}] x (0, {eps}]",
        worst_case=worst,
    )


def _doubling_grid(n_grid):
    """n_grid sorted, after checking that it has at least 2 distinct positive
    indices and that each is twice the one before it."""
    # the lower bound is checked below, with the grid's own message
    n_grid = sorted(count("n_grid", m, -math.inf) for m in n_grid)
    if len(set(n_grid)) < 2 or n_grid[0] < 1:
        raise ValidationError("n_grid must contain at least 2 distinct positive indices")
    if any(hi != 2 * lo for lo, hi in zip(n_grid[:-1], n_grid[1:])):
        raise ValidationError(f"n_grid must double, each index twice the one before; got {n_grid}")
    return n_grid


def check_w_summability(model, zeta, n_grid) -> CertReport:
    """Partial sums of ||W_n||_F^2 along a doubling grid: increments must be
    nonincreasing and the final increment below W_TAIL_TOL.  The grid needs at
    least 2 distinct indices, so that there is an increment to test, and
    each index twice the one before it, so that the increments are over
    windows [m, 2m) and comparable."""
    n_grid = _doubling_grid(n_grid)
    m_max = n_grid[-1]
    w = connection_matrices(model, m_max + 1, [zeta])
    cumulative = np.concatenate(([0.0], np.cumsum(sum(np.abs(x[:, 0]) ** 2 for x in w))))
    partials = [float(cumulative[m]) for m in n_grid]
    increments = [b - a for a, b in zip(partials[:-1], partials[1:])]
    decreasing = all(
        increments[i + 1] <= increments[i] + 1e-12 for i in range(len(increments) - 1)
    )
    return CertReport(
        name="w_square_summability",
        passed=decreasing and increments[-1] < W_TAIL_TOL,
        measured={
            "l2_norm_estimate": math.sqrt(partials[-1]),
            "partial_sums": partials,
            "increments": increments,
        },
        grid_spec=f"partial sums at m in {n_grid}, zeta = {zeta}",
        worst_case={"largest_increment": max(increments)},
    )


def _fit_diagonal_bound(heights, cum, half):
    """Per column of cum, where cum[j] is the sum of the first j logarithms
    and rows run j = 0 .. n - 1, the sup of |cum[l] - cum[k-1]| / (1 + y sqrt(l - k))
    over 1 <= k < l <= half - 1 and over 1 <= k < l <= n - 1, one step per lag
    l - k.  NaN and inf from ln 0 propagate, so such a column's sup is not finite."""
    n = cum.shape[0]
    sup_half = np.zeros(cum.shape[1])
    sup_full = np.zeros(cum.shape[1])
    with np.errstate(invalid="ignore"):
        for lag in range(1, n - 1):
            # the denominator is one per column, so it divides the column max
            dev = np.abs(cum[lag + 1 :] - cum[: n - 1 - lag])
            denom = 1.0 + heights * math.sqrt(lag)
            sup_full = np.maximum(sup_full, dev.max(axis=0) / denom)
            if lag < half - 1:
                sup_half = np.maximum(sup_half, dev[: half - 1 - lag].max(axis=0) / denom)
    return sup_half, sup_full


def check_diagonal_products(model, interval, n_blocks=128) -> CertReport:
    """Fit the smallest B with |ln prod_{n=k}^{l} |1 + alpha_n|| <= B + B Im(zeta) sqrt(l-k)
    over every index range 1 <= k < l and a 4 x 4 strip grid (energies
    spanning I, ends included; heights eps_I 2^{0,-2,-4,-6}), and the same for
    delta; pass requires the fit to be finite and stable when the blocks
    double from n_blocks // 2 to n_blocks."""
    # with fewer than 6 blocks, n_blocks // 2 blocks hold no range k < l
    n_blocks = count("n_blocks", n_blocks, 6)
    energies = np.linspace(interval.lo, interval.hi, 4)
    heights = interval.eps_I * 0.25 ** np.arange(4)
    zetas = (energies[None, :] + 1j * heights[:, None]).ravel()
    w11, _, _, w22 = connection_matrices(model, n_blocks, zetas)
    with np.errstate(divide="ignore"):
        ln = np.log(np.abs(1.0 + np.concatenate([w11, w22], axis=1)))
    # columns are the alpha logarithms at every point, then the delta ones
    cum = np.cumsum(np.vstack([np.zeros(ln.shape[1]), ln]), axis=0)
    sup_half, sup_full = _fit_diagonal_bound(np.tile(zetas.imag, 2), cum, n_blocks // 2)
    # (alpha, delta) of each fit; np.max keeps a NaN column's NaN
    b_half, b_full = (sup.reshape(2, -1).max(axis=1).tolist() for sup in (sup_half, sup_full))
    j = int(np.argmax(sup_full))
    worst = zetas[j % zetas.size]

    def stable(u, v):
        if max(u, v) < 1e-12:
            return True
        return abs(v - u) <= 0.2 * max(u, abs(v), 1e-12)

    finite = all(math.isfinite(x) for x in (*b_half, *b_full))
    passed = finite and stable(b_half[0], b_full[0]) and stable(b_half[1], b_full[1])
    return CertReport(
        name="diagonal_product_bound",
        passed=passed,
        measured={
            "B_alpha": b_full[0],
            "B_delta": b_full[1],
            "B_alpha_half_blocks": b_half[0],
            "B_delta_half_blocks": b_half[1],
        },
        grid_spec=(
            f"4x4 strip points over [{interval.lo}, {interval.hi}] x eps_I 2^(0,-2,-4,-6), "
            f"every range k < l in {n_blocks // 2} and {n_blocks} blocks"
        ),
        worst_case={"B": float(sup_full[j]), "E": float(worst.real), "y": float(worst.imag)},
    )


def _boundary_factor_values(model, Ns, points):
    """-ln |C_0 (lambda_0 phi_N + lambda_0^{-1} nu_N)| at the given energies
    for each N of a sequence Ns, from one ladder walk.  The errors come in
    the order of Ns: an N's first failing point, then a vanishing factor
    (ZeroJostError for the first such point), before the next N's."""
    values = []
    for form, error in _product_ladder(model, Ns, points, prefactor=False):
        if error is not None:
            raise error
        val = form.c0 * (form.lambda0 * form.phi_N + form.nu_N / form.lambda0)
        zero = np.flatnonzero(val == 0)
        if zero.size:
            zeta = complex(points[zero[0]])
            raise ZeroJostError(f"boundary factor vanishes at zeta = {zeta.real if zeta.imag == 0 else zeta}")
        values.append(-np.log(np.abs(val)))
    return values


# Energies of the harmonic-hypothesis grid: on the real section, and per row
# of the strip and top grids.
HARMONIC_REAL_POINTS = 96
HARMONIC_ROW_POINTS = 16


def _harmonic_constants(model, Ns, interval):
    """The three fitted constants for each N of a sequence Ns."""
    lo, hi, eps = interval.lo, interval.hi, interval.eps_I
    n_real, n_e = HARMONIC_REAL_POINTS, HARMONIC_ROW_POINTS
    egrid = np.linspace(lo, hi, n_real)
    es = np.linspace(lo, hi, n_e)
    ys = eps * 0.5 ** np.arange(8)
    # the top rows below eps: the top row at eps is the strip's row 0, and
    # the walk is elementwise per point, so that row is walked once, there
    tops = np.linspace(0.75 * eps, eps, 4)[:-1]
    # one walk over the real section, the strip rows and those top rows
    points = np.concatenate(
        [
            egrid + 0j,
            (es[None, :] + 1j * ys[:, None]).ravel(),
            (es[None, :] + 1j * tops[:, None]).ravel(),
        ]
    )
    constants = []
    for f in _boundary_factor_values(model, Ns, points):
        f_real, f_strip, f_top = np.split(f, [n_real, n_real + ys.size * n_e])
        # (i) integral of the positive part on the real section
        c_plus = float(np.trapezoid(np.maximum(f_real, 0.0), egrid))
        # (ii) lower bound -C / Im zeta on the strip
        worst_lower = max(0.0, float(np.max(-f_strip.reshape(ys.size, n_e) * ys[:, None])))
        # (iii) upper bound on the top quarter of the strip: row eps, then the others
        top_upper = float(np.max(np.concatenate([f_strip[:n_e], f_top])))
        constants.append((c_plus, worst_lower, top_upper))
    return constants


def check_harmonic_hypotheses(model, N, interval) -> CertReport:
    """Certify the three hypotheses on the boundary factor
    f_N = -ln |C_0 (lambda_0 phi_N + lambda_0^{-1} nu_N)|:
    (i) bounded integral of f_N^+ on I, (ii) f_N >= -C / Im zeta on the strip,
    (iii) f_N <= C on the top quarter of the strip; the fitted constants must
    be finite and stable (factor <= 2, small constants floored at 0.01) when
    N doubles.  N and 2N are one ladder walk over the probe grid: blocks
    0 .. N-3 are shared, so they are computed once.  N's first failing point
    or vanishing factor raises before 2N's."""
    N = count("truncation index N", N, 1)
    cons_n, cons_2n = _harmonic_constants(model, (N, 2 * N), interval)

    def ratio(u, v):
        fu, fv = max(u, 0.01), max(v, 0.01)
        return max(fu, fv) / min(fu, fv)

    ratios = [ratio(u, v) for u, v in zip(cons_n, cons_2n)]
    finite = all(math.isfinite(x) for x in (*cons_n, *cons_2n))
    passed = finite and all(r <= 2.0 for r in ratios)
    names = ("plus_part_integral", "strip_lower", "top_upper")
    measured = {}
    for key, u, v, r in zip(names, cons_n, cons_2n, ratios):
        measured[f"{key}_N{N}"] = u
        measured[f"{key}_N{2 * N}"] = v
        measured[f"{key}_ratio"] = r
    worst_idx = int(np.argmax(ratios))
    return CertReport(
        name="harmonic_hypotheses",
        passed=passed,
        measured=measured,
        grid_spec=(
            f"real {HARMONIC_REAL_POINTS} pts, strip {HARMONIC_ROW_POINTS}x8 geometric, "
            f"top {HARMONIC_ROW_POINTS}x4 over "
            f"[{interval.lo}, {interval.hi}] x (0, {interval.eps_I}]; N in ({N}, {2 * N})"
        ),
        worst_case={"constant": names[worst_idx], "ratio": ratios[worst_idx]},
    )
