"""Independent resolvent oracle (coefficient stripping with an exact
periodic-tail closure), gridded density curves, entropy integrals of the
log-space key-formula density, and spectral moments.

The stripping oracle and the key-formula density are deliberately disjoint
algorithms (different recursion direction, different tail treatment); their
agreement is the package's central cross-check.  On the real axis the oracle
takes the tail's boundary value from the Mobius fixed-point quadratic and
strips down at real energy, 64 sites a step below the highest block
boundary.  There Im m comes from the block determinant, det P = prod a_n^2,
as det P Im m / |P21 m + P22|^2: the per-site Im m_{n-1} = a_n^2 Im m_n /
|w|^2 over a block, which keeps relative accuracy at any density scale.
tail_m_function and oracle_green_11 take a 1-D sequence of points (a scalar
counts as one), in the upper half-plane or on a band interior, and return
arrays over them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _kernels
from .bands import _bounds
from .coefficients import count, truncate
from .errors import BandEdgeError, OracleConvergenceError, ValidationError
from .jost import _density_ladder, ac_density, log_density

__all__ = [
    "DensityCurve",
    "tail_m_function",
    "oracle_green_11",
    "density_curve",
    "entropy_integrals",
    "moment",
]

@dataclass(frozen=True, eq=False)
class DensityCurve:
    """Gridded density values with provenance metadata."""

    grid: np.ndarray
    values: np.ndarray
    meta: dict

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0):
            raise ValidationError("grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("density values must be finite")
        if np.any(self.values < 0):
            raise ValidationError("density values must be nonnegative")


def tail_m_function(block, zetas):
    """Boundary Green's value G(1,1) of the pure periodic background at every
    point of a 1-D sequence (a scalar counts as one point), and its boundary
    value at real band-interior energies.

    The tail is a root of the fixed-point quadratic of the period's Mobius
    map.  For Im zeta > 0 the other root is the reflected left half-line
    m-function, with Im < 0, so the tail is the root with Im m > 0; at
    Im zeta = 0 inside a band the roots are a conjugate pair and the same
    rule picks the boundary value.  Each point's value is a closed form in
    its own zeta, so it does not depend on the batch.  Raises the error of
    the first failing point, in order: Im zeta < 0, Im zeta = 0 outside a
    band interior (the quadratic's discriminant not below 0), a root that is
    not finite or has Im m not above 0 (a NaN fails).
    """
    z = np.atleast_1d(np.asarray(zetas, dtype=np.complex128))
    lower = z.imag < 0
    real = z.imag == 0
    with np.errstate(all="ignore"):
        # Mobius matrix of the q stripping steps [[0, 1], [-a_k^2, b_k - zeta]]
        g11, g12, g21, g22 = np.ones_like(z), np.zeros_like(z), np.zeros_like(z), np.ones_like(z)
        for k in range(1, block.q + 1):
            f21 = -block.a(k) * block.a(k)
            f22 = block.b(k) - z
            g11, g12, g21, g22 = g12 * f21, g11 + g12 * f22, g22 * f21, g21 + g22 * f22
        # g21 m^2 + (g22 - g11) m - g12 = 0, solved cancellation-free
        bb = g22 - g11
        disc = bb * bb + 4.0 * g21 * g12
        s = np.sqrt(disc)
        top = -np.where(np.abs(bb + s) >= np.abs(bb - s), bb + s, bb - s)
        tiny = np.abs(g21) < 1e-300
        r1 = np.where(tiny, g12 / bb, top / (2.0 * g21))
        r2 = -2.0 * g12 / top
        m = np.where(tiny | (r1.imag > 0), r1, r2)
    outside = real & ~(disc.real < 0)
    bad = lower | outside | ~np.isfinite(m) | ~(m.imag > 0)
    if bad.any():
        i = int(np.argmax(bad))
        zeta = complex(z[i])
        if lower[i]:
            raise ValidationError(f"Im zeta < 0 at zeta = {zeta}")
        if outside[i]:
            raise BandEdgeError(f"E = {zeta.real} is not in a band interior")
        raise OracleConvergenceError(f"no fixed point with Im m > 0 at zeta = {zeta}")
    return m


def oracle_green_11(model, N, zetas):
    """Boundary Green's value of the truncated operator by coefficient
    stripping at every point of a 1-D sequence, and its boundary value at
    real band-interior energies: one tail_m_function call at depth (N-1)q,
    then one stripping pass over all points down to the boundary."""
    work = truncate(model, N)
    zetas = np.atleast_1d(np.asarray(zetas, dtype=np.complex128))
    tails = tail_m_function(work.block, zetas)
    depth = (N - 1) * work.block.q
    if depth == 0:
        return tails
    a, b = work.coefficient_arrays(depth)
    return _kernels.strip_downward(a, b, zetas, tails, depth)


def density_curve(model, N, interval, grid_points, method="key_formula"):
    """Density samples on a uniform grid over an admissible interval.

    method 'key_formula' evaluates the boundary-value density directly;
    'oracle' takes (1/pi) Im of the stripping resolvent on the real axis,
    from the periodic tail's boundary value in the band.  Either way the site
    recursion runs once for the whole grid, and the first energy outside a
    band interior raises BandEdgeError.
    """
    grid_points = count("grid_points", grid_points, 2)
    grid = np.linspace(*_bounds(interval), grid_points)
    if method == "key_formula":
        vals = ac_density(model, N, grid)
    elif method == "oracle":
        vals = oracle_green_11(model, N, grid).imag / math.pi
    else:
        raise ValidationError(f"unknown density method {method!r}")
    return DensityCurve(grid=grid, values=vals, meta={"N": int(N), "method": method})


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order):
    nodes, weights = leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def entropy_integrals(model, N, interval, quad_orders):
    """Gauss-Legendre quadrature of ln(density) over an admissible interval
    at each of quad_orders, from the nodes of every order at once.  N is a
    truncation index, or a 1-D sequence of them; for a sequence the result
    is one per-order list for each entry, in its order with duplicates kept,
    from one recursion ladder over every N.  All orders and every N are
    validated first; then the first failing N in order raises, with the
    error of its first failing node.  The integrand is log_density, formed
    in log space, so it stays finite at depths where the density itself
    underflows."""
    orders = [count("quad_order", order, 4) for order in quad_orders]
    lo, hi = _bounds(interval)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    energies = [mid + half * x for order in orders for x in _gauss_legendre(order)[0]]
    ladder = np.ndim(N) == 1
    values = []
    for terms in _density_ladder(model, N if ladder else [N], energies):
        parts = np.split(log_density(model.block.a(0), *terms), np.cumsum(orders)[:-1])
        values.append([half * float(_gauss_legendre(order)[1] @ part) for order, part in zip(orders, parts)])
    return values if ladder else values[0]


def moment(model, N_or_full, k, depth):
    """<delta_1, J^k delta_1> by k-fold tridiagonal application.

    N_or_full is a truncation index or None for the untruncated model; the
    moment depends only on sites <= k+1, so depth >= k+2 suffices exactly.
    """
    k = count("moment order k", k, 0)
    depth = count("depth", depth, k + 2)
    work = model if N_or_full is None else truncate(model, N_or_full)
    a, b = work.coefficient_arrays(depth)
    v = np.zeros(depth)
    v[0] = 1.0
    for _ in range(k):
        # row i of J v, summed as (a_(i+1) v_(i+1) + b_(i+1) v_i) + a_i v_(i-1)
        w = b[1:] * v
        w[:-1] = a[1:depth] * v[1:] + w[:-1]
        w[1:] += a[1:depth] * v[:-1]
        v = w
    return float(v[0])
