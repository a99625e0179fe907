"""Spectral bands of the periodic background, admissible subintervals, and
the strip constants (eps_I, C_I) attached to them."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBranchError, NoAdmissibleIntervalError, RootCountWarning, ValidationError
from .transfer import (
    _background_period_matrix,
    decaying_branch,
    discriminant,
    discriminant_derivative,
)

__all__ = [
    "BandSet",
    "AdmissibleInterval",
    "band_edges",
    "admissible_intervals",
    "interval_constants",
]


@dataclass(frozen=True)
class BandSet:
    """Ordered disjoint closed intervals where |discriminant| <= 2."""

    bands: tuple
    warnings: tuple = ()


@dataclass(frozen=True)
class AdmissibleInterval:
    """Closed band-interior interval with certified strip constants.

    On I the discriminant stays strictly inside (-2, 2), its derivative and
    the monodromy corner entry C are bounded away from zero; on the strip
    I x (0, eps_I] the decaying Floquet branch satisfies
    |z(E + iy)| <= 1 - C_I y on the construction grid.
    """

    lo: float
    hi: float
    eps_I: float
    C_I: float
    margin: float

    @property
    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return 0.5 * (self.lo + self.hi)


def _bisect(f, lo, hi, tol):
    flo = f(lo)
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _scan_roots(f, xs, tol):
    vals = np.array([f(x) for x in xs])
    roots = []
    for i, x in enumerate(xs):
        if vals[i] == 0.0:
            roots.append(float(x))
    for i in range(len(xs) - 1):
        if vals[i] == 0.0 or vals[i + 1] == 0.0:
            continue
        if (vals[i] < 0) != (vals[i + 1] < 0):
            roots.append(_bisect(f, float(xs[i]), float(xs[i + 1]), tol))
    roots.sort()
    # collapse near-coincident roots
    out = []
    for r in roots:
        if not out or r - out[-1] > 10 * tol:
            out.append(r)
    return out


def band_edges(block, tol=1e-12) -> BandSet:
    """Locate all |discriminant| = 2 crossings by sign scan plus bisection and
    assemble the bands.  Closed gaps produce tangencies invisible to the sign
    scan; a RootCountWarning is attached (and issued) when the crossing count
    differs from 2q."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    q = block.q
    sum_a = 2.0 * sum(block.a_bg)
    lo = min(block.b_bg) - sum_a
    hi = max(block.b_bg) + sum_a
    step = (hi - lo) / (64 * q)
    xs = np.linspace(lo - step, hi + step, 64 * q + 3)

    d = lambda x: discriminant(block, x)
    roots = sorted(
        _scan_roots(lambda x: d(x) - 2.0, xs, tol)
        + _scan_roots(lambda x: d(x) + 2.0, xs, tol)
    )

    notes = []
    if len(roots) != 2 * q:
        msg = (
            f"expected {2 * q} band-edge crossings, found {len(roots)} "
            "(closed gaps produce double roots)"
        )
        notes.append(msg)
        warnings.warn(msg, RootCountWarning, stacklevel=2)

    segments = []
    for left, right in zip(roots[:-1], roots[1:]):
        mid = 0.5 * (left + right)
        if abs(d(mid)) <= 2.0:
            segments.append((left, right))
    merged = []
    for seg in segments:
        if merged and seg[0] - merged[-1][1] <= 10 * tol:
            merged[-1] = (merged[-1][0], seg[1])
        else:
            merged.append(seg)
    return BandSet(bands=tuple(merged), warnings=tuple(notes))


def _corner_entry(block, energy):
    _, _, p21, _ = _background_period_matrix(block, complex(energy))
    return p21.real


def _interior_exclusions(block, lo, hi, tol):
    """Real zeros of the discriminant derivative and of C inside (lo, hi)."""
    pts = max(256, 64 * block.q)
    inner = np.linspace(lo + tol, hi - tol, pts)
    zeros = _scan_roots(lambda x: discriminant_derivative(block, x), inner, tol)
    zeros += _scan_roots(lambda x: _corner_entry(block, x), inner, tol)
    zeros.sort()
    out = []
    for z in zeros:
        if not out or z - out[-1] > 10 * tol:
            out.append(z)
    return out


def admissible_intervals(block, margin, count_limit=None):
    """Closed band-interior subintervals away from band edges and from the
    real zeros of the discriminant derivative and of C, each carrying its
    strip constants."""
    if margin <= 0:
        raise ValidationError("margin must be positive")
    bs = band_edges(block)
    result = []
    for lo, hi in bs.bands:
        cuts = _interior_exclusions(block, lo, hi, 1e-12)
        edges = [lo] + cuts + [hi]
        for left, right in zip(edges[:-1], edges[1:]):
            a = left + margin
            b = right - margin
            if b - a <= margin * 1e-6:
                continue
            eps_i, c_i = interval_constants(block, (a, b))
            result.append(AdmissibleInterval(a, b, eps_i, c_i, margin))
            if count_limit is not None and len(result) >= count_limit:
                return result
    if not result:
        raise NoAdmissibleIntervalError(
            f"margin {margin} leaves no admissible subinterval"
        )
    return result


def interval_constants(block, interval, eps_probe=0.1, grid_points=129):
    """Strip constants for a band-interior interval.

    C_I is half the grid minimum of g(E) = |discriminant'| / sqrt(4 - delta^2);
    eps_I is the largest member of a geometric probe sequence below eps_probe
    for which |z(E + iy)| <= 1 - C_I y holds at every probe point.
    """
    lo, hi = (interval.lo, interval.hi) if hasattr(interval, "lo") else interval
    grid = np.linspace(lo, hi, grid_points)
    delta = discriminant(block, grid)
    edge = np.abs(delta) >= 2.0
    if edge.any():
        raise DegenerateBranchError(
            f"interval touches a band edge at E = {grid[np.argmax(edge)]}"
        )
    g = np.abs(discriminant_derivative(block, grid)) / np.sqrt(4.0 - delta * delta)
    g_min = float(np.min(g))
    if g_min < 1e-10:
        raise DegenerateBranchError(
            "interval contains a discriminant critical point"
        )
    c_i = 0.5 * g_min

    eps = float(eps_probe)
    while eps >= 1e-8:
        # rows are the 6 heights, so row-major order is the probe order
        ys = eps * 0.5 ** np.arange(6)
        zeta = grid[None, :] + 1j * ys[:, None]
        z, _, coincide = decaying_branch(discriminant(block, zeta))
        stop = coincide | (np.abs(z) > 1.0 - c_i * ys[:, None])
        if not stop.any():
            return eps, c_i
        first = int(np.argmax(stop))
        if coincide.flat[first]:
            raise DegenerateBranchError(
                f"eigenvalue moduli coincide at zeta = {complex(zeta.flat[first])}"
            )
        eps *= 0.5
    raise DegenerateBranchError(
        "no strip height certifies the eigenvalue bound on this interval"
    )
