"""Spectral bands of the periodic background, admissible subintervals, and
the strip constants (eps_I, C_I) attached to them.

The band edges come from the periodic and antiperiodic q x q eigenproblems
(Teschl, Jacobi Operators and Completely Integrable Nonlinear Lattices,
ch. 7), so all 2q of them are found, narrow and closed gaps included."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBranchError, NoAdmissibleIntervalError, ValidationError
from .transfer import COINCIDE, decaying_branch, discriminant, discriminant_derivative, floquet_error

__all__ = [
    "BandSet",
    "AdmissibleInterval",
    "band_edges",
    "trimmed_bands",
    "widest_trimmed_band",
    "band_interior",
    "interval_constants",
]

# A gap this narrow or narrower is closed: its two bands merge into one.
CLOSED_GAP = 1e-11
# Widths this close count as equal when picking the widest: the two bands of a
# q = 2 background are equally wide, up to rounding.
WIDTH_TIE = 1e-9
# Largest strip height interval_constants probes, and its energy grid size.
EPS_PROBE = 0.1
GRID_POINTS = 129


@dataclass(frozen=True)
class BandSet:
    """Ordered disjoint closed intervals where |discriminant| <= 2."""

    bands: tuple


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

    @property
    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return 0.5 * (self.lo + self.hi)


def _edge_pairs(block):
    """The 2q band edges as consecutive pairs (E0, E1), (E2, E3), ...

    The edges are the sorted eigenvalues of the periodic and antiperiodic
    q x q Jacobi matrices (corner +a_q and -a_q), where the discriminant is
    +2 and -2; for q = 1 the corner lands on the diagonal twice, b +- 2a.
    Both are one (2, q, q) stack and one eigvalsh call.  An entry sums its
    terms as separate diagonal matrices would (b + 0.0, so -0.0 reads 0.0),
    then the corner +-a_q; for q = 1, b + a then + a.
    """
    q, a = block.q, np.asarray(block.a_bg)
    m = np.zeros((2, q, q))
    flat = m.reshape(2, q * q)
    flat[:, :: q + 1] += block.b_bg
    flat[:, 1 :: q + 1] = a[:-1]
    flat[:, q :: q + 1] = a[:-1]
    m[:, -1, 0] += (a[-1], -a[-1])
    m[:, 0, -1] += (a[-1], -a[-1])
    edges = sorted(np.linalg.eigvalsh(m).ravel().tolist())
    return list(zip(edges[0::2], edges[1::2]))


def band_edges(block) -> BandSet:
    """The bands [E0, E1], [E2, E3], ... of the periodic background, with the
    two bands at a closed gap (width CLOSED_GAP or less) merged into one."""
    merged = []
    for lo, hi in _edge_pairs(block):
        if merged and lo - merged[-1][1] <= CLOSED_GAP:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return BandSet(bands=tuple(merged))


def trimmed_bands(block, margin):
    """The unmerged bands [E_2j, E_2j+1] as (lo, hi) pairs trimmed by margin
    at both ends, dropping those the trimming leaves (nearly) empty.

    The real zeros of the discriminant derivative and of C (the Dirichlet
    eigenvalues) lie in the closures of the gaps, so the unmerged bands are
    free of them: a closed gap is the shared edge of two of them.
    """
    if not margin > 0:
        raise ValidationError("margin must be positive")
    pairs = [(lo + margin, hi - margin) for lo, hi in _edge_pairs(block)]
    pairs = [(a, b) for a, b in pairs if b - a > margin * 1e-6]
    if not pairs:
        raise NoAdmissibleIntervalError(
            f"margin {margin} leaves no admissible subinterval"
        )
    return pairs


def _widest_index(pairs):
    """Index of the widest (lo, hi) pair; among those whose widths are within
    WIDTH_TIE of the widest, the highest."""
    widest = max(hi - lo for lo, hi in pairs)
    return max((i for i, (lo, hi) in enumerate(pairs) if hi - lo >= widest - WIDTH_TIE), key=lambda i: pairs[i][0])


def widest_trimmed_band(block, margin):
    """The (lo, hi) of trimmed_bands(block, margin) that _widest_index picks."""
    pairs = trimmed_bands(block, margin)
    return pairs[_widest_index(pairs)]


def _bounds(interval):
    """Float (lo, hi) of an AdmissibleInterval or a pair; ValidationError
    unless -inf < lo < hi < inf."""
    pair = (interval.lo, interval.hi) if hasattr(interval, "lo") else interval
    lo, hi = (float(x) for x in pair)
    if not -np.inf < lo < hi < np.inf:
        raise ValidationError(f"interval must be two finite numbers lo < hi, got [{lo}, {hi}]")
    return lo, hi


def band_interior(block, interval):
    """(lo, hi) of an interval strictly inside one band [E_2j, E_2j+1] of
    _edge_pairs; DegenerateBranchError if it reaches an edge or crosses a gap,
    however narrow, or a closed one, where C vanishes."""
    lo, hi = _bounds(interval)
    if not any(e_lo < lo and hi < e_hi for e_lo, e_hi in _edge_pairs(block)):
        raise DegenerateBranchError(f"interval [{lo}, {hi}] is not inside one band interior")
    return lo, hi


def interval_constants(block, interval):
    """The AdmissibleInterval of a band-interior interval (lo, hi), with its
    strip constants.

    C_I is half the grid minimum of g(E) = |discriminant'| / sqrt(4 - delta^2);
    eps_I is the largest member of a geometric probe sequence below EPS_PROBE
    for which |z(E + iy)| <= 1 - C_I y holds at every probe point.
    """
    lo, hi = band_interior(block, interval)
    grid = np.linspace(lo, hi, GRID_POINTS)
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

    eps = EPS_PROBE
    while eps >= 1e-8:
        # rows are the 6 heights, so row-major order is the probe order
        ys = eps * 0.5 ** np.arange(6)
        zeta = grid[None, :] + 1j * ys[:, None]
        z, _, coincide = decaying_branch(discriminant(block, zeta))
        stop = coincide | (np.abs(z) > 1.0 - c_i * ys[:, None])
        if not stop.any():
            return AdmissibleInterval(lo, hi, eps, c_i)
        first = int(np.argmax(stop))
        if coincide.flat[first]:
            raise floquet_error(COINCIDE, zeta.flat[first])
        eps *= 0.5
    raise DegenerateBranchError(
        "no strip height certifies the eigenvalue bound on this interval"
    )
