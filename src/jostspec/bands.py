"""Spectral bands of the periodic background, admissible subintervals, and
the strip constants (eps_I, C_I) attached to them.

One map gives the band geometry: band k is E_k(theta), the k-th eigenvalue
of the q x q Bloch matrix, where the discriminant is 2 cos theta (Teschl,
Jacobi Operators and Completely Integrable Nonlinear Lattices, ch. 7).  At
theta = 0 and pi it gives all 2q edges, narrow and closed gaps included;
inside a band its eigenvectors give the slope E_k'(theta), and so C_I."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBranchError, NoAdmissibleIntervalError, ValidationError
from .transfer import discriminant, floquet, floquet_error

__all__ = [
    "BandSet",
    "AdmissibleInterval",
    "band_edges",
    "trimmed_bands",
    "widest_trimmed_band",
    "band_interior",
    "interval_constants",
]

# A gap this narrow or narrower, relative to the spectrum's extent (lowest
# to highest edge), is closed: its two bands merge into one.
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
    """Closed band-interior interval with certified strip constants: on the
    strip I x (0, eps_I] the decaying Floquet branch satisfies
    |z(E + iy)| <= 1 - C_I y on the construction grid.  Construction raises
    ValidationError unless -inf < lo < hi < inf and eps_I and C_I are
    positive and finite.
    """

    lo: float
    hi: float
    eps_I: float
    C_I: float

    def __post_init__(self):
        _bounds(self)
        if not (0.0 < self.eps_I < np.inf and 0.0 < self.C_I < np.inf):
            raise ValidationError(
                f"eps_I and C_I must be positive and finite, got eps_I = {self.eps_I}, C_I = {self.C_I}"
            )

    @property
    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return 0.5 * (self.lo + self.hi)


def _bloch(block, phase):
    """The Bloch matrices, one per entry of a 1-D array phase = e^{i theta}:
    the background's q x q Jacobi matrix with corners a_q phase (row q) and
    a_q conj(phase) (row 1), real for a real phase.  An entry sums its terms
    as separate matrices would (b + 0.0, so -0.0 reads 0.0), then the
    corners; for q = 1 both land on the diagonal."""
    q, a = block.q, np.asarray(block.a_bg)
    m = np.zeros((phase.size, q, q), dtype=phase.dtype)
    flat = m.reshape(phase.size, q * q)
    flat[:, :: q + 1] += block.b_bg
    flat[:, 1 :: q + 1] = a[:-1]
    flat[:, q :: q + 1] = a[:-1]
    m[:, -1, 0] += a[-1] * phase
    m[:, 0, -1] += a[-1] * np.conj(phase)
    return m


def _bloch_slope(block, delta, energy):
    """E_k'(theta) where 2 cos theta = delta, on the band k of the eigenvalue
    nearest each energy: -2 a_q Im(e^{i theta} v_1 conj(v_q)) for its unit
    eigenvector v, by Hellmann-Feynman."""
    phase = np.exp(1j * np.arccos(0.5 * delta))
    values, vectors = np.linalg.eigh(_bloch(block, phase))
    v = vectors[np.arange(energy.size), :, np.argmin(np.abs(values - energy[:, None]), axis=1)]
    return -2.0 * block.a_bg[-1] * (phase * v[:, 0] * np.conj(v[:, -1])).imag


def _edge_pairs(block):
    """The 2q band edges as consecutive pairs (E0, E1), (E2, E3), ...: the
    sorted eigenvalues of the Bloch matrices at theta = 0 and pi."""
    edges = sorted(np.linalg.eigvalsh(_bloch(block, np.array([1.0, -1.0]))).ravel().tolist())
    return list(zip(edges[0::2], edges[1::2]))


def band_edges(block) -> BandSet:
    """The bands [E0, E1], [E2, E3], ... of the periodic background, with the
    two bands at a closed gap (width CLOSED_GAP times the spectrum's extent or
    less) merged into one."""
    pairs = _edge_pairs(block)
    closed = CLOSED_GAP * (pairs[-1][1] - pairs[0][0])
    merged = []
    for lo, hi in pairs:
        if merged and lo - merged[-1][1] <= closed:
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

    C_I is half the grid minimum of |discriminant'| / sqrt(4 - delta^2)
    = 1 / |E_k'(theta)|, the slope from _bloch_slope; eps_I is the largest
    member of a geometric probe sequence below EPS_PROBE for which
    |z(E + iy)| <= 1 - C_I y holds at every probe point, z from floquet.  At
    the first probe, in (height, energy) order, with a Floquet fault or a
    broken bound, a fault raises its floquet_error; a bound halves the height.
    """
    lo, hi = band_interior(block, interval)
    grid = np.linspace(lo, hi, GRID_POINTS)
    delta = discriminant(block, grid)
    edge = np.abs(delta) >= 2.0
    if edge.any():
        raise DegenerateBranchError(
            f"interval touches a band edge at E = {grid[np.argmax(edge)]}"
        )
    c_i = 0.5 / float(np.max(np.abs(_bloch_slope(block, delta, grid))))

    eps = EPS_PROBE
    while eps >= 1e-8:
        # rows are the 6 heights, so the raveled grid is in probe order
        ys = eps * 0.5 ** np.arange(6)
        zeta = (grid[None, :] + 1j * ys[:, None]).ravel()
        _, z, _, _, fault = floquet(block, zeta)
        stop = (fault != 0) | (np.abs(z) > 1.0 - c_i * ys.repeat(grid.size))
        if not stop.any():
            return AdmissibleInterval(lo, hi, eps, c_i)
        first = int(np.argmax(stop))
        if fault[first]:
            raise floquet_error(fault[first], zeta[first])
        eps *= 0.5
    raise DegenerateBranchError(
        "no strip height certifies the eigenvalue bound on this interval"
    )
