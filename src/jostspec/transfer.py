"""Transfer-matrix algebra: the discriminant and its Floquet branches, and the
renormalized block chain (determinant-one blocks, their eigenbases, and the
W_n connection matrices) used by the product representation and the
certificates.

Everything here works elementwise over arrays of energies.  Every period
product comes from the kernels' block-product loop, with q-site blocks and
the guard off (_period_products): the background's one block, behind
discriminant and floquet, and the chain's, where chain_blocks and
connection_entries hold its one implementation.  connection_entries forms
the undivided numerators e = det U_{n-1} (I + W_n) and det U_{n-1}:
connection_matrices divides them into every W_n at once, and
jost.product_forms (a downward walk, a chunk of blocks at a time, which a
ladder of truncations shares) takes its step coefficients from e, where det
cancels, and never forms W.  floquet is the one entry point for the
background's Floquet data, on the real axis and off it, the strip grids of
bands.interval_constants and certify.check_floquet_bound included; it and
the chain pick their roots and report their faults by one rule, _branches,
the one reader of a complex step above real energy, to pick a branch.  Each
batched entry point raises the error of the first failing point in order,
and its docstring states which fault of a point comes first."""

from __future__ import annotations

import numpy as np

from . import _kernels
from .coefficients import count, point_array
from .errors import BandEdgeError, DegenerateBranchError, DiagonalizationError

__all__ = [
    "discriminant",
    "floquet",
]

# Complex step at real energy in units of a°_0, so small against the bands at
# any scale: the trace there carries its derivative, which picks the branch.
CS_STEP = 1e-100
# |block trace| within this of 2 counts as parabolic (no eigenbasis).
PARABOLIC_TOL = 1e-9
# |discriminant| within this of 2 at real energy counts as a band edge.
EDGE_TOL = 1e-12
# |trace derivative| below this blocks real-axis branch selection.
DERIV_TOL = 1e-9
# Off the real axis, a larger root of modulus below 1 + this has no branch.
COINCIDE_TOL = 1e-13


def _background_period(block, zeta):
    """Entries (p11, p21, p22) of one background period at every point of a
    1-D float64 or complex128 array zeta: the chain's _period_products over
    the one q-site block (a°_0, ..., a°_q), (0, b°_1, ..., b°_q)."""
    a, b = np.array([block.a(0), *block.a_bg]), np.array([0.0, *block.b_bg])
    return tuple(x[0] for x in _period_products(a, b, zeta, block.q))


def discriminant(block, zeta):
    """Trace of the background period, elementwise over a scalar, sequence
    or array zeta, in zeta's shape; real for real zeta."""
    zeta = np.asarray(zeta)
    flat = zeta.ravel().astype(np.complex128 if np.iscomplexobj(zeta) else np.float64)
    p11, _, p22 = _background_period(block, flat)
    return (p11 + p22).reshape(zeta.shape)[()]


def decaying_branch(delta):
    """The off-axis half of _branches, elementwise over an array of traces
    delta: the root lam of r^2 - delta r + 1 = 0 of larger modulus, and the
    mask of points with no branch because the two moduli coincide.

    Returns (lam, coincide).  lam is computed directly, without subtractive
    cancellation; the decaying root is its reciprocal, which floquet forms.
    """
    s = np.sqrt(delta * delta - 4.0)
    plus, minus = delta + s, delta - s
    lam = np.where(np.abs(plus) >= np.abs(minus), plus, minus) / 2.0
    return lam, np.abs(lam) - 1.0 < COINCIDE_TOL


def _real_branch(trace, slope):
    """The root of r^2 - trace r + 1 = 0 of larger modulus at real trace,
    elementwise: outside [-2, 2] the real one, inside its boundary value from
    Im E > 0, the root on the unit circle whose imaginary part has the sign
    of `slope`, the trace's derivative in E."""
    root = np.sqrt(np.abs(4.0 - trace * trace))
    return np.where(
        np.abs(trace) < 2.0,
        (trace + 1j * np.copysign(root, slope)) / 2.0,
        (trace + np.copysign(root, trace)) / 2.0,
    )


# Faults of a Floquet branch, one code per point (0 = none): at real points
# |trace| at 2 (a band edge of the background, a parabolic block of the
# chain) before a flat trace, off the axis coinciding moduli, and anywhere a
# root that is not finite (a NaN or infinite point, or an overflowing trace).
# The chain's connection steps add SINGULAR_U and DEAD_ALPHA.
BAND_EDGE, FLAT_DELTA, COINCIDE, SINGULAR_U, DEAD_ALPHA, NONFINITE = 1, 2, 3, 4, 5, 6


def _branches(trace, real, edge_tol, step):
    """The larger-modulus root lam of r^2 - trace r + 1 = 0 and its fault
    code, per entry of a complex array whose last axis runs over points;
    `real` masks the real points.  A real point's trace is taken `step`
    above the axis, so its imaginary part carries the derivative that picks
    the branch (_real_branch); it is a BAND_EDGE within edge_tol of +-2, then
    FLAT_DELTA where the derivative is below DERIV_TOL inside (-2, 2).  The
    other points take decaying_branch's lam, with COINCIDE.  A root that is
    not finite is NONFINITE.  Each point computes its own branch only."""
    off = ~real
    lam = np.empty_like(trace)
    fault = np.zeros(trace.shape, dtype=np.int64)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if real.any():
            re, slope = trace.real[..., real], trace.imag[..., real] / step
            lam[..., real] = _real_branch(re, slope)
            edge = np.abs(np.abs(re) - 2.0) < edge_tol
            flat = (np.abs(re) < 2.0) & (np.abs(slope) < DERIV_TOL)
            if edge.any() or flat.any():
                fault[..., real] = np.select([edge, flat], [BAND_EDGE, FLAT_DELTA], 0)
        if off.any():
            lam[..., off], coincide = decaying_branch(trace[..., off])
            if coincide.any():
                fault[..., off] = np.where(coincide, COINCIDE, 0)
    nonfinite = ~np.isfinite(lam)
    if nonfinite.any():
        fault[nonfinite] = NONFINITE
    return lam, fault


def floquet_error(code, zeta):
    """The error of Floquet fault `code` at the point zeta."""
    z = complex(zeta)
    if code == BAND_EDGE:
        return BandEdgeError(f"|discriminant| = 2 at E = {z.real}")
    if code == FLAT_DELTA:
        return DegenerateBranchError(f"discriminant derivative vanishes at E = {z.real}")
    if code == NONFINITE:
        return DegenerateBranchError(f"no finite Floquet multiplier at zeta = {z}")
    return DegenerateBranchError(f"eigenvalue moduli coincide at zeta = {z}")


def floquet(block, zetas):
    """Floquet data at every point of a 1-D sequence zetas (a scalar counts
    as one point), as complex arrays.

    Returns (delta, z, C, D, fault): the discriminant; the |z| <= 1 branch,
    1 / lam for the root lam of _branches (on a band conj(lam), the same
    number without rounding); the lower row (C, D) of the period matrix, so
    (z - D, C) is the eigenvector; the fault code, with EDGE_TOL.  One
    period product, a complex step above the real points: there delta, C
    and D are its real parts, which are the real-axis product's.  A NaN or
    infinite point reaches the NONFINITE fault without a warning.
    """
    zeta = point_array(zetas)
    real = zeta.imag == 0.0
    step = CS_STEP * block.a(0)
    with np.errstate(invalid="ignore", over="ignore"):
        p11, c, d = _background_period(block, np.where(real, zeta + 1j * step, zeta))
        trace = p11 + d
    lam, fault = _branches(trace, real, EDGE_TOL, step)
    with np.errstate(invalid="ignore"):
        z = np.where(real & (np.abs(trace.real) < 2.0), np.conj(lam), 1.0 / lam)
    for x in (trace, c, d):
        x.imag[real] = 0.0
    return trace, z, c, d, fault


def _fault_error(code, n, zeta):
    # the DiagonalizationError of chain fault `code` at index n and energy zeta
    z = complex(zeta)
    if code == BAND_EDGE:
        message = f"block {n} is parabolic at E = {z.real}"
    elif code == FLAT_DELTA:
        message = f"block {n} trace derivative vanishes at E = {z.real}"
    elif code == COINCIDE:
        message = f"block {n} eigenvalue moduli coincide at zeta = {z}"
    elif code == NONFINITE:
        message = f"block {n} has no finite eigenvalue at zeta = {z}"
    elif code == SINGULAR_U:
        message = f"U_{n} is singular"
    else:
        message = f"1 + alpha_{n} = 0 at zeta = {z.real if z.imag == 0 else z}"
    return DiagonalizationError(message, n=n, zeta=z)


def _lowest_fault(faults):
    # (code, index) per energy of the lowest-index nonzero entry of an
    # (index, energy) fault array; code 0 where the energy has none
    first = np.argmax(faults != 0, axis=0)
    return faults[first, np.arange(faults.shape[1])], first


def _first_fault_error(points, code, index):
    # The error of the first point, in order, that has a fault, or None;
    # code (0 for none) and index are the per-point fault record.
    bad = np.flatnonzero(code)
    if bad.size:
        i = int(bad[0])
        return _fault_error(int(code[i]), int(index[i]), points[i])
    return None


def _period_products(a, b, zeta, q):
    """Entries (p11, p21, p22) of the period products T_{(n+1)q} ... T_{nq+1}
    over the sites 1 .. len(a) - 1, each a (blocks, len(zeta)) array, with
    T_k = [[(zeta - b[k]) (1 / a[k]), -a[k-1] / a[k]], [1, 0]].  T_k is
    J M_k J for J the swap and M_k the site matrix of _kernels._block_products,
    so each block's sites taken top first give P = M_top ... M_first and the
    product J P J.  Growth 0 keeps P unscaled: a rescaled P has another
    eigenvalue."""
    columns = tuple(v.reshape(-1, q)[:, ::-1] for v in (1.0 / a[1:], -a[:-1] / a[1:], b[1:]))
    prod, _ = _kernels._block_products(columns, zeta, 0.0, q)
    return prod[1, 1], prod[0, 1], prod[0, 0]


def chain_blocks(a, b, zetas, q, first, count):
    """Eigen-data of renormalized blocks first .. first+count-1 at every point
    of a 1-D sequence zetas, from the coefficient arrays a, b.

    Per block n and point: the larger-modulus eigenvalue lambda_n of the
    determinant-one block, and the entries (u11, u12, u21, u22) of U_n^{-1},
    whose columns are (rho_n lambda_n^{-1} - D_n, a_nq C_n) and
    (rho_n lambda_n - D_n, a_nq C_n) with rho_n = a_nq / a_(n+1)q.  At real
    energies every chunk's blocks are evaluated CS_STEP a[0] above the axis,
    so the trace carries its derivative, and lambda_n and the fault are
    floquet's rule (_branches), with PARABOLIC_TOL.  Returns (lam, u,
    faults), each entry a (count, points) array; faults holds BAND_EDGE (a
    parabolic block), FLAT_DELTA, COINCIDE or NONFINITE where the block has
    no usable eigenbasis.
    """
    zeta = point_array(zetas)
    real = zeta.imag == 0.0
    lo, hi = first * q, (first + count) * q + 1
    step = CS_STEP * a[0]
    with np.errstate(invalid="ignore", over="ignore"):
        p11, p21, p22 = _period_products(a[lo:hi], b[lo:hi], np.where(real, zeta + 1j * step, zeta), q)
    a_nq = a[lo:hi:q, None]
    a_lo = a_nq[:-1]
    rho = a_lo / a_nq[1:]
    lam, faults = _branches(p11 + p22 / rho, real, PARABOLIC_TOL, step)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        u12 = rho * lam - p22
        u11 = rho / lam - p22
        u21 = a_lo * p21
    return lam, (u11, u12, u21, u21), faults


def connection_entries(prev, cur):
    """Undivided entries of I + W_n = U_{n-1} U_n^{-1}, elementwise.

    prev and cur are the U^{-1} entry tuples of blocks n-1 and n with equal
    lower-row entries (u21 = u22), as chain_blocks returns them, so u21
    stands for u22 below: four distinct products, three comparisons for
    identical eigenbases, and no division.  Returns (e, det, same): the
    entries (e11, e12, e21, e22) of e = det (I + W_n), det = det U_{n-1},
    and the mask of identical eigenbases, where e is (1, 0, 0, 1), so that
    W_n = 0 there whatever det is.  U_{n-1} is singular where ~same and
    det = 0.
    """
    p11, p12, p21, _ = prev
    c11, c12, c21, _ = cur
    same = (p11 == c11) & (p12 == c12) & (p21 == c21)
    with np.errstate(invalid="ignore", over="ignore"):
        det = p11 * p21 - p12 * p21
        x11, x12, y12, y11 = p21 * c11, p21 * c12, p12 * c21, p11 * c21
        e = (x11 - y12, x12 - y12, y11 - x11, y11 - x12)
    if same.any():
        e = tuple(np.where(same, one, x) for one, x in zip((1.0 + 0j, 0j, 0j, 1.0 + 0j), e))
    return e, det, same


def connection_matrices(model, n_blocks, zetas):
    """Entries (w11, w12, w21, w22) of W_1 .. W_(n_blocks-1) at every point of
    a 1-D sequence, each an (n_blocks - 1, points) array: e / det - I from
    connection_entries, and 0 exactly at identical eigenbases.

    Raises the error of the first failing point in order; within it, a block
    without a usable eigenbasis (lowest block) comes before a singular
    U_{n-1} (lowest n).
    """
    n_blocks = count("n_blocks", n_blocks, 1)
    zetas = point_array(zetas)
    q = model.block.q
    a, b = model.coefficient_arrays(n_blocks * q)
    _, u, faults = chain_blocks(a, b, zetas, q, 0, n_blocks)
    (e11, e12, e21, e22), det, same = connection_entries(tuple(x[:-1] for x in u), tuple(x[1:] for x in u))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        w = (e11 / det - 1.0, e12 / det, e21 / det, e22 / det - 1.0)
    if same.any():
        w = tuple(np.where(same, 0j, x) for x in w)
    code, index = _lowest_fault(faults)
    u_code, u_index = _lowest_fault(np.where(~same & (det == 0), SINGULAR_U, 0))
    chain = code != 0
    error = _first_fault_error(zetas, np.where(chain, code, u_code), np.where(chain, index, u_index))
    if error is not None:
        raise error
    return w


class RenormChain:
    """Empty: perfbench/tracer.py still traces RenormChain.__init__ and fails
    if the class is gone.  Delete it together with that trace target."""
