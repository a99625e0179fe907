"""Site-level numeric kernels.

These recursions visit every lattice site, so they dominate runtime once
truncation depths reach 1e3-1e5 sites.  The backward Jost recursion and the
stripping map are sequential in the site but independent across energies, so
both take 1-D arrays of energies and boundary data: one Python loop runs over
the sites, and each step is a few NumPy calls over all energies at once.
Working memory is O(sites + energies): one complex128 copy per site
coefficient the loop reads, and a fixed set of energy buffers; no
(sites x energies) array is formed unless the caller asks for the full
solution rows.  The backward recursion's overflow guard checks magnitudes
only where a growth bound allows one.

The site loops are bound by per-call overhead, not arithmetic, so a step
keeps its calls few and cheap: each site coefficient enters as a 0-d view
such as b_c[n, ...] of a complex128 copy (a Python float operand costs about
half as much again per call), and every result goes to a buffer made before
the loop through a positional out argument.  Operand order is part of the
result: a complex product of two arrays may differ in the last bit when its
operands swap, because the loop uses FMA.  So every operand keeps its place,
(b_n - zeta) * u_n, u_{n+1} * a_n, (...) * (-1/a_{n-1}), (b_n - zeta) -
a_n^2 m and 1 / (...).  Every step is elementwise across energies, so a
column of a batch equals the same energy's call on its own, bit for bit.

The period-block products of the renormalized block chain are independent
across blocks as well as energies: one Python loop runs over the q sites of a
period, and each step is a NumPy operation over every requested block and
energy.  The chain's product walk asks for a fixed chunk of blocks at a
time, so its working memory is O(chunk x energies).
"""

import numpy as np

# Magnitude guard for the backward recursion: above this the working pair is
# rescaled by 2**-RESCALE_SHIFT and the shift is accumulated.
RESCALE_THRESHOLD = 1e280
RESCALE_SHIFT = 600


def _energy_arrays(zeta, *values):
    zeta = np.atleast_1d(np.asarray(zeta, dtype=np.complex128))
    return (zeta, *(np.array(np.broadcast_to(v, zeta.shape), dtype=np.complex128) for v in values))


def _peak(*arrays):
    return float(max(np.abs(x).max(initial=0.0) for x in arrays))


def jost_backward(a, b, zeta, u_top, u_second, rows=None):
    """Backward three-term recursion from the top boundary pair, per energy.

    a, b are site arrays indexed 0..m (b[0] is a placeholder); the recursion
    a[n] u[n+1] + (b[n] - zeta) u[n] + a[n-1] u[n-1] = 0 runs n = m..1 from
    u[m+1] = u_top, u[m] = u_second.  zeta, u_top and u_second are 1-D arrays
    of equal length (scalars broadcast).  Returns (u0, u1, scale_log2): the
    values u[0], u[1] and the power-of-two rescale exponent of each energy
    (the true solution is u * 2**scale_log2).  Only the working pair is
    rescaled when the guard fires.

    A step grows max(|u[n+1]|, |u[n]|) at most by (max|a| + max|b| +
    max|zeta|) / min|a|; the guard checks magnitudes only where this bound
    allows an overflow, so it rescales at the steps a check per step would.
    Hence a run split at a site k continues bit for bit: the run on
    a[k-1:], b[k-1:] returns (u[k-1], u[k]), the run on a[:k], b[:k] from
    u_top = u[k], u_second = u[k-1] returns the unsplit u[0] and u[1], and
    the two scale_log2 add up to the unsplit one.  jost's recursion ladder
    rests on this.

    rows, if given, is an (m + 2, len(zeta)) complex array that receives the
    whole solution u[0..m+1], every row on the final scale of its energy.
    """
    zeta, hi, lo = _energy_arrays(zeta, u_top, u_second)
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    m = a.shape[0] - 1
    scale_log2 = np.zeros(zeta.shape, dtype=np.int64)
    factor = 2.0 ** (-RESCALE_SHIFT)
    if rows is not None:
        rows[m:] = lo, hi
    growth = float((_peak(a) + _peak(b[1:]) + _peak(zeta)) / np.abs(a).min()) * (1 + 1e-9)
    bound = _peak(hi, lo)
    # -(x / a) is x * (-1 / a) bit for bit.  A complex product over its own
    # one-element input can round differently.
    neg_inv = (-1.0 / a).astype(np.complex128)
    a_c, b_c = a.astype(np.complex128), b.astype(np.complex128)
    new, diff, tmp = np.empty_like(hi), np.empty_like(hi), np.empty_like(hi)
    for n in range(m, 0, -1):
        np.subtract(b_c[n, ...], zeta, diff)
        np.multiply(diff, lo, tmp)
        np.multiply(hi, a_c[n, ...], new)
        np.add(new, tmp, new)
        np.multiply(new, neg_inv[n - 1, ...], new)
        if rows is not None:
            rows[n - 1] = new
        bound *= growth
        if not bound <= RESCALE_THRESHOLD:
            big = np.abs(new) > RESCALE_THRESHOLD
            if big.any():
                new[big] *= factor
                lo[big] *= factor
                scale_log2[big] += RESCALE_SHIFT
                if rows is not None:
                    rows[n - 1 :, big] *= factor
            bound = _peak(new, lo)
        hi, lo, new = lo, new, hi
    return lo, hi, scale_log2


def strip_downward(a, b, zeta, m_start, n_from):
    """Resolvent stripping m_n = 1/(b_n - zeta - a_n^2 m_{n+1}), n = n_from..1,
    per energy; zeta and m_start are 1-D arrays of equal length."""
    zeta, m = _energy_arrays(zeta, m_start)
    a2 = (a[: n_from + 1] * a[: n_from + 1]).astype(np.complex128)
    b_c = b[: n_from + 1].astype(np.complex128)
    one, t = np.ones((), dtype=np.complex128), np.empty_like(m)
    for n in range(n_from, 0, -1):
        np.subtract(b_c[n, ...], zeta, t)
        t -= np.multiply(a2[n, ...], m, m)
        np.divide(one, t, m)
    return m


def period_products(a, b, zeta, q, n_blocks):
    """Products of q consecutive one-step transfer matrices, per block and energy.

    Block nb is T_{(nb+1)q} ... T_{nb*q+1} with
    T_k = [[(zeta - b[k])/a[k], -a[k-1]/a[k]], [1, 0]]; a and b must reach
    site n_blocks * q.  zeta is a 1-D array of energies (a scalar counts as
    one).  Returns the entries (p11, p12, p21, p22), each an
    (n_blocks, len(zeta)) complex array.

    A block's product starts from its first site's matrix.  t11 is
    (zeta - b[k]) * (1/a[k]), the product NumPy's complex division by a real
    forms, so the entries keep the bits of the identity-start loop with a
    true division unless zeta - b[k] has a -0.0 part; t12 stays a real
    division, which -a[k-1] * (1/a[k]) would round differently.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=np.complex128))
    top = n_blocks * q
    for j in range(1, q + 1):
        # site k = nb*q + j of every block nb
        a_k = a[j : top + 1 : q, None]
        t11 = (zeta - b[j : top + 1 : q, None]) * (1.0 / a_k)
        t12 = -a[j - 1 : top : q, None] / a_k
        if j > 1:
            p11, p12, p21, p22 = t11 * p11 + t12 * p21, t11 * p12 + t12 * p22, p11, p12
        else:
            p11, p12 = t11, np.broadcast_to(t12, t11.shape).astype(np.complex128)
            p21, p22 = np.ones_like(t11), np.zeros_like(t11)
    return p11, p12, p21, p22
