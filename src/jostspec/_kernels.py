"""Site-level numeric kernels.

These recursions visit every lattice site, so they dominate runtime once
truncation depths reach 1e3-1e5 sites.  They take 1-D arrays of energies,
and each NumPy call works on all of them elementwise: a column of a batch
equals the same energy's call on its own, bit for bit.  The backward
recursion also takes its boundary pairs as (rungs, energies), the rungs of
jost's recursion ladder: a rung equals its own call, and each block's
product is formed once per energy for all rungs.  Working memory is
O(sites + energies), or O(blocks x energies) for the chain's products.

A per-site step is bound by per-call overhead, not arithmetic, so it keeps
its calls few and cheap: each site coefficient enters as a 0-d view such as
b_c[n, ...] of a complex128 copy (a Python float operand costs about half as
much again per call), and every result goes to a buffer made before the loop
through a positional out argument.  Operand order is part of the result: a
complex product of two arrays may differ in the last bit when its operands
swap, because the loop uses FMA.  So every operand keeps its place,
(b_n - zeta) * u_n, u_{n+1} * a_n, (...) * (-1/a_{n-1}), (b_n - zeta) -
a_n^2 m and 1 / (...), and in a block product r1 * y_n and x_n * r2.  The
per-site maps, four calls a site of the stripping and five of the backward
recursion, run above the highest block boundary (and at every site for the
stripping off the axis and the recursion that keeps its rows).  Below it
the one block-product loop forms a group of blocks' products in three calls
a site (and x_n in one or two calls for several sites: (zeta - b_n) * inv_n
for the recursion, b_n - zeta for the stripping), in float64 at real
energies, and a few calls a block apply them: two to the recursion's pairs,
every rung's at once, a Mobius step to the stripping's m with Im m from the
block's determinant.  transfer takes every q-site period product, the
background's and the chain's, from the same loop, with the guard off.
"""

import numpy as np

# Guard of the block products and the backward recursion: a product or pair
# above this is rescaled by 2**-RESCALE_SHIFT, so a product times a pair (or
# an m) stays below 2**1001.
RESCALE_THRESHOLD = 2.0**500
RESCALE_SHIFT = 600
# Sites per block of both walks, counted from a call's site 1; block x energy
# entries of a group of block products (and of x_n per call).
BLOCK = 64
GROUP = 1 << 13


def _energy_arrays(zeta, *values):
    zeta = np.atleast_1d(np.asarray(zeta, dtype=np.complex128))
    return (zeta, *(np.array(np.broadcast_to(v, zeta.shape), dtype=np.complex128) for v in values))


def _peak(*arrays):
    return float(max(np.abs(x).max(initial=0.0) for x in arrays))


def jost_backward(a, b, zeta, u_top, u_second, rows=None):
    """Backward three-term recursion from the top boundary pair, per energy.

    a, b are site arrays indexed 0..m (b[0] is a placeholder); the recursion
    a[n] u[n+1] + (b[n] - zeta) u[n] + a[n-1] u[n-1] = 0 runs n = m..1 from
    u[m+1] = u_top, u[m] = u_second.  zeta is a 1-D array of energies (a
    scalar is one); u_top and u_second are arrays over them (scalars
    broadcast), or of shape (rungs, energies): one boundary pair per rung at
    every energy, each rung its own recursion.  Returns (u0, u1, scale_log2)
    of the pairs' shape: the values u[0], u[1] and the power-of-two rescale
    exponent of each column (the true solution is u * 2**scale_log2).

    Sites above the highest multiple of BLOCK take the per-site step, the
    energies tiled once per rung; below it one product M_s ... M_{s+BLOCK-1}
    per block, formed once per energy, is applied to every rung's pair,
    where M_n = [[0, 1], [y_n, x_n]], y_n = -a[n] / a[n-1] and
    x_n = (zeta - b[n]) / a[n-1] maps (u[n+1], u[n]) to (u[n], u[n-1]).
    The guard rescales a block product after a step, and the pair after a
    site or a block, where its largest magnitude exceeds RESCALE_THRESHOLD,
    checking only where a growth bound of (max|a| + max|b| + max|zeta|) /
    min|a| per site allows it.  So u * 2**scale_log2 (in the normal range)
    does not depend on where it fired, and a column equals its own call:
    every rung of a call is its one-rung call bit for bit.  A run split at
    a block boundary k = 1 (mod BLOCK) continues bit for bit, as jost's
    recursion ladder needs: the run on a[k-1:], b[k-1:] returns (u[k-1],
    u[k]), the run on a[:k], b[:k] from u_top = u[k], u_second = u[k-1] the
    unsplit u[0] and u[1], and the two scale_log2 add up to the unsplit one.

    rows, if given with 1-D pairs, is an (m + 2, len(zeta)) complex array
    that receives the whole solution u[0..m+1] on the final scale of each
    energy.  With rows, the call is the per-site recursion at every site,
    with no block walk.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=np.complex128))
    shape = np.broadcast_shapes(np.shape(u_top), np.shape(u_second))[:-1] + zeta.shape
    rungs = shape[0] if len(shape) == 2 else 1
    hi, lo = (np.array(np.broadcast_to(v, shape), dtype=np.complex128).reshape(-1) for v in (u_top, u_second))
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    m = a.shape[0] - 1
    top = m - m % BLOCK if rows is None else 0
    scale_log2 = np.zeros(hi.shape, dtype=np.int64)
    growth = float((_peak(a) + _peak(b[1:]) + _peak(zeta)) / np.abs(a).min()) * (1 + 1e-9)
    # the per-site steps on 1-D columns, as a one-rung call has them, so that
    # each rung keeps its bits
    lo, hi = _site_steps(a[top:], b[top:], np.tile(zeta, rungs), hi, lo, scale_log2, growth, rows)
    if not top:
        return lo.reshape(shape), hi.reshape(shape), scale_log2.reshape(shape)
    z = zeta if zeta.imag.any() else np.ascontiguousarray(zeta.real)
    # a rung axis between the pair's two values and the energies
    lanes = (rungs, zeta.shape[0]) if rungs > 1 else zeta.shape
    pair, scales = np.array([hi, lo]).reshape(2, *lanes), scale_log2.reshape(lanes)
    terms = np.empty((2, *pair.shape), dtype=np.complex128)
    factor, bound, per = 2.0 ** (-RESCALE_SHIFT), _peak(pair), max(1, GROUP // max(zeta.shape[0], 1))
    # the products of GROUP block x energy entries at once, from the top down
    for k1 in range(top // BLOCK, 0, -per):
        k0 = max(k1 - per, 0)
        sites, below = slice(k0 * BLOCK + 1, k1 * BLOCK + 1), slice(k0 * BLOCK, k1 * BLOCK)
        prod, shifts = _block_products((1.0 / a[below], -a[sites] / a[below], b[sites]), z, growth)
        # |P u| <= 2 max|P| max|u|
        peaks = (np.abs(prod).max(axis=(0, 1, 3), initial=0.0) * (2 * (1 + 1e-9))).tolist()
        if rungs > 1:
            prod = prod[:, :, :, None]
        for k in range(k1 - k0 - 1, -1, -1):
            np.multiply(prod[:, :, k], pair, terms)
            np.add(terms[:, 0], terms[:, 1], pair)
            if shifts is not None:
                scales += shifts[k]
            bound *= peaks[k]
            if not bound <= RESCALE_THRESHOLD:
                big = np.abs(pair).max(axis=0) > RESCALE_THRESHOLD
                if big.any():
                    pair[:, big] *= factor
                    scales[big] += RESCALE_SHIFT
                bound = _peak(pair)
        # free this group's products before the next group's exist
        del prod, shifts
    return pair[1].reshape(shape), pair[0].reshape(shape), scale_log2.reshape(shape)


def _site_steps(a, b, zeta, hi, lo, scale_log2, growth, rows):
    """Steps n = m .. 1 one site at a time, on site arrays indexed 0..m,
    from (hi, lo) = (u[m+1], u[m]); returns (u[0], u[1]) and writes
    rows[0..m+1] if rows is given."""
    m = a.shape[0] - 1
    if rows is not None:
        rows[m:] = lo, hi
    factor, bound = 2.0 ** (-RESCALE_SHIFT), _peak(hi, lo)
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
    return lo, hi


def _block_products(columns, zeta, growth, size=BLOCK):
    """The products M_s ... M_{s+size-1} of blocks of `size` sites, from
    columns (inv_n, y_n, b_n) 1-D over the blocks' sites or (block, site),
    with M_n = [[0, 1], [y_n, x_n]] and x_n = (zeta - b_n) inv_n, or
    x_n = b_n - zeta where inv_n is None (the stripping's, one call a site
    fewer): an array (row, column, block, energy) of zeta's dtype, and the
    guard's shifts per (block, energy), or None; growth 0 turns the guard
    off.  From the last site's matrix, a step M_n P moves P's second row up
    and forms y_n r1 + x_n r2, as r1 * y_n and x_n * r2.  One site is its
    matrix."""
    # site columns (size, block, 1), so that a step takes views
    inv, y, b_n = (None if v is None else np.ascontiguousarray(v.reshape(-1, size).T)[:, :, None] for v in columns)
    g, e = y.shape[1], zeta.shape[0]

    def sites_x(cols, out):
        if inv is None:
            return np.subtract(b_n[cols], zeta, out)
        return np.multiply(np.subtract(zeta, b_n[cols], out), inv[cols], out)

    prod, t = np.empty((2, 2, g, e), dtype=zeta.dtype), np.empty((2, g, e), dtype=zeta.dtype)
    xs = np.empty((max(min(GROUP // max(g * e, 1), size - 1), 1), g, e), dtype=zeta.dtype)
    # each of the size - 1 steps swaps the row names
    r1, r2 = prod[(size - 1) % 2], prod[size % 2]
    r1[0], r1[1], r2[0] = 0.0, 1.0, y[-1]
    sites_x(-1, r2[1])
    factor, bound, shifts = 2.0 ** (-RESCALE_SHIFT), growth, None
    for top in range(size - 1, 0, -len(xs)):
        cols = slice(max(top - len(xs), 0), top)
        x = sites_x(cols, xs[: top - cols.start])
        for x_n, y_n in zip(x[::-1], y[cols][::-1]):
            np.multiply(r1, y_n, r1)
            np.multiply(x_n, r2, t)
            np.add(r1, t, r1)
            r1, r2 = r2, r1
            bound *= growth
            if not bound <= RESCALE_THRESHOLD:
                peak = np.abs(prod).max(axis=(0, 1))
                big = peak > RESCALE_THRESHOLD
                if big.any():
                    shifts = np.where(big, RESCALE_SHIFT, 0) + (0 if shifts is None else shifts)
                    prod *= np.where(big, factor, 1.0)
                    peak[big] *= factor
                bound = float(peak.max(initial=0.0))
    return prod, shifts


def strip_downward(a, b, zeta, m_start, n_from):
    """Resolvent stripping m_n = 1/(b_n - zeta - a_n^2 m_{n+1}), n = n_from..1,
    per energy; zeta and m_start are 1-D arrays of equal length.  Real
    energies walk the sites below the highest multiple of BLOCK a block at a
    time, with P the product of S_n = [[0, 1], [-a_n^2, b_n - zeta]] over the
    block: Re m from (P11 m + P12) / (P21 m + P22), Im m from det P =
    prod a_n^2 as det P Im m / |P21 m + P22|^2, never P11 P22 - P12 P21.
    Other energies and sites take the per-site map."""
    zeta, m = _energy_arrays(zeta, m_start)
    real = zeta.imag == 0
    top = n_from - n_from % BLOCK if real.any() else 0
    _strip_sites(a, b, zeta, m, n_from, top)
    if top:
        if not real.all():
            m[~real] = _strip_sites(a, b, zeta[~real], m[~real], top, 0)
        m[real] = _strip_blocks(a, b, zeta.real[real], m[real], top)
    return m


def _strip_sites(a, b, zeta, m, n_from, stop):
    """The per-site map in place on m, for n = n_from .. stop+1."""
    a2 = (a[stop : n_from + 1] * a[stop : n_from + 1]).astype(np.complex128)
    b_c = b[stop : n_from + 1].astype(np.complex128)
    one, t = np.ones((), dtype=np.complex128), np.empty_like(m)
    for n in range(n_from - stop, 0, -1):
        np.subtract(b_c[n, ...], zeta, t)
        t -= np.multiply(a2[n, ...], m, m)
        np.divide(one, t, m)
    return m


def _strip_blocks(a, b, energy, m, top):
    """The block walk in place on m, sites top .. 1; prod a_n of a block is a
    frexp mantissa and exponent (less the guard's shifts), so it cannot overflow."""
    growth = max(1.0, (_peak(a[1 : top + 1]) ** 2 + _peak(b[1 : top + 1]) + _peak(energy)) * (1 + 1e-9))
    per = max(1, GROUP // energy.shape[0])
    for k1 in range(top // BLOCK, 0, -per):
        k0 = max(k1 - per, 0)
        sites = slice(k0 * BLOCK + 1, k1 * BLOCK + 1)
        a_k = a[sites]
        prod, shifts = _block_products((None, -(a_k * a_k), b[sites]), energy, growth)
        # a product of BLOCK mantissas in [1/2, 1) is a normal double
        mant, expo = np.frexp(a_k.reshape(-1, BLOCK))
        mant, expo = mant.prod(axis=1), expo.sum(axis=1)
        if shifts is not None:
            expo = expo[:, None] - shifts
        for k in range(k1 - k0 - 1, -1, -1):
            p = prod[:, :, k]
            num, den = p[0, 0] * m + p[0, 1], p[1, 0] * m + p[1, 1]
            rho = np.ldexp(mant[k] / np.abs(den), expo[k])
            im = rho * rho * m.imag
            np.divide(num, den, m)
            m.imag = im
        # free this group's products before the next group's exist
        del prod, shifts
    return m
