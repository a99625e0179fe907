"""Jost solutions of truncated operators, the boundary Green's function,
the absolutely-continuous density formula (its terms, its value, and its
logarithm formed in log space, finite where the density underflows), and the
block product representation of the boundary pair (u_1, u_0), evaluated for a
whole grid of energies in one walk over the blocks (product_forms).

Every function of energies takes a 1-D sequence of points (a scalar counts
as one) and returns arrays over them, from one transfer.floquet call and one
backward recursion over all points.  jost_solution is the one single-energy
function: it keeps every row of the solution, from the per-site recursion.

Truncations N < N' have the same coefficients below site (N-1)q, so a
ladder of truncations is one walk on one schedule, _ladder: each shallower N
runs only its own top steps, then joins the deepest N's walk as a row.  It
drives the backward recursion (joined at the highest block boundary of
its kernel at or below site (N-1)q) behind density_terms and
measures.entropy_integrals, and the product walk (joined at block N-3, in
chunks of CHUNK blocks counted from the top and from each join point) behind
product_forms and certify.check_harmonic_hypotheses.  The one-N functions
are the one-rung case; every N gets its own walk's bits.  The
product walk's steps take no division: it is folded into coefficients
formed once per chunk.  The certificate's walk forms no log prefactor and
no kappa, as it reads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, transfer
from .coefficients import truncate
from .errors import (
    BandEdgeError,
    EigenvectorDegeneracyError,
    ZeroJostError,
)
from .transfer import DEAD_ALPHA, EDGE_TOL, SINGULAR_U, floquet, floquet_error

__all__ = [
    "JostSolution",
    "ProductForm",
    "jost_solution",
    "recursion_residuals",
    "green_11",
    "ac_density",
    "wronskian_defect",
    "product_forms",
    "reconstruct_boundary_pair",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class JostSolution:
    """Decaying solution of the truncated eigenvalue recursion.

    u holds u_0 .. u_{Nq+1} scaled by 2**(-scale_log2); the boundary pair is
    (u_{Nq+1}, u_{Nq}) = (z - D, C) and the tail continues implicitly as
    u_{n+q} = z u_n.  scale_log2 is zero unless the overflow guard fired.
    """

    N: int
    zeta: complex
    u: np.ndarray
    z: complex
    scale_log2: int = 0

    @property
    def u0(self):
        return complex(self.u[0])

    @property
    def u1(self):
        return complex(self.u[1])


def _boundary_pairs(block, zetas, interior=False):
    """The backward recursion's boundary pair at every point of a 1-D
    sequence, from one floquet call: (z, z - D, C), the index of the first
    point that fails and its error (the number of points and None if none
    does).  A point fails outside a band interior if `interior` (a NaN
    energy included), then on a Floquet fault, then where C = 0."""
    delta, z, c, d, fault = floquet(block, zetas)
    outside = interior & ~(np.abs(delta) < 2.0 - EDGE_TOL)
    bad = np.flatnonzero(outside | (fault != 0) | (c == 0))
    if not bad.size:
        return z, z - d, c, len(z), None
    i = int(bad[0])
    zeta = complex(zetas[i])
    if outside[i]:
        error = BandEdgeError(f"E = {zeta.real} is not in a band interior")
    elif fault[i]:
        error = floquet_error(int(fault[i]), zeta)
    else:
        error = EigenvectorDegeneracyError(f"C(zeta) = 0 at zeta = {zeta.real if zeta.imag == 0 else zeta}")
    return z, z - d, c, i, error


def jost_solution(model, N, zeta) -> JostSolution:
    """Backward recursion from the eigenvector boundary condition at one
    point, keeping every row of the solution.

    The model is truncated at N; the boundary pair at sites (Nq+1, Nq) is
    the background Floquet eigenvector (z - D, C), and the three-term
    recursion runs one site at a time down to site 0, with no block walk.
    """
    work = truncate(model, N)
    z, x, y, _, error = _boundary_pairs(work.block, [zeta])
    if error is not None:
        raise error
    a, b = work.coefficient_arrays(N * work.block.q)
    rows = np.empty((a.shape[0] + 1, 1), dtype=np.complex128)
    _, _, scales = _kernels.jost_backward(a, b, complex(zeta), x, y, rows=rows)
    return JostSolution(N=N, zeta=complex(zeta), u=rows.ravel(), z=complex(z[0]), scale_log2=int(scales[0]))


def recursion_residuals(model, sol) -> np.ndarray:
    """Relative residual of the three-term recursion at each interior site."""
    work = truncate(model, sol.N)
    q = work.block.q
    a, b = work.coefficient_arrays(sol.N * q)
    u = sol.u
    n = np.arange(1, sol.N * q + 1)
    res = a[n] * u[n + 1] + (b[n] - sol.zeta) * u[n] + a[n - 1] * u[n - 1]
    scale = np.maximum.reduce([np.abs(u[n - 1]), np.abs(u[n]), np.abs(u[n + 1])])
    return np.abs(res) / np.where(scale > 0, scale, 1.0)


def _ladder(Ns, walk, join_at, floor):
    """walk(N).result(row) for each N of a sequence Ns, in its order with
    duplicates kept, from one walk down to `floor`.

    A walker stands at `hi`: walk(N) at the top of truncation N, with one
    row; descend(lo) takes it down to lo, and join(other) carries the rows
    of a walker at the same point.  Truncations N < N' agree below
    join_at(N): every shallower N descends on its own arrays to join_at(N),
    and the deepest N walks from its top and takes each one in there as a
    row.  A rung that reaches the floor on its own ends there.
    """
    if not Ns:
        return []
    deep, *shallow = sorted(set(Ns), reverse=True)
    rungs = {N: walk(N) for N in shallow}
    for N, own in rungs.items():
        own.descend(max(join_at(N), floor))
    main, rows = walk(deep), [deep]
    for N, own in rungs.items():
        if own.hi > floor:
            main.descend(own.hi)
            main.join(own)
            rows.append(N)
    main.descend(floor)
    results = {N: own.result(0) for N, own in rungs.items() if own.hi == floor}
    results.update((N, main.result(row)) for row, N in enumerate(rows))
    return [results[N] for N in Ns]


class _Recursion:
    """The backward recursion on a truncated model's sites 0 .. Nq from the
    boundary pair (tops, seconds) = (u_{Nq+1}, u_{Nq}).  It stands at site
    `hi` with the pair (u_hi, u_{hi-1}) of every column, one block of columns
    per rung, and adds up each column's scale_log2 over its segments; a
    jost_backward run split at a block boundary continues bit for bit."""

    def __init__(self, work, zetas, tops, seconds):
        self.a, self.b = work.coefficient_arrays(work.trunc * work.block.q)
        self.hi, self.n = len(self.a), len(zetas)
        self.zetas, self.upper, self.lower = zetas, tops, seconds
        self.scale = np.zeros(self.n, dtype=np.int64)

    def descend(self, lo):
        """Steps hi-1 .. lo over every column; then it stands at site lo."""
        sites = slice(lo - 1, self.hi)
        u_lo, u_hi, scale = _kernels.jost_backward(self.a[sites], self.b[sites], self.zetas, self.upper, self.lower)
        self.upper, self.lower, self.scale, self.hi = u_hi, u_lo, self.scale + scale, lo

    def join(self, other):
        """Carry the columns of `other`, which stands at the same site, from here on."""
        for name in ("zetas", "upper", "lower", "scale"):
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)]))

    def result(self, row):
        """(u_0, u_1, scale_log2) of a row's columns, standing at site 1."""
        cols = slice(row * self.n, (row + 1) * self.n)
        return self.lower[cols], self.upper[cols], self.scale[cols]


def _recursion_ladder(model, Ns, zetas, tops, seconds):
    """(u_0, u_1, scale_log2) of the backward recursion from the boundary pair
    (tops, seconds) at every point, for each N of a sequence Ns, in its
    order, from one ladder: a shallower N joins at the highest block
    boundary k = 1 (mod BLOCK) with k <= (N-1)q, below which the
    truncations' coefficients agree."""
    q, block = model.block.q, _kernels.BLOCK
    walk = lambda N: _Recursion(truncate(model, N), zetas, tops, seconds)
    return _ladder(Ns, walk, lambda N: ((N - 1) * q - 1) // block * block + 1, 1)


def _boundary_values(model, Ns, zetas, interior=False):
    """(z, C, rungs) at every point of a 1-D sequence, where rungs holds
    (u_0, u_1, scale_log2) for each N of a sequence Ns, from one floquet
    call and one recursion ladder over the points.

    Every N is validated first.  Then raises the error of the first failing
    N in order, and within it of the first failing point: a failure of
    _boundary_pairs, which is the same for every N, or u_0 = 0.  The
    recursion runs for the points before the first that fails
    _boundary_pairs, so a u_0 = 0 at an earlier point of the first N comes
    first.
    """
    Ns = [truncate(model, N).trunc for N in Ns]
    zetas = np.atleast_1d(np.asarray(zetas, dtype=np.complex128))
    z, x, c, stop, error = _boundary_pairs(model.block, zetas, interior)
    rungs = []
    if stop or error is None:  # the recursion runs unless the first point fails
        rungs = _recursion_ladder(model, Ns, zetas[:stop], x[:stop], c[:stop])
        for u0, _, _ in rungs:
            zero = np.flatnonzero(u0 == 0)
            if zero.size:
                zeta = complex(zetas[zero[0]])
                raise ZeroJostError(f"u_0 = 0 at zeta = {zeta.real if zeta.imag == 0 else zeta}")
            if error is not None:
                break
    if error is not None:
        raise error
    return z, c, rungs


def green_11(model, N, zetas):
    """Boundary Green's value -u_1 / (a°_0 u_0) of the truncated operator at
    every point of a 1-D sequence, from one recursion over all of them."""
    _, _, [(u0, u1, _)] = _boundary_values(model, [N], zetas)
    return -u1 / (model.block.a(0) * u0)


def _density_ladder(model, Ns, energies):
    """density_terms for each N of a sequence Ns, in its order, from one
    recursion ladder; raises as _boundary_values, an energy outside a band
    interior first."""
    energies = np.asarray(energies, dtype=np.float64)
    z, c, rungs = _boundary_values(model, Ns, energies, interior=True)
    num = np.abs(c.real * z.imag)
    return [(num, np.hypot(u0.real, u0.imag), scales) for u0, _, scales in rungs]


def density_terms(model, N, energies):
    """The terms of the key formula at real band-interior energies, as
    arrays over a 1-D sequence: |C Im z|, |u_0| and the recursion's rescale
    exponent scale_log2 (the true |u_0| is |u_0| * 2**scale_log2).  Raises
    the error of the first failing energy in order, as _boundary_values, an
    energy outside a band interior first.  The one-rung case of the
    recursion ladder."""
    return _density_ladder(model, [N], energies)[0]


def log_density(a0, num, abs_u0, scale_log2):
    """ln of the density |C Im z| / (pi |a°_0| |u_0|^2) from density_terms,
    formed in log space, so it stays finite where the density underflows."""
    return np.log(num) - math.log(math.pi * abs(a0)) - 2.0 * (np.log(abs_u0) + scale_log2 * LN2)


def density_values(a0, num, abs_u0, scale_log2):
    """The density from density_terms: the direct quotient where the
    recursion did not rescale and |u_0|^2 is finite, exp(log_density)
    elsewhere.  np.hypot and np.float_power call the C library's hypot and
    pow, the functions behind Python's abs(complex) and float **, so the
    quotient is the same number when formed from Python scalars."""
    with np.errstate(over="ignore"):
        denom = math.pi * abs(a0) * np.float_power(abs_u0, 2.0)
        direct = (scale_log2 == 0) & np.isfinite(denom)
        return np.where(direct, num / denom, np.exp(log_density(a0, num, abs_u0, scale_log2)))


def ac_density(model, N, energies):
    """Absolutely-continuous spectral density of the truncated operator at
    every real band-interior energy of a 1-D sequence:
    |C Im z| / (pi |a°_0| |u_0|^2)."""
    return density_values(model.block.a(0), *density_terms(model, N, energies))


def _wronskian_terms(model, N, energies):
    """Defect |Im(u_0 conj(u_1)) + C Im z| of the boundary identity and its
    scale |u_0||u_1| + |C| at every real energy of a 1-D sequence, from one
    _boundary_values call."""
    z, c, [(u0, u1, scale_log2)] = _boundary_values(model, [N], np.asarray(energies, dtype=np.float64))
    # Im(u_0 conj(u_1)) term by term, as Python's complex product forms it
    cross = np.ldexp(u0.imag * u1.real - u0.real * u1.imag, 2 * scale_log2)
    scale = np.ldexp(np.abs(u0) * np.abs(u1), 2 * scale_log2) + np.abs(c)
    return np.abs(cross + c.real * z.imag), scale


def wronskian_defect(model, N, energies):
    """Residual of the boundary identity Im(u_0 conj(u_1)) = -C Im z at
    every real energy of a 1-D sequence."""
    return _wronskian_terms(model, N, energies)[0]


@dataclass(frozen=True, eq=False)
class ProductForm:
    """Boundary pair factored through the block eigenbases.

    log_prefactor is the logarithm of prod lambda_j (1 + alpha_j) over the
    interior connection steps, the sum of
    ln|lambda_j| + ln|1 + alpha_j| + i (arg lambda_j + arg(1 + alpha_j)),
    so its imaginary part is the unwrapped sum of the arguments.
    (exp(log_prefactor), phi_N, nu_N) reconstruct (u_1, u_0) through
    M_0^{-1} U_0^{-1} L_0.  kappa is the observed eigenvalue-modulus floor.
    The certificates read only phi_N, nu_N, lambda0 and c0, and their walk
    leaves log_prefactor and kappa None.  Every other field but a0 is an
    array over the points of product_forms, u_inv0 of shape (2, 2, points).
    """

    phi_N: np.ndarray
    nu_N: np.ndarray
    kappa: np.ndarray
    log_prefactor: np.ndarray
    lambda0: np.ndarray
    a0: float
    u_inv0: np.ndarray = field(repr=False)

    @property
    def c0(self):
        """Corner entry C_0 of the first block (lower row of U_0^{-1} is a_0 C_0)."""
        return self.u_inv0[1, 0] / self.a0


# Blocks per chunk of the product walk; working memory is O(CHUNK x points).
CHUNK = 8


class _Walk:
    """A downward product walk over a truncated model's blocks N-1 .. 0.

    It stands at block `hi` and keeps that block's (lam, u).  It carries one
    state row per truncation (rung): the normalized pair (v0, v1), the log
    prefactor and the modulus floor kappa (None without `prefactor`), and the
    (code, index) of the row's lowest chain fault and highest walk fault.
    Each step is three products and two sums over all rows and points, from
    the chunk's folded coefficients (product_forms) broadcast over the rungs.
    """

    def __init__(self, work, points, prefactor=True):
        self.q, self.points, self.hi, self.a0 = work.block.q, points, work.trunc - 1, float(work.a(0))
        self.a, self.b = work.coefficient_arrays(work.trunc * self.q)
        shape = (1, len(points))
        self.chain = (np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))
        self.walk = (np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))
        self.lam, self.u = self._blocks(self.hi, 1)
        self.v0 = np.ones(shape, dtype=np.complex128)
        self.v1 = np.zeros(shape, dtype=np.complex128)
        self.kappa = self.logpref = None
        if prefactor:
            self.kappa = np.abs(self.lam)
            self.logpref = np.zeros(shape, dtype=np.complex128)

    def _blocks(self, lo, count):
        lam, u, faults = transfer.chain_blocks(self.a, self.b, self.points, self.q, lo, count)
        if faults.any():
            code, first = transfer._lowest_fault(faults)
            # the walk descends, so the last block recorded is the lowest
            hit = code != 0
            self.chain = (np.where(hit, code, self.chain[0]), np.where(hit, lo + first, self.chain[1]))
        return lam, u

    def descend(self, lo):
        """Steps n = hi .. lo+1, CHUNK blocks at a time from hi down; then
        the walk stands at block lo."""
        while self.hi > lo:
            self._chunk(max(self.hi - CHUNK, lo))

    def _chunk(self, lo):
        """Steps n = hi .. lo+1 (row n - lo - 1) from blocks lo .. hi-1 and
        the kept block hi.  A method, so that a chunk's arrays are freed
        before the next chunk's exist."""
        hi = self.hi
        lam_c, u_c = self._blocks(lo, hi - lo)
        if self.kappa is not None:
            self.kappa = np.minimum(self.kappa, np.abs(lam_c).min(axis=0))
        lam = np.concatenate([lam_c[1:], self.lam])
        c11, c12, c21 = (np.concatenate([x[1:], y]) for x, y in zip(u_c[:3], self.u))
        (w11, w12, w21, w22), singular = transfer.connection_entries(u_c, (c11, c12, c21, c21))
        one_alpha = 1.0 + w11
        dead = one_alpha == 0
        if singular.any() or dead.any():
            code, top = transfer._lowest_fault(np.select([singular, dead], [SINGULAR_U, DEAD_ALPHA], 0)[::-1])
            fresh = (code != 0) & (self.walk[0] == 0)
            index = hi - top - (code == SINGULAR_U)
            self.walk = (np.where(fresh, code, self.walk[0]), np.where(fresh, index, self.walk[1]))
        # the step matrix [[1, A_n], [B_n, C_n]] of product_forms, for every block at once
        r = 1.0 / (lam * lam * one_alpha)
        v0, v1 = self.v0, self.v1
        for a_n, b_n, c_n in reversed(list(zip(w12 * r, w21 / one_alpha, (1.0 + w22) * r))):
            v0, v1 = v0 + a_n * v1, b_n * v0 + c_n * v1
        self.v0, self.v1 = v0, v1
        if self.logpref is not None:
            inc = np.log(np.abs(lam)) + np.log(np.abs(one_alpha)) + 1j * (np.angle(lam) + np.angle(one_alpha))
            for inc_n in inc[::-1]:
                self.logpref = self.logpref + inc_n
        self.hi, self.lam, self.u = lo, lam_c[:1].copy(), tuple(x[:1].copy() for x in u_c)

    def join(self, other):
        """Carry the rows of `other`, which stands at the same block, from here on."""
        for name in ("v0", "v1", "logpref", "kappa"):
            if getattr(self, name) is not None:
                setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)]))
        self.chain = tuple(np.concatenate(x) for x in zip(self.chain, other.chain))
        self.walk = tuple(np.concatenate(x) for x in zip(self.walk, other.walk))

    def result(self, row):
        """(ProductForm, error) of a row: the error of its first failing point, or None."""
        form = ProductForm(
            phi_N=self.v0[row],
            nu_N=self.v1[row],
            kappa=None if self.kappa is None else self.kappa[row],
            log_prefactor=None if self.logpref is None else self.logpref[row],
            lambda0=self.lam[0],
            a0=self.a0,
            u_inv0=np.array(self.u).reshape(2, 2, -1),
        )
        faults = ((self.chain[0][row], self.chain[1][row]), (self.walk[0][row], self.walk[1][row]))
        return form, transfer._first_fault_error(self.points, *faults)


def _product_ladder(model, Ns, points, prefactor=True):
    """(ProductForm, error) for each N of a sequence Ns, in its order, at every
    point of a 1-D sequence (a scalar counts as one), from one walk; error is
    what product_forms(model, N, points) raises, or None.  Without
    `prefactor` the walk skips the logarithms, angles and moduli behind
    log_prefactor and kappa, which it leaves None; the other fields and the
    errors keep their bits.

    A shallower N joins at block N-3: blocks 0 .. N-3 are the same for all
    truncations, block N-2 reads a[(N-1)q], background at N only.  An
    N <= 3 has no shared step and keeps its own block 0.
    """
    Ns = [truncate(model, N).trunc for N in Ns]
    points = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return _ladder(Ns, lambda N: _Walk(truncate(model, N), points, prefactor), lambda N: N - 3, 0)


def product_forms(model, N, points) -> ProductForm:
    """The product representation at every point of a 1-D sequence, in one walk.

    Evaluates the connection-matrix recursion Psi <- (I + W_n) Lambda_n Psi
    from block N-1 down to block 1, with lambda_n (1 + alpha_n) divided out
    of each step so the normalized pair (phi_N, nu_N) and the log-space
    prefactor come out separately.  The walk takes CHUNK blocks at a time,
    counted from the top: per chunk one chain_blocks and one
    connection_entries call and, as arrays, the logarithms and the step
    coefficients A_n = w12 r, B_n = w21 / (1 + alpha_n) and C_n = (1 + w22) r
    with r = 1 / (lambda_n^2 (1 + alpha_n)); then per block, in descending
    n, phi <- phi + A_n nu, nu <- B_n phi + C_n nu (both from the old phi)
    over all points: three products and two sums, no division.  At W_n = 0
    (identical eigenbases) A_n = B_n = 0, so phi is kept exactly.  Each step adds
    ln|lambda_n| + ln|1 + alpha_n| + i (arg lambda_n + arg(1 + alpha_n)) to
    log_prefactor, with no complex logarithm.  This is the one-rung case of
    the ladder walk.

    Raises the error of the first failing point in order: a block without a
    usable eigenbasis (lowest block) before a singular U_{n-1} or
    1 + alpha_n = 0 (highest n, and U_{n-1} before alpha_n, which is formed
    from its inverse).
    """
    form, error = _product_ladder(model, [N], points)[0]
    if error is not None:
        raise error
    return form


def reconstruct_boundary_pair(form):
    """(u_1, u_0) from a ProductForm, elementwise over its points:
    exp(log_prefactor) * M_0^{-1} U_0^{-1} L_0 (phi, nu)."""
    w0 = form.lambda0 * form.phi_N
    w1 = form.nu_N / form.lambda0
    u = form.u_inv0
    prefactor = np.exp(form.log_prefactor)
    return prefactor * (u[0, 0] * w0 + u[0, 1] * w1), prefactor * ((u[1, 0] * w0 + u[1, 1] * w1) / form.a0)
