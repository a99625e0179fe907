"""Jost solutions of truncated operators, the boundary Green's function,
the absolutely-continuous density formula (its terms, its value, and its
logarithm formed in log space, finite where the density underflows), and the
block product representation of the boundary pair (u_1, u_0), evaluated for a
whole grid of energies in one walk over the blocks (product_forms).

Every function of energies takes a 1-D sequence of points (a scalar counts
as one, and more dimensions raise ValidationError) and returns arrays over
them, from one transfer.floquet call and one backward recursion over all
points.  jost_solution is the one single-energy function: it keeps every
row of the solution, from the per-site recursion.

Truncations N < N' have the same coefficients below site (N-1)q, so a
ladder of truncations is one walk on one schedule, _ladder: each shallower N
runs only its own top steps, then joins the deepest N's walk as a row.  It
drives the backward recursion (joined at the highest block boundary of its
kernel at or below site (N-1)q, inside the deepest N's one kernel call; its
rows are boundary pairs over the same energies, so the call forms each
block's product once per energy) behind density_terms and
measures.entropy_integrals, and the product walk (joined at block N-3, in
chunks of CHUNK blocks counted from the top and from each join point)
behind product_forms and certify.check_harmonic_hypotheses.
The one-N functions are the one-rung case; every N gets its own walk's
bits.  The product walk's steps take no division: it is folded into
coefficients formed once per chunk from the numerators e = det (I + W_n) of
transfer.connection_entries, two divisions per block and point, with no W.
The certificate's walk forms no log prefactor and no kappa, as it reads
neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, transfer
from .coefficients import point_array, truncate
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
    a, b = work.coefficient_arrays(work.trunc * work.block.q)
    rows = np.empty((a.shape[0] + 1, 1), dtype=np.complex128)
    _, _, scales = _kernels.jost_backward(a, b, complex(zeta), x, y, rows=rows)
    return JostSolution(N=work.trunc, zeta=complex(zeta), u=rows.ravel(), z=complex(z[0]), scale_log2=int(scales[0]))


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
    row; descend(lo) takes it down to lo, and join(own) takes the rows of a
    walker `own` that stands at or below it, where own stands, after its own
    rows.  Truncations N < N' agree below join_at(N): every shallower N
    descends on its own arrays to join_at(N), and the deepest N, from its
    top, joins each of them in turn.  A rung that reaches the floor on its
    own ends there.
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
            main.join(own)
            rows.append(N)
    main.descend(floor)
    results = {N: own.result(0) for N, own in rungs.items() if own.hi == floor}
    results.update((N, main.result(row)) for row, N in enumerate(rows))
    return [results[N] for N in Ns]


class _Recursion:
    """The backward recursion on a truncated model's sites 0 .. Nq from the
    boundary pair (tops, seconds) = (u_{Nq+1}, u_{Nq}).  It stands at site
    `hi` with the pair (u_hi, u_{hi-1}) at every energy, one row per rung,
    and adds up each entry's scale_log2 over its segments; a jost_backward
    run split at a block boundary continues bit for bit.  The energies are
    not a row: the rungs share them.  A joined rung waits for the next
    descent, whose one kernel call takes it in at its site, so that call
    forms each block's product once per energy for all rungs."""

    def __init__(self, work, zetas, tops, seconds):
        self.a, self.b = work.coefficient_arrays(work.trunc * work.block.q)
        self.hi, self.zetas = len(self.a), zetas
        self.upper, self.lower = tops[None], seconds[None]
        self.scale = np.zeros(self.upper.shape, dtype=np.int64)
        self.joins = []

    def join(self, own):
        """Takes own's rows, at own's site, in the next descent."""
        self.joins.append(own)

    def descend(self, lo):
        """Steps hi-1 .. lo over every row; then it stands at site lo."""
        sites = slice(lo - 1, self.hi)
        joins = [(own.hi - lo + 1, own.upper, own.lower) for own in self.joins]
        u_lo, u_hi, scale = _kernels.jost_backward(
            self.a[sites], self.b[sites], self.zetas, self.upper, self.lower, joins=joins
        )
        self.scale = np.concatenate([self.scale, *(own.scale for own in self.joins)]) + scale
        self.upper, self.lower, self.hi, self.joins = u_hi, u_lo, lo, []

    def result(self, row):
        """(u_0, u_1, scale_log2) of a row, standing at site 1."""
        return self.lower[row], self.upper[row], self.scale[row]


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
    zetas = point_array(zetas)
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
    energies = point_array(energies, np.float64)
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
    """The density |C Im z| / (pi |a°_0| |u_0|^2) from density_terms, with
    (m, e) = frexp(|u_0|): num / (pi |a°_0| m m) times 2**(-2 (e +
    scale_log2)), one exact expression at every scale."""
    m, e = np.frexp(abs_u0)
    return np.ldexp(num / (math.pi * abs(a0) * (m * m)), -2 * (e + scale_log2))


def ac_density(model, N, energies):
    """Absolutely-continuous spectral density of the truncated operator at
    every real band-interior energy of a 1-D sequence:
    |C Im z| / (pi |a°_0| |u_0|^2)."""
    return density_values(model.block.a(0), *density_terms(model, N, energies))


def _wronskian_terms(model, N, energies):
    """Defect |Im(u_0 conj(u_1)) + C Im z| of the boundary identity and its
    scale |u_0||u_1| + |C| at every real energy of a 1-D sequence, from one
    _boundary_values call."""
    z, c, [(u0, u1, scale_log2)] = _boundary_values(model, [N], point_array(energies, np.float64))
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
    state row per truncation (rung), the arrays of ROWS: the normalized pair
    (v0, v1), the log prefactor and the modulus floor kappa (None without
    `prefactor`), and one fault record (code, index) per point, code 0 for
    none.  Each step is three products and two sums over all rows and
    points, from the chunk's folded coefficients (product_forms) broadcast
    over the rungs.
    """

    ROWS = ("v0", "v1", "logpref", "kappa", "code", "index")

    def __init__(self, work, points, prefactor=True):
        self.q, self.points, self.hi, self.a0 = work.block.q, points, work.trunc - 1, float(work.a(0))
        self.a, self.b = work.coefficient_arrays(work.trunc * self.q)
        shape = (1, len(points))
        self.code = np.zeros(shape, dtype=np.int64)
        self.index = np.zeros(shape, dtype=np.int64)
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
            # a block without an eigenbasis comes before any connection step,
            # and the walk descends, so the last block recorded is the lowest
            hit = code != 0
            self.code, self.index = np.where(hit, code, self.code), np.where(hit, lo + first, self.index)
        return lam, u

    def descend(self, lo):
        """Steps n = hi .. lo+1, CHUNK blocks at a time from hi down; then
        the walk stands at block lo."""
        while self.hi > lo:
            self._chunk(max(self.hi - CHUNK, lo))

    def join(self, own):
        """Descends to own's block and concatenates own's ROWS to its own."""
        self.descend(own.hi)
        for name in self.ROWS:
            if getattr(self, name) is not None:
                setattr(self, name, np.concatenate([getattr(self, name), getattr(own, name)]))

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
        (e11, e12, e21, e22), det, same = transfer.connection_entries(u_c, (c11, c12, c21, c21))
        # e11 = 1 where same, so only a singular U_{n-1} needs the mask
        singular, dead = ~same & (det == 0), e11 == 0
        if singular.any() or dead.any():
            code, top = transfer._lowest_fault(np.select([singular, dead], [SINGULAR_U, DEAD_ALPHA], 0)[::-1])
            # only into an empty record: the first step met is the highest n
            fresh = (code != 0) & (self.code == 0)
            index = hi - top - (code == SINGULAR_U)
            self.code, self.index = np.where(fresh, code, self.code), np.where(fresh, index, self.index)
        # the step matrix [[1, A_n], [B_n, C_n]] of product_forms, for every
        # block at once: det cancels from e, so two divisions per block and point
        r = 1.0 / (lam * (lam * e11))
        v0, v1 = self.v0, self.v1
        for a_n, b_n, c_n in reversed(list(zip(e12 * r, e21 / e11, e22 * r))):
            v0, v1 = v0 + a_n * v1, b_n * v0 + c_n * v1
        self.v0, self.v1 = v0, v1
        if self.logpref is not None:
            # 1 + alpha_n = e11 / det, and 1 exactly where same
            one_alpha = np.where(same, 1.0 + 0j, e11 / det)
            inc = np.log(np.abs(lam)) + np.log(np.abs(one_alpha)) + 1j * (np.angle(lam) + np.angle(one_alpha))
            for inc_n in inc[::-1]:
                self.logpref = self.logpref + inc_n
        self.hi, self.lam, self.u = lo, lam_c[:1].copy(), tuple(x[:1].copy() for x in u_c)

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
        return form, transfer._first_fault_error(self.points, self.code[row], self.index[row])


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
    points = point_array(points)
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
    coefficients.  These come from e = det U_{n-1} (I + W_n), where det
    cancels: A_n = e12 r, B_n = e21 / e11 and C_n = e22 r with
    r = 1 / (lambda_n^2 e11), two divisions per block and point.  Then per
    block, in descending n, phi <- phi + A_n nu, nu <- B_n phi + C_n nu (both
    from the old phi) over all points: three products and two sums, no
    division.  At W_n = 0 (identical eigenbases) e = (1, 0, 0, 1), so
    A_n = B_n = 0 and phi is kept exactly.  Each step adds
    ln|lambda_n| + ln|1 + alpha_n| + i (arg lambda_n + arg(1 + alpha_n)) to
    log_prefactor, with 1 + alpha_n = e11 / det and no complex logarithm.
    This is the one-rung case of the ladder walk.

    Raises the error of the first failing point in order: a block without a
    usable eigenbasis (lowest block) before a singular U_{n-1} or
    1 + alpha_n = 0, that is e11 = 0 (highest n, and U_{n-1} before alpha_n,
    which is formed from its inverse).
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
