"""Jost solutions of truncated operators, the boundary Green's function,
the absolutely-continuous density formula (its terms, its value, and its
logarithm formed in log space, finite where the density underflows), and the
block product representation of the boundary pair (u_1, u_0), evaluated for a
whole grid of energies in one walk over the blocks (product_forms).

Every function of energies takes a 1-D sequence of points (a scalar counts
as one) and returns arrays over them, from one transfer.floquet call and one
backward recursion over all points.  jost_solution is the one single-energy
function: it keeps every row of the solution.
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
from .transfer import DEAD_ALPHA, SINGULAR_U, floquet, floquet_error

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
    does).  A point fails outside a band interior if `interior`, then on a
    Floquet fault, then where C = 0."""
    delta, z, c, d, fault = floquet(block, zetas)
    outside = interior & (np.abs(delta) >= 2.0 - 1e-12)
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

    The model is truncated at N internally; the boundary pair at sites
    (Nq+1, Nq) is the background Floquet eigenvector (z - D, C), and the
    three-term recursion is solved down to site 0.
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


def _boundary_values(model, N, zetas, interior=False):
    """(z, C, u_0, u_1, scale_log2) at every point of a 1-D sequence, from
    one floquet call and one recursion over the points.

    Raises the error of the first failing point in order: a failure of
    _boundary_pairs, or u_0 = 0.  The recursion runs for the points before
    the first that fails _boundary_pairs, so a u_0 = 0 at an earlier point
    comes first.
    """
    work = truncate(model, N)
    zetas = np.atleast_1d(np.asarray(zetas, dtype=np.complex128))
    z, x, c, stop, error = _boundary_pairs(work.block, zetas, interior)
    if stop or error is None:  # the recursion runs unless the first point fails
        a, b = work.coefficient_arrays(N * work.block.q)
        u0, u1, scales = _kernels.jost_backward(a, b, zetas[:stop], x[:stop], c[:stop])
        zero = np.flatnonzero(u0 == 0)
        if zero.size:
            zeta = complex(zetas[zero[0]])
            raise ZeroJostError(f"u_0 = 0 at zeta = {zeta.real if zeta.imag == 0 else zeta}")
    if error is not None:
        raise error
    return z, c, u0, u1, scales


def green_11(model, N, zetas):
    """Boundary Green's value -u_1 / (a°_0 u_0) of the truncated operator at
    every point of a 1-D sequence, from one recursion over all of them."""
    _, _, u0, u1, _ = _boundary_values(model, N, zetas)
    return -u1 / (model.block.a(0) * u0)


def density_terms(model, N, energies):
    """The terms of the key formula at real band-interior energies, as
    arrays over a 1-D sequence: |C Im z|, |u_0| and the recursion's rescale
    exponent scale_log2 (the true |u_0| is |u_0| * 2**scale_log2).  Raises
    the error of the first failing energy in order, as _boundary_values, an
    energy outside a band interior first."""
    energies = np.asarray(energies, dtype=np.float64)
    z, c, u0, _, scales = _boundary_values(model, N, energies, interior=True)
    return np.abs(c.real * z.imag), np.hypot(u0.real, u0.imag), scales


def log_density(a0, num, abs_u0, scale_log2):
    """ln of the density |C Im z| / (pi |a°_0| |u_0|^2) from density_terms,
    formed in log space, so it stays finite where the density underflows."""
    return np.log(num) - math.log(math.pi * abs(a0)) - 2.0 * (np.log(abs_u0) + scale_log2 * LN2)


def density_values(a0, num, abs_u0, scale_log2):
    """The density from density_terms: the direct quotient where the
    recursion did not rescale and |u_0|^2 is finite, exp(log_density)
    elsewhere.  np.hypot and np.float_power call the C library's hypot and
    pow, as Python's abs(complex) and float ** do, so the quotient equals the
    scalar formula's bit for bit."""
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
    z, c, u0, u1, scale_log2 = _boundary_values(model, N, np.asarray(energies, dtype=np.float64))
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
    The certificates read only phi_N, nu_N, lambda0 and c0.  Every field
    but a0 is an array over the points of product_forms, u_inv0 of shape
    (2, 2, points).
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


# Blocks per chunk of product_forms' walk; working memory is O(CHUNK x points).
CHUNK = 8


def product_forms(model, N, points) -> ProductForm:
    """The product representation at every point of a 1-D sequence, in one walk.

    Evaluates the connection-matrix recursion Psi <- (I + W_n) Lambda_n Psi
    from block N-1 down to block 1, dividing out lambda_n (1 + alpha_n) at
    each step so the normalized pair (phi_N, nu_N) and the log-space
    prefactor come out separately.  The walk takes CHUNK blocks at a time,
    top chunk first: one chain_blocks and one connection_entries call and
    the logarithms and masks as arrays per chunk, then one NumPy step over
    all points per block, in descending n.  Each step adds
    ln|lambda_n| + ln|1 + alpha_n| + i (arg lambda_n + arg(1 + alpha_n)) to
    log_prefactor, with no complex logarithm.  A step with W_n = 0
    (identical eigenbases) has 1 + alpha_n = 1 exactly and only rescales nu
    by lambda_n^{-2}.

    Raises the error of the first failing point in order: a block without a
    usable eigenbasis (lowest block) before a singular U_{n-1} or
    1 + alpha_n = 0 (highest n, and U_{n-1} before alpha_n, which is formed
    from its inverse).
    """
    work = truncate(model, N)
    q = work.block.q
    a, b = work.coefficient_arrays(N * q)
    shape = (len(points),)
    # (code, index) per point: lowest faulty block, highest faulty step
    chain = (np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))
    walk = (np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))

    def blocks(lo, count):
        lam, u, faults = transfer.chain_blocks(a, b, points, q, lo, count)
        if faults.any():
            code, first = transfer._lowest_fault(faults)
            # the walk descends, so the last block recorded is the lowest
            hit = code != 0
            chain[0][hit], chain[1][hit] = code[hit], lo + first[hit]
        return lam, u

    def chunk(lo, hi, lam, u):
        # Steps n = hi .. lo+1 (row n - lo - 1) from blocks lo .. hi-1 and the
        # kept block hi = (lam, u); returns block lo.  A function, so that a
        # chunk's arrays are freed before the next chunk's exist.
        nonlocal kappa, v0, v1, logpref
        lam_c, u_c = blocks(lo, hi - lo)
        kappa = np.minimum(kappa, np.abs(lam_c).min(axis=0))
        lam = np.concatenate([lam_c[1:], lam])
        (w11, w12, w21, w22), singular = transfer.connection_entries(
            u_c, tuple(np.concatenate([x[1:], y]) for x, y in zip(u_c, u))
        )
        one_alpha = 1.0 + w11
        diagonal = (w11 == 0) & (w12 == 0) & (w21 == 0) & (w22 == 0)
        dead = one_alpha == 0
        if singular.any() or dead.any():
            code, top = transfer._lowest_fault(np.select([singular, dead], [SINGULAR_U, DEAD_ALPHA], 0)[::-1])
            fresh = (code != 0) & (walk[0] == 0)
            walk[0][fresh], walk[1][fresh] = code[fresh], (hi - top - (code == SINGULAR_U))[fresh]
        inc = np.log(np.abs(lam)) + np.log(np.abs(one_alpha)) + 1j * (np.angle(lam) + np.angle(one_alpha))
        rows = zip(lam, one_alpha, w12, w21, 1.0 + w22, lam * one_alpha, lam * lam, diagonal, inc)
        for lam_n, oa, w12_n, w21_n, ow22, denom, lam2, diag, inc_n in reversed(list(rows)):
            t0 = lam_n * v0
            t1 = v1 / lam_n
            v0 = np.where(diag, v0, (oa * t0 + w12_n * t1) / denom)
            v1 = np.where(diag, v1 / lam2, (w21_n * t0 + ow22 * t1) / denom)
            logpref = logpref + inc_n
        return lam_c[:1].copy(), tuple(x[:1].copy() for x in u_c)

    lam, u = blocks(N - 1, 1)
    kappa = np.abs(lam[0])
    v0 = np.ones(shape, dtype=np.complex128)
    v1 = np.zeros(shape, dtype=np.complex128)
    logpref = np.zeros(shape, dtype=np.complex128)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for hi in range(N - 1, 0, -CHUNK):
            lam, u = chunk(max(hi - CHUNK, 0), hi, lam, u)
    transfer._raise_first_fault(points, chain, walk)
    return ProductForm(
        phi_N=v0,
        nu_N=v1,
        kappa=kappa,
        log_prefactor=logpref,
        lambda0=lam[0],
        a0=float(work.a(0)),
        u_inv0=np.array(u).reshape(2, 2, -1),
    )


def reconstruct_boundary_pair(form):
    """(u_1, u_0) from a ProductForm, elementwise over its points:
    exp(log_prefactor) * M_0^{-1} U_0^{-1} L_0 (phi, nu)."""
    w0 = form.lambda0 * form.phi_N
    w1 = form.nu_N / form.lambda0
    u = form.u_inv0
    prefactor = np.exp(form.log_prefactor)
    return prefactor * (u[0, 0] * w0 + u[0, 1] * w1), prefactor * ((u[1, 0] * w0 + u[1, 1] * w1) / form.a0)
