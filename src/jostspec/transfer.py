"""Transfer-matrix algebra: one-step and period-block matrices, the
discriminant and its Floquet branches, and the renormalized block chain
(determinant-one blocks, their eigenbases, and the W_n connection matrices)
used by the product representation and the certificates."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    BandEdgeError,
    DegenerateBranchError,
    DiagonalizationError,
    EigenvectorDegeneracyError,
    SingularCoefficientError,
    ValidationError,
)

__all__ = [
    "Matrix2C",
    "FloquetData",
    "one_step",
    "period_block_matrix",
    "discriminant",
    "discriminant_derivative",
    "floquet_eigenvalue",
    "floquet_eigenvector",
    "renormalized_block",
    "w_matrix",
    "RenormChain",
]

# Complex-step offset for derivative signs of block traces at real energy.
CS_STEP = 1e-100
# |trace| within this of 2 counts as parabolic (no eigenbasis).
PARABOLIC_TOL = 1e-9
# |discriminant| within this of 2 at real energy counts as a band edge.
EDGE_TOL = 1e-12
# |discriminant derivative| below this blocks real-axis branch selection.
DERIV_TOL = 1e-9


@dataclass(frozen=True)
class Matrix2C:
    """2x2 complex matrix with closed-form determinant bookkeeping."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def trace(self):
        return self.m11 + self.m22

    def __matmul__(self, other):
        return Matrix2C(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def inv(self):
        d = self.det()
        if d == 0:
            raise ValidationError("matrix is singular")
        return Matrix2C(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d)

    def apply(self, vec):
        x, y = vec
        return (self.m11 * x + self.m12 * y, self.m21 * x + self.m22 * y)

    def to_array(self):
        return np.array(
            [[self.m11, self.m12], [self.m21, self.m22]], dtype=np.complex128
        )


def one_step(model, n, zeta) -> Matrix2C:
    """One-step transfer matrix mapping (psi_n, psi_{n-1}) to (psi_{n+1}, psi_n)."""
    if n < 1:
        raise ValidationError("one-step index must be >= 1")
    a_n = model.a(n)
    if a_n == 0.0:
        raise SingularCoefficientError(f"a({n}) = 0")
    a_prev = model.a(n - 1)
    b_n = model.b(n)
    return Matrix2C((zeta - b_n) / a_n, -a_prev / a_n, 1.0, 0.0)


def period_block_matrix(model, n, zeta) -> Matrix2C:
    """Product of q consecutive one-step matrices covering block n
    (sites nq+1 .. (n+1)q, later factors multiplied from the left)."""
    if n < 0:
        raise ValidationError("block index must be >= 0")
    q = model.block.q
    a, b = model.coefficient_arrays((n + 1) * q)
    lo, hi = n * q, (n + 1) * q + 1
    m = _kernels.period_products(a[lo:hi], b[lo:hi], complex(zeta), q, 1)[0]
    return Matrix2C(complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1]))


def _background_period_matrix(block, zeta):
    """Period matrix of the pure background as four complex scalars."""
    p11, p12, p21, p22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for k in range(1, block.q + 1):
        ak = block.a(k)
        t11 = (zeta - block.b(k)) / ak
        t12 = -block.a(k - 1) / ak
        p11, p12, p21, p22 = t11 * p11 + t12 * p21, t11 * p12 + t12 * p22, p11, p12
    return p11, p12, p21, p22


def discriminant(block, zeta):
    """Trace of the background period matrix; real on the real axis."""
    p11, _, _, p22 = _background_period_matrix(block, zeta)
    tr = p11 + p22
    if isinstance(zeta, complex):
        return tr
    return tr.real


def discriminant_derivative(block, energy, step=1e-6):
    """Centered finite difference with one Richardson correction."""
    d1 = (discriminant(block, energy + step) - discriminant(block, energy - step)) / (
        2 * step
    )
    d2 = (
        discriminant(block, energy + 2 * step) - discriminant(block, energy - 2 * step)
    ) / (4 * step)
    return (4 * d1 - d2) / 3


@dataclass(frozen=True)
class FloquetData:
    """Floquet eigenvalue branch data at one energy: the |z| <= 1 eigenvalue,
    its reciprocal, the discriminant, and the eigenvector (z - D, C)."""

    z: complex
    z_inv: complex
    delta: complex
    eigvec: tuple


def _split_roots(delta):
    """Both roots of r^2 - delta*r + 1 = 0, larger modulus first.

    Computed without subtractive cancellation: the big root directly, the
    small one as its exact reciprocal.
    """
    s = cmath.sqrt(delta * delta - 4.0)
    if abs(delta + s) >= abs(delta - s):
        big = (delta + s) / 2.0
    else:
        big = (delta - s) / 2.0
    return big, 1.0 / big


def _small_root_real_interior(delta, deriv_sign):
    # Boundary value of the |z|<1 branch on a band interior.
    return (delta - 1j * math.copysign(1.0, deriv_sign) * math.sqrt(4.0 - delta * delta)) / 2.0


def floquet_eigenvalue(block, zeta) -> FloquetData:
    """Floquet eigenvalue with the |z| <= 1 branch fixed.

    Off the real axis the root of smaller modulus is taken; at real energies
    the analytic boundary value of that branch is used: inside a band
    z = (delta - i sign(delta') sqrt(4 - delta^2)) / 2, outside the smaller
    real root.
    """
    z = complex(zeta)
    if z.imag != 0.0:
        delta = discriminant(block, z)
        big, small = _split_roots(delta)
        if abs(big) - 1.0 < 1e-13:
            raise DegenerateBranchError(
                f"eigenvalue moduli coincide at zeta = {zeta}"
            )
        zval, zinv = small, big
        dval = delta
    else:
        energy = z.real
        delta = float(discriminant(block, energy))
        if abs(abs(delta) - 2.0) < EDGE_TOL:
            raise BandEdgeError(f"|discriminant| = 2 at E = {energy}")
        if abs(delta) < 2.0:
            dd = discriminant_derivative(block, energy)
            if abs(dd) < DERIV_TOL:
                raise DegenerateBranchError(
                    f"discriminant derivative vanishes at E = {energy}"
                )
            zval = _small_root_real_interior(delta, dd)
            zinv = 1.0 / zval
        else:
            big, small = _split_roots(complex(delta))
            zval, zinv = small, big
        dval = delta
    _, _, p21, p22 = _background_period_matrix(block, complex(zeta))
    return FloquetData(z=zval, z_inv=zinv, delta=dval, eigvec=(zval - p22, p21))


def floquet_eigenvector(block, zeta):
    """Eigenvector (z - D, C) of the background period matrix at zeta."""
    data = floquet_eigenvalue(block, zeta)
    x, y = data.eigvec
    if y == 0:
        raise EigenvectorDegeneracyError(f"C(zeta) = 0 at zeta = {zeta}")
    return (x, y)


def renormalized_block(model, n, zeta) -> Matrix2C:
    """Determinant-one conjugation of block n by the boundary weights
    diag(1, a_nq): entries [[A, a_(n+1)q B], [C/a_nq, (a_(n+1)q/a_nq) D]]."""
    p = period_block_matrix(model, n, zeta)
    q = model.block.q
    a, _ = model.coefficient_arrays((n + 1) * q)
    a_lo = a[n * q]
    a_hi = a[(n + 1) * q]
    return Matrix2C(p.m11, a_hi * p.m12, p.m21 / a_lo, (a_hi / a_lo) * p.m22)


class RenormChain:
    """Eigen-data of the renormalized transfer blocks 0..n_blocks-1 at one energy.

    Per block: the larger-modulus eigenvalue lambda_n of the determinant-one
    block, and the eigenvector matrix inverse U_n^{-1} whose columns are
    (rho_n lambda_n^{-1} - D_n, a_nq C_n) and (rho_n lambda_n - D_n, a_nq C_n)
    with rho_n = a_nq / a_(n+1)q.  At real energies the branch is fixed by the
    sign of the trace derivative, evaluated by a complex step.
    """

    def __init__(self, model, n_blocks, zeta):
        if n_blocks < 1:
            raise ValidationError("need at least one block")
        q = model.block.q
        z = complex(zeta)
        self.is_real = z.imag == 0.0
        zeval = z + 1j * CS_STEP if self.is_real else z
        a, b = model.coefficient_arrays(n_blocks * q)
        self.q = q
        self.zeta = z
        self.n_blocks = n_blocks
        self.a_nq = a[0 :: q][: n_blocks + 1].copy()
        blocks = _kernels.period_products(a, b, zeval, q, n_blocks)
        self.blocks = blocks

        lam = np.empty(n_blocks, dtype=np.complex128)
        uinv = np.empty((n_blocks, 4), dtype=np.complex128)
        for n in range(n_blocks):
            a_lo = self.a_nq[n]
            a_hi = self.a_nq[n + 1]
            rho = a_lo / a_hi
            d_n = complex(blocks[n, 1, 1])
            c_n = complex(blocks[n, 1, 0])
            tr = complex(blocks[n, 0, 0]) + d_n / rho
            lam_n = self._lambda_big(tr, n)
            lam[n] = lam_n
            uinv[n, 0] = rho / lam_n - d_n
            uinv[n, 1] = rho * lam_n - d_n
            uinv[n, 2] = a_lo * c_n
            uinv[n, 3] = a_lo * c_n
        self.lam = lam
        self._uinv = uinv

    def _lambda_big(self, tr, n):
        if self.is_real:
            re = tr.real
            if abs(abs(re) - 2.0) < PARABOLIC_TOL:
                raise DiagonalizationError(
                    f"block {n} is parabolic at E = {self.zeta.real}",
                    n=n,
                    zeta=self.zeta,
                )
            if abs(re) < 2.0:
                dsign = tr.imag / CS_STEP
                if abs(dsign) < DERIV_TOL:
                    raise DiagonalizationError(
                        f"block {n} trace derivative vanishes at E = {self.zeta.real}",
                        n=n,
                        zeta=self.zeta,
                    )
                return (
                    re + 1j * math.copysign(1.0, dsign) * math.sqrt(4.0 - re * re)
                ) / 2.0
            return complex(
                (re + math.copysign(1.0, re) * math.sqrt(re * re - 4.0)) / 2.0
            )
        big, _ = _split_roots(tr)
        if abs(big) - 1.0 < 1e-13:
            raise DiagonalizationError(
                f"block {n} eigenvalue moduli coincide at zeta = {self.zeta}",
                n=n,
                zeta=self.zeta,
            )
        return big

    def u_inv(self, n):
        """U_n^{-1} as a 2x2 array (columns are the block eigenvectors)."""
        u = self._uinv[n]
        return np.array([[u[0], u[1]], [u[2], u[3]]], dtype=np.complex128)

    def w_entries(self, n):
        """Entries of W_n = U_{n-1} U_n^{-1} - I for 1 <= n < n_blocks."""
        if not (1 <= n < self.n_blocks):
            raise ValidationError(f"W_n defined for 1 <= n < {self.n_blocks}")
        p11, p12, p21, p22 = (complex(x) for x in self._uinv[n - 1])
        c11, c12, c21, c22 = (complex(x) for x in self._uinv[n])
        if p11 == c11 and p12 == c12 and p21 == c21 and p22 == c22:
            # identical eigenbases: U_{n-1} U_n^{-1} = I identically
            return 0j, 0j, 0j, 0j
        det = p11 * p22 - p12 * p21
        if det == 0:
            raise DiagonalizationError(
                f"U_{n-1} is singular", n=n - 1, zeta=self.zeta
            )
        w11 = (p22 * c11 - p12 * c21) / det - 1.0
        w12 = (p22 * c12 - p12 * c22) / det
        w21 = (-p21 * c11 + p11 * c21) / det
        w22 = (-p21 * c12 + p11 * c22) / det - 1.0
        return w11, w12, w21, w22

    def w_norm_sq(self, n):
        w11, w12, w21, w22 = self.w_entries(n)
        return (
            abs(w11) ** 2 + abs(w12) ** 2 + abs(w21) ** 2 + abs(w22) ** 2
        )

    def c_entry(self, n):
        """Corner entry C_n of the raw period block."""
        return complex(self.blocks[n, 1, 0])


def w_matrix(model, n, zeta) -> Matrix2C:
    """Connection matrix W_n = U_{n-1} U_n^{-1} - I between adjacent block
    eigenbases; vanishes identically for q-periodic coefficients."""
    if n < 1:
        raise ValidationError("W_n is defined for n >= 1")
    chain = RenormChain(model, n + 1, zeta)
    w11, w12, w21, w22 = chain.w_entries(n)
    return Matrix2C(w11, w12, w21, w22)
