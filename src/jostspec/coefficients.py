"""Coefficient sequences: periodic backgrounds, perturbation families,
truncations, and variation norms.

All objects are frozen value types; evaluations are pure and cached.  Every
count argument of the library goes through count: it must be an integer
(10.0 and np.int64(10) are 10) and is never floored (10.5 raises).  Every
argument that is a 1-D sequence of points goes through point_array: a
scalar is one point, and a value that is not a number (None included), an
array of more dimensions or a complex point where energies are real raises.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CoefficientError, ValidationError

__all__ = [
    "PeriodicBlock",
    "PerturbationSpec",
    "CoefficientModel",
    "periodic_block",
    "make_model",
    "truncate",
    "q_variation_norm",
    "count",
]


def count(name, value, low):
    """int(value), or ValidationError naming the argument when value is not an
    integer or is below low."""
    try:
        integral = value == int(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValidationError(f"{name} must be an integer, got {value}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    return int(value)


def point_array(values, dtype=np.complex128):
    """A 1-D array of dtype from a 1-D sequence of points or a scalar (one
    point).  ValidationError for a value that is not a number (None, which
    names its point, included), an array of more dimensions, or, for a real
    dtype, a point off the real axis."""
    try:
        points = np.asarray(values, dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValidationError(f"points must be numbers, got {values!r}") from None
    if points.ndim > 1:
        raise ValidationError(f"points must be a scalar or a 1-D sequence, got shape {points.shape}")
    # NumPy reads None as nan+nanj; only an object array or a sequence holds it
    if getattr(values, "dtype", object) == object and np.isnan(points).any():
        missing = np.flatnonzero(np.equal(np.asarray(values, dtype=object).ravel(), None))
        if missing.size:
            raise ValidationError(f"points must be numbers, got None at point {missing[0]}")
    if not np.issubdtype(dtype, np.complexfloating):
        off = np.flatnonzero(points.imag != 0.0)
        if off.size:
            raise ValidationError(f"energies must be real, got {complex(points.flat[off[0]])}")
        points = points.real.astype(dtype)
    return np.atleast_1d(points)


@dataclass(frozen=True)
class PeriodicBlock:
    """Periodic background coefficients a°_1..a°_q, b°_1..b°_q.

    Indexing is 1-based and periodic; a°_0 is identified with a°_q.
    """

    q: int
    a_bg: tuple
    b_bg: tuple

    def a(self, n):
        """Background off-diagonal a°_n for n >= 0."""
        return self.a_bg[(n - 1) % self.q]

    def b(self, n):
        """Background diagonal b°_n for n >= 1."""
        return self.b_bg[(n - 1) % self.q]


def periodic_block(q, a_bg, b_bg) -> PeriodicBlock:
    """Validate and build a periodic background block."""
    q = count("period q", q, 1)
    a_bg = tuple(float(x) for x in a_bg)
    b_bg = tuple(float(x) for x in b_bg)
    if len(a_bg) != q or len(b_bg) != q:
        raise ValidationError(
            f"need exactly q={q} background coefficients, got {len(a_bg)} / {len(b_bg)}"
        )
    for k, x in enumerate(a_bg, start=1):
        if not np.isfinite(x) or x <= 0.0:
            raise ValidationError(f"a°_{k} must be positive, got {x}")
    if not all(np.isfinite(x) for x in b_bg):
        raise ValidationError("background diagonal must be finite")
    return PeriodicBlock(q, a_bg, b_bg)


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation family added on top of the background.

    kinds:
      zero                         no perturbation
      finite_list                  explicit (alpha_n, beta_n) up to the support,
                                   exactly zero beyond
      power_decay_oscillatory      c * cos(n**s) / n**gamma applied to the
                                   target coefficient(s)
    """

    kind: str
    alpha: tuple = ()
    beta: tuple = ()
    c: float = 0.0
    s: float = 0.0
    gamma: float = 0.0
    target: str = "b"

    @staticmethod
    def zero() -> "PerturbationSpec":
        return PerturbationSpec(kind="zero")

    @staticmethod
    def finite(alpha=(), beta=()) -> "PerturbationSpec":
        alpha, beta = tuple(float(x) for x in alpha), tuple(float(x) for x in beta)
        if not np.isfinite(alpha + beta).all():
            raise ValidationError("perturbation values alpha and beta must be finite")
        return PerturbationSpec(kind="finite_list", alpha=alpha, beta=beta)

    @staticmethod
    def power(c, s, gamma, target="b") -> "PerturbationSpec":
        if not gamma > 0:
            raise ValidationError("decay exponent gamma must be positive")
        if not np.isfinite([c, s, gamma]).all():
            raise ValidationError("c, s and gamma must be finite")
        if target not in ("a", "b", "both"):
            raise ValidationError(f"target must be 'a', 'b' or 'both', got {target!r}")
        return PerturbationSpec(
            kind="power_decay_oscillatory",
            c=float(c),
            s=float(s),
            gamma=float(gamma),
            target=target,
        )


def _power_values(pert, n):
    # n: integer array >= 1
    # n**s overflows for large s, and cos(inf) is NaN: _cached_arrays
    # rejects the values, so no warning need escape
    nf = n.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return pert.c * np.cos(nf**pert.s) / nf**pert.gamma


def _perturbation_values(pert, n, which):
    # alpha_n (which = "a") or beta_n (which = "b") at integer sites n >= 1
    values = pert.alpha if which == "a" else pert.beta
    out = np.zeros(n.shape, dtype=np.float64)
    if pert.kind == "finite_list" and values:
        mask = n <= len(values)
        out[mask] = np.asarray(values)[n[mask] - 1]
    elif pert.kind == "power_decay_oscillatory" and pert.target in (which, "both"):
        out = _power_values(pert, n)
    return out


@dataclass(frozen=True)
class CoefficientModel:
    """Full coefficient sequences: background plus perturbation.

    a(n) is defined for integers n >= 0 (a(0) = a°_0, fixed convention);
    b(n) for n >= 1.  With truncation N set, a(n) = a°_n for n >= (N-1)q and
    b(n) = b°_n for n > (N-1)q, bypassing perturbation arithmetic entirely
    so the tail is bit-exact background.
    """

    block: PeriodicBlock
    pert: PerturbationSpec
    trunc: int | None = None

    def a(self, n):
        n = count("n", n, -np.inf)
        if n < 0:
            raise ValidationError("a(n) is defined for n >= 0")
        if n == 0:
            return self.block.a_bg[self.block.q - 1]
        arr_a, _ = self.coefficient_arrays(_round_up(n))
        return float(arr_a[n])

    def b(self, n):
        n = count("n", n, -np.inf)
        if n < 1:
            raise ValidationError("b(n) is defined for n >= 1")
        _, arr_b = self.coefficient_arrays(_round_up(n))
        return float(arr_b[n])

    def coefficient_arrays(self, n_top):
        """Site arrays (a[0..n_top], b[0..n_top]); b[0] is a placeholder.
        Raises CoefficientError at the first site whose a or b is not
        finite, then at the first a that is not positive."""
        return _cached_arrays(self, count("n_top", n_top, 0))

    def fingerprint(self):
        """Stable short hash of the model parameters (used in CSV metadata)."""
        payload = repr((self.block, self.pert, self.trunc)).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


def _round_up(n):
    # Scalar evaluations share cache entries by rounding the array length up.
    m = 64
    while m < n:
        m *= 2
    return m


@lru_cache(maxsize=32)
def _cached_arrays(model, n_top):
    block = model.block
    q = block.q
    a_bg = np.asarray(block.a_bg)
    b_bg = np.asarray(block.b_bg)

    n = np.arange(1, n_top + 1)
    idx = (n - 1) % q
    a = np.empty(n_top + 1)
    b = np.empty(n_top + 1)
    a[0] = block.a_bg[q - 1]
    b[0] = 0.0
    a[1:] = a_bg[idx]
    b[1:] = b_bg[idx]

    # The truncation keeps the perturbation of a below site (N-1)q and of b
    # up to it.  Only sites the perturbation reaches are touched; elsewhere
    # the background floats pass through untouched.
    n0 = np.inf if model.trunc is None else (model.trunc - 1) * q
    for values, which, last in ((a, "a", n0 - 1), (b, "b", n0)):
        sites = n[n <= last]
        p = _perturbation_values(model.pert, sites, which)
        if np.any(p != 0.0):
            values[1 : sites.size + 1] += p

    bad = np.flatnonzero(~(np.isfinite(a[1:]) & np.isfinite(b[1:])))
    if bad.size:
        first = int(bad[0]) + 1
        name, value = ("a", a[first]) if not np.isfinite(a[first]) else ("b", b[first])
        raise CoefficientError(f"{name}({first}) = {value} is not finite")
    bad = np.nonzero(a[1:] <= 0.0)[0]
    if bad.size:
        first = int(bad[0]) + 1
        raise CoefficientError(f"a({first}) = {a[first]} is not positive")

    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def make_model(block, pert=None) -> CoefficientModel:
    """Assemble a coefficient model from a background block and a perturbation."""
    if not isinstance(block, PeriodicBlock):
        raise ValidationError("block must be a PeriodicBlock")
    if pert is None:
        pert = PerturbationSpec.zero()
    if not isinstance(pert, PerturbationSpec):
        raise ValidationError("pert must be a PerturbationSpec")
    return CoefficientModel(block=block, pert=pert)


def truncate(model, N) -> CoefficientModel:
    """Model whose coefficients follow the input up to site (N-1)q and are
    exactly the periodic background beyond.  Idempotent for equal N."""
    N = count("truncation index N", N, 1)
    if model.trunc == N:
        return model
    return CoefficientModel(block=model.block, pert=model.pert, trunc=N)


def q_variation_norm(model, n_max):
    """( sum_{n=1}^{n_max} |a(n+q)-a(n)|^2 + |b(n+q)-b(n)|^2 )^(1/2)."""
    n_max = count("n_max", n_max, 1)
    q = model.block.q
    a, b = model.coefficient_arrays(n_max + q)
    da = a[1 + q : n_max + q + 1] - a[1 : n_max + 1]
    db = b[1 + q : n_max + q + 1] - b[1 : n_max + 1]
    return float(np.sqrt(np.sum(da * da) + np.sum(db * db)))
