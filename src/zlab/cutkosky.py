"""Volume of a twisted line bundle on a projectivized bundle over C x C.

The base surface is an abelian surface with Neron-Severi basis (f1, f2,
delta), zero squares and all pairwise products 1; the two pivotal classes
are d = f1 + f2 and h = 3*f2 + 3*delta, with d**2 = 2, h**2 = 18 and
d.h = 9.  On the threefold P(O(d + eps*f1) + O(-h + eps*f1)) the sections of
the k-th power of the tautological bundle split over the base as a sum of
surface section spaces, which reduces the volume to the one-dimensional
integral

    vol(eps) = 3 * integral of q(x) from 1/(1 + sigma(eps)) to 1,

with q(x) = (x*d - (1-x)*h + eps*f1)**2 and sigma(eps) the smaller root of
the restricted class's square.  Everything is evaluated exactly in the
quadratic field generated by sqrt(45 + 78*eps + 49*eps**2), on integers made
from eps = p/q; floating point enters only in the quadrature cross-check and
the interpolation certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

from .errors import OutOfDomain, TooFewSamples
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    QuadraticIrrational,
    Rational,
    _Value,
    sqrt_fraction,
)
from .surface import SurfaceModel


class AbelianSurfaceData(_Value, fields=("lattice", "f1", "f2", "delta", "d", "h")):
    """The rank-3 product-of-elliptic-curves lattice and its two ample classes."""

    lattice: IntersectionLattice
    f1: DivisorClass
    f2: DivisorClass
    delta: DivisorClass
    d: DivisorClass
    h: DivisorClass

    def __init__(self, lattice: IntersectionLattice, f1: DivisorClass, f2: DivisorClass,
                 delta: DivisorClass, d: DivisorClass, h: DivisorClass) -> None:
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "h", h)


@cache  # frozen data, built once: q_poly and h0_section_count read it per call
def abelian_surface() -> AbelianSurfaceData:
    lattice = IntersectionLattice(
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["f1", "f2", "delta"]
    )
    f1 = lattice.basis_divisor(0)
    f2 = lattice.basis_divisor(1)
    delta = lattice.basis_divisor(2)
    d = f1 + f2
    h = 3 * f2 + 3 * delta
    data = AbelianSurfaceData(lattice, f1, f2, delta, d, h)
    assert d.square == 2 and h.square == 18 and d.dot(h) == 9
    return data


def abelian_surface_model() -> SurfaceModel:
    """Surface model with no negative curves; nefness degenerates to
    square and witness positivity."""
    data = abelian_surface()
    return SurfaceModel(lattice=data.lattice, ample=data.d, curves=())


def _radicand(p: int, q: int) -> int:
    """q**2 * (45 + 78*eps + 49*eps**2) for eps = p/q, an integer."""
    return 45 * q * q + 78 * p * q + 49 * p * p


def _check_domain(eps: Rational) -> Fraction:
    eps = Fraction(eps)
    if not 0 <= 2 * eps.numerator < 3 * eps.denominator:
        raise OutOfDomain("eps must satisfy 0 <= eps < 3/2")
    return eps


def sigma_eps(eps: Rational) -> QuadraticIrrational:
    """The nef threshold of the restricted ray: the smaller root of
    (d - t*h + (1+t)*eps*f1)**2 = 0, namely (9 + 5*eps - sqrt(45 + 78*eps + 49*eps**2))
    / (18 - 12*eps), evaluated for eps = p/q as (9*q + 5*p - sqrt(N)) / (18*q - 12*p)."""
    eps = _check_domain(eps)
    p, q = eps.numerator, eps.denominator
    return (9 * q + 5 * p - sqrt_fraction(_radicand(p, q))) / (18 * q - 12 * p)


class QuadraticPolynomial(_Value, fields=("c2", "c1", "c0")):
    """c2*x**2 + c1*x + c0 with exact rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __init__(self, c2: Fraction, c1: Fraction, c0: Fraction) -> None:
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c0", c0)

    def __call__(self, x):
        return (self.c2 * x + self.c1) * x + self.c0

    def antiderivative_at(self, x):
        """Value at x of the primitive with zero constant term."""
        return ((self.c2 / 3 * x + self.c1 / 2) * x + self.c0) * x


@cache  # built on first use, from the cached lattice data
def _pairings() -> tuple[int, ...]:
    """a.a, a.f1, a.h, f1.f1, f1.h and h.h for a = d + h."""
    data = abelian_surface()
    a, f1, h = data.d + data.h, data.f1, data.h
    return tuple(int(x.dot(y)) for x, y in ((a, a), (a, f1), (a, h), (f1, f1), (f1, h), (h, h)))


def _q_numerators(eps: Fraction) -> tuple[int, int, int]:
    """q**2 times the coefficients of q_poly at eps = p/q: a.a, 2*a.b and b.b,
    for the class x*a + b in the square, a = d + h and b = eps*f1 - h."""
    p, q = eps.numerator, eps.denominator
    aa, af, ah, ff, fh, hh = _pairings()
    return aa * q * q, 2 * (af * p - ah * q) * q, (ff * p - 2 * fh * q) * p + hh * q * q


def q_poly(eps: Rational) -> QuadraticPolynomial:
    """Exact expansion of (x*d - (1-x)*h + eps*f1)**2 via the lattice pairings."""
    eps = Fraction(eps)
    return QuadraticPolynomial(*(Fraction(c, eps.denominator**2) for c in _q_numerators(eps)))


def integration_lower_limit(eps: Rational) -> QuadraticIrrational:
    """The exact lower endpoint 1 / (1 + sigma(eps))."""
    return 1 / (1 + sigma_eps(eps))


def volume_L_eps(eps: Rational) -> QuadraticIrrational:
    """Exact volume, obtained from the antiderivative of q between the exact
    endpoints; lives in the field of sqrt(45 + 78*eps + 49*eps**2)."""
    eps = _check_domain(eps)
    q = q_poly(eps)
    lower = integration_lower_limit(eps)
    return 3 * (q.antiderivative_at(Fraction(1)) - q.antiderivative_at(lower))


def volume_closed_form(eps: Rational) -> QuadraticIrrational:
    """The same volume as one explicit quotient in the quadratic field.

    Kept as an independent evaluation route; the test suite checks that it
    reduces to exactly the same canonical field element as volume_L_eps.
    With eps = p/q and r = sqrt(_radicand(p, q)) it is (R + S*r) / (q * (7*p - 27*q + r)**3)
    for R and S homogeneous in (p, q) of degrees 4 and 3.  Numerator and
    denominator are each negative for small eps; the quotient is the positive volume.
    """
    eps = _check_domain(eps)
    p, q = eps.numerator, eps.denominator
    root = sqrt_fraction(_radicand(p, q))
    rational_part = (
        8748 * q**4 + 33480 * p * q**3 + 43128 * p**2 * q**2 + 14120 * p**3 * q + 588 * p**4
    )
    root_part = -1692 * q**3 - 3300 * p * q**2 - 2740 * p**2 * q + 84 * p**3
    return (rational_part + root_part * root) / (q * (7 * p - 27 * q + root) ** 3)


def _adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> float:
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, mid, fm, whole, tol, depth):
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        flm, frm = f(lm), f(rm)
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, mid, fm, lm, flm, left, tol / 2.0, depth - 1) + recurse(
            mid, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1
        )

    return recurse(a, fa, b, fb, mid, fm, whole, tol, 50)


def quadrature_volume(eps: Rational, tol: float = 1e-12) -> float:
    """Floating-point cross-check of the volume by adaptive Simpson quadrature."""
    eps = _check_domain(eps)
    q = q_poly(eps)
    c2, c1, c0 = float(q.c2), float(q.c1), float(q.c0)
    lower = float(integration_lower_limit(eps))
    return 3.0 * _adaptive_simpson(
        lambda x: (c2 * x + c1) * x + c0, lower, 1.0, tol
    )


def h0_section_count(k: int, eps: Rational) -> Fraction:
    """Exact dimension count of the k-th power's section space.

    Sections split over pairs (i, j) with i + j = k; the pair contributes
    half the square of i*d - j*h + (i+j)*eps*f1 when j/i lies below the nef
    threshold sigma(eps) (decided exactly in the quadratic field) and nothing
    otherwise.  The i = 0 column never contributes: -j*h + j*eps*f1 pairs
    negatively with the ample class d for eps < 3/2.  The class is i*(d + h)
    + k*(eps*f1 - h), so its square is k**2 * q(i/k) for q = q_poly(eps).
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    eps = _check_domain(eps)
    c2, c1, c0 = _q_numerators(eps)
    sigma = sigma_eps(eps)
    total = sum(
        i * i * c2 + i * k * c1 + k * k * c0 for i in range(1, k + 1) if sigma > Fraction(k - i, i)
    )
    return Fraction(total, 2 * eps.denominator**2)


class CertificateReport(_Value, fields=("degrees", "residuals", "residual_floor", "passed")):
    """Residuals of best polynomial fits degree by degree."""

    degrees: tuple[int, ...]
    residuals: tuple[float, ...]
    residual_floor: float
    passed: bool

    def __init__(self, degrees: tuple[int, ...], residuals: tuple[float, ...],
                 residual_floor: float, passed: bool) -> None:
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "residual_floor", residual_floor)
        object.__setattr__(self, "passed", passed)


def _interpolate_exact(
    xs: Sequence[Fraction], ys: Sequence[Fraction], x: Fraction
) -> Fraction:
    """Lagrange interpolation through (xs, ys) evaluated at x, exactly."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        weight = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                weight *= (x - xj) / (xi - xj)
        total += yi * weight
    return total


def nonpolynomiality_certificate(
    eps_samples: Iterable[Rational],
    value_fn: Optional[Callable[[Fraction], float]] = None,
    max_degree: int = 6,
    residual_floor: float = 1e-6,
) -> CertificateReport:
    """Certify that a function of eps is not polynomial of low degree.

    For each degree, the polynomial interpolating the first degree+1 samples
    is evaluated at the held-out samples and the largest residual recorded;
    the certificate passes when every degree leaves a residual above the
    floor.  Feeding a genuine polynomial through the same machinery drives
    the residual to rounding level and fails the certificate, which is the
    intended negative control.
    """
    samples = sorted(Fraction(e) for e in eps_samples)
    if len(set(samples)) != len(samples):
        raise TooFewSamples("samples must be distinct")
    if len(samples) < max_degree + 2:
        raise TooFewSamples(
            f"need at least {max_degree + 2} distinct samples, got {len(samples)}"
        )
    if value_fn is None:
        value_fn = lambda e: float(volume_L_eps(e))
    values = [Fraction(value_fn(e)) for e in samples]
    degrees = []
    residuals = []
    for degree in range(1, max_degree + 1):
        nodes = samples[: degree + 1]
        node_values = values[: degree + 1]
        residual = 0.0
        for x, y in zip(samples[degree + 1 :], values[degree + 1 :]):
            predicted = _interpolate_exact(nodes, node_values, x)
            residual = max(residual, abs(float(y - predicted)))
        degrees.append(degree)
        residuals.append(residual)
    passed = all(res > residual_floor for res in residuals)
    return CertificateReport(tuple(degrees), tuple(residuals), residual_floor, passed)
