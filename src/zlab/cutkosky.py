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
the restricted class's square.  sigma and the volume are built on the
integers of eps = p/q as one element of the field of sqrt(N), N = 45*q**2 +
78*p*q + 49*p**2, after one squarefree split of N; floating point enters
only in the quadrature cross-check and the interpolation certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

from .errors import OutOfDomain, OutOfRange, TooFewSamples
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    QuadraticIrrational,
    Rational,
    _from_radicand,
    _Value,
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


@cache  # frozen data, built once: q_poly and h0_section_count read it per call
def abelian_surface() -> AbelianSurfaceData:
    lattice = IntersectionLattice([[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["f1", "f2", "delta"])
    f1, f2, delta = (lattice.basis_divisor(i) for i in range(3))
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


def _check_domain(eps: Rational) -> Fraction:
    eps = eps if type(eps) is Fraction else Fraction(eps)  # a subclass is converted
    if not 0 <= 2 * eps.numerator < 3 * eps.denominator:
        raise OutOfDomain("eps must satisfy 0 <= eps < 3/2")
    return eps


def _sigma_ints(eps: Fraction) -> tuple[int, int, int]:
    """(a, b, N) with sigma(eps) = (a - sqrt(N))/b for eps = p/q: a = 9*q + 5*p,
    b = 18*q - 12*p > 0 on the domain and N = q**2 * (45 + 78*eps + 49*eps**2)."""
    p, q = eps.numerator, eps.denominator
    return 9 * q + 5 * p, 18 * q - 12 * p, 45 * q * q + 78 * p * q + 49 * p * p


def sigma_eps(eps: Rational) -> QuadraticIrrational:
    """The nef threshold of the restricted ray: the smaller root of
    (d - t*h + (1+t)*eps*f1)**2 = 0, namely (9 + 5*eps - sqrt(45 + 78*eps + 49*eps**2))
    / (18 - 12*eps), evaluated for eps = p/q as (9*q + 5*p - sqrt(N)) / (18*q - 12*p)."""
    a, b, n = _sigma_ints(_check_domain(eps))
    return _from_radicand(a, -1, n, b)


class QuadraticPolynomial(_Value, fields=("c2", "c1", "c0")):
    """c2*x**2 + c1*x + c0 with exact rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __call__(self, x):
        return (self.c2 * x + self.c1) * x + self.c0


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


def volume_L_eps(eps: Rational) -> QuadraticIrrational:
    """Exact volume, obtained from the antiderivative of q between the exact
    endpoints; lives in the field of sqrt(45 + 78*eps + 49*eps**2)."""
    eps = _check_domain(eps)
    a, b, n = _sigma_ints(eps)
    c2, c1, c0 = _q_numerators(eps)
    u = a + b
    e = u * u - n  # the lower limit 1/(1 + sigma) is x = b*w/e, w = u + sqrt(N), e > 0
    # e**3 * (G(1) - G(x)) by Horner on integer pairs, G = 6*q**2 * primitive of q_poly
    x0, x1 = 2 * c2 * b * u + 3 * c1 * e, 2 * c2 * b
    x0, x1 = b * (x0 * u + x1 * n) + 6 * c0 * e * e, b * (x0 + x1 * u)
    x0, x1 = (2 * c2 + 3 * c1 + 6 * c0) * e**3 - b * (x0 * u + x1 * n), -b * (x0 + x1 * u)
    return _from_radicand(x0, x1, n, 2 * eps.denominator**2 * e**3)


def volume_closed_form(eps: Rational) -> QuadraticIrrational:
    """The same volume as one explicit quotient in the quadratic field.

    Kept as an independent evaluation route; the test suite checks that it
    reduces to exactly the same canonical field element as volume_L_eps.
    With eps = p/q and r = sqrt(N) it is (R + S*r) / (q * (w + r)**3), w = 7*p - 27*q,
    R and S homogeneous in (p, q) of degrees 4 and 3.  Numerator and denominator,
    each negative for small eps, are multiplied by the conjugate of (w + r)**3.
    """
    eps = _check_domain(eps)
    p, q = eps.numerator, eps.denominator
    n = _sigma_ints(eps)[2]
    rational_part = (
        8748 * q**4 + 33480 * p * q**3 + 43128 * p**2 * q**2 + 14120 * p**3 * q + 588 * p**4
    )
    root_part = -1692 * q**3 - 3300 * p * q**2 - 2740 * p**2 * q + 84 * p**3
    w = 7 * p - 27 * q
    d0, d1 = w**3 + 3 * w * n, 3 * w * w + n  # (w + r)**3, of norm (w**2 - N)**3
    return _from_radicand(rational_part * d0 - root_part * d1 * n,
                          root_part * d0 - rational_part * d1, n, q * (w * w - n) ** 3)


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
    lower = float(1 / (1 + sigma_eps(eps)))
    return 3.0 * _adaptive_simpson(
        lambda x: (c2 * x + c1) * x + c0, lower, 1.0, tol
    )


def h0_section_count(k: int, eps: Rational) -> Fraction:
    """Exact dimension count of the k-th power's section space.

    Sections split over pairs (i, j) with i + j = k; the pair contributes
    half the square of i*d - j*h + (i+j)*eps*f1 when j/i lies below the nef
    threshold sigma(eps) = (a - sqrt(N))/b, that is when t = i*a - j*b > 0 and
    t**2 > i**2 * N, and nothing otherwise.  The i = 0 column never
    contributes: -j*h + j*eps*f1 pairs negatively with the ample class d for
    eps < 3/2.  The class is i*(d + h) + k*(eps*f1 - h), so its square is
    k**2 * q(i/k) for q = q_poly(eps).
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    eps = _check_domain(eps)
    c2, c1, c0 = _q_numerators(eps)
    a, b, n = _sigma_ints(eps)
    total = sum(i * i * c2 + i * k * c1 + k * k * c0 for i in range(1, k + 1)
                if (t := i * a - (k - i) * b) > 0 and t * t > i * i * n)
    return Fraction(total, 2 * eps.denominator**2)


class CertificateReport(_Value, fields=("degrees", "residuals", "residual_floor", "passed")):
    """Residuals of best polynomial fits degree by degree."""

    degrees: tuple[int, ...]
    residuals: tuple[float, ...]
    residual_floor: float
    passed: bool

    def __post_init__(self) -> None:
        vars(self).update(degrees=tuple(self.degrees), residuals=tuple(self.residuals))


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
    if max_degree < 1:
        raise OutOfRange("max_degree must be at least 1")
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
