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
quadratic field generated by sqrt(45 + 78*eps + 49*eps**2); floating point
enters only in the quadrature cross-check and the interpolation certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

from .errors import OutOfDomain, TooFewSamples
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    QuadraticIrrational,
    Rational,
    sqrt_fraction,
)
from .surface import SurfaceModel


@dataclass(frozen=True)
class AbelianSurfaceData:
    """The rank-3 product-of-elliptic-curves lattice and its two ample classes."""

    lattice: IntersectionLattice
    f1: DivisorClass
    f2: DivisorClass
    delta: DivisorClass
    d: DivisorClass
    h: DivisorClass


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


def _radicand(eps: Fraction) -> Fraction:
    return 45 + 78 * eps + 49 * eps * eps


def _check_domain(eps: Rational) -> Fraction:
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(3, 2):
        raise OutOfDomain("eps must satisfy 0 <= eps < 3/2")
    return eps


def sigma_eps(eps: Rational) -> QuadraticIrrational:
    """The nef threshold of the restricted ray: the smaller root of
    (d - t*h + (1+t)*eps*f1)**2 = 0, namely
    (9 + 5*eps - sqrt(45 + 78*eps + 49*eps**2)) / (18 - 12*eps)."""
    eps = _check_domain(eps)
    root = sqrt_fraction(_radicand(eps))
    return (QuadraticIrrational(9 + 5 * eps) - root) / (18 - 12 * eps)


@dataclass(frozen=True)
class QuadraticPolynomial:
    """c2*x**2 + c1*x + c0 with exact rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __call__(self, x):
        return (self.c2 * x + self.c1) * x + self.c0

    def antiderivative_at(self, x):
        """Value at x of the primitive with zero constant term."""
        return ((self.c2 / 3 * x + self.c1 / 2) * x + self.c0) * x


def q_poly(eps: Rational) -> QuadraticPolynomial:
    """Exact expansion of (x*d - (1-x)*h + eps*f1)**2 via the lattice pairings."""
    eps = Fraction(eps)
    data = abelian_surface()
    d, h, f1 = data.d, data.h, data.f1
    # (x*d + (x-1)*h + eps*f1)^2 expanded in powers of x
    a = d + h  # coefficient of x inside the square
    b = eps * f1 - h  # constant part inside the square
    return QuadraticPolynomial(a.square, 2 * a.dot(b), b.square)


def integration_lower_limit(eps: Rational) -> QuadraticIrrational:
    """The exact lower endpoint 1 / (1 + sigma(eps))."""
    return QuadraticIrrational(1) / (QuadraticIrrational(1) + sigma_eps(eps))


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
    Numerator and denominator are each negative for small eps; the quotient
    is the positive volume.
    """
    eps = _check_domain(eps)
    root = sqrt_fraction(_radicand(eps))
    rational_part = (
        8748 + 33480 * eps + 43128 * eps**2 + 14120 * eps**3 + 588 * eps**4
    )
    root_part = -1692 - 3300 * eps - 2740 * eps**2 + 84 * eps**3
    numerator = QuadraticIrrational(rational_part) + root_part * root
    denominator = (QuadraticIrrational(-27 + 7 * eps) + root) ** 3
    return numerator / denominator


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
    negatively with the ample class d for eps < 3/2.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    eps = _check_domain(eps)
    data = abelian_surface()
    sigma = sigma_eps(eps)
    total = Fraction(0)
    for i in range(1, k + 1):
        j = k - i
        if sigma <= Fraction(j, i):
            continue
        cls = i * data.d - j * data.h + ((i + j) * eps) * data.f1
        total += Fraction(cls.square, 2)
    return total


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of best polynomial fits degree by degree."""

    degrees: tuple[int, ...]
    residuals: tuple[float, ...]
    residual_floor: float
    passed: bool


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
