"""Exact threefold volume: sigma, q, the integral, section counts, certificate."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zlab.lattice
from zlab import (
    QuadraticIrrational,
    abelian_surface,
    h0_section_count,
    kunneth_volume,
    nonpolynomiality_certificate,
    q_poly,
    quadrature_volume,
    sigma_eps,
    sqrt_fraction,
    volume_L_eps,
    volume_closed_form,
)
from zlab.errors import OutOfDomain, OutOfRange, TooFewSamples

SAMPLES = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8),
           Fraction(1, 2), Fraction(5, 8), Fraction(3, 4), Fraction(1)]


def test_abelian_pairing_table():
    data = abelian_surface()
    assert data.d.square == 2
    assert data.h.square == 18
    assert data.d.dot(data.h) == 9
    assert data.f1.square == data.f2.square == data.delta.square == 0
    assert data.f1.dot(data.f2) == data.f1.dot(data.delta) == data.f2.dot(data.delta) == 1


def test_sigma_worked_values():
    assert sigma_eps(0) == (QuadraticIrrational(3) - sqrt_fraction(5)) / 6
    assert sigma_eps(1) == (QuadraticIrrational(14) - sqrt_fraction(172)) / 6
    assert 0 < float(sigma_eps(0)) < 1


def test_sigma_vanishes_the_restricted_square():
    data = abelian_surface()
    for eps in SAMPLES:
        sigma = sigma_eps(eps)
        # (d - t*h + (1+t)*eps*f1)^2 as a quadratic in t, evaluated at sigma
        d, h, f1 = data.d, data.h, data.f1
        c2 = h.square - 2 * eps * h.dot(f1)
        c1 = -2 * d.dot(h) + 2 * eps * d.dot(f1) - 2 * eps * h.dot(f1)
        c0 = d.square + 2 * eps * d.dot(f1)
        assert QuadraticIrrational(c2) * sigma * sigma + c1 * sigma + c0 == 0


def test_sigma_domain():
    with pytest.raises(OutOfDomain):
        sigma_eps(Fraction(3, 2))
    with pytest.raises(OutOfDomain):
        sigma_eps(-1)


class _Eps(Fraction):
    """A Fraction subclass: the threefold routes convert it, as any non-Fraction."""


EPS_ROUTES = {
    "sigma_eps": sigma_eps,
    "volume_L_eps": volume_L_eps,
    "volume_closed_form": volume_closed_form,
    "h0_section_count": lambda eps: h0_section_count(3, eps),
    "quadrature_volume": quadrature_volume,
}


@pytest.mark.parametrize("route", EPS_ROUTES)
def test_eps_of_every_rational_type_gives_one_result(route):
    """A Fraction eps is taken as given and any other converted, so int,
    Fraction, Fraction-subclass and bool eps give equal results, and an eps
    outside [0, 3/2) is refused whatever its type."""
    fn = EPS_ROUTES[route]
    for value in (0, 1):
        results = [fn(eps) for eps in (value, Fraction(value), _Eps(value), bool(value))]
        assert all(result == results[0] for result in results)
    assert fn(_Eps(5, 7)) == fn(Fraction(5, 7))
    for eps in (Fraction(3, 2), Fraction(-1, 7), Fraction(7, 2), _Eps(3, 2), 2):
        with pytest.raises(OutOfDomain):
            fn(eps)


def test_q_poly_worked_values():
    q0 = q_poly(0)
    assert (q0.c2, q0.c1, q0.c0) == (38, -54, 18)
    assert q0(Fraction(0)) == 18
    for eps in SAMPLES:
        q = q_poly(eps)
        assert q(Fraction(1)) == 2 + 2 * eps


def test_lower_limit_worked_value():
    # 1/(1 + sigma(0)) = 6/(9 - sqrt(5))
    lower = 1 / (1 + sigma_eps(0))
    assert lower == QuadraticIrrational(6) / (QuadraticIrrational(9) - sqrt_fraction(5))


def test_volume_exact_value_at_zero():
    value = volume_L_eps(0)
    assert value == QuadraticIrrational(Fraction(-77, 722), Fraction(135, 722), 5)
    # printed form: (8748 - 1692*sqrt(45)) / (-27 + sqrt(45))^3
    printed = (QuadraticIrrational(8748) - 1692 * sqrt_fraction(45)) / (
        (QuadraticIrrational(-27) + sqrt_fraction(45)) ** 3
    )
    assert value == printed


def test_volume_matches_closed_form_symbolically():
    for i in range(20):
        eps = Fraction(i, 16)
        assert volume_L_eps(eps) == volume_closed_form(eps)


def test_volume_matches_quadrature():
    for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        exact = float(volume_L_eps(eps))
        assert abs(exact - quadrature_volume(eps)) < 1e-10


def test_volume_is_strictly_increasing_in_eps():
    values = [float(volume_L_eps(e)) for e in SAMPLES]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_volume_domain():
    with pytest.raises(OutOfDomain):
        volume_L_eps(Fraction(3, 2))


def test_h0_worked_values():
    assert h0_section_count(1, 0) == 1
    assert h0_section_count(1, Fraction(1, 4)) == Fraction(5, 4)
    with pytest.raises(ValueError):
        h0_section_count(0, 0)


def test_h0_grows_cubically():
    small = 6 * h0_section_count(50, 0) / Fraction(50**3)
    ratio_small = h0_section_count(100, 0) / h0_section_count(50, 0)
    ratio_large = h0_section_count(800, 0) / h0_section_count(400, 0)
    assert abs(ratio_large - 8) < abs(ratio_small - 8)
    assert abs(float(ratio_large) - 8) < 0.1


def test_h0_asymptotics_match_the_volume():
    for eps in (Fraction(0), Fraction(1, 4)):
        exact = float(volume_L_eps(eps))
        approx = float(6 * h0_section_count(2000, eps)) / 2000**3
        assert abs(approx - exact) / exact < 0.02


def test_kunneth_consistency_with_threefold_volume():
    for n in (4, 5):
        for eps in (Fraction(0), Fraction(1, 2)):
            v = float(volume_L_eps(eps))
            assert kunneth_volume(v, 3, 1.0, n - 3) == pytest.approx(
                math.comb(n, 3) * v
            )


def test_certificate_passes_on_the_volume():
    report = nonpolynomiality_certificate(SAMPLES)
    assert report.passed
    assert all(res > 1e-6 for res in report.residuals)
    assert report.degrees == (1, 2, 3, 4, 5, 6)


def test_certificate_fails_on_a_polynomial():
    control = lambda e: float(3 * e * e - e + Fraction(1, 2))
    report = nonpolynomiality_certificate(SAMPLES, value_fn=control)
    assert not report.passed
    assert all(res < 1e-12 for res in report.residuals[1:])


def test_certificate_passes_on_sigma():
    report = nonpolynomiality_certificate(
        SAMPLES, value_fn=lambda e: float(sigma_eps(e))
    )
    assert report.passed


def test_certificate_needs_enough_samples():
    with pytest.raises(TooFewSamples):
        nonpolynomiality_certificate(SAMPLES[:6])
    with pytest.raises(TooFewSamples):
        nonpolynomiality_certificate(SAMPLES + [Fraction(0)])


@pytest.mark.parametrize("max_degree", [0, -3])
def test_certificate_refuses_a_degree_below_one_before_any_value(max_degree):
    """With no degree to fit, the certificate would pass vacuously, even on e*e."""
    def unreached(eps):
        raise AssertionError("a value was computed")

    for value_fn in (unreached, lambda e: e * e):
        with pytest.raises(OutOfRange):
            nonpolynomiality_certificate(SAMPLES, value_fn=value_fn, max_degree=max_degree)


# -- the integer routes against the field-arithmetic routes they replaced ------

# eps whose radicand 45*q**2 + 78*p*q + 49*p**2 is a square: 85**2, 73**2, 132**2, 229**2
SQUARE_RADICAND_EPS = [Fraction(5, 8), Fraction(1, 10), Fraction(3, 17), Fraction(11, 24)]
EDGE_EPS = [Fraction(0), Fraction(3, 2) - Fraction(1, 10**6), Fraction(3 * 10**9 - 1, 2 * 10**9)]


def antiderivative_at(poly, x):
    """Value at x of the primitive of a QuadraticPolynomial with zero constant term."""
    return ((poly.c2 / 3 * x + poly.c1 / 2) * x + poly.c0) * x


def oracle_sigma(eps):
    """(9 + 5*eps - sqrt(45 + 78*eps + 49*eps**2)) / (18 - 12*eps) in field arithmetic."""
    p, q = eps.numerator, eps.denominator
    return (9 * q + 5 * p - sqrt_fraction(45 * q * q + 78 * p * q + 49 * p * p)) / (18 * q - 12 * p)


def oracle_volume_L_eps(eps):
    """3 * (F(1) - F(1/(1 + sigma))) for F the primitive of q_poly, in field arithmetic."""
    poly = q_poly(eps)
    lower = 1 / (1 + oracle_sigma(eps))
    return 3 * (antiderivative_at(poly, Fraction(1)) - antiderivative_at(poly, lower))


def oracle_volume_closed_form(eps):
    """(R + S*r) / (q * (7*p - 27*q + r)**3) for r = sqrt(N), as a QuadraticIrrational expression."""
    p, q = eps.numerator, eps.denominator
    root = sqrt_fraction(45 * q * q + 78 * p * q + 49 * p * p)
    rational_part = (
        8748 * q**4 + 33480 * p * q**3 + 43128 * p**2 * q**2 + 14120 * p**3 * q + 588 * p**4
    )
    root_part = -1692 * q**3 - 3300 * p * q**2 - 2740 * p**2 * q + 84 * p**3
    return (rational_part + root_part * root) / (q * (7 * p - 27 * q + root) ** 3)


def oracle_h0(k, eps):
    """Half the squares of the pairs (i, k - i) with sigma > (k - i)/i, compared in the field."""
    poly, sigma = q_poly(eps), oracle_sigma(eps)
    kept = [i for i in range(1, k + 1) if sigma > Fraction(k - i, i)]
    return sum((k * k * poly(Fraction(i, k)) for i in kept), Fraction(0)) / 2


def assert_matches_the_oracles(eps):
    assert sigma_eps(eps) == oracle_sigma(eps)
    assert volume_L_eps(eps) == oracle_volume_L_eps(eps)
    assert volume_closed_form(eps) == oracle_volume_closed_form(eps)
    for k in range(1, 9):  # k = 8 at eps = 5/8 puts j/i = 1/7 on sigma, a rational root
        assert h0_section_count(k, eps) == oracle_h0(k, eps)


@st.composite
def domain_eps(draw):
    q = draw(st.integers(min_value=1, max_value=10**6))
    return Fraction(draw(st.integers(min_value=0, max_value=(3 * q - 1) // 2)), q)


@settings(max_examples=150, deadline=None)
@given(domain_eps())
def test_integer_routes_match_the_field_oracles(eps):
    assert_matches_the_oracles(eps)


@pytest.mark.parametrize("eps", EDGE_EPS + SQUARE_RADICAND_EPS)
def test_integer_routes_match_the_field_oracles_at_the_edges(eps):
    assert_matches_the_oracles(eps)


@pytest.mark.parametrize(
    "eps", [Fraction(3, 7), Fraction(1234567, 7654321), Fraction(1), Fraction(5, 8)]
)
def test_volume_factors_its_radicand_once(monkeypatch, eps):
    """sigma_eps and both volume routes split the radicand N once each and
    build their result from integers (the field routes split N and the
    denominator 1, two calls; 18 per volume_L_eps when every arithmetic result
    was normalised); h0_section_count decides sigma > j/i on integers and
    splits nothing."""
    calls = 0
    plain = zlab.lattice.squarefree_split

    def counting(n):
        nonlocal calls
        calls += 1
        return plain(n)

    monkeypatch.setattr(zlab.lattice, "squarefree_split", counting)
    for route in (volume_L_eps, volume_closed_form, sigma_eps):
        calls = 0
        route(eps)
        assert calls == 1
    for k in range(1, 7):
        calls = 0
        h0_section_count(k, eps)
        assert calls == 0
    assert volume_L_eps(eps) == volume_closed_form(eps)
