"""Exact threefold volume: sigma, q, the integral, section counts, certificate."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

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
from zlab.cutkosky import integration_lower_limit
from zlab.errors import OutOfDomain, TooFewSamples

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


def test_q_poly_worked_values():
    q0 = q_poly(0)
    assert (q0.c2, q0.c1, q0.c0) == (38, -54, 18)
    assert q0(Fraction(0)) == 18
    for eps in SAMPLES:
        q = q_poly(eps)
        assert q(Fraction(1)) == 2 + 2 * eps


def test_lower_limit_worked_value():
    # 1/(1 + sigma(0)) = 6/(9 - sqrt(5))
    lower = integration_lower_limit(0)
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


@pytest.mark.parametrize("eps", [Fraction(3, 7), Fraction(1234567, 7654321), Fraction(1)])
def test_volume_factors_its_radicand_once(monkeypatch, eps):
    """Both volume routes split the radicand's numerator and denominator once
    each; field arithmetic never factors again (18 splits per volume_L_eps
    when every arithmetic result was normalised)."""
    calls = 0
    plain = zlab.lattice.squarefree_split

    def counting(n):
        nonlocal calls
        calls += 1
        return plain(n)

    monkeypatch.setattr(zlab.lattice, "squarefree_split", counting)
    for route in (volume_L_eps, volume_closed_form):
        calls = 0
        route(eps)
        assert calls <= 2
    assert volume_L_eps(eps) == volume_closed_form(eps)
