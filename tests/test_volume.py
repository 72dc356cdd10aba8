"""Exact volumes, per-chamber quadratic forms and the product formula."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

import zlab.lattice
from conftest import a2_chain_model, dp_model, k3_model, random_big_class, user_models
from test_kernel import scaled_user_models
from zlab import (
    QuadraticIrrational,
    chamber_of,
    construct_nef_with_null,
    enumerate_chambers,
    kunneth_volume,
    vol,
    volume_polynomial,
)
from zlab.errors import LatticeMismatch, NegativeDimension, UnrealizableSupport
from zlab.lattice import clear_denominators, gram_matrix, invert_matrix
from zlab.zariski import support_curves


def test_vol_worked_values(dp2):
    lat = dp2.lattice
    assert vol(dp2, lat.divisor([3, -1, -1])) == 7
    assert vol(dp2, lat.divisor([2, 1, -1])) == 3
    assert vol(dp2, lat.divisor([2, Fraction(-3, 2), -1])) == 1


def test_vol_vanishes_off_the_big_cone(dp2):
    lat = dp2.lattice
    assert vol(dp2, lat.divisor([0, 1, 0])) == 0
    assert vol(dp2, lat.zero()) == 0
    assert vol(dp2, -1 * lat.divisor([1, 0, 0])) == 0
    assert vol(dp2, lat.divisor([1, -5, 4])) == 0


def test_volume_polynomial_matrices(dp2):
    nef = volume_polynomial(dp2, ())
    assert nef.matrix == tuple(
        tuple(Fraction(x) for x in row) for row in ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    )
    only_e1 = volume_polynomial(dp2, ("E1",))
    assert only_e1.matrix == tuple(
        tuple(Fraction(x) for x in row) for row in ((1, 0, 0), (0, 0, 0), (0, 0, -1))
    )
    line = volume_polynomial(dp2, ("L-E1-E2",))
    assert line.matrix == tuple(
        tuple(Fraction(x) for x in row) for row in ((2, 1, 1), (1, 0, 1), (1, 1, 0))
    )


def test_volume_polynomial_requires_realizable_support(dp2):
    message = "support {E1, L-E1-E2} has an intersection matrix that is not negative definite"
    with pytest.raises(UnrealizableSupport, match=re.escape(message)):
        volume_polynomial(dp2, ("E1", "L-E1-E2"))
    with pytest.raises(UnrealizableSupport):
        volume_polynomial(dp2, ("nope",))


def count_eliminations(monkeypatch) -> list[int]:
    calls = []
    plain = zlab.lattice._negative_definite_factor

    def counting(matrix):
        calls.append(len(matrix))
        return plain(matrix)

    monkeypatch.setattr(zlab.lattice, "_negative_definite_factor", counting)
    return calls


def test_volume_polynomial_eliminates_once(dp2, monkeypatch):
    calls = count_eliminations(monkeypatch)
    volume_polynomial(dp2, ("E1", "E2"))
    assert len(calls) == 1


def test_support_curves_eliminates_once(dp2, monkeypatch):
    calls = count_eliminations(monkeypatch)
    assert [c.label for c in support_curves(dp2, ("E2", "E1"))] == ["E1", "E2"]
    assert len(calls) == 1


def substitution_form(model, chamber):
    """Oracle: M^T G M with M = I - C G_S^-1 R the substitution D |-> D - N(D),
    from the curve classes' Fraction pairings and an inverted matrix; the
    product runs on M's cleared numerators (del Pezzo curves are sparse, so
    zero terms are skipped)."""
    gram = model.lattice.gram
    span = range(model.lattice.rank)
    curves = [model.curve_by_label(label).cls for label in chamber.support]
    inverse = invert_matrix(gram_matrix(curves))
    classes = [cls.coords for cls in curves]
    rows = [[sum(g * c for g, c in zip(row, cls) if c) for row in gram] for cls in classes]
    weights = [[sum(x * row[j] for x, row in zip(line, rows) if row[j]) for j in span]
               for line in inverse]
    m = [[int(i == j) - sum(cls[i] * w[j] for cls, w in zip(classes, weights) if cls[i])
          for j in span] for i in span]
    flat, den = clear_denominators(x for row in m for x in row)
    m = [flat[i * len(span):(i + 1) * len(span)] for i in span]
    gm = [[sum(g * m[b][j] for b, g in enumerate(gram[a]) if g) for j in span] for a in span]
    return tuple(
        tuple(Fraction(sum(m[a][i] * gm[a][j] for a in span), den * den) for j in span)
        for i in span
    )


def assert_forms_match_the_pullback(model, chambers):
    for chamber in chambers:
        assert volume_polynomial(model, chamber).matrix == substitution_form(model, chamber)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_volume_form_equals_the_substitution_pullback(r):
    model = dp_model(r)
    assert_forms_match_the_pullback(model, enumerate_chambers(model))


@pytest.mark.parametrize("r", [7, 8])
def test_volume_form_equals_the_pullback_on_seeded_chambers(r):
    """Chambers of seeded big classes; dp8's 240 curves are past the enumeration."""
    model = dp_model(r)
    rng = random.Random(71 + r)
    chambers = {chamber_of(model, random_big_class(model, rng)) for _ in range(12)}
    assert len({len(c.support) for c in chambers}) > 1
    assert_forms_match_the_pullback(model, chambers)


@pytest.mark.parametrize("model", [a2_chain_model, lambda: k3_model(1), lambda: k3_model(2)],
                         ids=["a2", "k3(1)", "k3(2)"])
def test_volume_form_equals_the_pullback_off_del_pezzo(model):
    surface = model()
    assert_forms_match_the_pullback(surface, enumerate_chambers(surface))


@settings(max_examples=40, deadline=None)
@given(user_models())
def test_volume_form_equals_the_pullback_on_user_models(model):
    assert_forms_match_the_pullback(model, enumerate_chambers(model))


@settings(max_examples=40, deadline=None)
@given(scaled_user_models())
def test_volume_form_equals_the_pullback_on_scaled_user_models(model):
    """Curve denominators s > 1: the kernel's s and s**2 scalings must cancel."""
    assert_forms_match_the_pullback(model, enumerate_chambers(model))


def test_polynomials_agree_with_vol_in_every_chamber(dp2, dp3):
    rng = random.Random(31)
    for model in (dp2, dp3):
        polys = {
            c.support: volume_polynomial(model, c) for c in enumerate_chambers(model)
        }
        for _ in range(60):
            divisor = random_big_class(model, rng)
            support = chamber_of(model, divisor).support
            assert polys[support].evaluate(divisor) == vol(model, divisor)


def test_vol_is_homogeneous_of_degree_two(dp2):
    rng = random.Random(37)
    for _ in range(25):
        divisor = random_big_class(dp2, rng)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        assert vol(dp2, c * divisor) == c * c * vol(dp2, divisor)


def test_adjacent_polynomials_agree_on_walls(dp2):
    """Wall points between a chamber and the one with one curve removed are
    boundary points of both; the two quadratic forms give the same value."""
    rng = random.Random(41)
    for chamber in enumerate_chambers(dp2):
        if not chamber.support:
            continue
        big_poly = volume_polynomial(dp2, chamber)
        for dropped in chamber.support:
            smaller = tuple(lbl for lbl in chamber.support if lbl != dropped)
            small_poly = volume_polynomial(dp2, smaller)
            witness = construct_nef_with_null(dp2, chamber)
            for _ in range(10):
                point = witness
                for label in smaller:
                    point = point + Fraction(
                        rng.randint(1, 7), 4
                    ) * dp2.curve_by_label(label).cls
                assert big_poly.evaluate(point) == small_poly.evaluate(point)


def test_wall_agreement_on_three_point_blowup(dp3):
    rng = random.Random(47)
    chambers = enumerate_chambers(dp3)
    for chamber in chambers:
        if len(chamber.support) < 2:
            continue
        poly = volume_polynomial(dp3, chamber)
        dropped = chamber.support[0]
        neighbour = volume_polynomial(
            dp3, tuple(l for l in chamber.support if l != dropped)
        )
        witness = construct_nef_with_null(dp3, chamber)
        for _ in range(5):
            point = witness
            for label in chamber.support[1:]:
                point = point + Fraction(rng.randint(1, 9), 4) * dp3.curve_by_label(
                    label
                ).cls
            assert poly.evaluate(point) == neighbour.evaluate(point)


def test_vol_strictly_increases_along_ample_directions(dp2, dp3):
    rng = random.Random(43)
    for model in (dp2, dp3):
        for _ in range(25):
            divisor = random_big_class(model, rng)
            assert vol(model, divisor + model.ample) > vol(model, divisor)


def test_kunneth_worked_values():
    assert kunneth_volume(Fraction(7), 2, Fraction(0), 3) == 0
    assert kunneth_volume(Fraction(2), 1, Fraction(3), 1) == 12
    # (v, 3) times a line bundle of volume 1 in dimension n-3
    for n in (3, 4, 5, 6):
        v = Fraction(5, 7)
        from math import comb

        assert kunneth_volume(v, 3, Fraction(1), n - 3) == comb(n, 3) * v


def test_kunneth_accepts_quadratic_irrationals():
    v = QuadraticIrrational(1, 1, 5)
    assert kunneth_volume(v, 1, 2, 1) == 4 * v


def test_kunneth_rejects_negative_dimensions():
    with pytest.raises(NegativeDimension):
        kunneth_volume(Fraction(1), -1, Fraction(1), 2)


def test_evaluate_refuses_a_coordinate_count_other_than_the_form_size():
    """A count check, not zip, meets extra or missing coordinates: zip read a
    dp6 class as 4 on this dp5 form, and [1, 0] as 1."""
    form = volume_polynomial(dp_model(5), [])
    with pytest.raises(LatticeMismatch, match="expected 6 coordinates, got 7"):
        form.evaluate(dp_model(6).ample)
    for coords in ([1, 0], [1] * 7):
        with pytest.raises(LatticeMismatch, match=f"expected 6 coordinates, got {len(coords)}"):
            form.evaluate_coords(coords)
    assert form.evaluate(dp_model(5).ample) == form.evaluate_coords(dp_model(5).ample.coords) == 4
