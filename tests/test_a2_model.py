"""A rank-3 model with two meeting (-2)-curves: non-orthogonal supports.

Del Pezzo supports are always pairwise orthogonal, so the coupled (off
diagonal) Gram solves are only exercised by a configuration like this one:
gram [[2,1,1],[1,-2,1],[1,1,-2]] over (H, E1, E2), with E1.E2 = 1 forming a
chain.  All expected values below were computed by hand from the 2x2 system
[[-2,1],[1,-2]] x = rhs, whose inverse is -(1/3)[[2,1],[1,2]].
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import a2_chain_model, random_big_class
from zlab import (
    chamber_of,
    destabilizing_numbers,
    enumerate_chambers,
    face_of,
    k3_reflection_volume,
    vol,
    volume_polynomial,
    zariski_decompose,
)


@pytest.fixture(scope="module")
def a2():
    return a2_chain_model()


def test_coupled_decomposition(a2):
    lat = a2.lattice
    dec = zariski_decompose(a2, lat.divisor([1, 3, 3]))
    assert dec.positive.coords == (1, 1, 1)
    assert [(c.label, x) for c, x in dec.coefficients] == [("E1", 2), ("E2", 2)]
    assert dec.positive.square == 4
    assert vol(a2, lat.divisor([1, 3, 3])) == 4

    one_sided = zariski_decompose(a2, lat.divisor([1, 2, 0]))
    assert one_sided.positive.coords == (1, Fraction(1, 2), 0)
    assert [(c.label, x) for c, x in one_sided.coefficients] == [
        ("E1", Fraction(3, 2))
    ]


def test_coupled_decomposition_against_brute_force(a2):
    from test_zariski import brute_force_decomposition

    rng = random.Random(71)
    for _ in range(40):
        divisor = random_big_class(a2, rng)
        dec = zariski_decompose(a2, divisor)
        got = (
            dec.positive.coords,
            tuple(sorted((c.label, x) for c, x in dec.coefficients)),
        )
        assert got == brute_force_decomposition(a2, divisor)


def test_four_chambers_with_a_non_orthogonal_support(a2):
    chambers = [c.support for c in enumerate_chambers(a2)]
    assert chambers == [(), ("E1",), ("E2",), ("E1", "E2")]
    e1 = a2.curve_by_label("E1").cls
    e2 = a2.curve_by_label("E2").cls
    assert e1.dot(e2) == 1  # the pair is genuinely non-orthogonal


def test_volume_form_on_the_coupled_chamber(a2):
    # on the chamber {E1, E2} the positive part collapses to d0*(1,1,1)
    poly = volume_polynomial(a2, ("E1", "E2"))
    expected = tuple(
        tuple(Fraction(x) for x in row) for row in ((4, 0, 0), (0, 0, 0), (0, 0, 0))
    )
    assert poly.matrix == expected
    rng = random.Random(73)
    polys = {c.support: volume_polynomial(a2, c) for c in enumerate_chambers(a2)}
    for _ in range(40):
        divisor = random_big_class(a2, rng)
        support = chamber_of(a2, divisor).support
        assert polys[support].evaluate(divisor) == vol(a2, divisor)


def test_face_through_the_chain(a2):
    null_labels, basis = face_of(a2, a2.lattice.divisor([1, 1, 1]))
    assert null_labels == {"E1", "E2"}
    assert len(basis) == 1
    assert basis[0].dot(a2.curve_by_label("E1").cls) == 0


def test_walk_with_simultaneous_non_orthogonal_entry(a2):
    """From the ample class (2,1,1), both curves' walls sit at t = 1; they
    enter together with coupled coefficients t-1 each, and the volume
    4*(2-t)**2 dies at t = 2."""
    lat = a2.lattice
    walk = destabilizing_numbers(a2, lat.divisor([2, 1, 1]), lat.divisor([1, 0, 0]))
    assert walk.breakpoints == (Fraction(1),)
    assert [s.support.support for s in walk.segments] == [(), ("E1", "E2")]
    assert walk.bigness_threshold == 2
    assert vol(a2, lat.divisor([2, 1, 1]) - Fraction(3, 2) * lat.divisor([1, 0, 0])) == 1


def test_reflection_volume_in_the_chain(a2):
    ample = a2.lattice.divisor([1, 0, 0])
    assert ample.dot(a2.curve_by_label("E1").cls) == 1
    assert k3_reflection_volume(a2, ample, "E1") == Fraction(5, 2)
