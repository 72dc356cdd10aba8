"""Surface models, del Pezzo constructors and class enumerations."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import dp_model, k3_model
from zlab import (
    IntersectionLattice,
    NegativeCurve,
    SurfaceModel,
    del_pezzo,
    enumerate_roots,
    exceptional_classes,
    is_nef,
    simple_roots,
)
from zlab.errors import (
    AmpleWitnessError,
    CurvePairingError,
    LatticeMismatch,
    MissingCanonical,
    OutOfRange,
    UnsupportedLattice,
)

EXPECTED_CURVE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
# enumerated directly from square -2 / canonical-degree 0; note the rank-2
# model carries a single root pair
EXPECTED_ROOT_COUNTS = {1: 0, 2: 2, 3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}


def test_del_pezzo_two_curve_list():
    model = dp_model(2)
    assert [c.label for c in model.curves] == ["E1", "E2", "L-E1-E2"]


@pytest.mark.parametrize("r", range(1, 9))
def test_del_pezzo_curve_counts(r):
    assert len(dp_model(r).curves) == EXPECTED_CURVE_COUNTS[r]


def test_del_pezzo_out_of_range():
    with pytest.raises(OutOfRange):
        del_pezzo(0)
    with pytest.raises(OutOfRange):
        del_pezzo(9)


def test_del_pezzo_model_invariants():
    for r in range(1, 7):
        model = dp_model(r)
        ample = model.ample
        assert ample.square == 9 - r
        assert model.canonical is not None and (-1) * model.canonical == ample
        for curve in model.curves:
            assert curve.cls.square == -1
            assert ample.dot(curve.cls) == 1
            assert curve.cls.dot(model.canonical) == -1
        classes = [c.cls for c in model.curves]
        for i, ci in enumerate(classes):
            for cj in classes[i + 1 :]:
                assert ci.dot(cj) >= 0


def test_is_nef_worked_values(dp2):
    lat = dp2.lattice
    assert is_nef(dp2, lat.divisor([3, -1, -1]))
    assert not is_nef(dp2, lat.divisor([2, 1, 0]))  # pairs -1 with E1
    assert is_nef(dp2, lat.zero())


def test_nef_closed_under_convex_combinations(dp2):
    rng = random.Random(7)
    nef_classes = [
        dp2.lattice.divisor(c)
        for c in ([3, -1, -1], [1, 0, 0], [2, 0, -1], [1, -1, 0], [2, -1, -1])
    ]
    assert all(is_nef(dp2, d) for d in nef_classes)
    for _ in range(40):
        u, v = rng.sample(nef_classes, 2)
        t = Fraction(rng.randint(0, 8), 8)
        assert is_nef(dp2, t * u + (1 - t) * v)
        assert is_nef(dp2, t * dp2.ample + (1 - t) * u)


def test_model_rejects_bad_ample():
    lat = IntersectionLattice([[1, 0], [0, -1]], ["L", "E1"])
    curve = NegativeCurve("E1", lat.divisor([0, 1]))
    with pytest.raises(AmpleWitnessError):
        SurfaceModel(lattice=lat, ample=lat.divisor([1, 0]), curves=(curve,))
    with pytest.raises(AmpleWitnessError):
        SurfaceModel(lattice=lat, ample=lat.divisor([0, 1]), curves=())


def test_model_rejects_bad_curves():
    lat = IntersectionLattice([[1, 0], [0, -1]], ["L", "E1"])
    with pytest.raises(CurvePairingError):
        NegativeCurve("L", lat.divisor([1, 0]))  # square 1
    curve = NegativeCurve("E1", lat.divisor([0, 1]))
    dupe = NegativeCurve("E1-again", lat.divisor([0, 1]))
    with pytest.raises(CurvePairingError):
        SurfaceModel(lattice=lat, ample=lat.divisor([2, -1]), curves=(curve, dupe))
    lat3 = dp_model(2).lattice
    meets_badly = (
        NegativeCurve("A", lat3.divisor([0, 1, 0])),  # E1
        NegativeCurve("B", lat3.divisor([1, 2, 0])),  # square -3, pairs -2 with E1
    )
    with pytest.raises(CurvePairingError):
        SurfaceModel(
            lattice=lat3, ample=lat3.divisor([3, -1, -1]), curves=meets_badly
        )


def _dp2_model_with(**parts) -> SurfaceModel:
    dp2 = dp_model(2)
    return SurfaceModel(**{"lattice": dp2.lattice, "ample": dp2.ample, "curves": (), **parts})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: _dp2_model_with(ample=k3_model(2).ample),
            LatticeMismatch, "ample witness lives in a different lattice",
        ),
        (
            lambda: _dp2_model_with(canonical=k3_model(2).ample),
            LatticeMismatch, "canonical class lives in a different lattice",
        ),
        (
            lambda: _dp2_model_with(curves=(
                NegativeCurve("E", dp_model(2).lattice.divisor([0, 1, 0])),
                NegativeCurve("E", dp_model(2).lattice.divisor([0, 0, 1])),
            )),
            CurvePairingError, "curve labels must be distinct",
        ),
        (
            lambda: _dp2_model_with(curves=(
                NegativeCurve("E1", dp_model(2).lattice.divisor([0, 1, 0])),
                NegativeCurve("E1-again", dp_model(2).lattice.divisor([0, Fraction(3, 3), 0])),
            )),
            CurvePairingError, "curve class E1-again is duplicated",
        ),
        (
            lambda: _dp2_model_with(curves=(k3_model(2).curves[0],)),
            LatticeMismatch, "curve E in a different lattice",
        ),
        (
            lambda: exceptional_classes(k3_model(2).lattice),
            UnsupportedLattice, "exceptional-class enumeration needs the standard basis",
        ),
    ],
    ids=["foreign-ample", "foreign-canonical", "repeated-label", "repeated-class",
         "foreign-curve", "nonstandard-basis"],
)
def test_model_refuses_foreign_or_repeated_parts(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_empty_curve_list_is_allowed():
    lat = IntersectionLattice([[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["f1", "f2", "d"])
    model = SurfaceModel(lattice=lat, ample=lat.divisor([1, 1, 0]), curves=())
    assert is_nef(model, lat.divisor([1, 1, 0]))
    assert not is_nef(model, lat.divisor([1, -1, 0]))  # square -2


# -- roots ---------------------------------------------------------------


@pytest.mark.parametrize("r", range(1, 9))
def test_root_counts(r):
    assert len(enumerate_roots(dp_model(r)).roots) == EXPECTED_ROOT_COUNTS[r]


def test_roots_come_in_opposite_pairs():
    system = enumerate_roots(dp_model(4))
    coords = {root.coords for root in system.roots}
    for root in system.roots:
        assert root.square == -2
        assert root.dot(dp_model(4).canonical) == 0
        assert tuple(-c for c in root.coords) in coords


def test_simple_roots_r3():
    model = dp_model(3)
    simple = simple_roots(model)
    formatted = [s.format() for s in simple]
    assert formatted == ["L-E1-E2-E3", "-E1+E2", "-E2+E3"]
    root_coords = {root.coords for root in enumerate_roots(model).roots}
    assert all(s.coords in root_coords for s in simple)


def test_rank_two_root_pair():
    # only +-(E2 - E1) solve square -2 with canonical degree 0 at rank 3
    system = enumerate_roots(dp_model(2))
    assert {root.format() for root in system.roots} == {"-E1+E2", "E1-E2"}
    assert [s.format() for s in system.simple] == ["-E1+E2"]


def test_roots_need_canonical_class():
    lat = dp_model(2).lattice
    model = SurfaceModel(
        lattice=lat,
        ample=lat.divisor([3, -1, -1]),
        curves=dp_model(2).curves,
    )
    with pytest.raises(MissingCanonical):
        enumerate_roots(model)


def test_roots_need_standard_basis():
    lat = IntersectionLattice([[4, 2], [2, -2]], ["H", "E"])
    model = SurfaceModel(
        lattice=lat,
        ample=lat.divisor([1, 0]),
        curves=(),
        canonical=lat.zero(),
    )
    with pytest.raises(UnsupportedLattice):
        enumerate_roots(model)


# -- independent enumeration oracle ---------------------------------------


def brute_force_classes(r: int, square: int, k_degree: int) -> set[tuple[int, ...]]:
    """Multiset-style enumeration, independent of the production search.

    For each degree d, non-increasing integer vectors m with sum(m) = 3d +
    k_degree and sum(m^2) = d^2 - square are listed by bounded recursion and
    then expanded to all coordinate orders.
    """
    found: set[tuple[int, ...]] = set()
    for d in range(-4, 9):
        target_sum = 3 * d + k_degree
        target_square = d * d - square
        if target_square < 0 or target_sum * target_sum > r * target_square:
            continue
        bound = int(target_square**0.5) + 1

        def multisets(slots, total, square_left, ceiling):
            if slots == 0:
                return [()] if total == 0 and square_left == 0 else []
            out = []
            for value in range(-bound, min(bound, ceiling) + 1):
                rest = multisets(
                    slots - 1, total - value, square_left - value * value, value
                )
                out.extend((value,) + tail for tail in rest)
            return out

        for multiset in multisets(r, target_sum, target_square, bound):
            for perm in set(permutations(multiset)):
                found.add((d,) + tuple(-m for m in perm))
    return found


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_enumerations_match_independent_oracle(r):
    model = dp_model(r)
    produced = {tuple(int(c) for c in curve.cls.coords) for curve in model.curves}
    assert produced == brute_force_classes(r, square=-1, k_degree=-1)
    produced_roots = {
        tuple(int(c) for c in root.coords) for root in enumerate_roots(model).roots
    }
    assert produced_roots == brute_force_classes(r, square=-2, k_degree=0)


@pytest.mark.parametrize("r", range(1, 9))
def test_del_pezzo_curves_are_listed_by_degree_then_multiplicities(r):
    """The curve dL - sum(m_i E_i) comes before the curve (d', m') exactly
    when (d, m) < (d', m'): the oracle's classes, sorted that way, are the
    model's curve list in order."""
    oracle = sorted(
        brute_force_classes(r, square=-1, k_degree=-1),
        key=lambda coords: (coords[0], tuple(-c for c in coords[1:])),
    )
    assert [tuple(int(c) for c in curve.cls.coords) for curve in dp_model(r).curves] == oracle
