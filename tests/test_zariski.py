"""Decompositions, Neg/Null sets and chamber membership predicates."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (a2_chain_model, dp_model, k3_model, random_ample_class, random_big_class,
                      random_class, user_models)
from test_kernel import RATIONALS, scaled_user_models
from zlab import (
    ChamberDescriptor,
    NegativeCurve,
    SurfaceModel,
    chamber_closure_contains,
    chamber_of,
    construct_nef_with_null,
    is_big,
    is_nef,
    is_stable,
    neg_set,
    null_set,
    on_chamber_boundary,
    stable_base_locus,
    vol,
    volume_polynomial,
    zariski_decompose,
)
from zlab.cutkosky import abelian_surface_model
from zlab.errors import (
    InstableDivisor,
    LatticeMismatch,
    NotBig,
    NotNef,
    NotNegativeDefinite,
    NotPseudoEffective,
    UnrealizableSupport,
)
from zlab.lattice import gram_matrix, is_negative_definite
from zlab.surface import PackedSum
from zlab.zariski import ZariskiDecomposition, support_curves


def test_decomposition_worked_values(dp2):
    lat = dp2.lattice
    dec = zariski_decompose(dp2, lat.divisor([2, 1, 0]))
    assert dec.positive.coords == lat.divisor([2, 0, 0]).coords
    assert [(c.label, x) for c, x in dec.coefficients] == [("E1", 1)]

    ample = lat.divisor([3, -1, -1])
    dec = zariski_decompose(dp2, ample)
    assert dec.positive == ample and dec.coefficients == ()

    tilted = lat.divisor([2, Fraction(-3, 2), -1])
    dec = zariski_decompose(dp2, tilted)
    assert dec.positive.coords == (Fraction(3, 2), Fraction(-1), Fraction(-1, 2))
    assert [(c.label, x) for c, x in dec.coefficients] == [
        ("L-E1-E2", Fraction(1, 2))
    ]


def test_decomposition_validates_structure(dp2):
    rng = random.Random(5)
    for _ in range(30):
        divisor = random_big_class(dp2, rng)
        dec = zariski_decompose(dp2, divisor)
        # exact reconstruction and orthogonality
        rebuilt = dec.positive
        for curve, coeff in dec.coefficients:
            assert coeff > 0
            assert dec.positive.dot(curve.cls) == 0
            rebuilt = rebuilt + coeff * curve.cls
        assert rebuilt.coords == divisor.coords
        assert is_nef(dp2, dec.positive)


@pytest.mark.parametrize(
    "input_coords, positive_coords, parts, message",
    [
        ([2, 1, 0], [2, 1, 0], {"E1": 0}, "negative-part coefficients must be strictly positive"),
        ([2, 1, 0], [2, 0, 0], {"E1": 2}, "positive and negative part do not sum to the input"),
        ([2, 1, 0], [2, 1, 0], {}, "positive part is not nef"),
        ([3, 0, -1], [3, -1, -1], {"E1": 1}, "positive part is not orthogonal to the support"),
        (
            [1, 0, 0], [0, 0, 0], {"E1": 1, "E2": 1, "L-E1-E2": 1},
            "support pairing matrix is not negative definite",
        ),
    ],
    ids=["zero-coefficient", "wrong-sum", "positive-not-nef", "not-orthogonal",
         "indefinite-support"],
)
def test_decomposition_refuses_broken_invariants(dp2, input_coords, positive_coords, parts,
                                                 message):
    lat = dp2.lattice
    with pytest.raises(ValueError) as excinfo:
        ZariskiDecomposition(
            model=dp2,
            input=lat.divisor(input_coords),
            positive=lat.divisor(positive_coords),
            coefficients=tuple((dp2.curve_by_label(k), Fraction(v)) for k, v in parts.items()),
        )
    assert str(excinfo.value) == message


def test_constructor_refuses_a_curve_that_is_not_the_model_curve_of_its_label(dp3):
    """A curve is looked up by its label, so a curve labelled E1 that carries
    E2's class used to pass every check on E1's class and leave E2's class in
    the coefficients while the negative part read E1."""
    lat = dp3.lattice
    divisor, positive = lat.divisor([2, 1, 0, 0]), lat.divisor([2, 0, 0, 0])
    e1, e2 = dp3.curve_by_label("E1"), dp3.curve_by_label("E2")
    assert ZariskiDecomposition(dp3, divisor, positive, [(e1, Fraction(1))]).negative == e1.cls
    impostor = NegativeCurve("E1", e2.cls)
    with pytest.raises(ValueError, match="curve E1 is not the model's curve of that label"):
        ZariskiDecomposition(dp3, divisor, positive, [(impostor, Fraction(1))])


def test_an_unknown_label_is_an_unrealizable_support(dp3):
    """The label lookup used to raise a bare KeyError, which the public
    constructor let escape."""
    lat = dp3.lattice
    stranger = NegativeCurve("X", dp3.curve_by_label("E1").cls)
    with pytest.raises(UnrealizableSupport, match="^no curve labelled 'X'$"):
        ZariskiDecomposition(dp3, lat.divisor([2, 1, 0, 0]), lat.divisor([2, 0, 0, 0]),
                             [(stranger, Fraction(1))])
    with pytest.raises(UnrealizableSupport, match="^no curve labelled 'X'$"):
        dp3.curve_by_label("X")


def test_a_bare_string_is_refused_as_a_support(dp2):
    """A string used to be split into its characters: "E1" named the support
    {1, E}, and volume_polynomial(m, "E1") reported no curve labelled '1'."""
    with pytest.raises(TypeError, match="not the string 'E1'"):
        ChamberDescriptor("E1")
    entries = (support_curves, volume_polynomial, construct_nef_with_null,
               lambda model, support: chamber_closure_contains(model, support, model.ample))
    for entry in entries:
        with pytest.raises(TypeError, match="not the string 'E1'"):
            entry(dp2, "E1")
        entry(dp2, ["E1"])  # the one-label list it meant is accepted


# -- the public constructor as an oracle for zariski_decompose --------------


def rebuilds_through_the_constructor(model: SurfaceModel, divisor) -> bool:
    """Decompose the class, if it decomposes, and rebuild the result with the
    public constructor, which re-checks every invariant that
    ``zariski_decompose`` establishes on its own path; True iff the support is
    nonempty."""
    try:
        dec = zariski_decompose(model, divisor)
    except (NotPseudoEffective, NotNegativeDefinite):
        return False
    rebuilt = ZariskiDecomposition(model, divisor, dec.positive, dec.coefficients)
    assert rebuilt == dec and rebuilt.coefficients == dec.coefficients
    return bool(dec.coefficients)


@pytest.mark.parametrize("r", range(1, 9))
def test_every_decomposition_passes_the_constructor_on_del_pezzo(r):
    """Classes drawn as the benchmark draws them: randint(1, 30), then
    Fraction(randint(-6, 8), randint(1, 4)) per exceptional coordinate."""
    model, rng = dp_model(r), random.Random(400 + r)
    supported = sum(
        rebuilds_through_the_constructor(model, model.lattice.divisor(
            [rng.randint(1, 30)] + [Fraction(rng.randint(-6, 8), rng.randint(1, 4))
                                    for _ in range(r)]))
        for _ in range(40)
    )
    assert supported > 0


@pytest.mark.parametrize("model", [a2_chain_model, lambda: k3_model(1), lambda: k3_model(2)],
                         ids=["a2", "k3(1)", "k3(2)"])
def test_every_decomposition_passes_the_constructor_off_del_pezzo(model):
    surface, rng = model(), random.Random(409)
    rank = surface.lattice.rank
    supported = sum(
        rebuilds_through_the_constructor(surface, surface.lattice.divisor(
            [Fraction(rng.randint(-6, 8), rng.randint(1, 4)) for _ in range(rank)]))
        for _ in range(60)
    )
    assert supported > 0


@settings(max_examples=60, deadline=None)
@given(st.one_of(user_models(), scaled_user_models()), st.data())
def test_every_decomposition_passes_the_constructor_on_user_models(model, data):
    rank = model.lattice.rank
    for _ in range(3):
        coords = data.draw(st.lists(RATIONALS, min_size=rank, max_size=rank))
        rebuilds_through_the_constructor(model, model.lattice.divisor(coords))
        rebuilds_through_the_constructor(model, model.ample + model.lattice.divisor(coords))


# -- the public decomposition as the oracle of the integer core ------------------
# vol, chamber_of, the stable base locus and the boundary predicates read the
# private integer core; their definitions on ZariskiDecomposition are kept here.


def outcome(read, *args):
    """("ok", value), or (error class, message) when ``read`` raises."""
    try:
        return "ok", read(*args)
    except Exception as exc:  # any error: its class and message are what is compared
        return type(exc), str(exc)


def oracle_big(model, divisor):
    """The decomposition of a big class; else NotBig, with the message of the
    refusal or of the non-positive square."""
    try:
        dec = zariski_decompose(model, divisor)
    except (NotPseudoEffective, NotNegativeDefinite) as exc:
        raise NotBig(str(exc)) from exc
    if dec.positive.square <= 0:
        raise NotBig("positive part has non-positive square")
    return dec


def oracle_vol(model, divisor):
    try:
        square = zariski_decompose(model, divisor).positive.square
    except (NotPseudoEffective, NotNegativeDefinite):
        return Fraction(0)
    return max(square, Fraction(0))


def oracle_boundary(model, divisor):
    dec = oracle_big(model, divisor)
    return dec.support_labels != null_set(model, dec.positive)


def oracle_locus(model, divisor):
    if oracle_boundary(model, divisor):
        raise InstableDivisor("the class lies on a chamber boundary")
    return oracle_big(model, divisor).support_labels


def oracle_closure(model, reference, divisor):
    labels = frozenset(c.label for c in support_curves(model, reference))
    dec = oracle_big(model, divisor)
    return dec.support_labels <= labels <= null_set(model, dec.positive)


READS = [
    (vol, oracle_vol),
    (chamber_of, lambda m, d: ChamberDescriptor(oracle_big(m, d).support_labels)),
    (stable_base_locus, oracle_locus),
    (is_stable, lambda m, d: not oracle_boundary(m, d)),
    (on_chamber_boundary, oracle_boundary),
    (is_big, lambda m, d: outcome(oracle_big, m, d)[0] == "ok"),
]


def assert_reads_match_the_oracles(model, divisor):
    """Every reader of the core equals its oracle, or raises the same error
    class with the same message; chamber_closure_contains against the empty
    support, the class's own support and the null set of its positive part."""
    for read, oracle in READS:
        assert outcome(read, model, divisor) == outcome(oracle, model, divisor), read.__name__
    references = [()]
    if outcome(oracle_big, model, divisor)[0] == "ok":
        dec = oracle_big(model, divisor)
        references += [dec.support_labels, null_set(model, dec.positive)]
    for reference in references:
        assert (outcome(chamber_closure_contains, model, reference, divisor)
                == outcome(oracle_closure, model, reference, divisor))


def core_classes(model, rng, count):
    """Seeded classes: drawn coordinates, big classes, and positive parts of
    big classes, which often sit on a chamber boundary."""
    big = [random_big_class(model, rng) for _ in range(count)]
    return ([random_class(model, rng) for _ in range(count)] + big
            + [zariski_decompose(model, d).positive for d in big]
            + [model.ample, -model.ample, model.lattice.zero()])


@pytest.mark.parametrize("r", range(1, 9))
def test_core_readers_match_the_decomposition_on_del_pezzo(r):
    model, rng = dp_model(r), random.Random(900 + r)
    for divisor in core_classes(model, rng, 12):
        assert_reads_match_the_oracles(model, divisor)


@pytest.mark.parametrize(
    "model", [a2_chain_model, lambda: k3_model(1), lambda: k3_model(2), abelian_surface_model],
    ids=["a2", "k3(1)", "k3(2)", "abelian"])
def test_core_readers_match_the_decomposition_off_del_pezzo(model):
    surface, rng = model(), random.Random(917)
    for divisor in core_classes(surface, rng, 20):
        assert_reads_match_the_oracles(surface, divisor)


@settings(max_examples=60, deadline=None)
@given(user_models(), st.data())
def test_core_readers_match_the_decomposition_on_user_models(model, data):
    rank = model.lattice.rank
    for _ in range(3):
        divisor = model.lattice.divisor(data.draw(st.lists(RATIONALS, min_size=rank,
                                                           max_size=rank)))
        assert_reads_match_the_oracles(model, divisor)
        assert_reads_match_the_oracles(model, divisor + model.ample)


def test_not_pseudo_effective_class_is_not_big(dp2):
    with pytest.raises(NotBig) as excinfo:
        chamber_of(dp2, -dp2.ample)
    assert isinstance(excinfo.value.__cause__, NotPseudoEffective)
    assert str(excinfo.value) == "class pairs non-positively with the ample witness and is not nef"


def test_neg_and_null_worked_values(dp2):
    lat = dp2.lattice
    assert neg_set(dp2, lat.divisor([2, 1, 0])) == {"E1"}
    assert null_set(dp2, lat.divisor([2, 0, 0])) == {"E1", "E2"}
    assert null_set(dp2, lat.divisor([3, -1, -1])) == set()
    with pytest.raises(NotNef):
        null_set(dp2, lat.divisor([2, 1, 0]))


def test_is_big_worked_values(dp2):
    lat = dp2.lattice
    assert is_big(dp2, lat.divisor([1, 0, 0]))
    assert not is_big(dp2, lat.divisor([0, 1, 0]))  # E1: positive part 0
    assert is_big(dp2, lat.divisor([3, -1, -1]))
    assert not is_big(dp2, lat.zero())
    assert not is_big(dp2, -1 * lat.divisor([1, 0, 0]))


def test_not_pseudo_effective_inputs(dp2):
    lat = dp2.lattice
    with pytest.raises(NotPseudoEffective):
        zariski_decompose(dp2, -1 * lat.divisor([1, 0, 0]))
    # pairs positively with the witness but supports no decomposition
    hopeless = lat.divisor([1, -5, 4])
    assert not is_big(dp2, hopeless)


def test_decompositions_where_a_sign_is_zero(dp2):
    """The zero class is nef; a (-1)-curve is its own negative part, with P = 0,
    so P**2 = P.A = 0 and vol 0; E1 - E2 pairs to 0 with the witness but is not
    nef, so the witness test refuses it."""
    lat = dp2.lattice
    zero = zariski_decompose(dp2, lat.zero())
    assert zero.positive == lat.zero() and zero.coefficients == ()
    curve = zariski_decompose(dp2, lat.divisor([0, 1, 0]))
    assert curve.positive == lat.zero()
    assert [(c.label, x) for c, x in curve.coefficients] == [("E1", 1)]
    assert vol(dp2, curve.input) == 0 and not is_big(dp2, curve.input)
    with pytest.raises(NotPseudoEffective, match="ample witness"):
        zariski_decompose(dp2, lat.divisor([0, 1, -1]))


def test_lattice_mismatch(dp2):
    with pytest.raises(LatticeMismatch):
        zariski_decompose(dp2, dp_model(3).lattice.divisor([1, 0, 0, 0]))


def test_chamber_of_worked_values(dp2):
    lat = dp2.lattice
    assert chamber_of(dp2, lat.divisor([3, -1, -1])).support == ()
    assert chamber_of(dp2, lat.divisor([2, 1, -1])).support == ("E1",)
    assert chamber_of(dp2, lat.divisor([2, Fraction(-3, 2), -1])).support == (
        "L-E1-E2",
    )
    with pytest.raises(NotBig):
        chamber_of(dp2, lat.divisor([0, 1, 0]))


def test_boundary_worked_values(dp2):
    lat = dp2.lattice
    assert on_chamber_boundary(dp2, lat.divisor([1, 0, 0]))  # Null(L) = {E1, E2}
    assert on_chamber_boundary(dp2, lat.divisor([2, 1, 0]))
    assert not on_chamber_boundary(dp2, lat.divisor([2, 1, -1]))


def test_closure_worked_values(dp2):
    lat = dp2.lattice
    L = lat.divisor([1, 0, 0])
    assert chamber_closure_contains(dp2, {"E2"}, L)
    assert not chamber_closure_contains(dp2, {"E1", "E2"}, lat.divisor([3, -1, -1]))
    big = lat.divisor([5, -1, -2])
    assert chamber_closure_contains(dp2, set(), big) == (neg_set(dp2, big) == set())
    with pytest.raises(UnrealizableSupport):
        chamber_closure_contains(dp2, {"E1", "L-E1-E2"}, L)


def test_neg_subset_of_null_of_positive_part(dp2, dp3):
    rng = random.Random(11)
    for model in (dp2, dp3):
        for _ in range(40):
            divisor = random_big_class(model, rng)
            dec = zariski_decompose(model, divisor)
            assert dec.support_labels <= null_set(model, dec.positive)


def test_support_monotone_under_ample_addition(dp2, dp3):
    rng = random.Random(13)
    for model in (dp2, dp3):
        for _ in range(40):
            divisor = random_big_class(model, rng)
            ample = random_ample_class(model, rng)
            lam = Fraction(rng.randint(1, 40), rng.randint(1, 8))
            assert neg_set(model, divisor + lam * ample) <= neg_set(model, divisor)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=Fraction(1, 5), max_value=7, max_denominator=9))
def test_decomposition_homogeneity(scale):
    model = dp_model(2)
    lat = model.lattice
    for coords in ([2, 1, 0], [2, Fraction(-3, 2), -1], [5, -1, -2], [4, 3, -2]):
        divisor = lat.divisor(coords)
        dec = zariski_decompose(model, divisor)
        scaled = zariski_decompose(model, scale * divisor)
        assert scaled.positive.coords == (scale * dec.positive).coords
        assert {c.label: x for c, x in scaled.coefficients} == {
            c.label: scale * x for c, x in dec.coefficients
        }


# -- brute-force uniqueness oracle ----------------------------------------


def brute_force_decomposition(model, divisor):
    """Try every negative definite curve subset; return the unique valid
    decomposition as (positive coords, coefficient map)."""
    curves = model.curves
    results = set()
    max_size = model.lattice.rank - 1
    for size in range(0, min(len(curves), max_size) + 1):
        for subset in combinations(curves, size):
            classes = [c.cls for c in subset]
            gram = gram_matrix(classes)
            if classes and not is_negative_definite(gram):
                continue
            if classes:
                rhs = [divisor.dot(cls) for cls in classes]
                from zlab.lattice import solve_symmetric

                coeffs = solve_symmetric(gram, rhs)
            else:
                coeffs = []
            if any(x < 0 for x in coeffs):
                continue
            positive = divisor
            for cls, x in zip(classes, coeffs):
                positive = positive - x * cls
            if not is_nef(model, positive):
                continue
            support = tuple(
                sorted(
                    (c.label, x) for c, x in zip(subset, coeffs) if x != 0
                )
            )
            results.add((positive.coords, support))
    assert len(results) == 1, f"expected a unique decomposition, got {results}"
    return next(iter(results))


def test_iterative_matches_brute_force(dp2, dp3):
    rng = random.Random(17)
    for model in (dp2, dp3):
        for _ in range(25):
            divisor = random_big_class(model, rng)
            dec = zariski_decompose(model, divisor)
            expected = brute_force_decomposition(model, divisor)
            got = (
                dec.positive.coords,
                tuple(sorted((c.label, x) for c, x in dec.coefficients)),
            )
            assert got == expected


def test_decomposition_on_the_largest_model():
    """240-curve model: multi-round augmentation still lands on a valid
    decomposition, which the public constructor re-checks and accepts."""
    model = dp_model(8)
    rng = random.Random(83)
    lat = model.lattice
    seen_nonempty = False
    for _ in range(10):
        divisor = random_big_class(model, rng, lo=-3, hi=4, max_den=2)
        dec = zariski_decompose(model, divisor)
        assert rebuilds_through_the_constructor(model, divisor) == bool(dec.coefficients)
        assert dec.support_labels <= null_set(model, dec.positive)
        seen_nonempty = seen_nonempty or bool(dec.coefficients)
        doubled = zariski_decompose(model, 2 * divisor)
        assert doubled.positive.coords == (2 * dec.positive).coords
    assert seen_nonempty


def count_kernel_reads(monkeypatch) -> list[int]:
    """Record the size of every submatrix read from a model's pairing kernel;
    the integer solves and the chamber enumeration read it through ``kernel_gram``."""
    sizes: list[int] = []
    plain = SurfaceModel.kernel_gram

    def counting(self, indices):
        sizes.append(len(indices))
        return plain(self, indices)

    monkeypatch.setattr(SurfaceModel, "kernel_gram", counting)
    return sizes


def test_oversized_support_fails_before_its_gram_matrix(monkeypatch):
    """This dp8 class augments to all 240 curves; no 9 or more classes are
    negative definite in signature (1, 8), so no such matrix is ever read."""
    model = dp_model(8)
    sizes = count_kernel_reads(monkeypatch)
    coords = "3,3/2,-3,-3,5,-2/3,5,4,7/2".split(",")
    with pytest.raises(NotNegativeDefinite):
        zariski_decompose(model, model.lattice.divisor([Fraction(x) for x in coords]))
    assert sizes and max(sizes) < model.lattice.rank


def test_support_of_rank_many_curves_is_refused_unbuilt(dp2, monkeypatch):
    sizes = count_kernel_reads(monkeypatch)
    with pytest.raises(UnrealizableSupport):
        support_curves(dp2, ["E1", "E2", "L-E1-E2"])
    assert sizes == []


def test_rank_many_negative_slots_are_refused_by_count(monkeypatch):
    """This dp8 class pairs negatively with 15 curves, so its first support is
    refused by counting the negative slots, before any is listed; the
    canonical class pairs negatively with all 240 but fails the witness
    test first."""
    model = dp_model(8)

    def unread(self):
        raise AssertionError("the negative slots were listed")

    monkeypatch.setattr(PackedSum, "negatives", unread)
    with pytest.raises(NotNegativeDefinite) as excinfo:
        zariski_decompose(model, model.lattice.divisor([2, 0, -2, -2, 7, -2, 1, 8, -2]))
    assert str(excinfo.value) == "15 classes in rank 9 are never negative definite"
    with pytest.raises(NotPseudoEffective):
        zariski_decompose(model, model.canonical)


def test_a_support_grown_to_rank_curves_is_refused_unread(dp2, monkeypatch):
    """3L - 4E1 - 4E2 pairs negatively with L-E1-E2 alone; after one solve on
    that curve both exceptional curves enter, and the 3-curve support, as many
    as the rank, is refused by its size before its matrix is read."""
    sizes = count_kernel_reads(monkeypatch)
    with pytest.raises(NotNegativeDefinite) as excinfo:
        zariski_decompose(dp2, dp2.lattice.divisor([3, -4, -4]))
    assert str(excinfo.value) == "3 classes in rank 3 are never negative definite"
    assert sizes == [1]


# -- continuity across a wall ----------------------------------------------


def test_positive_parts_converge_when_crossing_a_wall(dp2):
    """Walk across the E1-wall through 3L - E2; the positive parts on both
    sides approach the wall-limit positive part monotonically."""
    lat = dp2.lattice
    wall_point = lat.divisor([3, 0, -1])
    wall_dec = zariski_decompose(dp2, wall_point)
    assert wall_dec.positive == wall_point and on_chamber_boundary(dp2, wall_point)
    direction = lat.divisor([1, 1, 0])
    distances = []
    for k in range(1, 15):
        t = Fraction((-1) ** k, 2**k)
        dec = zariski_decompose(dp2, wall_point + t * direction)
        gap = max(
            abs(a - b) for a, b in zip(dec.positive.coords, wall_point.coords)
        )
        distances.append(gap)
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert distances[-1] < Fraction(1, 10_000)
