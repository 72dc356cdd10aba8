"""The surface model's pairing kernel against the pairing of arbitrary classes."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zlab.lattice
import zlab.zariski
from conftest import (
    a2_chain_model,
    assert_segments_match_chambers,
    dp_model,
    k3_model,
    oracle_project,
    random_class,
    user_models,
)
from test_acceptance import _negative_definite_subsets, _oracle_decompose
from zlab import (
    ChamberDescriptor,
    DivisorClass,
    IntersectionLattice,
    NegativeCurve,
    SurfaceModel,
    chamber_closure_contains,
    chamber_of,
    construct_nef_with_null,
    del_pezzo,
    destabilizing_numbers,
    enumerate_chambers,
    face_of,
    is_ample,
    is_big,
    is_nef,
    null_set,
    on_chamber_boundary,
    stable_base_locus,
    vol,
    zariski_decompose,
)
from zlab.cutkosky import abelian_surface, abelian_surface_model
from zlab.errors import (CurvePairingError, LatticeMismatch, NotNef, NotNegativeDefinite,
                         NotPseudoEffective)
from zlab.lattice import gram_matrix

FACTORS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(5, 6)]
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def scaled_user_models(draw):
    """A user model whose curves are rescaled by positive rationals, so their
    classes share a common denominator s > 1.  Positive rescaling keeps every
    invariant SurfaceModel checks, except that two classes may now coincide."""
    base = draw(user_models())
    assume(base.curves)
    curves = tuple(
        NegativeCurve(c.label, draw(st.sampled_from(FACTORS)) * c.cls) for c in base.curves
    )
    assume(any(x.denominator > 1 for c in curves for x in c.cls.coords))
    try:
        return SurfaceModel(lattice=base.lattice, ample=base.ample, curves=curves)
    except CurvePairingError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(scaled_user_models(), st.data())
def test_kernel_matches_pairing_on_scaled_user_models(model, data):
    n = len(model.curves)
    classes = [c.cls for c in model.curves]
    s = math.lcm(*(cls.cleared[1] for cls in classes))  # clears the curve denominators
    kernel = model.kernel_gram(range(n))  # s**2 * C_i . C_j
    assert [[Fraction(x, s * s) for x in row] for row in kernel] == gram_matrix(classes)
    rows = model.kernel_rows(range(n))  # s * G @ C_i
    divisor = model.lattice.divisor(
        data.draw(st.lists(RATIONALS, min_size=model.lattice.rank, max_size=model.lattice.rank))
    )
    pairings = model.curve_pairings(divisor)
    assert pairings == [divisor.dot(cls) for cls in classes]
    assert pairings == [sum(x * g for x, g in zip(divisor.coords, row)) / s for row in rows]
    assert all(type(x) is int for row in rows for x in row)
    assert all(type(x) is int for row in kernel for x in row)
    assert all(type(x) in (int, Fraction) for x in pairings)

    # A + sum(t_i C_i) is big, so it has a decomposition for the oracle to find.
    ts = data.draw(st.lists(st.fractions(0, 3, max_denominator=3), min_size=n, max_size=n))
    big = model.ample
    for t, cls in zip(ts, classes):
        big = big + t * cls
    dec = zariski_decompose(model, big)
    got = (dec.positive.coords, tuple(sorted((c.label, x) for c, x in dec.coefficients)))
    assert got == _oracle_decompose(model, big, _negative_definite_subsets(model))


@pytest.mark.parametrize("method", ["pairing_sum", "curve_pairings"])
@pytest.mark.parametrize(
    "foreign",
    [lambda: abelian_surface().d, lambda: del_pezzo(3).ample],
    ids=["same-rank-other-form", "longer-rank"],
)
def test_pairing_a_foreign_class_is_a_lattice_mismatch(method, foreign):
    """Both classes used to pair: the rank-3 abelian class by the dp2 rows, and
    the rank-4 class cut short by ``zip``."""
    with pytest.raises(LatticeMismatch):
        getattr(del_pezzo(2), method)(foreign())


def test_integer_kernel_stores_plain_ints():
    model = del_pezzo(3)
    for row in model.kernel_gram(range(len(model.curves))) + model.kernel_rows(range(6)):
        assert all(type(x) is int for x in row)


def test_del_pezzo_8_pairs_each_curve_once(monkeypatch):
    """The kernel pairs curves with integer rows and NegativeCurve reads the
    sign of each curve square off the integer form, so the only class pairing
    left is the ample square (validating by class pairings took 29,161
    DivisorClass.dot calls, and 241 while the curve squares were Fractions)."""
    calls = 0
    plain = DivisorClass.dot

    def counting(self, other):
        nonlocal calls
        calls += 1
        return plain(self, other)

    monkeypatch.setattr(DivisorClass, "dot", counting)
    model = del_pezzo(8)
    assert len(model.curves) == 240
    assert calls == 1


def count_pairings(monkeypatch) -> list[int]:
    """Count the calls of the kernel's one multiply-accumulate ``pair_packed``,
    which every pairing goes through: ``pairing_sum`` and ``curve_pairings``
    wrap it, and the integer positive parts of a decomposition or a walk are
    paired by it."""
    calls = [0]
    plain = SurfaceModel.pair_packed

    def counting(self, v):
        calls[0] += 1
        return plain(self, v)

    monkeypatch.setattr(SurfaceModel, "pair_packed", counting)
    return calls


def test_each_class_is_paired_once(monkeypatch):
    """A decomposition pairs its input once and each candidate positive part
    once; the last candidate's pairings serve the nef, orthogonality and
    result checks.  A walk pairs the bundle and the direction once rather
    than on every round, and reuses the direction's pairings from its
    ampleness test (the counts were 6 and 24, then 3 and 15, then 3 and 14
    while the result's invariants were re-derived on construction, then 2
    and 13 while each round solved its starting support again, then 2 and 9
    while the walk paired the bundle for its right-hand sides: ``project``
    forms them from the kernel rows).

    The walk also solves the bundle's and the direction's right-hand sides on
    one elimination per support: the nef bundle decomposes with none, the
    round at 0 starts on the empty support (a 0 x 0 solve), three curves
    enter at 1 and two more at 2.  That is 3 eliminations, 5 while each
    round solved its starting support again and 10 while each side had its
    own."""
    dp7, dp8 = del_pezzo(7), del_pezzo(8)
    calls = count_pairings(monkeypatch)
    big = dp8.lattice.divisor([10, -6, -5, -2, -2, -1, -1, -1, -1])
    dec = zariski_decompose(dp8, big)
    assert [c.label for c in dec.support] == ["L-E1-E2"]
    assert calls == [2]  # the input and one round's candidate
    # the readers of the decomposition pair nothing more: the null set of P is
    # the zero slots of the last candidate's pairings (3 while the stable base
    # locus, the boundary and the closure tests paired P again)
    reads = [(vol, 28), (chamber_of, ChamberDescriptor(["L-E1-E2"])), (is_big, True),
             (stable_base_locus, frozenset({"L-E1-E2"})), (on_chamber_boundary, False),
             (lambda m, d: chamber_closure_contains(m, ["L-E1-E2"], d), True)]
    for read, expected in reads:
        calls[0] = 0
        assert read(dp8, big) == expected and calls == [2]
    calls[0] = 0
    assert stable_base_locus(dp8, 3 * dp8.ample) == frozenset() and calls == [1]  # nef: 2 before
    calls[0] = 0
    sizes = count_eliminations(monkeypatch)
    bundle = dp7.lattice.divisor([9, -3, -3, -2, -2, -1, -1, -1])
    walk = destabilizing_numbers(dp7, bundle, dp7.ample)
    assert walk.breakpoints == (1, 2) and len(walk.segments) == 3
    assert calls == [8] and sizes == [0, 3, 5]


def test_construct_and_face_pair_their_class_once(monkeypatch):
    """``construct_nef_with_null`` projects A without pairing it and pairs the
    result once for its nef and null checks; ``face_of`` pairs its class once
    for the nef test and the null set (2 calls each before)."""
    dp5 = del_pezzo(5)
    chamber = next(c for c in enumerate_chambers(dp5) if len(c.support) == 3)
    calls = count_pairings(monkeypatch)
    nef = construct_nef_with_null(dp5, chamber)
    assert calls == [1]
    calls[0] = 0
    face = face_of(dp5, nef)
    assert calls == [1] and face.null_labels == chamber.label_set
    assert len(face.orthogonal_basis) == dp5.lattice.rank - 3


def test_nef_null_and_ample_reads_pair_their_class_once(monkeypatch):
    """``is_nef``, ``null_set`` and ``is_ample`` each read their class through
    one pairing: the nef verdict and the zero slots come from the same sums."""
    dp5 = del_pezzo(5)
    chamber = next(c for c in enumerate_chambers(dp5) if len(c.support) == 3)
    nef = construct_nef_with_null(dp5, chamber)
    calls = count_pairings(monkeypatch)
    for read, expected in ((is_nef, True), (null_set, chamber.label_set), (is_ample, False)):
        calls[0] = 0
        assert read(dp5, nef) == expected and calls == [1]
    calls[0] = 0
    assert is_ample(dp5, dp5.ample) and calls == [1]


def fraction_reads(model: SurfaceModel, divisor: DivisorClass) -> tuple[bool, bool, frozenset]:
    """(nef, ample, null labels) by definition, on the Fraction pairings: nef is
    D**2 >= 0, D.A >= 0 and D.C >= 0 for every listed curve, ample the same
    with strict signs."""
    pairings = [divisor.dot(c.cls) for c in model.curves]
    square, witness = divisor.square, divisor.dot(model.ample)
    return (square >= 0 and witness >= 0 and all(p >= 0 for p in pairings),
            square > 0 and witness > 0 and all(p > 0 for p in pairings),
            frozenset(c.label for c, p in zip(model.curves, pairings) if p == 0))


@st.composite
def models_and_classes(draw):
    """A user model or dp2-dp8 with a class of it: drawn coordinates, or the
    positive part of their decomposition (nef, often with null curves), or that
    plus a multiple of the ample witness."""
    model = draw(st.one_of(user_models(), st.sampled_from(range(2, 9)).map(dp_model)))
    rank = model.lattice.rank
    divisor = model.lattice.divisor(draw(st.lists(RATIONALS, min_size=rank, max_size=rank)))
    if draw(st.booleans()):
        try:
            divisor = zariski_decompose(model, divisor).positive
        except (NotPseudoEffective, NotNegativeDefinite):
            pass
    return model, divisor + draw(st.sampled_from([0, 0, Fraction(1, 3), 1, 3])) * model.ample


@settings(max_examples=200, deadline=None)
@given(models_and_classes())
def test_nef_ample_and_null_reads_match_the_fraction_definition(case):
    model, divisor = case
    nef, ample, null = fraction_reads(model, divisor)
    assert is_nef(model, divisor) == nef
    assert is_ample(model, divisor) == ample
    if nef:
        assert null_set(model, divisor) == face_of(model, divisor).null_labels == null
        return
    for read in (null_set, face_of):
        with pytest.raises(NotNef):
            read(model, divisor)


def count_eliminations(monkeypatch) -> list[int]:
    """Record the size of every negative-definiteness elimination, in the
    solves and in the public constructor's re-check alike."""
    sizes: list[int] = []
    plain = zlab.lattice._negative_definite_factor

    def counting(matrix):
        sizes.append(len(matrix))
        return plain(matrix)

    monkeypatch.setattr(zlab.lattice, "_negative_definite_factor", counting)
    monkeypatch.setattr(zlab.zariski, "_negative_definite_factor", counting)
    return sizes


def test_nef_class_is_paired_once_and_eliminates_nothing(monkeypatch):
    """The nef fast path returns after pairing the input once; the big class
    of the test above solves its one-curve support by one elimination."""
    dp8 = del_pezzo(8)
    calls, sizes = count_pairings(monkeypatch), count_eliminations(monkeypatch)
    dec = zariski_decompose(dp8, 3 * dp8.ample)
    assert dec.positive == 3 * dp8.ample and dec.coefficients == ()
    assert calls == [1] and sizes == []
    zariski_decompose(dp8, dp8.lattice.divisor([10, -6, -5, -2, -2, -1, -1, -1, -1]))
    assert sizes == [1]


def test_decomposition_pairs_its_input_with_the_witness_once(monkeypatch):
    """The input's pairing with the ample witness serves both the nef test and
    the pseudo-effectivity test; the other pairing belongs to the final nef
    check of the positive part (4 while the nef test and the
    pseudo-effectivity test each paired the input, 3 while the result's
    invariants were re-derived on construction).  Only their signs are read,
    so both are integer forms on the cleared coordinates and no
    ``DivisorClass.dot`` is called (2 while they were Fractions)."""
    dp8 = del_pezzo(8)
    witness = dp8.ample.cleared[0]
    calls, dots = 0, 0
    plain_form, plain_dot = IntersectionLattice.form, DivisorClass.dot

    def counting_form(self, u, v):
        nonlocal calls
        calls += u is witness or v is witness
        return plain_form(self, u, v)

    def counting_dot(self, other):
        nonlocal dots
        dots += 1
        return plain_dot(self, other)

    monkeypatch.setattr(IntersectionLattice, "form", counting_form)
    monkeypatch.setattr(DivisorClass, "dot", counting_dot)
    dec = zariski_decompose(dp8, dp8.lattice.divisor([10, -6, -5, -2, -2, -1, -1, -1, -1]))
    assert [c.label for c in dec.support] == ["L-E1-E2"]
    assert (calls, dots) == (2, 0)


def test_big_class_queries_call_no_dot(monkeypatch):
    """chamber_of, is_big, stable_base_locus and destabilizing_numbers read
    only the signs of P**2, D**2 and D.A, so each is an integer form on the
    cleared coordinates and no ``DivisorClass.dot`` is called (on a block of
    dp8 queries, 22 of 35 calls were these signs; the rest are vol's P**2)."""
    dp7, dp8 = del_pezzo(7), del_pezzo(8)
    dots = 0
    plain_dot = DivisorClass.dot

    def counting_dot(self, other):
        nonlocal dots
        dots += 1
        return plain_dot(self, other)

    monkeypatch.setattr(DivisorClass, "dot", counting_dot)
    big = dp8.lattice.divisor([10, -6, -5, -2, -2, -1, -1, -1, -1])
    assert chamber_of(dp8, big).support == ("L-E1-E2",)
    assert is_big(dp8, big) and not is_big(dp8, dp8.lattice.divisor([1, -1] + [0] * 7))
    assert stable_base_locus(dp8, big) == {"L-E1-E2"}
    walk = destabilizing_numbers(dp7, dp7.lattice.divisor([9, -3, -3, -2, -2, -1, -1, -1]),
                                 dp7.ample)
    assert walk.breakpoints == (1, 2)
    assert dots == 0


@settings(max_examples=80, deadline=None)
@given(scaled_user_models(), st.data())
def test_pairing_numerators_over_one_positive_denominator(model, data):
    """nums[i] / den is D . C_i exactly, den > 0, and every entry is an int, so
    a sign read off a numerator is the sign of the pairing."""
    rank = model.lattice.rank
    divisor = model.lattice.divisor(
        data.draw(st.lists(RATIONALS, min_size=rank, max_size=rank))
    )
    sums, den = model.pairing_sum(divisor)
    nums = sums.values()
    assert type(den) is int and den > 0
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == [divisor.dot(c.cls) for c in model.curves]
    assert is_nef(model, divisor) == (divisor.square >= 0 and divisor.dot(model.ample) >= 0
                                      and min(model.curve_pairings(divisor)) >= 0)


@settings(max_examples=60, deadline=None)
@given(scaled_user_models(), st.data())
def test_walk_segments_agree_with_chambers_on_scaled_user_models(model, data):
    """Walls of the integer walk on kernels with s > 1, where the numerators of
    P(t)'s two parts live over different denominators."""
    rank = model.lattice.rank
    shift = data.draw(st.lists(RATIONALS, min_size=rank, max_size=rank))
    bundle = 2 * model.ample + model.lattice.divisor(shift)
    for curve in model.curves:
        bundle = bundle + data.draw(st.fractions(0, 2, max_denominator=3)) * curve.cls
    assume(is_big(model, bundle))
    direction = data.draw(st.integers(1, 3)) * model.ample + model.lattice.divisor(
        data.draw(st.lists(st.fractions(-1, 1, max_denominator=2), min_size=rank, max_size=rank))
    )
    if not is_ample(model, direction):
        direction = model.ample
    assert_segments_match_chambers(model, bundle, direction)


# -- the packed kernel against one dot product per curve row --------------------


def oracle_rows(model):
    """The integral curve vectors c_i = s*C_i paired with the lattice: the
    rows G @ c_i, and s."""
    s = math.lcm(*(x.denominator for c in model.curves for x in c.cls.coords))
    rows = [
        [sum(g * x.numerator * (s // x.denominator) for g, x in zip(grow, c.cls.coords))
         for grow in model.lattice.gram]
        for c in model.curves
    ]
    return rows, s


def oracle_numerators(model, v, d):
    """What the kernel computed before its columns were packed: one
    sum(map(mul, v, row)) per row, over the denominator d*s."""
    rows, s = oracle_rows(model)
    return [sum(map(mul, v, row)) for row in rows], d * s


def slot_bound(model, v):
    """The bound sum(|v_k| * max_i |rows[i][k]|) on |nums[i]| that picks the slot width."""
    columns = zip(*oracle_rows(model)[0])
    return sum(abs(x) * max(map(abs, col)) for x, col in zip(v, columns))


KERNEL_MODELS = st.one_of(
    st.sampled_from(range(1, 9)).map(dp_model),
    user_models(),
    scaled_user_models(),
    st.just(abelian_surface_model()),
)
WIDTHS = st.sampled_from([4, 14, 15, 16, 30, 31, 32, 62, 63, 64, 65, 100, 127, 128, 129, 200])


@settings(max_examples=150, deadline=None)
@given(KERNEL_MODELS, st.data())
def test_packed_kernel_matches_one_dot_product_per_row(model, data):
    """Coordinates up to 2**200 in absolute value: the numerators cross the
    kept slots at 2**15, 2**31 and 2**63 and the wider ones at 2**127 on
    either side."""
    rank = model.lattice.rank
    bits = data.draw(WIDTHS)
    v = data.draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=rank, max_size=rank))
    d = data.draw(st.integers(1, 12))
    assert model.pair_packed(v).values() == oracle_numerators(model, v, 1)[0]
    divisor = model.lattice.divisor([Fraction(x, d) for x in v])
    sums, den = model.pairing_sum(divisor)
    assert (sums.values(), den) == oracle_numerators(model, *divisor.cleared)


@settings(max_examples=150, deadline=None)
@given(KERNEL_MODELS, st.data())
def test_sign_and_slot_read_outs_match_the_unpacked_slots(model, data):
    """The negative and the zero slots read off the offset bits, and each slot
    read alone, agree with the full list at every width; on the abelian model,
    which has no curves, all four are empty."""
    rank = model.lattice.rank
    bits = data.draw(WIDTHS)
    v = data.draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=rank, max_size=rank))
    sums = model.pair_packed(v)
    nums = sums.values()
    assert nums == oracle_numerators(model, v, 1)[0]
    assert sums.negatives() == [i for i, x in enumerate(nums) if x < 0]
    assert sums.zeros() == [i for i, x in enumerate(nums) if x == 0]
    assert [sums.slot(i) for i in range(len(nums))] == nums


EDGES = [2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**64, 2**127 - 1, 2**127,
         2**128 + 1]


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("t", EDGES + [-t for t in EDGES])
def test_packed_kernel_at_slot_edges(r, t):
    """On dp_r a class t*E_k pairs to -t with E_k and to a positive multiple
    of t with every other curve through the k-th point, so numerators of both
    signs sit side by side at the edge of a slot."""
    model = dp_model(r)
    for k in range(1, r + 1):
        for v in ([0] * k + [t] + [0] * (r - k), [t] + [-t] * r, [t] * (r + 1)):
            assert model.pair_packed(v).values() == oracle_numerators(model, v, 1)[0]
    assert model.pair_packed([0, t] + [0] * (r - 1)).values().count(-t) == 1


def test_one_and_several_word_slots_both_run():
    """On dp2 the bound of t*E1 is |t|: 2**63 - 1 is the largest numerator in
    one 64-bit word, and +-2**63 takes two words."""
    model = dp_model(2)
    assert slot_bound(model, [0, 2**63 - 1, 0]) == 2**63 - 1
    for t in (2**63 - 1, -(2**63 - 1), 2**63, -(2**63)):
        sums, den = model.pairing_sum(model.lattice.divisor([0, t, 0]))
        nums = sums.values()
        assert den == 1 and sorted(nums) == sorted([-t, 0, t])  # E1, E2, L-E1-E2
        assert nums == oracle_numerators(model, [0, t, 0], 1)[0]


def test_the_narrowest_slot_that_fits_is_chosen():
    """On dp2 the bound of t*E1 is |t|, and a slot of w bits holds |t| < 2**(w-1)."""
    model = dp_model(2)
    for t, width in ((2**15 - 1, 16), (2**15, 32), (2**31 - 1, 32), (2**31, 64),
                     (2**63 - 1, 64), (2**63, 128), (2**127, 192)):
        for signed in (t, -t):
            sums = model.pair_packed([0, signed, 0])
            assert sums.width == width
            assert sorted(sums.values()) == sorted([-signed, 0, signed])


def test_kept_packings_are_built_on_first_use():
    """Construction pairs the curves and the witness in 16-bit slots; the 32-
    and 64-bit packings appear when a class needs them, and wider slots are
    never kept."""
    model = del_pezzo(3)
    assert sorted(vars(model)["_packings"]) == [16]
    model.pair_packed([2**20, 0, 0, 0])
    model.pair_packed([2**100, 0, 0, 0])
    assert sorted(vars(model)["_packings"]) == [16, 32]


def test_abelian_model_has_no_numerators():
    model = abelian_surface_model()
    assert model.pair_packed([1, -2, 3]).values() == []
    sums, den = model.pairing_sum(model.lattice.divisor([Fraction(x, 5) for x in (1, -2, 3)]))
    assert (sums.values(), den) == ([], 5)
    assert model.pairing_sum(model.ample)[0].values() == []


# -- the projection P_S against a Fraction solve --------------------------------


def assert_project_matches_the_oracle(model, chamber, classes):
    """One ``project`` call for several classes against ``oracle_project``
    per class: p/q is P_S(D) with q > 0, and xss[c][j] / (e*d) is x_j."""
    indices = [model.curve_index(label) for label in chamber.support]
    projected, xss, e = model.project([c.cleared for c in classes], indices)
    assert e > 0 and len(projected) == len(xss) == len(classes)
    for divisor, (p, q), xs in zip(classes, projected, xss):
        positive, expected = oracle_project(model, divisor, chamber.support)
        assert q > 0 and model.lattice.divisor([Fraction(x, q) for x in p]) == positive
        assert [Fraction(x, e * divisor.cleared[1]) for x in xs] == expected


PROJECT_MODELS = {
    **{f"dp{r}": (lambda r=r: dp_model(r)) for r in range(2, 7)},
    "a2": a2_chain_model,
    "k3(1)": lambda: k3_model(1),
    "k3(2)": lambda: k3_model(2),
}


@pytest.mark.parametrize("key", PROJECT_MODELS)
def test_project_matches_the_fraction_oracle_on_every_chamber(key):
    """The ample witness and two seeded classes, projected together onto
    every chamber's support."""
    model = PROJECT_MODELS[key]()
    rng = random.Random(f"project-{key}")
    for chamber in enumerate_chambers(model):
        classes = [model.ample, random_class(model, rng), random_class(model, rng)]
        assert_project_matches_the_oracle(model, chamber, classes)


@settings(max_examples=40, deadline=None)
@given(scaled_user_models(), st.data())
def test_project_matches_the_fraction_oracle_on_scaled_user_models(model, data):
    """Curves over a common denominator s > 1, where the coefficients carry s."""
    rank = model.lattice.rank
    classes = [model.ample] + [
        model.lattice.divisor(data.draw(st.lists(RATIONALS, min_size=rank, max_size=rank)))
        for _ in range(2)
    ]
    chambers = enumerate_chambers(model)
    for _ in range(4):
        assert_project_matches_the_oracle(model, data.draw(st.sampled_from(chambers)), classes)
