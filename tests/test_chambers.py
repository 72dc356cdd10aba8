"""Nef-class construction, faces, and chamber enumeration."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import a2_chain_model, dp_model, k3_model, random_big_class, user_models
import zlab.chambers
from zlab import (
    ChamberDescriptor,
    Face,
    IntersectionLattice,
    NegativeCurve,
    SurfaceModel,
    chamber_of,
    construct_nef_with_null,
    enumerate_chambers,
    face_of,
    null_set,
    on_chamber_boundary,
)
from zlab.errors import (
    NotNef,
    NotNegativeDefinite,
    NullMismatch,
    RankTooLargeForEnumeration,
    UnrealizableSupport,
)
from zlab.lattice import gram_matrix, is_negative_definite


def test_construct_worked_values(dp2):
    lat = dp2.lattice
    assert construct_nef_with_null(dp2, {"E1"}).coords == lat.divisor([3, 0, -1]).coords
    assert construct_nef_with_null(dp2, set()) == dp2.ample
    both = construct_nef_with_null(dp2, {"E1", "E2"})
    assert both.coords == lat.divisor([3, 0, 0]).coords
    assert null_set(dp2, both) == {"E1", "E2"}


def test_construct_rejects_indefinite_support(dp2):
    with pytest.raises(NotNegativeDefinite):
        construct_nef_with_null(dp2, ["E1", "L-E1-E2"])


def test_construct_reads_each_label_once(dp3):
    """A repeated label names the same support as the label alone, as it does
    for ``support_curves`` and ``volume_polynomial``; it used to enter the
    solve twice and fail as a singular matrix."""
    assert construct_nef_with_null(dp3, ["E1", "E1"]) == construct_nef_with_null(dp3, ["E1"])
    assert null_set(dp3, construct_nef_with_null(dp3, ["E1", "E2", "E1"])) == {"E1", "E2"}


def test_construct_names_an_indefinite_support(dp2):
    with pytest.raises(NotNegativeDefinite) as excinfo:
        construct_nef_with_null(dp2, ["L-E1-E2", "E1", "E1"])
    assert str(excinfo.value) == "support {E1, L-E1-E2}: matrix is not negative definite"


def test_construct_names_an_unknown_label(dp2):
    """An unknown label used to escape as a bare KeyError."""
    with pytest.raises(UnrealizableSupport) as excinfo:
        construct_nef_with_null(dp2, ["E1", "X"])
    assert str(excinfo.value) == "no curve labelled 'X'"


def test_face_worked_values(dp2):
    lat = dp2.lattice
    null_labels, basis = face_of(dp2, lat.divisor([2, 0, 0]))
    assert null_labels == {"E1", "E2"}
    assert len(basis) == 1
    assert basis[0].coords == lat.divisor([1, 0, 0]).coords

    null_labels, basis = face_of(dp2, dp2.ample)
    assert null_labels == set()
    assert len(basis) == 3

    null_labels, basis = face_of(dp2, lat.divisor([3, 0, -1]))
    assert null_labels == {"E1"}
    assert len(basis) == 2
    for vector in basis:
        assert vector.dot(lat.divisor([0, 1, 0])) == 0

    with pytest.raises(NotNef):
        face_of(dp2, lat.divisor([2, 1, 0]))


def gauss_jordan_face(model, nef_class):
    """Oracle for ``face_of``: Fraction Gauss-Jordan on the kernel rows of the
    null curves, sorted by label, and one basis vector per free column of
    their reduced row echelon form (the library's routine before ``face_of``
    solved the normal equations by the integer Bareiss elimination)."""
    labels = null_set(model, nef_class)
    rank = model.lattice.rank
    rows = [[Fraction(x) for x in row]
            for row in model.kernel_rows([model.curve_index(label) for label in sorted(labels)])]
    pivots: list[int] = []
    for col in range(rank):
        pivot = next((r for r in range(len(pivots), len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        top = len(pivots)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(rank) if c not in pivots):
        coords = [Fraction(int(c == free)) for c in range(rank)]
        for row, col in zip(rows, pivots):
            coords[col] = -row[free]
        basis.append(model.lattice.divisor(coords))
    return Face(labels, tuple(basis))


def assert_faces_match_the_oracle(model, nef_classes):
    for nef_class in nef_classes:
        face = face_of(model, nef_class)
        assert face == gauss_jordan_face(model, nef_class)
        for vector in face.orthogonal_basis:
            sums = model.pairing_sum(vector)[0]
            assert all(sums.slot(model.curve_index(label)) == 0 for label in face.null_labels)


@pytest.mark.parametrize("key", [1, 2, 3, 4, 5, 6, "a2", "k3(1)", "k3(2)"])
def test_face_matches_the_gauss_jordan_oracle_on_chamber_witnesses(key):
    """Every chamber's witness, dp6's 2,764 among them, and the zero class,
    whose null rows are every curve's and linearly dependent from dp3 on."""
    model = bundled_model(key)
    witnesses = [construct_nef_with_null(model, c) for c in enumerate_chambers(model)]
    assert_faces_match_the_oracle(model, witnesses + [model.lattice.zero()])


@pytest.mark.parametrize("r", range(2, 9))
def test_face_matches_the_oracle_on_square_zero_classes(r):
    """L - E1 and L have square 0.  The 2(r - 1) null curves of L - E1, the
    E_j and L - E1 - E_j for j > 1, have rows that are linearly dependent from
    dp3 on, and leave the one free column E1: the basis is E1 - L."""
    model = dp_model(r)
    fibration, line = (model.lattice.divisor([1, -1] + [0] * (r - 1)),
                       model.lattice.basis_divisor(0))
    assert_faces_match_the_oracle(model, [fibration, line])
    assert face_of(model, fibration).orthogonal_basis == (-fibration,)
    assert face_of(model, line).orthogonal_basis == (line,)


@settings(max_examples=60, deadline=None)
@given(user_models())
def test_face_matches_the_oracle_on_user_models(model):
    witnesses = [construct_nef_with_null(model, c) for c in enumerate_chambers(model)]
    assert_faces_match_the_oracle(model, witnesses + [model.ample, model.lattice.zero()])


def test_enumerate_chambers_dp1_dp2(dp2):
    assert [c.support for c in enumerate_chambers(dp_model(1))] == [(), ("E1",)]
    assert [c.support for c in enumerate_chambers(dp2)] == [
        (),
        ("E1",),
        ("E2",),
        ("L-E1-E2",),
        ("E1", "E2"),
    ]


BUNDLED_MODELS = {
    "a2": a2_chain_model,
    "k3(1)": lambda: k3_model(1),
    "k3(2)": lambda: k3_model(2),
}


def bundled_model(key):
    """del_pezzo(key) for an integer key, else the named bundled model."""
    return dp_model(key) if isinstance(key, int) else BUNDLED_MODELS[key]()


def negative_definite_subsets(curves, sizes=None):
    """Every curve subset with a negative definite Gram matrix (the empty one
    included), found by scanning the full power set, or its ``sizes``."""
    return [
        subset
        for size in (range(len(curves) + 1) if sizes is None else sizes)
        for subset in combinations(curves, size)
        if is_negative_definite(gram_matrix([c.cls for c in subset]))
    ]


def brute_force_chambers(model, below_rank=False):
    """The chamber supports the theorem predicts: all negative definite curve
    subsets, sorted like ``enumerate_chambers``.  ``below_rank`` scans only the
    sets of fewer than rank curves, all that signature (1, rank - 1) allows."""
    sizes = range(model.lattice.rank) if below_rank else None
    subsets = negative_definite_subsets(model.curves, sizes)
    return sorted((tuple(sorted(c.label for c in s)) for s in subsets), key=lambda s: (len(s), s))


@pytest.mark.parametrize("key", [1, 2, 3, 4, "a2", "k3(1)", "k3(2)"])
def test_enumeration_matches_power_set_scan(key):
    model = bundled_model(key)
    assert [c.support for c in enumerate_chambers(model)] == brute_force_chambers(model)


@pytest.mark.parametrize("key", [1, 2, 3, 4, 5, "a2", "k3(1)", "k3(2)"])
def test_enumerated_supports_are_exact_null_sets(key):
    """Oracle for the realizability check enumeration no longer runs."""
    model = bundled_model(key)
    for chamber in enumerate_chambers(model):
        witness = construct_nef_with_null(model, chamber)
        assert null_set(model, witness) == chamber.label_set


@settings(max_examples=80, deadline=None)
@given(user_models())
def test_negative_definite_iff_exact_null_set_on_user_models(model):
    """The theorem behind enumerate_chambers, on models it was not tuned to:
    a curve set is negative definite exactly when some nef class has it as
    its exact null set."""
    definite = negative_definite_subsets(model.curves)
    for size in range(len(model.curves) + 1):
        for subset in combinations(model.curves, size):
            labels = {c.label for c in subset}
            try:
                realized = null_set(model, construct_nef_with_null(model, labels)) == labels
            except (NotNegativeDefinite, NullMismatch):
                realized = False
            assert realized == (subset in definite)
    assert [c.support for c in enumerate_chambers(model)] == brute_force_chambers(model)


def test_chamber_counts_small_ranks():
    assert len(enumerate_chambers(dp_model(3))) == 18
    assert len(enumerate_chambers(dp_model(4))) == 76
    assert len(enumerate_chambers(dp_model(5))) == 393


def test_dp5_count_matches_power_set_scan():
    """Independent count over all 2**16 curve subsets (sizes above the rank
    bound cannot be negative definite, so they are skipped outright)."""
    model = dp_model(5)
    curves = model.curves
    count = 1  # the nef chamber
    for size in range(1, model.lattice.rank):
        for subset in combinations(curves, size):
            if is_negative_definite(gram_matrix([c.cls for c in subset])):
                count += 1
    assert count == len(enumerate_chambers(model)) == 393


CURVE_COUNTS = [1, 3, 6, 10, 16, 27, 56]  # N_r, the (-1)-curves of dp_r
WEYL_ORDERS = [1, 2, 12, 120, 1920, 51840, 2903040]  # |W(E_r)|
CHAMBER_TOTALS = [2, 5, 18, 76, 393, 2764, 33645]


@pytest.mark.parametrize("r", range(1, 8))
def test_chamber_counts_by_size_match_the_orbit_formula(r):
    """W(E_r) acts transitively on ordered k-tuples of disjoint (-1)-curves
    (Bauer-Funke-Neumann), so there are N_r * N_{r-1} ... N_{r-k+1} / k! chambers
    with k curves for k < r, and |W_r| / r! with r curves."""
    expected = []
    for k in range(r + 1):
        if k < r:
            expected.append(prod(CURVE_COUNTS[r - 1 - i] for i in range(k)) // factorial(k))
        else:
            expected.append(WEYL_ORDERS[r - 1] // factorial(r))
    sizes = Counter(len(c.support) for c in enumerate_chambers(dp_model(r)))
    assert [sizes[k] for k in range(r + 1)] == expected
    assert sum(expected) == CHAMBER_TOTALS[r - 1]


def affine_triangle_model():
    """Three (-2)-curves meeting pairwise once: every pair is an A2 chain and
    negative definite, the triple is only semi-definite (E1 + E2 + E3 has
    square 0)."""
    lattice = IntersectionLattice(
        [[2, 1, 1, 1], [1, -2, 1, 1], [1, 1, -2, 1], [1, 1, 1, -2]],
        ["H", "E1", "E2", "E3"],
    )
    curves = tuple(
        NegativeCurve(f"E{i}", lattice.basis_divisor(i)) for i in range(1, 4)
    )
    return SurfaceModel(lattice=lattice, ample=lattice.basis_divisor(0), curves=curves)


def counting_eliminations(monkeypatch):
    calls = []
    plain = zlab.chambers.is_negative_definite

    def counting(gram):
        calls.append(len(gram))
        return plain(gram)

    monkeypatch.setattr(zlab.chambers, "is_negative_definite", counting)
    return calls


@pytest.mark.parametrize("r", range(1, 8))
def test_del_pezzo_enumeration_eliminates_nothing(r, monkeypatch):
    """On del Pezzo models two curves are compatible exactly when they are
    disjoint, so every accepted set is block diagonal and no Gram matrix is
    eliminated, dp7 and its 33,645 chambers included."""
    calls = counting_eliminations(monkeypatch)
    assert len(enumerate_chambers(dp_model(r))) == CHAMBER_TOTALS[r - 1]
    assert calls == []


@pytest.mark.parametrize("key", ["k3(1)", "k3(2)"])
def test_single_curve_enumeration_eliminates_nothing(key, monkeypatch):
    """A lone curve meets no stack, so its 1x1 block C**2 < 0 is accepted unread."""
    calls = counting_eliminations(monkeypatch)
    assert [c.support for c in enumerate_chambers(bundled_model(key))] == [(), ("E",)]
    assert calls == []


@pytest.mark.parametrize("make, sizes", [(a2_chain_model, [2]), (affine_triangle_model, [2, 3, 2, 2])],
                         ids=["a2_chain_model", "affine_triangle_model"])
def test_meeting_curves_are_eliminated(make, sizes, monkeypatch):
    """Curves that meet the stack take the elimination, which keeps the A2
    pairs and refuses the semi-definite triangle: the chain's one pair, and
    the triangle's three pairs and the triple after its first pair."""
    model = make()
    calls = counting_eliminations(monkeypatch)
    chambers = [c.support for c in enumerate_chambers(model)]
    assert calls == sizes
    assert chambers == brute_force_chambers(model)


def relabelled(model, rng):
    """The model with its curves shuffled and renamed at random, so that list
    order, label order and the original names' order all differ."""
    curves = list(model.curves)
    rng.shuffle(curves)
    names = [f"{rng.choice('abc')}{rng.randrange(100)}.{i}" for i in range(len(curves))]
    renamed = tuple(NegativeCurve(name, c.cls) for name, c in zip(names, curves))
    return SurfaceModel(model.lattice, model.ample, renamed, model.canonical)


def assert_label_ordered(chambers):
    """Every support strictly increasing and stored as the public constructor
    stores it, equal descriptors hashing equal, the list sorted by size and
    then by support."""
    for chamber in chambers:
        s = chamber.support
        assert all(a < b for a, b in zip(s, s[1:]))
        again = ChamberDescriptor(reversed(s))
        assert again.support == s and again == chamber and hash(again) == hash(chamber)
    keys = [(len(c.support), c.support) for c in chambers]
    assert keys == sorted(keys) and len(set(chambers)) == len(chambers)


@pytest.mark.parametrize("r", [4, 5, 6])
@pytest.mark.parametrize("rename", [False, True], ids=["shuffled", "renamed"])
def test_enumeration_order_does_not_follow_the_curve_list(r, rename):
    """The walk runs its bits by label, not by list position: on dp4-dp6 with
    the curves shuffled, and shuffled and renamed, it returns the predicted
    list.  dp4 and dp5 are scanned (dp5 below its rank); dp6's 2**27 subsets
    are not, and its list is the unshuffled one, renamed and sorted anew."""
    base, rng = dp_model(r), random.Random(r)
    if rename:
        model = relabelled(base, rng)
    else:
        curves = list(base.curves)
        rng.shuffle(curves)
        model = SurfaceModel(base.lattice, base.ample, tuple(curves), base.canonical)
    assert [c.label for c in model.curves] != sorted(c.label for c in model.curves)
    chambers = enumerate_chambers(model)
    assert_label_ordered(chambers)
    if r < 6:
        expected = brute_force_chambers(model, below_rank=r == 5)
    else:
        label_of = {c.cls: c.label for c in model.curves}  # the same classes, maybe renamed
        supports = (tuple(sorted(label_of[base.curve_by_label(label).cls] for label in c.support))
                    for c in enumerate_chambers(base))
        expected = sorted(supports, key=lambda s: (len(s), s))
    assert [c.support for c in chambers] == expected


@st.composite
def renamed_user_models(draw):
    """A drawn user model with labels drawn anew, of one to three letters so
    that some are prefixes of others, in a list order other than label order."""
    model = draw(user_models())
    n = len(model.curves)
    assume(n >= 2)
    letters = st.text(alphabet="ab", min_size=1, max_size=3)
    names = draw(st.lists(letters, min_size=n, max_size=n, unique=True))
    if names == sorted(names):
        names.reverse()
    curves = tuple(NegativeCurve(name, c.cls) for name, c in zip(names, model.curves))
    return SurfaceModel(model.lattice, model.ample, curves)


@settings(max_examples=60, deadline=None)
@given(renamed_user_models())
def test_enumeration_is_label_ordered_on_renamed_user_models(model):
    chambers = enumerate_chambers(model)
    assert_label_ordered(chambers)
    assert [c.support for c in chambers] == brute_force_chambers(model)


def test_supports_are_pairwise_orthogonal_on_del_pezzo():
    for r in (2, 3, 4):
        model = dp_model(r)
        for chamber in enumerate_chambers(model):
            classes = [model.curve_by_label(lbl).cls for lbl in chamber.support]
            for i, ci in enumerate(classes):
                for cj in classes[i + 1 :]:
                    assert ci.dot(cj) == 0


def test_interior_points_land_in_their_chamber(dp2, dp3):
    rng = random.Random(23)
    for model in (dp2, dp3):
        for chamber in enumerate_chambers(model):
            witness = construct_nef_with_null(model, chamber)
            point = witness
            for label in chamber.support:
                point = point + Fraction(rng.randint(1, 5), 8) * model.curve_by_label(
                    label
                ).cls
            assert chamber_of(model, point) == chamber
            assert not on_chamber_boundary(model, point)


def test_random_big_classes_land_in_exactly_one_chamber(dp2, dp3):
    rng = random.Random(29)
    for model in (dp2, dp3):
        chambers = {c.support for c in enumerate_chambers(model)}
        for _ in range(60):
            divisor = random_big_class(model, rng)
            support = chamber_of(model, divisor).support
            assert support in chambers


def test_enumeration_cap():
    with pytest.raises(RankTooLargeForEnumeration):
        enumerate_chambers(dp_model(8))


def chain_model(n: int) -> SurfaceModel:
    """n curves C_i = L - E_i - E_{i+1} on diag(1, -1, ..., -1) of rank n + 2,
    witness 9L - sum(E): C_i**2 = -1, neighbours are disjoint and all other
    pairs meet once, so the chambers are the empty set, the n singletons and
    the n - 1 neighbouring pairs."""
    rank = n + 2
    lattice = IntersectionLattice(
        [[1 if i == j == 0 else -(i == j) for j in range(rank)] for i in range(rank)],
        ["L"] + [f"E{i}" for i in range(1, rank)])
    curves = [NegativeCurve(f"C{i}", lattice.divisor([1] + [-(j in (i, i + 1))
                                                             for j in range(1, rank)]))
              for i in range(1, n + 1)]
    return SurfaceModel(lattice=lattice, ample=lattice.divisor([9] + [-1] * (rank - 1)),
                        curves=curves)


def test_enumeration_cap_sits_between_63_and_64_curves():
    """The largest enumerable list is enumerated in full; one more curve is refused."""
    n = zlab.chambers.MAX_ENUMERABLE_CURVES
    assert n == 63
    chambers = enumerate_chambers(chain_model(n))
    expected = {()} | {(f"C{i}",) for i in range(1, n + 1)} | {
        tuple(sorted((f"C{i}", f"C{i + 1}"))) for i in range(1, n)}
    assert len(chambers) == 1 + 63 + 62 == len(expected)
    assert {c.support for c in chambers} == expected
    with pytest.raises(RankTooLargeForEnumeration, match="at most 63 curves; the model lists 64"):
        enumerate_chambers(chain_model(n + 1))
