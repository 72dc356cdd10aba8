"""Reflections, orbits, group orders and volume behaviour under the action."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

import pytest

from conftest import dp_model, k3_model, random_big_class, random_class, rank_ten_model
import zlab.surface
import zlab.weyl
from zlab import (
    DivisorClass,
    enumerate_roots,
    is_nef,
    k3_reflection_volume,
    neg_set,
    reflect,
    simple_roots,
    vol,
    weyl_group_order,
    weyl_orbit,
    zariski_decompose,
)
from zlab.errors import (
    NotMinusTwoClass,
    NotNef,
    OrbitTooLarge,
    RankTooLargeForEnumeration,
)


def test_reflect_worked_values(dp2):
    lat = dp2.lattice
    E1, E2 = lat.basis_divisor(1), lat.basis_divisor(2)
    assert reflect(E1, E2 - E1) == E2
    K = dp2.canonical
    for root in enumerate_roots(dp2).roots:
        assert reflect(K, root) == K
    k3 = k3_model(2)
    P, E = k3.lattice.divisor([1, 0]), k3.lattice.divisor([0, 1])
    assert reflect(P, E).coords == (1, 2)


def test_reflect_requires_minus_two(dp2):
    with pytest.raises(NotMinusTwoClass):
        reflect(dp2.ample, dp2.lattice.basis_divisor(1))  # square -1


def test_orbit_search_refuses_generators_reflect_would_refuse(dp3):
    """The integer search keeps reflect's guard: a generator of square -1, and
    the class (L - 3E1)/2 of square -2 that is not integral, both raise."""
    lat = dp3.lattice
    start = dp3.ample
    with pytest.raises(NotMinusTwoClass):
        zlab.weyl._orbit(start, (lat.basis_divisor(1),), None)
    half = lat.divisor([Fraction(1, 2), Fraction(-3, 2), 0, 0])
    assert half.square == -2
    with pytest.raises(NotMinusTwoClass):
        zlab.weyl._orbit(start, (half,), None)


def test_reflection_is_an_involutive_isometry():
    rng = random.Random(47)
    model = dp_model(4)
    roots = enumerate_roots(model).roots
    for _ in range(40):
        alpha = rng.choice(roots)
        u = random_big_class(model, rng)
        v = random_big_class(model, rng)
        assert reflect(reflect(u, alpha), alpha) == u
        assert reflect(u, alpha).dot(reflect(v, alpha)) == u.dot(v)


def test_orbit_worked_values():
    dp3 = dp_model(3)
    assert weyl_orbit(dp3, dp3.canonical) == {dp3.canonical}
    dp8 = dp_model(8)
    assert len(weyl_orbit(dp8, dp8.lattice.basis_divisor(1))) == 240


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_orbit_of_one_curve_is_the_whole_curve_set(r):
    model = dp_model(r)
    orbit = weyl_orbit(model, model.lattice.basis_divisor(1))
    assert {d.coords for d in orbit} == {c.cls.coords for c in model.curves}


def test_orbits_available_above_the_group_cap():
    """Orbits at r = 7 stay cheap, as does the group order from the orbit
    tower; only the root-permutation oracle of these tests stops at r = 6."""
    dp7 = dp_model(7)
    assert len(weyl_orbit(dp7, dp7.lattice.basis_divisor(1))) == 56
    roots7 = enumerate_roots(dp7).roots
    assert len(weyl_orbit(dp7, roots7[0])) == 126


def test_orbit_cap(dp3):
    with pytest.raises(OrbitTooLarge):
        weyl_orbit(dp3, dp3.lattice.basis_divisor(1), cap=3)


def test_orbit_cap_env_override(dp3, monkeypatch):
    monkeypatch.setenv("ZLAB_ORBIT_CAP", "2")
    with pytest.raises(OrbitTooLarge):
        weyl_orbit(dp3, dp3.lattice.basis_divisor(1))


def test_rank_two_orbits_document_the_small_cases(dp2):
    """At rank 3 the only simple root is E2-E1: its orbit covers both roots
    (so the action on roots is transitive there), while the curve orbit of E1
    stops at {E1, E2} and misses L-E1-E2."""
    lat = dp2.lattice
    root = lat.divisor([0, -1, 1])
    assert weyl_orbit(dp2, root) == {root, -1 * root}
    assert {d.format() for d in weyl_orbit(dp2, lat.basis_divisor(1))} == {"E1", "E2"}


def permutation_group_order(model) -> int:
    """Oracle: the group enumerated element by element as root permutations.

    Every group element fixes the canonical class and the roots span its
    orthogonal complement, so the action on the finite root set is faithful.
    """
    system = enumerate_roots(model)
    roots = system.roots
    if not system.simple or not roots:
        return 1
    index = {root.coords: i for i, root in enumerate(roots)}
    generators = [
        bytes(index[reflect(root, alpha).coords] for root in roots)
        for alpha in system.simple
    ]
    identity = bytes(range(len(roots)))
    seen = {identity}
    frontier = deque([identity])
    while frontier:
        current = frontier.popleft()
        for gen in generators:
            composed = bytes(map(gen.__getitem__, current))
            if composed not in seen:
                seen.add(composed)
                frontier.append(composed)
    return len(seen)


def test_group_orders():
    assert weyl_group_order(dp_model(1)) == 1
    assert weyl_group_order(dp_model(2)) == 2
    assert weyl_group_order(dp_model(3)) == 12
    assert weyl_group_order(dp_model(4)) == 120
    assert weyl_group_order(dp_model(5)) == 1920
    assert weyl_group_order(dp_model(7)) == 2_903_040
    assert weyl_group_order(dp_model(8)) == 696_729_600


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_group_order_matches_permutation_oracle(r):
    assert weyl_group_order(dp_model(r)) == permutation_group_order(dp_model(r))


def test_group_order_work_is_the_orbit_tower(monkeypatch):
    """The orbit search pairs every state with every generator of its tower
    step once, so its work is the sum over k = 1..8 of |W_k . E_k| times the
    number of W_k generators: 2,614 state-generator pairs, as many as the
    reflections the search made when it ran on ``reflect``."""
    searches = []
    plain = zlab.weyl._orbit

    def counting(start, generators, cap):
        orbit, d = plain(start, generators, cap)
        searches.append((len(orbit), len(generators)))
        return orbit, d

    monkeypatch.setattr(zlab.weyl, "_orbit", counting)
    assert weyl_group_order(dp_model(8)) == 696_729_600
    orbits = [1, 2, 6, 10, 16, 27, 56, 240]
    generators = [0, 1, 3, 4, 5, 6, 7, 8]
    assert searches == list(zip(orbits, generators))
    assert sum(o * g for o, g in searches) == 2614


def test_group_order_builds_no_orbit_classes(monkeypatch):
    """The tower counts the integer tuples of each orbit; the only classes
    built are the eight basis classes and the eight simple roots (374 when
    every orbit element became a DivisorClass)."""
    model = dp_model(8)
    built = 0
    plain = DivisorClass.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        plain(self)

    monkeypatch.setattr(DivisorClass, "__post_init__", counting)
    assert weyl_group_order(model) == 696_729_600
    assert built <= 16


def test_group_order_pairs_once_per_reflection(monkeypatch):
    """The integer search pairs states with precomputed integer rows, so the
    only class pairings left are the eight generator squares checked once
    each (pairing through ``reflect`` took 2,614 + 8 DivisorClass.dot calls)."""
    model = dp_model(8)
    calls = 0
    plain = DivisorClass.dot

    def counting(self, other):
        nonlocal calls
        calls += 1
        return plain(self, other)

    monkeypatch.setattr(DivisorClass, "dot", counting)
    assert weyl_group_order(model) == 696_729_600
    assert calls <= 8


def reflect_orbit(model, start, cap):
    """Oracle: the orbit by breadth-first search through ``reflect``, with the
    cap checked before each insertion."""
    seen = {start.coords: start}
    frontier = deque([start])
    while frontier:
        current = frontier.popleft()
        for alpha in simple_roots(model):
            image = reflect(current, alpha)
            if image.coords not in seen:
                if len(seen) >= cap:
                    raise OrbitTooLarge(f"orbit exceeded the cap of {cap}")
                seen[image.coords] = image
                frontier.append(image)
    return set(seen.values())


ORACLE_CAP = 600


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_integer_orbit_matches_reflect_oracle(r):
    """Seeded integer and fractional classes, in the span of K and one or two
    curves so that most orbits stay below the cap, and a generic one above it:
    the same set, and OrbitTooLarge at the same cap."""
    model = dp_model(r)
    rng = random.Random(61 + r)
    curves = [c.cls for c in model.curves]
    starts = [random_class(model, rng, max_den=1), random_class(model, rng)]
    for trial in range(8):
        den = 1 if trial % 2 else rng.randint(2, 5)
        start = Fraction(rng.randint(-3, 3), den) * model.canonical
        for cls in rng.sample(curves, 1 + trial % 3 // 2):
            start = start + Fraction(rng.randint(1, 4), den) * cls
        starts.append(start)
    for start in starts:
        try:
            expected = reflect_orbit(model, start, ORACLE_CAP)
        except OrbitTooLarge:
            with pytest.raises(OrbitTooLarge):
                weyl_orbit(model, start, cap=ORACLE_CAP)
            continue
        size = len(expected)
        assert weyl_orbit(model, start, cap=size) == expected
        if size > 1:
            with pytest.raises(OrbitTooLarge):
                reflect_orbit(model, start, size - 1)
            with pytest.raises(OrbitTooLarge):
                weyl_orbit(model, start, cap=size - 1)


def test_simple_roots_skip_the_root_enumeration(monkeypatch):
    calls = 0
    plain = zlab.surface._classes_by_degree_constraints

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(zlab.surface, "_classes_by_degree_constraints", counting)
    simple = simple_roots(dp_model(8))
    assert calls == 0
    assert simple == enumerate_roots(dp_model(8)).simple and len(simple) == 8


def test_group_order_ignores_the_orbit_cap(monkeypatch):
    monkeypatch.setenv("ZLAB_ORBIT_CAP", "2")
    assert weyl_group_order(dp_model(4)) == 120


def test_group_order_rank_cap():
    with pytest.raises(RankTooLargeForEnumeration):
        weyl_group_order(rank_ten_model())


def test_simple_reflections_permute_the_curves():
    for r in (3, 4, 5):
        model = dp_model(r)
        curve_coords = {c.cls.coords for c in model.curves}
        for alpha in simple_roots(model):
            assert {reflect(c.cls, alpha).coords for c in model.curves} == curve_coords


def test_volume_invariance_on_del_pezzo():
    rng = random.Random(53)
    for r in (3, 4):
        model = dp_model(r)
        label_to_class = {c.label: c.cls for c in model.curves}
        coords_to_label = {c.cls.coords: c.label for c in model.curves}
        for _ in range(25):
            divisor = random_big_class(model, rng)
            dec = zariski_decompose(model, divisor)
            for alpha in simple_roots(model):
                image = reflect(divisor, alpha)
                assert vol(model, image) == dec.positive.square
                assert vol(model, image) == vol(model, divisor)
                expected_support = {
                    coords_to_label[reflect(label_to_class[lbl], alpha).coords]
                    for lbl in dec.support_labels
                }
                assert neg_set(model, image) == expected_support


def test_k3_reflection_volume_worked_values():
    k3 = k3_model(2)
    P = k3.lattice.divisor([1, 0])
    assert k3_reflection_volume(k3, P, "E") == 6  # P^2 + (P.E)^2/2 = 4 + 2
    k3b = k3_model(1)
    Pb = k3b.lattice.divisor([1, 0])
    assert k3_reflection_volume(k3b, Pb, "E") == Fraction(9, 2)


def test_k3_reflection_formula_and_noninvariance():
    for diag in (1, 2, 3):
        k3 = k3_model(diag)
        for coords in ([1, 0], [2, 0], [3, 1] if diag >= 1 else [1, 0]):
            P = k3.lattice.divisor(coords)
            if not is_nef(k3, P):
                continue
            t = P.dot(k3.lattice.divisor([0, 1]))
            value = k3_reflection_volume(k3, P, "E")
            assert value == P.square + Fraction(t * t, 2)
            if t != 0:
                assert value != vol(k3, P)


def test_k3_reflection_fixes_orthogonal_classes():
    k3 = k3_model(2)
    # H + E pairs to zero with E
    P = k3.lattice.divisor([1, 1])
    assert is_nef(k3, P)
    assert P.dot(k3.lattice.divisor([0, 1])) == 0
    assert k3_reflection_volume(k3, P, "E") == vol(k3, P) == P.square


def test_k3_printed_term_agreement_only_at_pairing_one():
    """P^2 + t^2/2 versus P^2 + t^2 - t/2: equal exactly when t = 1."""
    k3 = k3_model(1)
    P = k3.lattice.divisor([1, 0])
    t = P.dot(k3.lattice.divisor([0, 1]))
    assert t == 1
    value = k3_reflection_volume(k3, P, "E")
    assert value == P.square + Fraction(t * t, 2)
    assert value == P.square + t * t - Fraction(t, 2)
    k3b = k3_model(2)
    Pb = k3b.lattice.divisor([1, 0])
    tb = Pb.dot(k3b.lattice.divisor([0, 1]))
    assert tb == 2
    vb = k3_reflection_volume(k3b, Pb, "E")
    assert vb == Pb.square + Fraction(tb * tb, 2)
    assert vb != Pb.square + tb * tb - Fraction(tb, 2)


@pytest.mark.parametrize(
    "model, label, message",
    [
        (lambda: dp_model(2), "E1", "E1 has square -1, not -2"),
        (lambda: k3_model(2), "X", "X is not a listed (-2)-curve"),
    ],
    ids=["square-minus-one", "unknown-label"],
)
def test_k3_reflection_requires_a_listed_minus_two_curve(model, label, message):
    surface = model()
    with pytest.raises(NotMinusTwoClass) as excinfo:
        k3_reflection_volume(surface, surface.ample, label)
    assert str(excinfo.value) == message


def test_k3_reflection_requires_nef_input():
    k3 = k3_model(2)
    with pytest.raises(NotNef):
        k3_reflection_volume(k3, k3.lattice.divisor([0, 1]), "E")
