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
    LatticeMismatch,
    NotFiniteCoxeterType,
    NotMinusTwoClass,
    NotNef,
    OrbitTooLarge,
    OutOfRange,
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
    """Orbits at r = 7 stay cheap; only the root-permutation oracle of these
    tests stops at r = 6."""
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


@pytest.mark.parametrize("cap", [0, -7])
def test_orbit_cap_below_one_is_refused(dp3, cap):
    """K's orbit is {K} and E1's has six classes: neither is searched."""
    for start in (dp3.canonical, dp3.lattice.basis_divisor(1)):
        with pytest.raises(OutOfRange, match=f"the orbit cap must be at least 1, got {cap}"):
            weyl_orbit(dp3, start, cap=cap)


@pytest.mark.parametrize("env", ["0", "-3"])
def test_orbit_cap_env_below_one_is_refused(dp3, monkeypatch, env):
    monkeypatch.setenv("ZLAB_ORBIT_CAP", env)
    with pytest.raises(OutOfRange, match=f"the orbit cap must be at least 1, got {env}"):
        weyl_orbit(dp3, dp3.canonical)
    assert weyl_orbit(dp3, dp3.canonical, cap=1) == {dp3.canonical}  # the argument wins


@pytest.mark.parametrize("model_r, class_r", [(6, 5), (5, 6)], ids=["shorter", "longer"])
def test_orbit_of_a_class_from_another_lattice_is_refused_unsearched(model_r, class_r,
                                                                   monkeypatch):
    """A dp5 class in dp6 once raised a bare IndexError, and a dp6 class in dp5
    came back as a one-class orbit; now neither reaches the simple roots."""
    model, start = dp_model(model_r), dp_model(class_r).canonical

    def unreachable(*args):
        raise AssertionError("the orbit was searched")

    monkeypatch.setattr(zlab.weyl, "simple_roots", unreachable)
    with pytest.raises(LatticeMismatch, match="class lives in a different lattice"):
        weyl_orbit(model, start)


def count_orbit_searches(monkeypatch) -> list[tuple[int, int]]:
    """Patch ``zlab.weyl._orbit`` to record (orbit size, generator count) per search."""
    searches = []
    plain = zlab.weyl._orbit

    def counting(start, generators, cap):
        orbit, d = plain(start, generators, cap)
        searches.append((len(orbit), len(generators)))
        return orbit, d

    monkeypatch.setattr(zlab.weyl, "_orbit", counting)
    return searches


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_predicted_orbit_size_matches_the_search(r):
    """At cap 1 every orbit of two or more classes is refused by the prediction
    |W| / |W_J|, whose message names the size the search finds uncapped."""
    model = dp_model(r)
    rng = random.Random(83 + r)
    curves = [c.cls for c in model.curves]
    starts = [model.canonical, model.lattice.basis_divisor(1)]
    if r <= 5:
        starts += [random_class(model, rng, max_den=1), random_class(model, rng)]
    for trial in range(10):
        den = 1 if trial % 2 else rng.randint(2, 5)
        start = Fraction(rng.randint(-3, 3), den) * model.canonical
        for cls in rng.sample(curves, 1 + trial % 3 // 2):
            start = start + Fraction(rng.randint(1, 4), den) * cls
        starts.append(start)
    sizes = set()
    for start in starts:
        size = len(weyl_orbit(model, start))
        sizes.add(size)
        if size == 1:
            assert weyl_orbit(model, start, cap=1) == {start}
            continue
        with pytest.raises(OrbitTooLarge, match=f"the orbit has {size} classes, above the cap of 1"):
            weyl_orbit(model, start, cap=1)
    assert len(sizes) > 2


def test_dp8_orbit_above_the_cap_is_refused_unsearched(monkeypatch):
    """A class in the open fundamental chamber has the whole group as its orbit."""
    model = dp_model(8)
    searches = count_orbit_searches(monkeypatch)
    start = model.lattice.divisor([40, -1, -2, -3, -4, -5, -6, -7, -8])
    message = "the orbit has 696729600 classes, above the cap of 10000000"
    with pytest.raises(OrbitTooLarge, match=message):
        weyl_orbit(model, start)
    assert searches == []
    assert len(weyl_orbit(model, model.lattice.basis_divisor(1))) == 240
    assert searches == [(240, 8)]


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


def tower_group_order(model) -> int:
    """Oracle: the orbit-stabiliser tower |W_k| = |W_k . E_k| * |W_{k-1}|, W_k
    generated by the simple roots supported on L, E1..Ek, so the order is a
    product of r orbits of at most 240 classes.  For k != 3, E_k pairs -1 with
    E_k - E_{k-1} and 0 with every other generator of W_k, so it lies in the
    closed fundamental chamber of W_k, whose stabiliser is the parabolic
    subgroup of the generators orthogonal to it: W_{k-1} (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12).  E_3 pairs +1 with
    L-E1-E2-E3, so that step (12 = 6 * 2) rests on the permutation oracle."""
    generators = simple_roots(model)
    order = 1
    for k in range(1, model.lattice.rank):
        tower = tuple(alpha for alpha in generators if not any(alpha.coords[k + 1 :]))
        order *= len(zlab.weyl._orbit(model.lattice.basis_divisor(k), tower, None)[0])
    return order


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 8])
def test_group_order_matches_permutation_oracle(r):
    """The Coxeter-type classifier, the orbit tower and, for r <= 6, the group
    enumerated as root permutations give one order."""
    order = weyl_group_order(dp_model(r))
    assert order == tower_group_order(dp_model(r))
    if r <= 6:
        assert order == permutation_group_order(dp_model(r))


def test_group_order_work_is_the_orbit_tower(monkeypatch):
    """The tower's search pairs every state with every generator of its step
    once, so its work is the sum over k = 1..8 of |W_k . E_k| times the
    number of W_k generators: 2,614 state-generator pairs, as many as the
    reflections the search made when it ran on ``reflect``."""
    searches = count_orbit_searches(monkeypatch)
    assert tower_group_order(dp_model(8)) == 696_729_600
    orbits = [1, 2, 6, 10, 16, 27, 56, 240]
    generators = [0, 1, 3, 4, 5, 6, 7, 8]
    assert searches == list(zip(orbits, generators))
    assert sum(o * g for o, g in searches) == 2614


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 8])
def test_group_order_searches_no_orbit(monkeypatch, r):
    searches = count_orbit_searches(monkeypatch)
    weyl_group_order(dp_model(r))
    assert searches == []


def graph_order(n, edges):
    return zlab.weyl._coxeter_order(range(n), lambda i, j: (i, j) in edges or (j, i) in edges)


def path(nodes):
    return {(a, b) for a, b in zip(nodes, nodes[1:])}


def test_coxeter_orders_of_hand_built_diagrams():
    assert graph_order(0, set()) == 1
    assert graph_order(3, path([0, 1, 2])) == 24  # A3
    assert graph_order(4, {(0, 1), (0, 2), (0, 3)}) == 192  # D4
    assert graph_order(6, path([0, 1, 2, 3]) | {(1, 4)}) == 1920 * 2  # D5 x A1
    assert graph_order(6, path([1, 0, 2, 3]) | path([0, 4, 5])) == 51_840  # E6
    assert graph_order(7, path([1, 0, 2, 3]) | path([0, 4, 5, 6])) == 2_903_040  # E7
    assert graph_order(8, path([1, 0, 2, 3]) | path([0, 4, 5, 6, 7])) == 696_729_600  # E8


@pytest.mark.parametrize(
    "n, edges",
    [
        (3, path([0, 1, 2, 0])),  # affine A2: a triangle
        (5, {(0, 1), (0, 2), (0, 3), (0, 4)}),  # affine D4: a node of degree 4
        (7, path([1, 2, 0, 3, 4]) | path([0, 5, 6])),  # affine E6: arms 2, 2, 2
        (9, path([1, 2, 3, 4, 5, 0, 6, 7]) | {(0, 8)}),  # affine E8: arms 1, 2, 5
        (6, path([0, 1, 2, 3]) | {(1, 4), (2, 5)}),  # affine D5: two branch nodes
    ],
    ids=["A2~", "D4~", "E6~", "E8~", "D5~"],
)
def test_coxeter_order_refuses_affine_diagrams(n, edges):
    with pytest.raises(NotFiniteCoxeterType):
        graph_order(n, edges)


def test_group_order_builds_no_orbit_classes(monkeypatch):
    """The classifier reads the simple roots' integer coordinates; the only
    classes built are the eight simple roots (374 when every element of the
    tower's orbits became a DivisorClass).  Classes are built by ``__init__``,
    by ``_reduced`` and, gcd-free, by negation; all three are counted."""
    model = dp_model(8)
    built = 0
    init, reduced, neg = DivisorClass.__init__, DivisorClass._reduced, DivisorClass.__neg__

    def counting(plain):
        def count(*args):
            nonlocal built
            built += 1
            return plain(*args)
        return count

    monkeypatch.setattr(DivisorClass, "__init__", counting(init))
    monkeypatch.setattr(DivisorClass, "_reduced", staticmethod(counting(reduced)))
    monkeypatch.setattr(DivisorClass, "__neg__", counting(neg))
    assert weyl_group_order(model) == 696_729_600
    assert built == 8


def test_group_order_pairs_once_per_reflection(monkeypatch):
    """The classifier pairs the simple roots on their integer coordinates, so
    no class pairing is left (the orbit tower checked the eight generator
    squares, and pairing through ``reflect`` took 2,614 + 8 DivisorClass.dot
    calls)."""
    model = dp_model(8)
    calls = 0
    plain = DivisorClass.dot

    def counting(self, other):
        nonlocal calls
        calls += 1
        return plain(self, other)

    monkeypatch.setattr(DivisorClass, "dot", counting)
    assert weyl_group_order(model) == 696_729_600
    assert calls == 0


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
