"""Reflections in (-2)-classes, orbits, group orders and volume comparisons."""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import (LatticeMismatch, NotFiniteCoxeterType, NotMinusTwoClass, NotNef, OrbitTooLarge,
                     OutOfRange, RankTooLargeForEnumeration, UnrealizableSupport)
from .lattice import DivisorClass
from .surface import NegativeCurve, SurfaceModel, _root_rank, is_nef, simple_roots
from .volume import vol

DEFAULT_ORBIT_CAP = 10_000_000
MAX_FINITE_R = 8
EXCEPTIONAL_ORDERS = {6: 51_840, 7: 2_903_040, 8: 696_729_600}  # E6, E7, E8
_ORDERS: dict = {}  # |W| by Gram matrix (at most 8 finite ones), for weyl_orbit's cap check


def reflect(divisor: DivisorClass, alpha: DivisorClass) -> DivisorClass:
    """Reflection of a class in a (-2)-class: D + (D.alpha)*alpha."""
    if alpha.square != -2:
        raise NotMinusTwoClass(f"{alpha} has square {alpha.square}, not -2")
    return divisor + divisor.dot(alpha) * alpha


def _orbit_cap(explicit: "int | None") -> int:
    env = os.environ.get("ZLAB_ORBIT_CAP")
    try:
        cap = explicit if explicit is not None else int(env) if env else DEFAULT_ORBIT_CAP
    except ValueError as exc:
        raise OutOfRange(f"ZLAB_ORBIT_CAP must be an integer, got {env!r}") from exc
    if cap < 1:
        raise OutOfRange(f"the orbit cap must be at least 1, got {cap}")
    return cap


def _orbit(v: Sequence[int], cap: int) -> list[tuple[int, ...]]:
    """Orbit of the ints v on the standard basis L, E1..Er, whose group is
    generated by the permutations of E1..Er and the reflection in L-E1-E2-E3,
    (v0, v1, v2, v3, ...) -> (v0+t, v1-t, v2-t, v3-t, ...) with t = v0+v1+v2+v3
    (Manin, Cubic Forms, sec. 23): a union of S_r-orbits.  The search runs on types
    (v0, sorted(v1..vr)), reflecting each distinct value triple; each type's
    r!/prod(k!) arrangements are counted as it is taken, and a count above
    ``cap`` raises OrbitTooLarge before any is listed.  Then every type's
    arrangements are listed by Knuth's Algorithm L (TAOCP 7.2.1.2)."""
    r, types = len(v) - 1, [(v[0], tuple(sorted(v[1:])))]
    seen, count = set(types), 0
    for v0, m in types:
        count += factorial(r) // prod(factorial(m.count(x)) for x in set(m))
        if count > cap:
            raise OrbitTooLarge(f"orbit exceeded the cap of {cap}")
        for triple in set(combinations(m, 3)):
            if t := v0 + sum(triple):
                rest = list(m)
                for x in triple:
                    rest.remove(x)
                image = (v0 + t, tuple(sorted(rest + [x - t for x in triple])))
                if image not in seen:
                    seen.add(image)
                    types.append(image)
    orbit = []
    for v0, m in types:
        a = [v0, *m]
        while True:
            orbit.append(tuple(a))
            j = r - 1  # the last ascent a[j] < a[j+1] of a[1:]
            while j and a[j] >= a[j + 1]:
                j -= 1
            if not j:
                break
            k = r  # the last entry above a[j]
            while a[j] >= a[k]:
                k -= 1
            a[j], a[k] = a[k], a[j]
            a[j + 1:] = a[:j:-1]
    return orbit


def _components(graph: Sequence[set[int]], nodes: Iterable[int]) -> Iterator[set[int]]:
    left = set(nodes)
    while left:
        component = {left.pop()}
        while grown := left & set().union(*(graph[i] for i in component)):
            component |= grown
            left -= grown
        yield component


def _coxeter_order(nodes: Sequence[Any], meets: Callable[[Any, Any], int]) -> int:
    """Order of the group of simply laced reflections in ``nodes``, joined where
    ``meets`` is nonzero: over the components, (n+1)! for A_n (a path), 2^(n-1)
    n! for D_n (a star with arms 1, 1, n-3) and the orders of E6-E8 (arms 1, 2,
    n-4) (Humphreys, Reflection Groups and Coxeter Groups, 2.11).  Any other
    component, a cycle or an affine diagram, raises NotFiniteCoxeterType."""
    graph = [{j for j, b in enumerate(nodes) if j != i and meets(a, b)}
             for i, a in enumerate(nodes)]
    order = 1
    for component in _components(graph, range(len(nodes))):
        n = len(component)
        tree = sum(len(graph[i] & component) for i in component) == 2 * n - 2
        branch = {i for i in component if len(graph[i] & component) > 2}
        arms = sorted(map(len, _components(graph, component - branch)))
        star = tree and len(branch) == 1 and len(arms) == 3
        if tree and not branch:
            order *= factorial(n + 1)
        elif star and arms[:2] == [1, 1]:
            order *= 2 ** (n - 1) * factorial(n)
        elif star and arms[:2] == [1, 2] and n in EXCEPTIONAL_ORDERS:
            order *= EXCEPTIONAL_ORDERS[n]
        else:
            raise NotFiniteCoxeterType(f"{n} simple roots span no finite Coxeter diagram")
    return order


def weyl_orbit(model: SurfaceModel, start: DivisorClass,
               cap: "int | None" = None) -> set[DivisorClass]:
    """Closure of a class under the simple-root reflections: the type search of
    ``_orbit`` on its stored (v, d), after the checks of ``simple_roots``, which
    it never builds; each class w / d is bound as it stands (W acts by integer
    matrices with integer inverses, so gcd(*w, d) = gcd(*v, d) = 1).
    When |W| > cap its size is predicted first: the simple roots, in reverse and
    each negated if it pairs negatively with an earlier one, pair >= 0 with each
    other; descent reflects the start into their closed chamber, where its
    stabiliser is the parabolic subgroup W_J of the roots J orthogonal to it
    (Humphreys, 1.12), and an orbit of |W| / |W_J| > cap is refused."""
    if start.lattice != model.lattice:
        raise LatticeMismatch("class lives in a different lattice")
    cap, r, gram = _orbit_cap(cap), _root_rank(model), model.lattice.gram
    if r <= MAX_FINITE_R and gram not in _ORDERS:
        _ORDERS[gram] = weyl_group_order(model)
    if (order := _ORDERS.get(gram, 0)) > cap:
        form, v, roots = model.lattice.form, start.cleared[0], []
        for a in (alpha.cleared[0] for alpha in reversed(simple_roots(model))):
            roots.append(a if all(form(a, b) >= 0 for b in roots) else tuple(-x for x in a))
        while (top := max((form(v, a), a) for a in roots))[0] > 0:
            t, a = top
            v = [x + t * y for x, y in zip(v, a)]
        if (size := order // _coxeter_order([a for a in roots if not form(v, a)], form)) > cap:
            raise OrbitTooLarge(f"the orbit has {size} classes, above the cap of {cap}")
    (v, d), lattice, orbit = start.cleared, start.lattice, set()
    for w in _orbit(v, cap):  # bound as __neg__ binds: _of's zip and keywords cost twice as much
        vars(cls := object.__new__(DivisorClass)).update(lattice=lattice, cleared=(w, d))
        orbit.add(cls)
    return orbit


def weyl_group_order(model: SurfaceModel) -> int:
    """Order of the group W_r generated by the simple-root reflections, from
    their Coxeter type (``_coxeter_order``): A1 x A2, A4, D5, E6, E7 and E8 at
    r = 3..8, of orders 12 to 696729600.  For r > 8 the group is infinite."""
    if (r := model.lattice.rank - 1) > MAX_FINITE_R:
        raise RankTooLargeForEnumeration(f"the reflection group is infinite at r = {r}")
    return _coxeter_order([a.cleared[0] for a in simple_roots(model)], model.lattice.form)


def k3_reflection_volume(
    model: SurfaceModel, nef_class: DivisorClass, curve: "NegativeCurve | str"
) -> Fraction:
    """Volume of the reflection of a nef class in a listed (-2)-curve.

    Computed honestly through the Zariski decomposition of the reflected
    class; for t = P.E the value equals P**2 + t**2/2 (and P**2 + t**2 - t/2
    only at t = 1).  NotMinusTwoClass unless the label names a listed curve of
    square -2.
    """
    label = curve if isinstance(curve, str) else curve.label
    try:
        cls = model.curve_by_label(label).cls
    except UnrealizableSupport:
        raise NotMinusTwoClass(f"{label} is not a listed (-2)-curve") from None
    if cls.square != -2:
        raise NotMinusTwoClass(f"{label} has square {cls.square}, not -2")
    if not is_nef(model, nef_class):
        raise NotNef("reflection volume expects a nef class")
    return vol(model, reflect(nef_class, cls))
