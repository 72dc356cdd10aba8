"""Reflections in (-2)-classes, orbits, group orders and volume comparisons."""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import (LatticeMismatch, NotFiniteCoxeterType, NotMinusTwoClass, NotNef, OrbitTooLarge,
                     OutOfRange, RankTooLargeForEnumeration)
from .lattice import DivisorClass
from .surface import NegativeCurve, SurfaceModel, is_nef, simple_roots
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


def _orbit(start: DivisorClass, generators: tuple[DivisorClass, ...],
           cap: "int | None") -> tuple[list[tuple[int, ...]], int]:
    """Closure of a class under reflections in ``generators``, by breadth-first
    search on the ints v = d * class (d the start's common denominator): alpha
    sends v to v + (v . alpha) * alpha, read off the nonzero entries of alpha
    and G @ alpha.  Exceeding ``cap`` (None: no cap) raises OrbitTooLarge."""
    gram, steps = start.lattice.gram, []
    for alpha in generators:
        if alpha.square != -2 or alpha.cleared[1] != 1:
            raise NotMinusTwoClass(f"{alpha} is not an integral class of square -2")
        a = [(i, x) for i, x in enumerate(alpha.cleared[0]) if x]
        row = [(i, s) for i, g in enumerate(gram) if (s := sum(g[j] * y for j, y in a))]
        steps.append((a, row))
    orbit, d = [start.cleared[0]], start.cleared[1]
    seen = set(orbit)
    for v in orbit:
        for a, row in steps:
            t = sum(v[i] * s for i, s in row)
            if t:
                image = list(v)
                for i, y in a:
                    image[i] += t * y
                image = tuple(image)
                if image not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise OrbitTooLarge(f"orbit exceeded the cap of {cap}")
                    seen.add(image)
                    orbit.append(image)
    return orbit, d


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
    """Closure of a class under the simple-root reflections (see ``_orbit``).
    When |W| > cap its size is predicted first: the simple roots, in reverse and
    each negated if it pairs negatively with an earlier one, pair >= 0 with each
    other; descent reflects the start into their closed chamber, where its
    stabiliser is the parabolic subgroup W_J of the roots J orthogonal to it
    (Humphreys, 1.12), and an orbit of |W| / |W_J| > cap is refused."""
    if start.lattice != model.lattice:
        raise LatticeMismatch("class lives in a different lattice")
    cap, gram = _orbit_cap(cap), model.lattice.gram
    if len(gram) - 1 <= MAX_FINITE_R and gram not in _ORDERS:
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
    orbit, d = _orbit(start, simple_roots(model), cap)
    return {DivisorClass._reduced(start.lattice, v, d) for v in orbit}


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
        index = model.curve_index(label)
    except KeyError:
        raise NotMinusTwoClass(f"{label} is not a listed (-2)-curve") from None
    square = model.curves[index].cls.square
    if square != -2:
        raise NotMinusTwoClass(f"{label} has square {square}, not -2")
    if not is_nef(model, nef_class):
        raise NotNef("reflection volume expects a nef class")
    return vol(model, reflect(nef_class, model.curves[index].cls))
