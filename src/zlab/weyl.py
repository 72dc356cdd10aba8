"""Reflections in (-2)-classes, orbits, group orders and volume comparisons.

Reflection in a class alpha with alpha**2 = -2 sends D to D + (D.alpha)*alpha;
it is an involution preserving the intersection form.  On del Pezzo models
the group generated by the simple-root reflections permutes the exceptional
classes, so decomposing commutes with it and volumes are preserved.  On K3
models a reflection in an actual (-2)-curve moves nef classes out of the nef
cone and the volume changes: for nef P and a (-2)-curve E with t = P.E, the
reflected class has volume P**2 + t**2/2 (which only coincides with
P**2 + t**2 - t/2 at t = 1).
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import lcm

from .errors import (
    NotMinusTwoClass,
    NotNef,
    OrbitTooLarge,
    OutOfRange,
    RankTooLargeForEnumeration,
)
from .lattice import DivisorClass
from .surface import NegativeCurve, SurfaceModel, is_nef, simple_roots
from .volume import vol

DEFAULT_ORBIT_CAP = 10_000_000
MAX_FINITE_R = 8


def reflect(divisor: DivisorClass, alpha: DivisorClass) -> DivisorClass:
    """Reflection of a class in a (-2)-class: D + (D.alpha)*alpha."""
    if alpha.square != -2:
        raise NotMinusTwoClass(f"{alpha} has square {alpha.square}, not -2")
    return divisor + divisor.dot(alpha) * alpha


def _orbit_cap(explicit: "int | None") -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("ZLAB_ORBIT_CAP")
    if not env:
        return DEFAULT_ORBIT_CAP
    try:
        return int(env)
    except ValueError as exc:
        raise OutOfRange(f"ZLAB_ORBIT_CAP must be an integer, got {env!r}") from exc


def _orbit(
    start: DivisorClass, generators: tuple[DivisorClass, ...], cap: "int | None"
) -> tuple[list[tuple[int, ...]], int]:
    """Closure of a class under reflections in ``generators``, by breadth-first search.

    It runs on integer tuples and returns them with the common denominator d
    of the start, cleared once, so the orbit is {v / d}: an
    integral (-2)-class alpha sends v to v + (v . alpha) * alpha, read off the
    nonzero entries of alpha and G @ alpha, and fixes v when v . alpha = 0.
    Exceeding ``cap`` raises OrbitTooLarge; None means no cap.
    """
    gram = start.lattice.gram
    steps = []
    for alpha in generators:
        if alpha.square != -2 or any(x.denominator != 1 for x in alpha.coords):
            raise NotMinusTwoClass(f"{alpha} is not an integral class of square -2")
        a = [(i, x.numerator) for i, x in enumerate(alpha.coords) if x]
        row = [(i, s) for i, g in enumerate(gram) if (s := sum(g[j] * y for j, y in a))]
        steps.append((a, row))
    d = lcm(*(x.denominator for x in start.coords))
    orbit = [tuple(x.numerator * (d // x.denominator) for x in start.coords)]
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


def weyl_orbit(
    model: SurfaceModel, start: DivisorClass, cap: "int | None" = None
) -> set[DivisorClass]:
    """Closure of a class under the simple-root reflections (see ``_orbit``)."""
    orbit, d = _orbit(start, simple_roots(model), _orbit_cap(cap))
    return {start.lattice.divisor([Fraction(x, d) for x in v] if d > 1 else v) for v in orbit}


def weyl_group_order(model: SurfaceModel) -> int:
    """Order of the group W_r generated by the simple-root reflections.

    W_k is generated by the simple roots supported on L, E1..Ek, and the
    orbit-stabiliser tower |W_k| = |W_k . E_k| * |W_{k-1}| makes the order a
    product of r orbits of at most 240 classes each.  For k != 3, E_k pairs
    -1 with E_k - E_{k-1} and 0 with every other generator of W_k, so it lies
    in the closed fundamental chamber of W_k, whose stabiliser is the
    parabolic subgroup of the generators orthogonal to it: W_{k-1} (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12).  E_3 pairs +1 with
    L-E1-E2-E3, so that step (12 = 6 * 2) rests on the tests' enumeration of
    the group as root permutations.  For r > 8 the group is infinite.
    """
    r = model.lattice.rank - 1
    if r > MAX_FINITE_R:
        raise RankTooLargeForEnumeration(f"the reflection group is infinite at r = {r}")
    generators = simple_roots(model)
    order = 1
    for k in range(1, r + 1):
        tower = tuple(alpha for alpha in generators if not any(alpha.coords[k + 1 :]))
        order *= len(_orbit(model.lattice.basis_divisor(k), tower, None)[0])
    return order


def k3_reflection_volume(
    model: SurfaceModel, nef_class: DivisorClass, curve: "NegativeCurve | str"
) -> Fraction:
    """Volume of the reflection of a nef class in a listed (-2)-curve.

    Computed honestly through the Zariski decomposition of the reflected
    class; for t = P.E the value equals P**2 + t**2/2.  NotMinusTwoClass
    unless the label names a listed curve of square -2.
    """
    label = curve if isinstance(curve, str) else curve.label
    try:
        index = model.curve_index(label)
    except KeyError:
        raise NotMinusTwoClass(f"{label} is not a listed (-2)-curve") from None
    curve = model.curves[index]
    square = model.curve_gram([index])[0][0]
    if square != -2:
        raise NotMinusTwoClass(f"{curve.label} has square {square}, not -2")
    if not is_nef(model, nef_class):
        raise NotNef("reflection volume expects a nef class")
    return vol(model, reflect(nef_class, curve.cls))
