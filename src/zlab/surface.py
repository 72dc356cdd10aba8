"""Surface models: a lattice, an ample witness and a finite negative-curve list.

The model assumption throughout the library is that the listed curves are
*all* irreducible curves of negative self-intersection on the surface, so a
class D is nef exactly when D**2 >= 0, D.A >= 0 and D.C >= 0 for every listed
curve C.  Del Pezzo models (constructed here), K3 models with a known curve
list and abelian-surface models (empty curve list) all satisfy this.
Surfaces carrying infinitely many negative curves are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import (
    AmpleWitnessError,
    CurvePairingError,
    LatticeMismatch,
    MissingCanonical,
    OutOfRange,
    UnsupportedLattice,
)
from .lattice import DivisorClass, IntersectionLattice, Rational


def _integer_coords(coords: Sequence[Fraction], scale: int) -> list[int]:
    """scale * coords as ints; scale must be a multiple of every denominator."""
    return [x.numerator * (scale // x.denominator) for x in coords]


def _exact(value: int, scale: int) -> Rational:
    """value / scale, kept a plain int at scale 1 (int / int would be a float)."""
    return value if scale == 1 else Fraction(value, scale)


@dataclass(frozen=True)
class NegativeCurve:
    """An irreducible curve class with negative self-intersection."""

    label: str
    cls: DivisorClass

    def __post_init__(self) -> None:
        if self.cls.square >= 0:
            raise CurvePairingError(
                f"curve {self.label} has non-negative self-intersection"
            )


@dataclass(frozen=True)
class SurfaceModel:
    """Computational stand-in for a smooth projective surface.

    Invariants checked at construction: the ample witness has positive square
    and pairs strictly positively with every curve; curve classes are
    pairwise distinct and pair non-negatively with each other (distinct
    irreducible curves meet non-negatively).
    Every pairing against a listed curve, named by its index in ``curves``,
    reads the integer pairing kernel built here.
    """

    lattice: IntersectionLattice
    ample: DivisorClass
    curves: tuple[NegativeCurve, ...]
    canonical: Optional[DivisorClass] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "curves", tuple(self.curves))
        if self.ample.lattice != self.lattice:
            raise LatticeMismatch("ample witness lives in a different lattice")
        if self.ample.square <= 0:
            raise AmpleWitnessError("ample witness must have positive square")
        if self.canonical is not None and self.canonical.lattice != self.lattice:
            raise LatticeMismatch("canonical class lives in a different lattice")
        index = {c.label: i for i, c in enumerate(self.curves)}
        if len(index) != len(self.curves):
            raise CurvePairingError("curve labels must be distinct")
        seen: set[tuple[Fraction, ...]] = set()
        for curve in self.curves:
            if curve.cls.lattice != self.lattice:
                raise LatticeMismatch(f"curve {curve.label} in a different lattice")
            if curve.cls.coords in seen:
                raise CurvePairingError(f"curve class {curve.label} is duplicated")
            seen.add(curve.cls.coords)
        # The pairing kernel: s clears every curve denominator, rows[i] is
        # G @ (s*C_i) in integers and gram[i][j] is C_i . C_j, a plain int
        # when s = 1 and an exact Fraction otherwise.
        scale = lcm(*(x.denominator for c in self.curves for x in c.cls.coords))
        scaled = [_integer_coords(c.cls.coords, scale) for c in self.curves]
        rows = tuple(
            tuple(sum(g * x for g, x in zip(row, v)) for row in self.lattice.gram)
            for v in scaled
        )
        n, square = len(scaled), scale * scale
        gram = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):  # the upper half, mirrored
            for j in range(i, n):
                gram[i][j] = gram[j][i] = _exact(sum(map(mul, row, scaled[j])), square)
        gram = tuple(map(tuple, gram))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_gram", gram)
        for curve, p in zip(self.curves, self.pairing_numerators(self.ample)[0]):
            if p <= 0:
                raise AmpleWitnessError(
                    f"ample witness pairs non-positively with {curve.label}"
                )
        for i, ci in enumerate(self.curves):
            for j in range(i + 1, len(self.curves)):
                if gram[i][j] < 0:
                    raise CurvePairingError(
                        f"distinct curves {ci.label}, {self.curves[j].label} pair negatively"
                    )

    def pairing_numerators(self, divisor: DivisorClass) -> tuple[list[int], int]:
        """(nums, den) with D . C_i = nums[i] / den and den > 0, so every sign
        or zero test reads the ints: D's denominators are cleared once (d*D is
        integral, den = d*s) and each numerator is one dot product with a row."""
        if divisor.lattice is not self.lattice and divisor.lattice != self.lattice:
            raise LatticeMismatch("class lives in a different lattice")
        coords = divisor.coords
        d = lcm(*(x.denominator for x in coords))
        v = _integer_coords(coords, d)
        return [sum(map(mul, v, row)) for row in self._rows], d * self._scale

    def curve_pairings(self, divisor: DivisorClass) -> list[Fraction]:
        """[D . C for C in curves] as Fractions, built from ``pairing_numerators``."""
        nums, den = self.pairing_numerators(divisor)
        return [Fraction(n, den) for n in nums]

    def minus_curves(
        self, divisor: DivisorClass, indices: Sequence[int], coeffs: Sequence[Rational]
    ) -> DivisorClass:
        """divisor - sum(x_i * C_i) over the curves at ``indices``, as one class."""
        curves = [self.curves[i].cls.coords for i in indices]
        return DivisorClass(self.lattice, tuple(
            x - sum(c * y[k] for c, y in zip(coeffs, curves) if y[k])
            for k, x in enumerate(divisor.coords)
        ))

    def curve_gram(self, indices: Sequence[int]) -> list[list[Rational]]:
        """The intersection matrix (C_i . C_j) of the curves at ``indices``."""
        gram = self._gram
        return [[gram[i][j] for j in indices] for i in indices]

    def curve_rows(self, indices: Sequence[int]) -> list[list[Rational]]:
        """The rows G @ C_i of the curves at ``indices``, so D . C_i = D @ row."""
        return [[_exact(x, self._scale) for x in self._rows[i]] for i in indices]

    def curve_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no curve labelled {label!r}") from None

    def curve_by_label(self, label: str) -> NegativeCurve:
        return self.curves[self.curve_index(label)]

    def is_nef(self, divisor: DivisorClass) -> bool:
        return is_nef(self, divisor)


def is_nef(
    model: SurfaceModel, divisor: DivisorClass, pairings: "Sequence[Rational] | None" = None
) -> bool:
    """Nefness test under the model assumption (complete curve list).  Only the
    signs of ``pairings`` are read, so a caller holding the class's curve
    pairings or their numerators (``model.pairing_numerators``) passes them."""
    if divisor.lattice != model.lattice:
        raise LatticeMismatch("class lives in a different lattice")
    if divisor.square < 0 or divisor.dot(model.ample) < 0:
        return False
    if pairings is None:
        pairings = model.pairing_numerators(divisor)[0]
    return min(pairings, default=0) >= 0


# ---------------------------------------------------------------------------
# del Pezzo models
# ---------------------------------------------------------------------------


def _del_pezzo_lattice(r: int) -> IntersectionLattice:
    gram = [[0] * (r + 1) for _ in range(r + 1)]
    gram[0][0] = 1
    for i in range(1, r + 1):
        gram[i][i] = -1
    labels = ["L"] + [f"E{i}" for i in range(1, r + 1)]
    return IntersectionLattice(gram, labels)


def _is_standard_del_pezzo(lattice: IntersectionLattice) -> bool:
    n = lattice.rank
    if n < 2:
        return False
    for i in range(n):
        for j in range(n):
            expected = 1 if i == j == 0 else (-1 if i == j else 0)
            if lattice.gram[i][j] != expected:
                return False
    return True


def _vectors_with_sum_and_square(length: int, total: int, square: int) -> list[tuple[int, ...]]:
    """All integer vectors with the given coordinate sum and sum of squares.

    Depth-first search over coordinates; a branch is cut as soon as the
    Cauchy-Schwarz bound (remaining sum)^2 <= (slots left) * (remaining
    square) fails, which keeps the search tiny at the ranks used here.
    """
    out: list[tuple[int, ...]] = []
    current: list[int] = []

    def descend(slots: int, total_left: int, square_left: int) -> None:
        if slots == 0:
            if total_left == 0 and square_left == 0:
                out.append(tuple(current))
            return
        if square_left < 0 or total_left * total_left > slots * square_left:
            return
        bound = isqrt(square_left)
        for value in range(-bound, bound + 1):
            current.append(value)
            descend(slots - 1, total_left - value, square_left - value * value)
            current.pop()

    descend(length, total, square)
    return out


def _classes_by_degree_constraints(
    lattice: IntersectionLattice, k_degree: int, self_intersection: int
) -> list[DivisorClass]:
    """Integral classes dL - sum(m_i E_i) with the given square and K-degree.

    With K = -3L + sum(E_i) such a class has square d^2 - sum(m_i^2) and
    K-pairing -3d + sum(m_i), so the search runs over sum(m_i) = 3d + k_degree
    and sum(m_i^2) = d^2 - self_intersection for each feasible d.
    """
    r = lattice.rank - 1
    found: list[DivisorClass] = []
    for d in range(-4, 9):
        m_sum = 3 * d + k_degree  # K . class = -3d + sum(m_i) = k_degree
        m_square = d * d - self_intersection
        if m_square < 0:
            continue
        if m_sum * m_sum > r * m_square:
            continue
        for m in _vectors_with_sum_and_square(r, m_sum, m_square):
            coords = (d,) + tuple(-mi for mi in m)
            found.append(lattice.divisor(coords))
    found.sort(key=lambda cls: (cls.coords[0], tuple(-c for c in cls.coords[1:])))
    return found


def exceptional_classes(lattice: IntersectionLattice) -> list[DivisorClass]:
    """All classes E with E**2 = -1 and E.K = -1 on a standard del Pezzo lattice."""
    if not _is_standard_del_pezzo(lattice):
        raise UnsupportedLattice("exceptional-class enumeration needs the standard basis")
    return _classes_by_degree_constraints(lattice, k_degree=-1, self_intersection=-1)


def del_pezzo(r: int) -> SurfaceModel:
    """Blow-up of the plane in r general points, modelled lattice-theoretically.

    The curve list is the full set of exceptional classes (E**2 = -1,
    E.K = -1), the canonical class is -3L + sum(E_i) and the ample witness is
    its negative.
    """
    if not 1 <= r <= 8:
        raise OutOfRange("del Pezzo models need 1 <= r <= 8")
    lattice = _del_pezzo_lattice(r)
    canonical = lattice.divisor([-3] + [1] * r)
    ample = -canonical
    curves = tuple(
        NegativeCurve(cls.format(), cls) for cls in exceptional_classes(lattice)
    )
    return SurfaceModel(lattice=lattice, ample=ample, curves=curves, canonical=canonical)


class RootSystem(NamedTuple):
    roots: tuple[DivisorClass, ...]
    simple: tuple[DivisorClass, ...]


def simple_roots(model: SurfaceModel) -> tuple[DivisorClass, ...]:
    """L-E1-E2-E3 (when r >= 3) and E_{i+1}-E_i for i = 1..r-1; for r >= 3
    they generate the whole reflection group."""
    if model.canonical is None:
        raise MissingCanonical("root enumeration needs a canonical class")
    lattice = model.lattice
    if not _is_standard_del_pezzo(lattice):
        raise UnsupportedLattice("root enumeration needs the standard basis")
    r = lattice.rank - 1
    simple: list[DivisorClass] = []
    if r >= 3:
        simple.append(lattice.divisor([1, -1, -1, -1] + [0] * (r - 3)))
    for i in range(2, r + 1):
        coords = [0] * (r + 1)
        coords[i] = 1
        coords[i - 1] = -1
        simple.append(lattice.divisor(coords))
    return tuple(simple)


def enumerate_roots(model: SurfaceModel) -> RootSystem:
    """All roots (square -2, orthogonal to K) together with the simple ones.

    Both alpha and -alpha appear in ``roots``.
    """
    simple = simple_roots(model)
    roots = _classes_by_degree_constraints(model.lattice, k_degree=0, self_intersection=-2)
    return RootSystem(roots=tuple(roots), simple=simple)
