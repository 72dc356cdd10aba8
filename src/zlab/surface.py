"""Surface models: a lattice, an ample witness and a finite negative-curve list.

The model assumption throughout the library is that the listed curves are
*all* irreducible curves of negative self-intersection on the surface, so a
class D is nef exactly when D**2 >= 0, D.A >= 0 and D.C >= 0 for every listed
curve C.  Del Pezzo models (constructed here), K3 models with a known curve
list and abelian-surface models (empty curve list) all satisfy this.
Surfaces carrying infinitely many negative curves are out of scope.
"""

from __future__ import annotations

import struct
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
from .lattice import DivisorClass, IntersectionLattice, Rational, _Value, solve_negative_definite


Numerators = tuple[list[int], int]  # integers over one positive denominator


def _pack(column: Sequence[int], width: int) -> int:
    """sum(x << (width * i)): entry i of the column in slot i of ``width`` bits."""
    return sum(x << (width * i) for i, x in enumerate(column) if x)


def _exact(value: int, scale: int) -> Rational:
    """value / scale, kept a plain int at scale 1 (int / int would be a float)."""
    return value if scale == 1 else Fraction(value, scale)


class NegativeCurve(_Value, fields=("label", "cls")):
    """An irreducible curve class with negative self-intersection."""

    label: str
    cls: DivisorClass

    def __init__(self, label: str, cls: DivisorClass) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "cls", cls)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.cls.square >= 0:
            raise CurvePairingError(
                f"curve {self.label} has non-negative self-intersection"
            )


class SurfaceModel(_Value, fields=("lattice", "ample", "curves", "canonical")):
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
    canonical: Optional[DivisorClass]

    def __init__(self, lattice: IntersectionLattice, ample: DivisorClass,
                 curves: Sequence[NegativeCurve], canonical: Optional[DivisorClass] = None) -> None:
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "ample", ample)
        object.__setattr__(self, "curves", tuple(curves))
        object.__setattr__(self, "canonical", canonical)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.ample.lattice != self.lattice:
            raise LatticeMismatch("ample witness lives in a different lattice")
        if self.ample.square <= 0:
            raise AmpleWitnessError("ample witness must have positive square")
        if self.canonical is not None and self.canonical.lattice != self.lattice:
            raise LatticeMismatch("canonical class lives in a different lattice")
        index = {c.label: i for i, c in enumerate(self.curves)}
        if len(index) != len(self.curves):
            raise CurvePairingError("curve labels must be distinct")
        seen: set[tuple[tuple[int, ...], int]] = set()
        for curve in self.curves:
            if curve.cls.lattice != self.lattice:
                raise LatticeMismatch(f"curve {curve.label} in a different lattice")
            if curve.cls.cleared in seen:  # equal classes clear to equal ints
                raise CurvePairingError(f"curve class {curve.label} is duplicated")
            seen.add(curve.cls.cleared)
        # The pairing kernel: s clears the curve denominators, c_i = s*C_i and
        # rows[i] = G @ c_i; column k of the rows is packed into one int with a
        # 64-bit slot per curve, and gram[i][j] = c_i . c_j is paired by it.
        cleared = [c.cls.cleared for c in self.curves]
        scale = lcm(*(d for _, d in cleared))
        vectors = [tuple(x * (scale // d) for x in v) for v, d in cleared]
        rows = tuple(tuple(sum(map(mul, row, v)) for row in self.lattice.gram) for v in vectors)
        columns = list(zip(*rows))
        vars(self).update(
            _index=index, _scale=scale, _vectors=vectors, _rows=rows,
            _column_max=[max(map(abs, c)) for c in columns],
            _packed=[_pack(c, 64) for c in columns], _offset=_pack([1 << 63] * len(rows), 64),
        )
        gram = vars(self)["_gram"] = [self.pair_cleared(v, 1)[0] for v in vectors]
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

    def pair_cleared(self, v: Sequence[int], d: int) -> Numerators:
        """(nums, den) with (v/d) . C_i = nums[i] / den for integral v and d > 0:
        den = d*s and nums[i] = v @ rows[i], all read off one multiply-accumulate
        sum(v_k * column_k).  64-bit slots serve unless the bound sum(|v_k| *
        max_i |rows[i][k]|) on |nums[i]| reaches 2**63; wider ones are packed
        per call.  An offset 2**(width-1) per slot keeps every slot from
        borrowing; flipping that bit back leaves each in two's complement."""
        n, width = len(self._rows), 64
        bound = sum(map(mul, map(abs, v), self._column_max))
        columns, offset = self._packed, self._offset
        if bound >> 63:
            width = 64 * ((bound.bit_length() + 64) // 64)
            columns = [_pack(col, width) for col in zip(*self._rows)]
            offset = _pack([1 << (width - 1)] * n, width)
        raw = ((sum(map(mul, v, columns)) + offset) ^ offset).to_bytes(width // 8 * n, "little")
        if width == 64:
            return list(struct.unpack(f"<{n}q", raw)), d * self._scale
        step = width // 8
        return [int.from_bytes(raw[i:i + step], "little", signed=True)
                for i in range(0, len(raw), step)], d * self._scale

    def pairing_numerators(self, divisor: DivisorClass) -> Numerators:
        """(nums, den) with D . C_i = nums[i] / den and den > 0, so every sign
        or zero test reads the ints: ``pair_cleared`` on D's cleared coordinates."""
        if divisor.lattice is not self.lattice and divisor.lattice != self.lattice:
            raise LatticeMismatch("class lives in a different lattice")
        return self.pair_cleared(*divisor.cleared)

    def curve_pairings(self, divisor: DivisorClass) -> list[Fraction]:
        """[D . C for C in curves] as Fractions, built from ``pairing_numerators``."""
        nums, den = self.pairing_numerators(divisor)
        return [Fraction(n, den) for n in nums]

    def solve_curves(self, indices: Sequence[int], rhs: Sequence[int], den: int) -> Numerators:
        """(xs, e) with e > 0 and x_j = xs[j] / e solving sum_j (C_i . C_j) x_j =
        rhs[i] / den over the curves at ``indices``, by one integer elimination;
        NotNegativeDefinite unless their matrix is negative definite."""
        (xs,), det = solve_negative_definite(self.kernel_gram(indices), [rhs])
        square = self._scale ** 2 if det > 0 else -self._scale ** 2  # kernel: s**2 * C_i . C_j
        return [square * x for x in xs], abs(det) * den

    def minus_curves(self, v: Sequence[int], d: int, indices: Sequence[int], xs: Sequence[int],
                     e: int) -> Numerators:
        """(p, q) with v/d - sum(xs[j]/e * C_j) = p/q over the curves at
        ``indices``, for d, e > 0: a class minus curves, formed in integers."""
        es = e * self._scale  # xs[j]/e * C_j = xs[j] * c_j / es
        q = lcm(d, es)
        a, b = q // d, q // es
        columns = zip(*(self._vectors[i] for i in indices)) if indices else [()] * len(v)
        return [a * x - b * sum(map(mul, xs, col)) for x, col in zip(v, columns)], q

    def kernel_gram(self, indices: Sequence[int]) -> list[list[int]]:
        """s**2 times the intersection matrix of the curves at ``indices``, in ints."""
        return [[self._gram[i][j] for j in indices] for i in indices]

    def curve_gram(self, indices: Sequence[int]) -> list[list[Rational]]:
        """The intersection matrix (C_i . C_j) of the curves at ``indices``."""
        return [[_exact(x, self._scale ** 2) for x in row] for row in self.kernel_gram(indices)]

    def kernel_rows(self, indices: Sequence[int]) -> list[list[int]]:
        """s times the rows G @ C_i of the curves at ``indices``, in ints:
        D . C_i = (D @ row) / s."""
        return [list(self._rows[i]) for i in indices]

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
    return n >= 2 and all(
        lattice.gram[i][j] == (1 if i == j == 0 else -(i == j)) for i in range(n) for j in range(n)
    )


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
    found: list[tuple[int, tuple[int, ...]]] = []
    for d in range(-4, 9):
        m_sum = 3 * d + k_degree  # K . class = -3d + sum(m_i) = k_degree
        m_square = d * d - self_intersection
        if m_square < 0:
            continue
        if m_sum * m_sum > r * m_square:
            continue
        found += ((d, m) for m in _vectors_with_sum_and_square(r, m_sum, m_square))
    found.sort()  # by degree, then multiplicities, on ints
    return [lattice.divisor((d,) + tuple(-mi for mi in m)) for d, m in found]


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
