"""Surface models: a lattice, an ample witness and a finite negative-curve list.

The model assumption throughout the library is that the listed curves are
*all* irreducible curves of negative self-intersection on the surface, so a
class D is nef exactly when D**2 >= 0, D.A >= 0 and D.C >= 0 for every listed
curve C.  Del Pezzo models (constructed here), K3 models with a known curve
list and abelian-surface models (empty curve list) all satisfy this.
Surfaces carrying infinitely many negative curves are out of scope.
The standard basis L, E1..Er lives here with its one Cremona step, ``_orbit``:
del Pezzo curves and roots are orbits of seeds, and ``weyl`` imports the search.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, lcm, prod
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import (
    AmpleWitnessError,
    CurvePairingError,
    LatticeMismatch,
    MissingCanonical,
    OrbitTooLarge,
    OutOfRange,
    RankTooLargeForEnumeration,
    UnrealizableSupport,
    UnsupportedLattice,
)
from .lattice import DivisorClass, IntersectionLattice, _Value, solve_negative_definite


_CODES = {16: "h", 32: "i", 64: "q"}  # the struct codes of the slot widths kept packed


def _pack(column: Sequence[int], width: int) -> int:
    """sum(x << (width * i)): entry i of the column in slot i of ``width`` bits."""
    return sum(x << (width * i) for i, x in enumerate(column) if x)


class PackedSum(NamedTuple):
    """sum(v_k * column_k) + offset: slot i of ``width`` bits holds v @ rows[i]
    plus its offset bit 2**(width-1), which no slot borrows past."""

    total: int
    width: int
    offset: int

    def negatives(self) -> list[int]:
        """The indices of the negative slots, read off the offset bits the sum cleared."""
        found, bits, width = [], self.offset & ~self.total, self.width
        while bits:
            low = bits & -bits
            found.append(low.bit_length() // width - 1)
            bits ^= low
        return found

    def zeros(self) -> list[int]:
        """The indices of the zero slots.  Adding m, all ones below each offset bit,
        to the sum's bits below it sets that bit, carrying no further, unless they are
        0: so only for a zero slot, as ``pair_packed`` keeps |slot| < 2**(width-1)."""
        m = self.offset - (self.offset >> (self.width - 1))
        return PackedSum((self.total & m) + m, self.width, self.offset).negatives()

    def slot(self, i: int) -> int:
        width = self.width
        return (self.total >> (width * i) & ((1 << width) - 1)) - (1 << (width - 1))

    def values(self) -> list[int]:
        """Every slot: flipping the offset bits back leaves each in two's complement."""
        width, n = self.width, self.offset.bit_length() // self.width
        raw = (self.total ^ self.offset).to_bytes(width // 8 * n, "little")
        if width <= 64:
            return list(struct.unpack(f"<{n}{_CODES[width]}", raw))
        return [int.from_bytes(raw[i:i + width // 8], "little", signed=True)
                for i in range(0, len(raw), width // 8)]


class NegativeCurve(_Value, fields=("label", "cls")):
    """An irreducible curve class with negative self-intersection."""

    label: str
    cls: DivisorClass

    def __post_init__(self) -> None:
        v = self.cls.cleared[0]
        if self.cls.lattice.form(v, v) >= 0:
            raise CurvePairingError(f"curve {self.label} has non-negative self-intersection")


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
    canonical: Optional[DivisorClass] = None

    def __post_init__(self) -> None:
        vars(self)["curves"] = tuple(self.curves)
        if self.ample.lattice != self.lattice:
            raise LatticeMismatch("ample witness lives in a different lattice")
        if self.ample.square <= 0:
            raise AmpleWitnessError("ample witness must have positive square")
        if self.canonical is not None and self.canonical.lattice != self.lattice:
            raise LatticeMismatch("canonical class lives in a different lattice")
        index = {c.label: i for i, c in enumerate(self.curves)}
        if len(index) != len(self.curves):
            raise CurvePairingError("curve labels must be distinct")
        seen: set[tuple[tuple[int, ...], int]] = set()  # the lattice is checked already
        for curve in self.curves:
            if curve.cls.lattice != self.lattice:
                raise LatticeMismatch(f"curve {curve.label} in a different lattice")
            if curve.cls.cleared in seen:
                raise CurvePairingError(f"curve class {curve.label} is duplicated")
            seen.add(curve.cls.cleared)
        # The pairing kernel: s clears the curve denominators, c_i = s*C_i and
        # rows[i] = G @ c_i; column k of the rows is packed into one int with a
        # slot per curve, and gram[i][j] = c_i . c_j is paired by it.
        cleared = [c.cls.cleared for c in self.curves]
        scale = lcm(*(d for _, d in cleared))
        vectors = [tuple(x * (scale // d) for x in v) for v, d in cleared]
        rows = tuple(tuple(sum(map(mul, row, v)) for row in self.lattice.gram) for v in vectors)
        vars(self).update(
            _index=index, _scale=scale, _vectors=vectors, _rows=rows, _packings={},
            _column_max=[max(map(abs, c)) for c in zip(*rows)],
        )
        sums = [self.pair_packed(v) for v in vectors]
        vars(self)["_gram"] = [s.values() for s in sums]
        for curve, p in zip(self.curves, self.pairing_sum(self.ample)[0].values()):
            if p <= 0:
                raise AmpleWitnessError(f"ample witness pairs non-positively with {curve.label}")
        for i, s in enumerate(sums):  # slot i holds C_i**2 < 0; a row before i named any j < i
            if s.offset & ~s.total != 1 << (s.width * (i + 1) - 1):
                j = next((j for j in s.negatives() if j > i), None)
                if j is not None:
                    raise CurvePairingError(f"distinct curves {self.curves[i].label}, "
                                            f"{self.curves[j].label} pair negatively")

    def pair_packed(self, v: Sequence[int]) -> PackedSum:
        """The kernel's one multiply-accumulate sum(v_k * column_k) for integral
        v: slot i holds v @ rows[i] = s * (v . C_i).  The bound sum(|v_k| *
        max_i |rows[i][k]|) on |v @ rows[i]| picks the narrowest slot of 16,
        32 or 64 bits it fits with a sign; their packings are built on first
        use and kept, and wider ones are packed per call."""
        bits = sum(map(mul, map(abs, v), self._column_max)).bit_length()
        width = 16 if bits < 16 else 32 if bits < 32 else 64 * ((bits + 64) // 64)
        packing = self._packings.get(width)
        if packing is None:
            packing = ([_pack(col, width) for col in zip(*self._rows)],
                       _pack([1 << (width - 1)] * len(self._rows), width))
            if width <= 64:
                self._packings[width] = packing
        columns, offset = packing
        return PackedSum(sum(map(mul, v, columns)) + offset, width, offset)

    def pairing_sum(self, divisor: DivisorClass) -> tuple[PackedSum, int]:
        """(sums, den): D . C_i = sums.slot(i) / den with den > 0, so every sign
        or zero test reads the ints: ``pair_packed`` on D's cleared coordinates."""
        if divisor.lattice is not self.lattice and divisor.lattice != self.lattice:
            raise LatticeMismatch("class lives in a different lattice")
        return self.pair_packed(divisor.cleared[0]), divisor.cleared[1] * self._scale

    def _nef_read(self, divisor: DivisorClass) -> Optional[PackedSum]:
        """The one read of a class: ``pairing_sum``'s slots when the class is nef
        under the model assumption, else None.  D**2 >= 0 and D.A >= 0 are read
        on ints first, then the offset bits: none cleared, no negative slot."""
        v, form, same = divisor.cleared[0], self.lattice.form, divisor.lattice == self.lattice
        if same and (form(v, v) < 0 or form(v, self.ample.cleared[0]) < 0):
            return None
        sums = self.pairing_sum(divisor)[0]  # LatticeMismatch unless same
        return None if sums.offset & ~sums.total else sums

    def curve_pairings(self, divisor: DivisorClass) -> list[Fraction]:
        """[D . C for C in curves] as Fractions, built from ``pairing_sum``."""
        sums, den = self.pairing_sum(divisor)
        return [Fraction(n, den) for n in sums.values()]

    def project(self, classes: Sequence[tuple[Sequence[int], int]], indices: Sequence[int]
                ) -> tuple[list[tuple[list[int], int]], list[list[int]], int]:
        """P_S(v/d) = v/d - sum(x_j * C_j) for each cleared pair (v, d), x solving
        sum_j (C_i . C_j) x_j = v/d . C_i over the curves at ``indices``.  One integer
        solve K @ ys[c] = det * (v @ rows[i]) serves every class, with K =
        ``kernel_gram(indices)`` (diagonal for disjoint curves, so solved without an
        elimination) and v @ rows[i] slot i of ``pair_packed(v)``.  Returns
        ([(p, q)], xss, e): P_S(v/d) = p/q, p = det*v - sum(y_j * c_j) and q = |det|*d
        with the sign that makes q > 0, and x_j = xss[c][j] / (e*d) with e = |det|.
        NotNegativeDefinite unless the curves' matrix is negative definite."""
        ys, det = solve_negative_definite(self.kernel_gram(indices), [
            [sum(map(mul, v, self._rows[i])) for i in indices] for v, _ in classes])
        sign, e = (1 if det > 0 else -1), abs(det)  # x_j = s*y_j / (det*d): K = s**2 * C_i . C_j
        columns = list(zip(*(self._vectors[i] for i in indices))) or [()] * self.lattice.rank
        projected = [([sign * (det * x - sum(map(mul, y, c))) for x, c in zip(v, columns)], e * d)
                     for (v, d), y in zip(classes, ys)]
        return projected, [[sign * self._scale * x for x in y] for y in ys], e

    def kernel_gram(self, indices: Sequence[int]) -> list[list[int]]:
        """s**2 times the intersection matrix of the curves at ``indices``, in ints."""
        return [[self._gram[i][j] for j in indices] for i in indices]

    def kernel_rows(self, indices: Sequence[int]) -> list[list[int]]:
        """s times the rows G @ C_i of the curves at ``indices``, in ints:
        D . C_i = (D @ row) / s."""
        return [list(self._rows[i]) for i in indices]

    def curve_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnrealizableSupport(f"no curve labelled {label!r}") from None

    def curve_by_label(self, label: str) -> NegativeCurve:
        return self.curves[self.curve_index(label)]

    def is_nef(self, divisor: DivisorClass) -> bool:
        return is_nef(self, divisor)


def is_nef(model: SurfaceModel, divisor: DivisorClass) -> bool:
    """Nefness test under the model assumption (complete curve list)."""
    return model._nef_read(divisor) is not None


# ---------------------------------------------------------------------------
# del Pezzo models
# ---------------------------------------------------------------------------

MAX_FINITE_R = 8  # W, the (-1)-classes and the roots are finite exactly for r <= 8


@cache  # read by every standard-basis check
def _standard_gram(r: int) -> tuple[tuple[int, ...], ...]:
    """diag(1, -1, ..., -1), the form on L, E1, ..., Er."""
    return tuple(tuple(1 if i == j == 0 else -(i == j) for j in range(r + 1)) for i in range(r + 1))


def _del_pezzo_lattice(r: int) -> IntersectionLattice:
    return IntersectionLattice(_standard_gram(r), ["L"] + [f"E{i}" for i in range(1, r + 1)])


def _is_standard_del_pezzo(lattice: IntersectionLattice) -> bool:
    return lattice.rank >= 2 and lattice.gram == _standard_gram(lattice.rank - 1)


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


def _orbit_classes(lattice: IntersectionLattice, seeds: Sequence[Sequence[int]]
                   ) -> list[DivisorClass]:
    """The classes dL - sum(m_i E_i) of the seeds' ``_orbit``s, sorted by (d, m) on
    ints.  At r > MAX_FINITE_R both lists are infinite: RankTooLargeForEnumeration,
    before any search."""
    if (r := lattice.rank - 1) > MAX_FINITE_R:
        raise RankTooLargeForEnumeration(f"the reflection group is infinite at r = {r}")
    found = [w for seed in seeds for w in _orbit(seed, 1000)]  # 240 at most, at r = 8
    found.sort(key=lambda w: (w[0], [-x for x in w[1:]]))
    return [DivisorClass._reduced(lattice, w, 1) for w in found]


def exceptional_classes(lattice: IntersectionLattice) -> list[DivisorClass]:
    """All classes E with E**2 = -1 and E.K = -1 on a standard del Pezzo lattice:
    the orbit of E_r, since W acts transitively on them for 3 <= r <= 8 (Manin,
    *Cubic Forms*, secs. 23-26), and at r = 2 also L-E1-E2, which W = S_2 fixes."""
    if not _is_standard_del_pezzo(lattice):
        raise UnsupportedLattice("exceptional-class enumeration needs the standard basis")
    r = lattice.rank - 1
    return _orbit_classes(lattice, [(0,) * r + (1,)] + [(1, -1, -1)] * (r == 2))


def del_pezzo(r: int) -> SurfaceModel:
    """Blow-up of the plane in r general points, modelled lattice-theoretically.

    The curve list is the full set of exceptional classes (E**2 = -1,
    E.K = -1), the canonical class is -3L + sum(E_i) and the ample witness is
    its negative.
    """
    if not 1 <= r <= MAX_FINITE_R:
        raise OutOfRange("del Pezzo models need 1 <= r <= 8")
    lattice = _del_pezzo_lattice(r)
    canonical = lattice.divisor([-3] + [1] * r)
    curves = [NegativeCurve(cls.format(), cls) for cls in exceptional_classes(lattice)]
    return SurfaceModel(lattice=lattice, ample=-canonical, curves=curves, canonical=canonical)


class RootSystem(NamedTuple):
    roots: tuple[DivisorClass, ...]
    simple: tuple[DivisorClass, ...]


def _root_rank(model: SurfaceModel) -> int:
    """r, for a model with a canonical class on the standard basis L, E1..Er,
    where the simple roots live; MissingCanonical, then UnsupportedLattice."""
    if model.canonical is None:
        raise MissingCanonical("root enumeration needs a canonical class")
    if not _is_standard_del_pezzo(model.lattice):
        raise UnsupportedLattice("root enumeration needs the standard basis")
    return model.lattice.rank - 1


def simple_roots(model: SurfaceModel) -> tuple[DivisorClass, ...]:
    """L-E1-E2-E3 (when r >= 3) and E_{i+1}-E_i for i = 1..r-1; for r >= 3
    they generate the whole reflection group."""
    r, lattice = _root_rank(model), model.lattice
    simple = [[1, -1, -1, -1] + [0] * (r - 3)] if r >= 3 else []
    simple += ([0] * (i - 1) + [-1, 1] + [0] * (r - i) for i in range(2, r + 1))  # E_i - E_{i-1}
    return tuple(DivisorClass._reduced(lattice, v, 1) for v in simple)  # integral rows


def enumerate_roots(model: SurfaceModel) -> RootSystem:
    """All roots (square -2, orthogonal to K), both alpha and -alpha, together
    with the simple ones: the orbit of E2-E1, since W acts transitively on the
    roots of the irreducible systems A1, A4, D5 and E6-E8 (r = 2, 4..8), and at
    r = 3, where the system is A2 x A1, also that of L-E1-E2-E3."""
    simple, r = simple_roots(model), model.lattice.rank - 1
    seeds = [(0, -1, 1) + (0,) * (r - 2)] * (r >= 2) + [(1, -1, -1, -1)] * (r == 3)
    return RootSystem(roots=tuple(_orbit_classes(model.lattice, seeds)), simple=simple)
