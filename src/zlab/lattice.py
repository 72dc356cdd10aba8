"""Exact linear algebra over integer symmetric bilinear forms.

Matrix entries are ``fractions.Fraction``s; a divisor class is integers over one
denominator and a + b*sqrt(m) a :class:`QuadraticIrrational` of integers.  Nothing
here (or in the modules built on top of it) rounds: chamber membership and wall
crossings are discontinuous in the input, so a single rounding error could flip
an answer.  Floating point appears only in reporting helpers (``__float__``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, mul
from typing import Iterable, Iterator, Sequence, Union

from .errors import LatticeMismatch, NotNegativeDefinite, SignatureError

Rational = Union[int, Fraction]

# ---------------------------------------------------------------------------
# quadratic irrationals
# ---------------------------------------------------------------------------


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s**2 * m with m squarefree; return (s, m).

    A perfect square costs one isqrt.  Otherwise trial division by d stops
    once d**3 exceeds the unfactored part r: every prime of r is then at
    least d, so r is 1, p, p*q or p**2 and isqrt decides.
    """
    if n < 0:
        raise ValueError("negative radicand")
    t = math.isqrt(n)
    if t * t == n:
        return (t, 1) if n else (1, 0)
    s, m, r, d = 1, 1, n, 2
    while d * d * d <= r:
        if r % d == 0:
            while r % (d * d) == 0:
                r //= d * d
                s *= d
            if r % d == 0:
                r //= d
                m *= d
        d += 1
    t = math.isqrt(r)
    return (s * t, m) if t * t == r else (s, m * r)


class QuadraticIrrational:
    """An exact real number a + b*sqrt(m) with rational a, b and integer m >= 0.

    It is stored as four integers (p, q, m, d) for (p + q*sqrt(m))/d, in a
    canonical form that makes equality decidable: d > 0, gcd(p, q, d) == 1,
    the radicand is squarefree, and a rational value has q == m == 0.
    Arithmetic stays inside a single quadratic field and works on integers
    with one gcd per result; combining two irrationals with different
    radicands raises ``ValueError``.
    """

    __slots__ = ("_p", "_q", "_m", "_d")

    def __init__(self, a: Rational = 0, b: Rational = 0, m: int = 0) -> None:
        a = Fraction(a)
        b = Fraction(b)
        m = int(m)
        if m < 0:
            raise ValueError("radicand must be non-negative")
        if b and m:
            s, m = squarefree_split(m)
            b *= s
        if b == 0 or m <= 1:  # rational: b or m is 0, or the radicand was a square
            a, b, m = a + b * m, Fraction(0), 0
        # no prime divides p, q and the lcm of two reduced denominators
        d = math.lcm(a.denominator, b.denominator)
        self._p = a.numerator * (d // a.denominator)
        self._q = b.numerator * (d // b.denominator)
        self._m, self._d = m, d

    @classmethod
    def _reduced(cls, p: int, q: int, m: int, d: int) -> "QuadraticIrrational":
        """(p + q*sqrt(m))/d for d != 0 and m squarefree, as arithmetic takes it
        from canonical operands: one gcd and the sign moved off d, no factoring."""
        g = math.gcd(p, q, d) if d > 0 else -math.gcd(p, q, d)
        out = object.__new__(cls)
        out._p, out._q, out._m, out._d = p // g, q // g, (m if q else 0), d // g
        return out

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    @property
    def m(self) -> int:
        return self._m

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic --------------------------------------------------------

    @classmethod
    def _coerce(cls, value: object) -> "QuadraticIrrational | None":
        if isinstance(value, QuadraticIrrational):
            return value
        if not isinstance(value, (int, Fraction)):
            return None
        out = object.__new__(cls)  # a reduced fraction is already canonical
        out._p, out._q, out._m, out._d = value.numerator, 0, 0, value.denominator
        return out

    def _common_radicand(self, other: "QuadraticIrrational") -> int:
        if self._m == 0:
            return other._m
        if other._m == 0 or other._m == self._m:
            return self._m
        raise ValueError(f"mixed radicands {self._m} and {other._m}")

    def __add__(self, other: object) -> "QuadraticIrrational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._common_radicand(o)
        d1, d2 = self._d, o._d
        return self._reduced(self._p * d2 + o._p * d1, self._q * d2 + o._q * d1, m, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticIrrational":
        return self._reduced(-self._p, -self._q, self._m, self._d)

    def __sub__(self, other: object) -> "QuadraticIrrational":
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other: object) -> "QuadraticIrrational":
        return -(self - other)

    def __mul__(self, other: object) -> "QuadraticIrrational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._common_radicand(o)
        p1, q1, p2, q2 = self._p, self._q, o._p, o._q
        return self._reduced(p1 * p2 + q1 * q2 * m, p1 * q2 + q1 * p2, m, self._d * o._d)

    __rmul__ = __mul__

    def _over(self, other: "QuadraticIrrational") -> "QuadraticIrrational":
        """self / other, both numerators times the conjugate p - q*sqrt(m) of other's:
        other's becomes the norm p^2 - q^2 m, nonzero for m squarefree unless other is 0."""
        p, q, d = other._p, other._q, other._d
        if p == 0 and q == 0:
            raise ZeroDivisionError("inverse of zero")
        m = self._common_radicand(other)
        p1, q1 = self._p, self._q
        norm = p * p - q * q * m
        return self._reduced(d * (p1 * p - q1 * q * m), d * (q1 * p - p1 * q), m, self._d * norm)

    def inverse(self) -> "QuadraticIrrational":
        return self._coerce(1)._over(self)

    def __truediv__(self, other: object) -> "QuadraticIrrational":
        o = self._coerce(other)
        return NotImplemented if o is None else self._over(o)

    def __rtruediv__(self, other: object) -> "QuadraticIrrational":
        o = self._coerce(other)
        return NotImplemented if o is None else o._over(self)

    def __pow__(self, exponent: int) -> "QuadraticIrrational":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = self._coerce(1)
        for _ in range(exponent):
            out = out * self
        return out

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        p, q = self._p, self._q  # d > 0: the sign of p + q*sqrt(m)
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        if sp * sq >= 0:  # equal signs, or a zero part
            return sp or sq
        # opposite signs: the larger of p^2 and q^2 m wins; they differ, m being squarefree
        return sp if p * p > q * q * self._m else sq

    def _cmp(self, other: object) -> "int | None":
        o = self._coerce(other)
        return None if o is None else (self - o).sign()

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # canonical forms are unique, so quadruples decide equality even when
        # the radicands differ (ordering across fields would not be as easy)
        return (self._p, self._q, self._m, self._d) == (o._p, o._q, o._m, o._d)

    def __lt__(self, other: object) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other: object) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other: object) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other: object) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.a)
        return hash((self._p, self._q, self._m, self._d))

    def __float__(self) -> float:
        return self._p / self._d + self._q / self._d * math.sqrt(self._m)

    def __repr__(self) -> str:
        return f"QuadraticIrrational({self.a!r}, {self.b!r}, {self._m})"

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self._m})"


def sqrt_fraction(value: Rational) -> QuadraticIrrational:
    """Exact square root of a non-negative rational, as a + b*sqrt(m)."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("square root of a negative rational")
    # p/q is reduced, so sqrt(p/q) = sp*sqrt(mp*mq)/(sq*mq) with mp*mq squarefree
    sp, mp = squarefree_split(value.numerator)
    sq, mq = squarefree_split(value.denominator)
    if mp * mq <= 1:  # zero or the square of a rational
        return QuadraticIrrational._reduced(sp * mp, 0, 0, sq)
    return QuadraticIrrational._reduced(0, sp, mp * mq, sq * mq)


# ---------------------------------------------------------------------------
# exact matrix routines
# ---------------------------------------------------------------------------

Matrix = Sequence[Sequence[Rational]]


def clear_denominators(values: Iterable[Rational]) -> tuple[list[int], int]:
    """(ints, d) with values = ints / d, d the least positive common denominator."""
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _integral_rows(matrix: Matrix) -> tuple[list[list[int]], int]:
    """(rows, m): m * matrix as int rows for the least positive integer m, a
    congruence that keeps signature and definiteness and scales a solve's rhs."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    flat, m = clear_denominators(x for row in matrix for x in row)
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    return rows, m


def _eliminate(a: list[list[int]]) -> Iterator[int]:
    """Fraction-free (Bareiss) elimination of the symmetric n x n int block of
    the rows ``a`` (right-hand sides may follow column n), in place, yielding
    a number with the sign of each pivot.  Step k sets each later entry to
    (a_ij * a_kk - a_ik * a_kj) / last, last the latest non-zero pivot (1 at
    first), an exact division (Sylvester's identity) that leaves a_kk the
    leading principal minor d_{k+1}.  A zero a_kk is first repaired by a
    congruence: a later non-zero diagonal entry is swapped in, or a row j with
    a_kj != 0 folded in; an all-zero row yields 0 and is skipped.  The signs
    are the signature (Sylvester); all are negative, (-1)^k d_k > 0 for every
    k, exactly when the block is negative definite, and then no repair ran.
    """
    n = len(a)
    last = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is not None:
                    for i in range(k, n):
                        a[k][i] += a[j][i]
                    for i in range(k, n):
                        a[i][k] += a[i][j]
        pivot = a[k][k]
        yield pivot if last > 0 else -pivot
        if pivot == 0:
            continue
        tail = a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // last for x, y in zip(row[k + 1:], tail)]
        last = pivot


def _negative_definite_factor(a: list[list[int]]) -> "list[list[int]] | None":
    """``a`` eliminated by :func:`_eliminate`, or None at the first pivot >= 0."""
    return a if all(p < 0 for p in _eliminate(a)) else None


def solve_negative_definite(matrix: Matrix, columns: Matrix) -> tuple[list[list[int]], int]:
    """(xs, det) with matrix @ xs[c] = det * columns[c] for a symmetric (not
    re-checked) integer matrix of determinant det; xs[c] = adj(matrix) @
    columns[c] is integral (Cramer), so each back-substitution step divides
    exactly.  NotNegativeDefinite unless the matrix is negative definite."""
    n = len(matrix)
    a = [list(row) + [col[i] for col in columns] for i, row in enumerate(matrix)]
    if _negative_definite_factor(a) is None:
        raise NotNegativeDefinite("matrix is not negative definite")
    det = a[-1][n - 1] if n else 1
    xs = [[0] * n for _ in columns]
    for c, x in enumerate(xs, start=n):
        for i in reversed(range(n)):
            row = a[i]
            x[i] = (det * row[c] - sum(map(mul, row[i + 1:n], x[i + 1:]))) // row[i]
    return xs, det


def signature(gram: Matrix) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    Computed by exact symmetric Gaussian reduction (congruence to a diagonal
    form), so the result is not subject to eigenvalue rounding.
    """
    pivots = list(_eliminate(_integral_rows(gram)[0]))
    return sum(p > 0 for p in pivots), sum(p < 0 for p in pivots), pivots.count(0)


def is_negative_definite(gram: Matrix) -> bool:
    """True iff every pivot is negative; stops at the first one that is not."""
    return _negative_definite_factor(_integral_rows(gram)[0]) is not None


def solve_symmetric(matrix: Matrix, rhs: Sequence[Rational]) -> list[Fraction]:
    """Exact solution of matrix @ x = rhs; raises NotNegativeDefinite unless
    the matrix is negative definite (so also when it is singular)."""
    if len(rhs) != len(matrix):
        raise ValueError("rhs length must match the matrix size")
    rows, m = _integral_rows(matrix)
    b, e = clear_denominators(rhs)  # (m * matrix) @ x = m * b / e
    (x,), det = solve_negative_definite(rows, [[m * v for v in b]])
    return [Fraction(v, det * e) for v in x]


def invert_matrix(matrix: Matrix) -> list[list[Fraction]]:
    """Exact inverse of a negative definite matrix (else NotNegativeDefinite):
    m * adj(m * matrix) / det, whose row j solves matrix @ x = e_j."""
    rows, m = _integral_rows(matrix)
    n = len(rows)
    xs, det = solve_negative_definite(rows, [[int(i == j) for i in range(n)] for j in range(n)])
    return [[Fraction(m * v, det) for v in x] for x in xs]


def inverse_is_nonpositive(matrix: Matrix) -> bool:
    """True iff every entry of the inverse of a negative definite matrix is <= 0.

    For negative definite matrices whose off-diagonal entries are all
    non-negative this is expected to hold; the point of keeping it as a
    runtime check is that the property is *tested*, never assumed.
    """
    return all(entry <= 0 for row in invert_matrix(matrix) for entry in row)


# ---------------------------------------------------------------------------
# lattices and divisor classes
# ---------------------------------------------------------------------------


class _Value:
    """Base of zlab's frozen value classes, in place of ``dataclasses``, whose
    import and class building cost a CLI process more than its computation.

    A subclass names its ``fields``; its own ``__init__`` sets them with
    ``object.__setattr__`` (and calls ``__post_init__`` where it validates).
    Equality and hashing read the field tuple and repr shows it, as a frozen
    dataclass would; instances refuse assignment and deletion.
    """

    def __init_subclass__(cls, fields: tuple[str, ...]) -> None:
        get = attrgetter(*fields)
        cls._fields = fields
        cls._key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class IntersectionLattice(_Value, fields=("gram", "basis_labels")):
    """A free Z-module with an integer symmetric pairing of signature (1, rank-1).

    The signature constraint is verified exactly at construction time; it is
    what makes negative-definiteness arguments for curve supports work.
    Every class's hash hashes its lattice, so the lattice hashes its Gram
    matrix once, here.
    """

    gram: tuple[tuple[int, ...], ...]
    basis_labels: tuple[str, ...]

    def __init__(self, gram: Matrix, basis_labels: Sequence[str]) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in gram)
        labels = tuple(str(s) for s in basis_labels)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("gram matrix must be square and non-empty")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        if any(x != y for row, given in zip(rows, gram) for x, y in zip(row, given)):
            raise ValueError("gram matrix must be integral")
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("basis labels must be distinct and match the rank")
        sig = signature(rows)
        if sig != (1, n - 1, 0):
            raise SignatureError(f"signature {sig} is not (1, {n - 1}, 0)")
        object.__setattr__(self, "gram", rows)
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "_hash", hash((rows, labels)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilt, not restored: string hashes vary by process
        return IntersectionLattice, (self.gram, self.basis_labels)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def form(self, u: Sequence[int], v: Sequence[int]) -> int:
        """u^T G v for integer coordinate vectors."""
        return sum(x * sum(map(mul, row, v)) for x, row in zip(u, self.gram) if x)

    def divisor(self, coords: Sequence[Rational]) -> "DivisorClass":
        return DivisorClass(self, coords)

    def basis_divisor(self, index: int) -> "DivisorClass":
        coords = [0] * self.rank
        coords[index] = 1
        return self.divisor(coords)

    def zero(self) -> "DivisorClass":
        return self.divisor([0] * self.rank)


class DivisorClass(_Value, fields=("lattice", "coords")):
    """An R-divisor numerical class with exact rational coordinates, stored as
    one canonical pair ``cleared`` = (v, d): coords = v / d, built only when
    read, with d > 0 and gcd(*v, d) == 1.  Equal classes store equal pairs, and
    arithmetic works on integers with one gcd per result."""

    lattice: IntersectionLattice
    cleared: tuple[tuple[int, ...], int]

    def __init__(self, lattice: IntersectionLattice, coords: Sequence[Rational]) -> None:
        v, d = clear_denominators(coords)  # reduced inputs: gcd(*v, d) == 1 already
        if len(v) != lattice.rank:
            raise ValueError(f"expected {lattice.rank} coordinates, got {len(v)}")
        vars(self).update(lattice=lattice, cleared=(tuple(v), d))

    @classmethod
    def _reduced(cls, lattice: IntersectionLattice, v: Sequence[int], d: int) -> "DivisorClass":
        """The class v / d for integral v and d > 0, made canonical by one gcd."""
        out, g = object.__new__(cls), math.gcd(*v, d)
        v = tuple(v) if g == 1 else tuple(x // g for x in v)
        vars(out).update(lattice=lattice, cleared=(v, d // g))
        return out

    # _Value's comparison and hash, on the stored pair: classes are compared and hashed in bulk
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lattice, self.cleared) == (other.lattice, other.cleared)

    def __hash__(self) -> int:
        return hash((self.lattice, self.cleared))

    def _check_same_lattice(self, other: "DivisorClass") -> None:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeMismatch("classes live in different lattices")

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        v, d = self.cleared
        return tuple(Fraction(x, d) for x in v)

    def dot(self, other: "DivisorClass") -> Fraction:
        """The integer form on the cleared coordinates, divided once at the end."""
        self._check_same_lattice(other)
        (u, d), (v, e) = self.cleared, other.cleared
        return Fraction(self.lattice.form(u, v), d * e)

    @cached_property
    def square(self) -> Fraction:
        return self.dot(self)

    @property
    def is_zero(self) -> bool:
        return not any(self.cleared[0])

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_lattice(other)
        (u, d), (v, e) = self.cleared, other.cleared
        return self._reduced(self.lattice, [x * e + y * d for x, y in zip(u, v)], d * e)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        v, d = self.cleared
        out = object.__new__(DivisorClass)  # (-v, d) is canonical as it stands
        vars(out).update(lattice=self.lattice, cleared=(tuple(-x for x in v), d))
        return out

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        (v, d), p, q = self.cleared, scalar.numerator, scalar.denominator
        return self._reduced(self.lattice, [p * x for x in v], q * d)

    __rmul__ = __mul__

    def format(self) -> str:
        """Human-readable form in the lattice basis, e.g. ``L-E1-E2``."""
        v, d = self.cleared
        parts: list[str] = []
        for x, label in zip(v, self.lattice.basis_labels):
            if x:
                g = math.gcd(x, d)  # |x|/d in lowest terms is n/m
                n, m = abs(x) // g, d // g
                body = label if n == m == 1 else f"{n}{label}" if m == 1 else f"({n}/{m}){label}"
                parts.append(("-" if x < 0 else "+" if parts else "") + body)
        return "".join(parts) or "0"

    def __str__(self) -> str:
        return self.format()


def pair(d1: DivisorClass, d2: DivisorClass) -> Fraction:
    """The intersection pairing d1 . d2 (symmetric and bilinear)."""
    return d1.dot(d2)


def gram_matrix(classes: Sequence[DivisorClass]) -> list[list[Fraction]]:
    return [[a.dot(b) for b in classes] for a in classes]


def solve_gram_system(
    curves: Sequence[DivisorClass], rhs: Sequence[Rational]
) -> list[Fraction]:
    """Solve (C_i . C_j) x = rhs for a negative definite curve configuration.

    Raises NotNegativeDefinite when the pairing matrix of the given curves
    fails the definiteness test, which signals that the input set cannot
    support the negative part of any decomposition.  In signature
    (1, rank - 1) no rank or more classes are negative definite, so such
    input is refused before any pairing is computed.
    """
    if curves and len(curves) >= curves[0].lattice.rank:
        raise NotNegativeDefinite(
            f"{len(curves)} classes in rank {curves[0].lattice.rank} are never negative definite"
        )
    return solve_symmetric(gram_matrix(curves), rhs)
