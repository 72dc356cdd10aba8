"""Reference arithmetic owned by the benchmark, independent of zlab.

The benchmark generates its inputs and checks zlab's outputs with these
helpers only, so a defect in zlab cannot hide itself by also corrupting the
inputs or the oracle.  Del Pezzo lattices use the standard basis
(L, E1, ..., Er) with pairing diag(1, -1, ..., -1); classes are coordinate
tuples in that basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

Coords = tuple


def dp_dot(x: Sequence, y: Sequence):
    """Pairing on the standard del Pezzo lattice."""
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def dp_exceptional(r: int) -> list[Coords]:
    """All (-1)-classes dL - sum(m_i E_i) with K-degree -1 on the blow-up in r points.

    They satisfy sum(m_i) = 3d - 1 and sum(m_i**2) = d**2 + 1; d <= 6 covers r <= 8.
    """
    out: list[Coords] = []

    def extend(d: int, ms: tuple, slots: int, sum_left: int, square_left: int) -> None:
        if slots == 0:
            if sum_left == 0 and square_left == 0:
                out.append((d,) + tuple(-m for m in ms))
            return
        for m in range(-1, d + 1):
            if m * m <= square_left:
                extend(d, ms + (m,), slots - 1, sum_left - m, square_left - m * m)

    for d in range(0, 7):
        extend(d, (), r, 3 * d - 1, d * d + 1)
    return out


def dp_anticanonical(r: int) -> Coords:
    return (3,) + (-1,) * r


def exceptional_count(r: int) -> int:
    return {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}[r]


def root_count(r: int) -> int:
    """Number of roots (square -2, orthogonal to K) on the blow-up in r points."""
    return {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}[r]


WEYL_ORDERS = {3: 12, 4: 120, 5: 1920, 6: 51840}


def is_negative_definite(gram: Sequence[Sequence]) -> bool:
    """Exact test by symmetric elimination: every pivot must be negative."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        if pivot >= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return True


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Exact solution of a nonsingular system by Gauss-Jordan elimination."""
    n = len(rhs)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        p = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[p] = a[p], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def nef_with_null(curves: Sequence[Coords], ample: Coords, support: Sequence[Coords]) -> Optional[tuple]:
    """A + sum(t_i C_i) orthogonal to the support, or None if it is not nef
    with null set exactly the support (then the support is no chamber)."""
    gram = [[dp_dot(a, b) for b in support] for a in support]
    if support and not is_negative_definite(gram):
        return None
    ts = solve(gram, [-dp_dot(ample, c) for c in support]) if support else []
    if any(t <= 0 for t in ts):
        return None
    p = [Fraction(x) for x in ample]
    for t, c in zip(ts, support):
        p = [x + t * y for x, y in zip(p, c)]
    chosen = set(support)
    for c in curves:
        value = dp_dot(p, c)
        if value < 0 or (value == 0) != (c in chosen):
            return None
    return tuple(p)


def augmentation_failure(coords: Sequence, curves: Sequence[Coords], ample: Coords) -> Optional[str]:
    """Exact run of the augmentation iteration: the domain error it ends in,
    or None when it reaches a nef positive part.

    Start from the curves pairing negatively with D, solve for the negative
    part, add every curve the candidate still pairs negatively with, repeat.
    Each round's support set is fixed by the previous one, so the run passes
    through the same supports as zlab's.  A support of more than r curves on
    the rank r+1 lattice of signature (1, r) is never negative definite
    (Hodge index), which keeps the oversized classes cheap to confirm.
    """
    d = [Fraction(x) for x in coords]

    def nef(p) -> bool:
        return dp_dot(p, p) >= 0 and dp_dot(p, ample) >= 0 and all(dp_dot(p, c) >= 0 for c in curves)

    if nef(d):
        return None
    if dp_dot(d, ample) <= 0:
        return "NotPseudoEffective"
    support = [c for c in curves if dp_dot(d, c) < 0]
    chosen = set(support)
    while True:
        gram = [[dp_dot(a, b) for b in support] for a in support]
        if len(support) >= len(d) or not is_negative_definite(gram):
            return "NotNegativeDefinite"
        p = list(d)
        for x, c in zip(solve(gram, [dp_dot(d, c) for c in support]), support):
            p = [a - x * b for a, b in zip(p, c)]
        entering = [c for c in curves if c not in chosen and dp_dot(p, c) < 0]
        if not entering:
            return None if nef(p) else "NotPseudoEffective"
        support += entering
        chosen.update(entering)


# -- cost predictors used only to stratify generated inputs -----------------

_SMALL_PRIMES = [p for p in range(2, 100) if all(p % d for d in range(2, p))]


def sqrt_work(eps: Fraction) -> int:
    """Predicted trial-division bound for the square root of 45 + 78 eps + 49 eps**2.

    zlab takes the square root of r = num/den through the squarefree part of
    num*den, found by trial division; the loop ends near the square root of
    what is left after square factors are divided out, or at the largest prime
    of q once q's squares are found.  This estimates that bound, dividing out
    squares of primes below 100 and of q's primes only.
    """
    r = 45 + 78 * eps + 49 * eps * eps
    n = r.numerator * r.denominator
    q, d, q_primes = eps.denominator, 2, []
    while d * d <= q:
        if q % d == 0:
            q_primes.append(d)
            while q % d == 0:
                q //= d
        d += 1
    if q > 1:
        q_primes.append(q)
    for p in set(_SMALL_PRIMES) | set(q_primes):
        while n % (p * p) == 0:
            n //= p * p
    return max([isqrt(n)] + q_primes)


def _negdef_solve_float(gram: list[list[float]], rhs: list[float], tol: float = 1e-9):
    """Solve gram x = rhs by Cholesky of -gram; None when -gram is not positive definite."""
    n = len(rhs)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = -gram[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if i == j:
                if s <= tol:
                    return None
                low[i][i] = s ** 0.5
            else:
                low[i][j] = s / low[j][j]
    y = [0.0] * n
    for i in range(n):
        y[i] = (-rhs[i] - sum(low[i][k] * y[k] for k in range(i))) / low[i][i]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - sum(low[k][i] * x[k] for k in range(i + 1, n))) / low[i][i]
    return x


def predicted_support_size(coords: Sequence, curves: Sequence[Coords], ample: Coords, cap: int) -> int:
    """Largest curve support the augmentation iteration reaches, in floats.

    Mirrors the textbook iteration (start from the curves pairing negatively,
    solve, add every curve the candidate still pairs negatively with) and stops
    at ``cap``, at a failed definiteness test, or when the candidate is nef.
    The cost of an exact decomposition grows steeply with this size, so the
    generators stratify on it.  It never decides a checked result.
    """
    d = [float(x) for x in coords]
    if dp_dot(d, ample) <= 0:
        return 0
    support = [c for c in curves if dp_dot(d, c) < -1e-9]
    chosen = set(support)
    while support:
        if len(support) >= cap:
            return cap
        gram = [[float(dp_dot(a, b)) for b in support] for a in support]
        x = _negdef_solve_float(gram, [dp_dot(d, c) for c in support])
        if x is None:
            return len(support)
        p = list(d)
        for xi, c in zip(x, support):
            for k in range(len(p)):
                p[k] -= xi * c[k]
        entering = [c for c in curves if c not in chosen and dp_dot(p, c) < -1e-9]
        if not entering:
            return len(support)
        support += entering
        chosen.update(entering)
    return 0
