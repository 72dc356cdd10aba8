"""Chamber enumeration and face geometry for finite-curve models."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import NotNef, NotNegativeDefinite, NullMismatch, RankTooLargeForEnumeration
from .lattice import (DivisorClass, _negative_definite_factor, is_negative_definite,
                      solve_negative_definite)
from .surface import SurfaceModel
from .zariski import ChamberDescriptor

MAX_ENUMERABLE_CURVES = 63


def construct_nef_with_null(
    model: SurfaceModel, support: "ChamberDescriptor | Iterable[str]"
) -> DivisorClass:
    """A nef class whose null set is exactly the given curve set.

    Built as the projection P_S(A) = A - sum(x_i * C_i) of the ample witness
    onto the orthogonal complement of the support S; ampleness of A forces
    every x_i to be strictly negative.  The result is verified to be nef and
    to vanish against no curve outside the support (NullMismatch otherwise).
    Each label counts once; an unknown one raises UnrealizableSupport naming it.
    This is the constructive side of the theorem ``enumerate_chambers``
    relies on; the tests use it as an oracle for that theorem.
    """
    if not isinstance(support, ChamberDescriptor):
        support = ChamberDescriptor(support)  # each label once, sorted
    indices = [model.curve_index(label) for label in support.support]
    try:
        [projected], (xs,), _ = model.project([model.ample.cleared], indices)
    except NotNegativeDefinite as exc:
        raise NotNegativeDefinite(f"support {support}: {exc}") from None
    if any(x >= 0 for x in xs):  # x_i = xs[i] / (e*d) with e, d > 0
        raise NotNegativeDefinite("orthogonality system produced a non-positive coefficient")
    result = DivisorClass._reduced(model.lattice, *projected)
    sums = model._nef_read(result)  # one pairing serves both checks
    if sums is None:
        raise NullMismatch("constructed class is not nef")
    if set(sums.zeros()) != set(indices):
        raise NullMismatch("constructed class has extra null curves")
    return result


class Face(NamedTuple):
    """A face of the nef cone: its null set and a basis of the orthogonal span."""

    null_labels: frozenset[str]
    orthogonal_basis: tuple[DivisorClass, ...]


def face_of(model: SurfaceModel, nef_class: DivisorClass) -> Face:
    """Null set of a nef class and the reduced row echelon basis of its
    orthogonal complement {v : R @ v = 0}, R the kernel rows s * G @ C of the
    null curves (scaling a row leaves the basis unchanged).  Over Q, ker R =
    ker R^T R, and column j of R is a pivot exactly when -R^T R is negative
    definite on the earlier pivots plus j; one solve of the normal equations
    then gives the pivot coordinates of every free column's basis vector."""
    sums = model._nef_read(nef_class)  # one pairing: the nef test and the null set
    if sums is None:
        raise NotNef("face is only defined for nef classes")
    null = sums.zeros()
    rows = model.kernel_rows(null)
    rank = model.lattice.rank
    neg = [[-sum(r[i] * r[j] for r in rows) for j in range(rank)] for i in range(rank)]  # -R^T R
    pivots: list[int] = []
    for j in range(rank):
        trial = pivots + [j]
        if _negative_definite_factor([[neg[a][b] for b in trial] for a in trial]) is not None:
            pivots.append(j)
    free = [j for j in range(rank) if j not in pivots]
    xs, det = solve_negative_definite(  # -R_P^T R_P @ x = det * R_P^T R_f: R_P @ (x / det) = -R_f
        [[neg[a][b] for b in pivots] for a in pivots], [[-neg[p][f] for p in pivots] for f in free])
    sign, basis = (1 if det > 0 else -1), []  # free column f: e_f plus x / det at the pivots
    for f, x in zip(free, xs):
        entries = {**dict(zip(pivots, x)), f: det}
        v = [sign * entries.get(j, 0) for j in range(rank)]
        basis.append(DivisorClass._reduced(model.lattice, v, abs(det)))
    return Face(frozenset(model.curves[i].label for i in null), tuple(basis))


def enumerate_chambers(model: SurfaceModel) -> list[ChamberDescriptor]:
    """Every chamber of the big cone, as a sorted list of support descriptors.

    Chambers correspond one to one with the curve sets whose intersection
    matrix is negative definite (Bauer-Funke-Neumann, *Counting Zariski
    chambers on del Pezzo surfaces*, J. Algebra 324, 2010), the empty set
    giving the nef chamber.  The model's invariants are what the theorem
    needs: with A the ample witness, A**2 > 0, A.C > 0 and C**2 < 0 for
    every listed curve, and C_i.C_j >= 0 for distinct ones.  So when the
    Gram matrix G of a set S is negative definite, -G is a nonsingular
    M-matrix and G^-1 <= 0 entrywise; t = -G^-1 (A.C_S) is then strictly
    positive, and P = A + sum(t_i C_i) has P.C = 0 on S, P.C >= A.C > 0 off
    S and P**2 = P.A > 0.  P is nef with null set exactly S, so no runtime
    realizability check is needed (``construct_nef_with_null`` builds P and
    the tests check it on every bundled model).

    The walk is depth-first over the subset lattice and extends only negative
    definite supports: their principal submatrices are negative definite, so
    this pruning loses nothing, and a curve joins only curves whose 2x2 block
    is negative definite, C_i**2 * C_j**2 > (C_i.C_j)**2.  A curve C meeting
    no curve of such a set S gives the matrix diag(G_S, C**2), negative
    definite as C**2 < 0, so only candidates meeting S are eliminated.  More
    than MAX_ENUMERABLE_CURVES curves raise RankTooLargeForEnumeration.
    The bits run by label, the first at the top, so the walk meets each support
    sorted and all in lexicographic order; one stable sort by size ends the list.
    """
    curves = model.curves
    n = len(curves)
    if n > MAX_ENUMERABLE_CURVES:
        raise RankTooLargeForEnumeration(
            f"chamber enumeration supports at most {MAX_ENUMERABLE_CURVES} curves;"
            f" the model lists {n}"
        )
    order = sorted(range(n), key=lambda i: curves[i].label, reverse=True)  # bit b: curve order[b]
    g = model.kernel_gram(order)  # s**2 * C_b . C_c: pairs, meets and definiteness ignore s
    pairs, meets = [0] * n, [1 << b for b in range(n)]  # C_b**2 < 0: each curve meets itself
    for b in range(n):
        for c in range(b + 1, n):
            if x := g[b][c]:
                meets[b] |= 1 << c
                meets[c] |= 1 << b
            if g[b][b] * g[c][c] > x * x:
                pairs[b] |= 1 << c
                pairs[c] |= 1 << b
    found = [ChamberDescriptor._of(())]

    def descend(stack: tuple[int, ...], names: tuple[str, ...], allowed: int, met: int) -> None:
        while allowed:
            b = allowed.bit_length() - 1
            allowed ^= 1 << b
            support = stack + (order[b],)
            if met >> b & 1 and not is_negative_definite(model.kernel_gram(support)):
                continue
            chamber = ChamberDescriptor._of(names + (curves[order[b]].label,))
            found.append(chamber)
            descend(support, chamber.support, allowed & pairs[b], met | meets[b])

    descend((), (), (1 << n) - 1, 0)
    found.sort(key=lambda chamber: len(chamber.support))
    return found
