"""Chamber enumeration and face geometry for finite-curve models."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import (
    NotNef, NotNegativeDefinite, NullMismatch, RankTooLargeForEnumeration, UnrealizableSupport
)
from .lattice import DivisorClass, is_negative_definite
from .surface import SurfaceModel, is_nef
from .zariski import ChamberDescriptor, null_set

MAX_ENUMERABLE_CURVES = 63


def construct_nef_with_null(
    model: SurfaceModel, support: "ChamberDescriptor | Iterable[str]"
) -> DivisorClass:
    """A nef class whose null set is exactly the given curve set.

    Built as A + sum(t_i * C_i) where the t_i solve the orthogonality
    conditions against the support; ampleness of A forces every t_i to be
    strictly positive.  The resulting class is verified to be nef and to
    vanish against no curve outside the support (NullMismatch otherwise).
    An unknown label raises UnrealizableSupport naming it.
    This is the constructive side of the theorem ``enumerate_chambers``
    relies on; the tests use it as an oracle for that theorem.
    """
    labels = support.support if isinstance(support, ChamberDescriptor) else support
    try:
        indices = [model.curve_index(label) for label in labels]
    except KeyError as exc:
        raise UnrealizableSupport(exc.args[0]) from exc
    if not indices:
        return model.ample
    nums, den = model.pairing_numerators(model.ample)
    xs, e = model.solve_curves(indices, [-nums[i] for i in indices], den)
    if any(x <= 0 for x in xs):  # t_i = x_i / e with e > 0
        raise NotNegativeDefinite(
            "orthogonality system produced a non-positive coefficient"
        )
    result = DivisorClass._reduced(
        model.lattice, *model.minus_curves(*model.ample.cleared, indices, [-x for x in xs], e))
    if not is_nef(model, result):
        raise NullMismatch("constructed class is not nef")
    if null_set(model, result) != frozenset(model.curves[i].label for i in indices):
        raise NullMismatch("constructed class has extra null curves")
    return result


class Face(NamedTuple):
    """A face of the nef cone: its null set and a basis of the orthogonal span."""

    null_labels: frozenset[str]
    orthogonal_basis: tuple[DivisorClass, ...]


def face_of(model: SurfaceModel, nef_class: DivisorClass) -> Face:
    """Null set of a nef class and an exact basis of its orthogonal complement
    {v : v . C = 0 for every null curve C}, by Gauss-Jordan on the kernel rows
    s * G @ C (scaling a row leaves its reduced row echelon form unchanged)."""
    if not is_nef(model, nef_class):
        raise NotNef("face is only defined for nef classes")
    labels = null_set(model, nef_class)
    indices = [model.curve_index(label) for label in sorted(labels)]
    rank = model.lattice.rank
    rows = [[Fraction(x) for x in row] for row in model.kernel_rows(indices)]
    pivots: list[int] = []
    row_index = 0
    for col in range(rank):
        pivot = next(
            (r for r in range(row_index, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[row_index], rows[pivot] = rows[pivot], rows[row_index]
        lead = rows[row_index][col]
        rows[row_index] = [x / lead for x in rows[row_index]]
        for r in range(len(rows)):
            if r != row_index and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[row_index])]
        pivots.append(col)
        row_index += 1
    basis: list[DivisorClass] = []
    free_columns = [c for c in range(rank) if c not in pivots]
    for free in free_columns:
        coords = [Fraction(0)] * rank
        coords[free] = Fraction(1)
        for row_pos, col in enumerate(pivots):
            coords[col] = -rows[row_pos][free]
        basis.append(model.lattice.divisor(coords))
    return Face(labels, tuple(basis))


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
    """
    curves = model.curves
    n = len(curves)
    if n > MAX_ENUMERABLE_CURVES:
        raise RankTooLargeForEnumeration(
            f"chamber enumeration supports at most {MAX_ENUMERABLE_CURVES} curves;"
            f" the model lists {n}"
        )
    g = model.curve_gram(range(n))
    pairs = [sum(1 << j for j in range(n) if g[i][i] * g[j][j] > g[i][j] ** 2) for i in range(n)]
    meets = [sum(1 << j for j in range(n) if g[i][j]) for i in range(n)]
    found = [ChamberDescriptor(())]

    def descend(stack: tuple[int, ...], allowed: int, met: int) -> None:
        while allowed:
            idx = allowed.bit_length() - 1
            allowed ^= 1 << idx
            support = stack + (idx,)
            if met >> idx & 1 and not is_negative_definite(model.curve_gram(support)):
                continue
            found.append(ChamberDescriptor(tuple(curves[i].label for i in support)))
            descend(support, allowed & pairs[idx], met | meets[idx])

    descend((), (1 << n) - 1, 0)
    found.sort(key=lambda chamber: (len(chamber.support), chamber.support))
    return found
