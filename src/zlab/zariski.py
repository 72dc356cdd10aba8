"""Zariski decompositions and chamber-membership predicates.

The decomposition D = P + N is computed by the classical augmentation
iteration: start the support with every listed curve pairing negatively with
D, solve the negative definite pairing system for the coefficients of N, and
enlarge the support by every curve pairing negatively with the candidate
positive part until that candidate is nef.  Uniqueness of the decomposition
makes adding all violating curves at once safe, and keeps the number of
exact solves small.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    NotBig,
    NotNef,
    NotNegativeDefinite,
    NotPseudoEffective,
    UnrealizableSupport,
)
from .lattice import DivisorClass, _negative_definite_factor, _Value, solve_negative_definite
from .surface import NegativeCurve, PackedSum, SurfaceModel


class ZariskiDecomposition(_Value, fields=("model", "input", "positive", "coefficients")):
    """D = P + sum(a_C * C) with P nef, P.C = 0 on the support, its pairing
    matrix negative definite, and every listed coefficient strictly positive
    (zeros are pruned), listed by label.  The constructor sorts the listing and
    re-checks each exactly.  ``_of`` does neither: ``zariski_decompose``
    establishes each on its way, as its comments say.
    """

    model: SurfaceModel
    input: DivisorClass
    positive: DivisorClass
    coefficients: tuple[tuple[NegativeCurve, Fraction], ...]

    def __post_init__(self) -> None:
        by_label = sorted(self.coefficients, key=lambda item: item[0].label)
        vars(self)["coefficients"] = tuple(by_label)
        if any(coeff <= 0 for _, coeff in self.coefficients):
            raise ValueError("negative-part coefficients must be strictly positive")
        indices = [self.model.curve_index(curve.label) for curve, _ in self.coefficients]
        for i, (curve, _) in zip(indices, self.coefficients):
            if self.model.curves[i] != curve:
                raise ValueError(f"curve {curve.label} is not the model's curve of that label")
        negative = sum((curve.cls * x for curve, x in self.coefficients), self.model.lattice.zero())
        if self.input - negative != self.positive:
            raise ValueError("positive and negative part do not sum to the input")
        sums = self.model._nef_read(self.positive)
        if sums is None:
            raise ValueError("positive part is not nef")
        if not set(indices).issubset(sums.zeros()):
            raise ValueError("positive part is not orthogonal to the support")
        if indices and _negative_definite_factor(self.model.kernel_gram(indices)) is None:
            raise ValueError("support pairing matrix is not negative definite")

    @property
    def support(self) -> tuple[NegativeCurve, ...]:
        return tuple(curve for curve, _ in self.coefficients)

    @property
    def support_labels(self) -> frozenset[str]:
        return frozenset(curve.label for curve, _ in self.coefficients)

    @property
    def negative(self) -> DivisorClass:
        return self.input - self.positive  # = sum(a_C * C)


class ChamberDescriptor(_Value, fields=("support",)):
    """A chamber of the big cone, named by its constant negative-part support."""

    support: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.support, str):  # else its characters would become the labels
            raise TypeError(f"a support is an iterable of labels, not the string {self.support!r}")
        vars(self)["support"] = tuple(sorted(set(self.support)))

    @classmethod
    def _of(cls, support: tuple[str, ...]) -> "ChamberDescriptor":  # enumeration and the walk
        out = object.__new__(cls)  # distinct labels already sorted, stored as given
        # 0.3 µs against the base _of's 0.8; and unlike vars(out), which builds an instance
        # dict, it leaves 88 bytes a descriptor against 152, of thousands an enumeration keeps
        object.__setattr__(out, "support", support)
        return out

    @property
    def label_set(self) -> frozenset[str]:
        return frozenset(self.support)

    def __str__(self) -> str:
        return "{" + ", ".join(self.support) + "}"


def _resolve_support(
    model: SurfaceModel, support: "ChamberDescriptor | Iterable[str]", columns: Iterable[int] = ()
) -> tuple[ChamberDescriptor, list[int], list[list[int]], list[list[int]], int]:
    """(chamber, indices, rows, xs, det): a support as a descriptor, its curve
    indices sorted by label, their kernel rows, and one solve kernel_gram(indices)
    @ xs[c] = det * (column j of the rows) for j in ``columns``.  Its pivots check
    that the set is negative definite, i.e. supports a chamber (see
    ``enumerate_chambers``); else, and on an unknown label, UnrealizableSupport.
    Rank or more curves are refused unread: signature (1, rank - 1) forbids them."""
    if not isinstance(support, ChamberDescriptor):
        support = ChamberDescriptor(support)
    try:
        indices = [model.curve_index(label) for label in support.support]
        if len(indices) < model.lattice.rank:
            rows = model.kernel_rows(indices)
            return support, indices, rows, *solve_negative_definite(
                model.kernel_gram(indices), [[row[j] for row in rows] for j in columns])
    except UnrealizableSupport as exc:
        raise UnrealizableSupport(f"support {support}: {exc}") from None
    except NotNegativeDefinite:
        pass
    raise UnrealizableSupport(
        f"support {support} has an intersection matrix that is not negative definite"
    )


def support_curves(
    model: SurfaceModel, support: "ChamberDescriptor | Iterable[str]"
) -> list[NegativeCurve]:
    """The curves of a chamber support, sorted by label (see ``_resolve_support``)."""
    return [model.curves[i] for i in _resolve_support(model, support)[1]]


def zariski_decompose(model: SurfaceModel, divisor: DivisorClass) -> ZariskiDecomposition:
    """Unique decomposition divisor = P + N for a pseudo-effective class.

    Raises NotNegativeDefinite when the accumulated support stops being
    negative definite (at once for rank or more curves, which signature
    (1, rank - 1) forbids) and NotPseudoEffective when no decomposition can exist
    (the candidate positive part fails nefness with no curve left to add, or
    the class already pairs non-positively with the ample witness).
    """
    p, q, _, _, pairs, den = _decompose(model, divisor)
    if not pairs:  # N = 0, so P = D
        return ZariskiDecomposition._of(model, divisor, divisor, ())
    positive = DivisorClass._reduced(model.lattice, p, q)  # = D - N for exactly these xs
    coefficients = sorted(((model.curves[i], Fraction(x, den)) for i, x in pairs),
                          key=lambda item: item[0].label)
    return ZariskiDecomposition._of(model, divisor, positive, tuple(coefficients))


def _decompose(model: SurfaceModel, divisor: DivisorClass
               ) -> tuple[Sequence[int], int, int, PackedSum, list[tuple[int, int]], int]:
    """``zariski_decompose`` on ints, the one core of every reader of D = P + N:
    (p, q, pp, sums, pairs, den) with P = p/q, q > 0, pp = p . p, sums =
    ``pair_packed(p)`` (the input's on the nef fast path, where p = D's
    cleared ints), and N = sum(x/den * C_i) over pairs (i, x), every x > 0."""
    sums = model.pairing_sum(divisor)[0]  # every sign below reads its slots
    v, d = divisor.cleared
    form, ample = model.lattice.form, model.ample.cleared[0]
    pp, witness, negative = form(v, v), form(v, ample), sums.offset & ~sums.total
    if pp >= 0 and witness >= 0 and not negative:  # is_nef inlined, reusing the witness
        return v, d, pp, sums, [], d
    if witness <= 0:
        raise NotPseudoEffective(
            "class pairs non-positively with the ample witness and is not nef"
        )
    rank, size = model.lattice.rank, negative.bit_count()
    if size >= rank:  # refused before its slots are read, see zariski_decompose
        raise NotNegativeDefinite(f"{size} classes in rank {rank} are never negative definite")
    support = sums.negatives()
    for _ in range(len(model.curves) + 1):
        if len(support) >= rank:  # refused unread, see zariski_decompose
            raise NotNegativeDefinite(
                f"{len(support)} classes in rank {rank} are never negative definite"
            )
        [(p, q)], (xs,), e = model.project([(v, d)], support)
        sums = model.pair_packed(p)
        entrants = sums.negatives()
        if not entrants:
            break
        # the exact solve makes P . C = 0 on the support, so no support curve is listed
        support.extend(entrants)
    pp = form(p, p)
    if entrants or pp < 0 or form(p, ample) < 0:  # is_nef on P = p/q, q > 0
        raise NotPseudoEffective(
            "no curve left to add but the candidate positive part is not nef"
        )
    if any(x < 0 for x in xs):  # never, as the decomposition exists; cheap on ints
        raise ValueError("negative-part coefficients must be strictly positive")
    if any(sums.slot(i) for i in support):
        raise ValueError("positive part is not orthogonal to the support")
    # negative definite, as the solve's pivots showed; dropping zeros leaves a principal submatrix
    return p, q, pp, sums, [(i, x) for i, x in zip(support, xs) if x], e * d


def neg_set(model: SurfaceModel, divisor: DivisorClass) -> frozenset[str]:
    """Labels of the curves carrying the negative part of the decomposition."""
    return frozenset(model.curves[i].label for i, _ in _decompose(model, divisor)[4])


def null_set(model: SurfaceModel, nef_class: DivisorClass) -> frozenset[str]:
    """Labels of the listed curves pairing to zero with a nef class."""
    sums = model._nef_read(nef_class)
    if sums is None:
        raise NotNef("null set is only defined for nef classes")
    return frozenset(model.curves[i].label for i in sums.zeros())


def is_big(model: SurfaceModel, divisor: DivisorClass) -> bool:
    """True iff the class decomposes with a positive part of positive square."""
    try:
        _big(model, divisor)
    except NotBig:
        return False
    return True


def _big(model: SurfaceModel, divisor: DivisorClass) -> tuple[list[int], PackedSum]:
    """(support, sums) of a big class: the curve indices of N and P's pairings,
    whose zero slots are its null set; else NotBig, also when D does not decompose."""
    try:
        _, _, pp, sums, pairs, _ = _decompose(model, divisor)
    except (NotPseudoEffective, NotNegativeDefinite) as exc:
        raise NotBig(str(exc)) from exc
    if pp <= 0:  # the sign of P**2, on ints
        raise NotBig("positive part has non-positive square")
    return [i for i, _ in pairs], sums


def chamber_of(model: SurfaceModel, divisor: DivisorClass) -> ChamberDescriptor:
    """The chamber descriptor (negative-part support) of a big class."""
    labels = sorted(model.curves[i].label for i in _big(model, divisor)[0])
    return ChamberDescriptor._of(tuple(labels))


def on_chamber_boundary(model: SurfaceModel, divisor: DivisorClass) -> bool:
    """True iff the class sits on the boundary of some chamber.

    Boundary membership is decidable from one decomposition: it holds exactly
    when the support of the negative part differs from the null set of the
    positive part.
    """
    support, sums = _big(model, divisor)
    return sorted(support) != sums.zeros()


def chamber_closure_contains(
    model: SurfaceModel,
    reference_support: "ChamberDescriptor | Iterable[str]",
    divisor: DivisorClass,
) -> bool:
    """Closure test: Neg(D) inside the reference support inside Null(P_D)."""
    labels = frozenset(c.label for c in support_curves(model, reference_support))
    support, sums = _big(model, divisor)
    return (labels.issuperset(model.curves[i].label for i in support)
            and labels.issubset(model.curves[i].label for i in sums.zeros()))
