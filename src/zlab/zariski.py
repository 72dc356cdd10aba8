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
from typing import Iterable

from .errors import (
    NotBig,
    NotNef,
    NotNegativeDefinite,
    NotPseudoEffective,
    UnrealizableSupport,
)
from .lattice import (DivisorClass, _negative_definite_factor, _Value, clear_denominators,
                      solve_negative_definite)
from .surface import NegativeCurve, SurfaceModel, is_nef


class ZariskiDecomposition(_Value, fields=("model", "input", "positive", "coefficients")):
    """D = P + sum(a_C * C) with P nef, P.C = 0 on the support, and the
    support's pairing matrix negative definite.  All listed coefficients are
    strictly positive; zero coefficients are pruned before construction.
    Construction re-checks every one of these invariants exactly.
    """

    model: SurfaceModel
    input: DivisorClass
    positive: DivisorClass
    coefficients: tuple[tuple[NegativeCurve, Fraction], ...]

    def __init__(self, model: SurfaceModel, input: DivisorClass, positive: DivisorClass,
                 coefficients: Iterable[tuple[NegativeCurve, Fraction]]) -> None:
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "coefficients", coefficients)
        self.__post_init__()

    def __post_init__(self) -> None:
        pairs = tuple(sorted(self.coefficients, key=lambda item: item[0].label))
        object.__setattr__(self, "coefficients", pairs)
        if any(coeff <= 0 for _, coeff in pairs):
            raise ValueError("negative-part coefficients must be strictly positive")
        indices = [self.model.curve_index(curve.label) for curve, _ in pairs]
        xs, e = clear_denominators(x for _, x in pairs)
        rest = self.model.minus_curves(*self.input.cleared, indices, xs, e)
        if DivisorClass._reduced(self.model.lattice, *rest) != self.positive:
            raise ValueError("positive and negative part do not sum to the input")
        nums = self.model.pairing_numerators(self.positive)[0]
        if not is_nef(self.model, self.positive, nums):
            raise ValueError("positive part is not nef")
        if any(nums[i] for i in indices):
            raise ValueError("positive part is not orthogonal to the support")
        if indices and _negative_definite_factor(self.model.kernel_gram(indices)) is None:
            raise ValueError("support pairing matrix is not negative definite")

    @property
    def negative_coeffs(self) -> dict[NegativeCurve, Fraction]:
        return dict(self.coefficients)

    @property
    def support(self) -> tuple[NegativeCurve, ...]:
        return tuple(curve for curve, _ in self.coefficients)

    @property
    def support_labels(self) -> frozenset[str]:
        return frozenset(curve.label for curve, _ in self.coefficients)

    @property
    def negative(self) -> DivisorClass:
        return self.input - self.positive  # = sum(a_C * C), checked at construction

    def coefficient(self, label: str) -> Fraction:
        for curve, coeff in self.coefficients:
            if curve.label == label:
                return coeff
        return Fraction(0)


class ChamberDescriptor(_Value, fields=("support",)):
    """A chamber of the big cone, named by its constant negative-part support."""

    support: tuple[str, ...]

    def __init__(self, support: Iterable[str]) -> None:
        object.__setattr__(self, "support", tuple(sorted(set(support))))

    # _Value's comparison and hash, spelled out: chambers fill sets and dict keys
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.support == other.support

    def __hash__(self) -> int:
        return hash((self.support,))

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "ChamberDescriptor":
        return cls(tuple(labels))

    @property
    def label_set(self) -> frozenset[str]:
        return frozenset(self.support)

    def __str__(self) -> str:
        return "{" + ", ".join(self.support) + "}"


def _resolve_support(
    model: SurfaceModel, support: ChamberDescriptor, columns: Iterable[int] = ()
) -> tuple[list[int], list[list[int]], list[list[int]], int]:
    """(indices, rows, xs, det): a support's curve indices sorted by label, their
    kernel rows, and one solve kernel_gram(indices) @ xs[c] = det * (column j of
    the rows) for j in ``columns``.  Its pivots check that the set is negative
    definite, i.e. supports a chamber (see ``enumerate_chambers``); else, and on
    an unknown label, UnrealizableSupport.  Rank or more curves are refused
    unread: signature (1, rank - 1) forbids them."""
    try:
        indices = [model.curve_index(label) for label in support.support]
    except KeyError as exc:
        raise UnrealizableSupport(f"support {support}: {exc.args[0]}") from exc
    if len(indices) < model.lattice.rank:
        rows = model.kernel_rows(indices)
        try:
            return indices, rows, *solve_negative_definite(
                model.kernel_gram(indices), [[row[j] for row in rows] for j in columns])
        except NotNegativeDefinite:
            pass
    raise UnrealizableSupport(
        f"support {support} has an intersection matrix that is not negative definite"
    )


def support_curves(
    model: SurfaceModel, support: "ChamberDescriptor | Iterable[str]"
) -> list[NegativeCurve]:
    """The curves of a chamber support, sorted by label (see ``_resolve_support``)."""
    if not isinstance(support, ChamberDescriptor):
        support = ChamberDescriptor.from_labels(support)
    return [model.curves[i] for i in _resolve_support(model, support)[0]]


def zariski_decompose(model: SurfaceModel, divisor: DivisorClass) -> ZariskiDecomposition:
    """Unique decomposition divisor = P + N for a pseudo-effective class.

    Raises NotNegativeDefinite when the accumulated support stops being
    negative definite (at once for rank or more curves, which signature
    (1, rank - 1) forbids) and NotPseudoEffective when no decomposition can exist
    (the candidate positive part fails nefness with no curve left to add, or
    the class already pairs non-positively with the ample witness).
    """
    nums, den = model.pairing_numerators(divisor)  # every sign below reads ints
    witness = divisor.dot(model.ample)  # is_nef inlined: the test below reuses it
    if divisor.square >= 0 and witness >= 0 and min(nums, default=0) >= 0:
        return ZariskiDecomposition(model, divisor, divisor, ())
    if witness <= 0:
        raise NotPseudoEffective(
            "class pairs non-positively with the ample witness and is not nef"
        )
    v, d = divisor.cleared
    support = [i for i, p in enumerate(nums) if p < 0]
    for _ in range(len(model.curves) + 1):
        if len(support) >= model.lattice.rank:  # refused unread, see the docstring
            raise NotNegativeDefinite(
                f"{len(support)} classes in rank {model.lattice.rank} are never negative definite"
            )
        xs, e = model.solve_curves(support, [nums[i] for i in support], den)
        p, q = model.minus_curves(v, d, support, xs, e)
        positive_nums = model.pair_cleared(p, q)[0]
        # the exact solve makes P . C = 0 on the support, so no support curve is listed
        violating = [i for i, n in enumerate(positive_nums) if n < 0]
        if not violating:
            break
        support.extend(violating)
    positive = DivisorClass._reduced(model.lattice, p, q)
    if not is_nef(model, positive, positive_nums):
        raise NotPseudoEffective(
            "no curve left to add but the candidate positive part is not nef"
        )
    pairs = tuple((model.curves[i], Fraction(x, e)) for i, x in zip(support, xs) if x)
    return ZariskiDecomposition(model, divisor, positive, pairs)


def neg_set(model: SurfaceModel, divisor: DivisorClass) -> frozenset[str]:
    """Labels of the curves carrying the negative part of the decomposition."""
    return zariski_decompose(model, divisor).support_labels


def null_set(model: SurfaceModel, nef_class: DivisorClass) -> frozenset[str]:
    """Labels of the listed curves pairing to zero with a nef class."""
    nums = model.pairing_numerators(nef_class)[0]
    if not is_nef(model, nef_class, nums):
        raise NotNef("null set is only defined for nef classes")
    return frozenset(c.label for c, p in zip(model.curves, nums) if p == 0)


def is_big(model: SurfaceModel, divisor: DivisorClass) -> bool:
    """True iff the class decomposes with a positive part of positive square."""
    try:
        decomposition = zariski_decompose(model, divisor)
    except (NotPseudoEffective, NotNegativeDefinite):
        return False
    return decomposition.positive.square > 0


def _decompose_big(model: SurfaceModel, divisor: DivisorClass) -> ZariskiDecomposition:
    try:
        decomposition = zariski_decompose(model, divisor)
    except (NotPseudoEffective, NotNegativeDefinite) as exc:
        raise NotBig(str(exc)) from exc
    if decomposition.positive.square <= 0:
        raise NotBig("positive part has non-positive square")
    return decomposition


def chamber_of(model: SurfaceModel, divisor: DivisorClass) -> ChamberDescriptor:
    """The chamber descriptor (negative-part support) of a big class."""
    return ChamberDescriptor.from_labels(_decompose_big(model, divisor).support_labels)


def on_chamber_boundary(model: SurfaceModel, divisor: DivisorClass) -> bool:
    """True iff the class sits on the boundary of some chamber.

    Boundary membership is decidable from one decomposition: it holds exactly
    when the support of the negative part differs from the null set of the
    positive part.
    """
    decomposition = _decompose_big(model, divisor)
    return decomposition.support_labels != null_set(model, decomposition.positive)


def chamber_closure_contains(
    model: SurfaceModel,
    reference_support: "ChamberDescriptor | Iterable[str]",
    divisor: DivisorClass,
) -> bool:
    """Closure test: Neg(D) inside the reference support inside Null(P_D)."""
    labels = frozenset(c.label for c in support_curves(model, reference_support))
    decomposition = _decompose_big(model, divisor)
    if not decomposition.support_labels <= labels:
        return False
    return labels <= null_set(model, decomposition.positive)
