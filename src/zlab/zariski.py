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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    LatticeMismatch,
    NotBig,
    NotNef,
    NotNegativeDefinite,
    NotPseudoEffective,
    UnrealizableSupport,
)
from .lattice import DivisorClass, gram_matrix, is_negative_definite, solve_gram_system
from .surface import NegativeCurve, SurfaceModel, is_nef


@dataclass(frozen=True)
class ZariskiDecomposition:
    """D = P + sum(a_C * C) with P nef, P.C = 0 on the support, and the
    support's pairing matrix negative definite.  All listed coefficients are
    strictly positive; zero coefficients are pruned before construction.
    Construction re-checks every one of these invariants exactly.
    """

    model: SurfaceModel
    input: DivisorClass
    positive: DivisorClass
    coefficients: tuple[tuple[NegativeCurve, Fraction], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted(self.coefficients, key=lambda item: item[0].label))
        object.__setattr__(self, "coefficients", pairs)
        if any(coeff <= 0 for _, coeff in pairs):
            raise ValueError("negative-part coefficients must be strictly positive")
        reconstructed = self.positive
        for curve, coeff in pairs:
            reconstructed = reconstructed + coeff * curve.cls
        if reconstructed.coords != self.input.coords:
            raise ValueError("positive and negative part do not sum to the input")
        if not is_nef(self.model, self.positive):
            raise ValueError("positive part is not nef")
        if any(self.positive.dot(curve.cls) != 0 for curve, _ in pairs):
            raise ValueError("positive part is not orthogonal to the support")
        if pairs and not is_negative_definite(
            gram_matrix([curve.cls for curve, _ in pairs])
        ):
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
        out = self.model.lattice.zero()
        for curve, coeff in self.coefficients:
            out = out + coeff * curve.cls
        return out

    def coefficient(self, label: str) -> Fraction:
        for curve, coeff in self.coefficients:
            if curve.label == label:
                return coeff
        return Fraction(0)


@dataclass(frozen=True)
class ChamberDescriptor:
    """A chamber of the big cone, named by its constant negative-part support."""

    support: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(sorted(set(self.support))))

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "ChamberDescriptor":
        return cls(tuple(labels))

    @property
    def label_set(self) -> frozenset[str]:
        return frozenset(self.support)

    def __str__(self) -> str:
        return "{" + ", ".join(self.support) + "}"


def support_curves(
    model: SurfaceModel, support: "ChamberDescriptor | Iterable[str]"
) -> list[NegativeCurve]:
    """The curves of a chamber support, sorted by label.

    A curve set supports a chamber exactly when its intersection matrix is
    negative definite (see ``enumerate_chambers``), so that is all this
    checks; UnrealizableSupport otherwise, and on an unknown label.  Rank or
    more curves are refused unbuilt: signature (1, rank - 1) forbids them.
    """
    if not isinstance(support, ChamberDescriptor):
        support = ChamberDescriptor.from_labels(support)
    try:
        curves = [model.curve_by_label(label) for label in support.support]
    except KeyError as exc:
        raise UnrealizableSupport(f"support {support}: {exc}") from exc
    if len(curves) >= model.lattice.rank or not is_negative_definite(
        gram_matrix([c.cls for c in curves])
    ):
        raise UnrealizableSupport(
            f"support {support} has an intersection matrix that is not negative definite"
        )
    return curves


def zariski_decompose(model: SurfaceModel, divisor: DivisorClass) -> ZariskiDecomposition:
    """Unique decomposition divisor = P + N for a pseudo-effective class.

    Raises NotNegativeDefinite when the accumulated support stops being
    negative definite and NotPseudoEffective when no decomposition can exist
    (the candidate positive part fails nefness with no curve left to add, or
    the class already pairs non-positively with the ample witness).
    """
    if divisor.lattice != model.lattice:
        raise LatticeMismatch("class lives in a different lattice")
    if is_nef(model, divisor):
        return ZariskiDecomposition(model, divisor, divisor, ())
    if divisor.dot(model.ample) <= 0:
        raise NotPseudoEffective(
            "class pairs non-positively with the ample witness and is not nef"
        )

    pairings = model.curve_pairings(divisor)
    support = [c for c, p in zip(model.curves, pairings) if p < 0]
    in_support = {c.label for c in support}
    positive = divisor
    coefficients: list[Fraction] = []
    for _ in range(len(model.curves) + 1):
        classes = [c.cls for c in support]
        coefficients = solve_gram_system(
            classes, [divisor.dot(cls) for cls in classes]
        )
        positive = divisor
        for cls, coeff in zip(classes, coefficients):
            positive = positive - coeff * cls
        violating = [
            c
            for c, p in zip(model.curves, model.curve_pairings(positive))
            if p < 0 and c.label not in in_support
        ]
        if not violating:
            break
        support.extend(violating)
        in_support.update(c.label for c in violating)
    if not is_nef(model, positive):
        raise NotPseudoEffective(
            "no curve left to add but the candidate positive part is not nef"
        )
    pairs = tuple(
        (curve, coeff)
        for curve, coeff in zip(support, coefficients)
        if coeff != 0
    )
    return ZariskiDecomposition(model, divisor, positive, pairs)


def neg_set(model: SurfaceModel, divisor: DivisorClass) -> frozenset[str]:
    """Labels of the curves carrying the negative part of the decomposition."""
    return zariski_decompose(model, divisor).support_labels


def null_set(model: SurfaceModel, nef_class: DivisorClass) -> frozenset[str]:
    """Labels of the listed curves pairing to zero with a nef class."""
    if not is_nef(model, nef_class):
        raise NotNef("null set is only defined for nef classes")
    return frozenset(
        c.label for c, p in zip(model.curves, model.curve_pairings(nef_class)) if p == 0
    )


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
