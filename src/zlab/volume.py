"""Exact volumes of big classes and per-chamber quadratic volume forms."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable

from .errors import LatticeMismatch, NegativeDimension, NotNegativeDefinite, NotPseudoEffective
from .lattice import DivisorClass, _Value
from .surface import SurfaceModel
from .zariski import ChamberDescriptor, _resolve_support, zariski_decompose


def vol(model: SurfaceModel, divisor: DivisorClass) -> Fraction:
    """The volume of a class: square of its positive part, 0 off the big cone.

    Returning 0 instead of raising keeps the function total on the whole
    space, matching the volume's definition as a continuous function that
    vanishes outside the big cone.
    """
    try:
        decomposition = zariski_decompose(model, divisor)
    except (NotPseudoEffective, NotNegativeDefinite):
        return Fraction(0)
    square = decomposition.positive.square
    return square if square > 0 else Fraction(0)


class QuadraticVolumePolynomial(_Value, fields=("chamber", "matrix")):
    """The homogeneous quadratic form giving the volume on one chamber.

    ``matrix`` is symmetric with exact rational entries, expressed in the
    model basis with no normalization, so printed coefficients can be
    compared directly against hand computations.
    """

    chamber: ChamberDescriptor
    matrix: tuple[tuple[Fraction, ...], ...]

    def __init__(self, chamber: ChamberDescriptor,
                 matrix: tuple[tuple[Fraction, ...], ...]) -> None:
        object.__setattr__(self, "chamber", chamber)
        object.__setattr__(self, "matrix", matrix)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = len(self.matrix)
        for i in range(n):
            for j in range(i + 1, n):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValueError("volume form matrix must be symmetric")

    def evaluate_coords(self, coords: Iterable[Fraction]) -> Fraction:
        xs = tuple(Fraction(c) for c in coords)
        if len(xs) != len(self.matrix):
            raise LatticeMismatch(f"expected {len(self.matrix)} coordinates, got {len(xs)}")
        total = Fraction(0)
        for xi, row in zip(xs, self.matrix):
            if xi == 0:
                continue
            total += xi * sum(q * xj for q, xj in zip(row, xs) if q)
        return total

    def evaluate(self, divisor: DivisorClass) -> Fraction:
        return self.evaluate_coords(divisor.coords)


def volume_polynomial(
    model: SurfaceModel, chamber: "ChamberDescriptor | Iterable[str]"
) -> QuadraticVolumePolynomial:
    """Exact quadratic form Q with vol(D) = D^T Q D on the given chamber.

    Inside a chamber the negative part depends linearly on D (its
    coefficients solve the fixed support's pairing system with right-hand
    side (D . C_i)), so D |-> D - N(D) is linear and the volume is the
    pullback G - R^T G_S^-1 R of the intersection form along it, R the rows
    G @ C_i and G_S the support's matrix.  The kernel's ints leave it
    unscaled, R^T G_S^-1 R = R_s^T K^-1 R_s with R_s = s*R and K = s**2 * G_S,
    so one Bareiss solve K @ xs[j] = det * (column j of R_s) gives det * Q in
    ints and each entry is one Fraction.  Raises UnrealizableSupport unless
    the support's intersection matrix is negative definite.
    """
    if not isinstance(chamber, ChamberDescriptor):
        chamber = ChamberDescriptor.from_labels(chamber)
    gram = model.lattice.gram
    rank = model.lattice.rank
    _, rows, xs, det = _resolve_support(model, chamber, range(rank))
    quadratic = tuple(
        tuple(
            Fraction(gram[i][j] * det - sum(row[i] * x for row, x in zip(rows, xs[j])), det)
            for j in range(rank)
        )
        for i in range(rank)
    )
    return QuadraticVolumePolynomial(chamber, quadratic)


def kunneth_volume(volume_1, dimension_1: int, volume_2, dimension_2: int):
    """Volume of a product: binomial(n1+n2, n1) * vol_1 * vol_2.

    Works with any scalar type closed under multiplication by integers
    (Fraction, float, QuadraticIrrational).
    """
    if dimension_1 < 0 or dimension_2 < 0:
        raise NegativeDimension("dimensions must be non-negative")
    return comb(dimension_1 + dimension_2, dimension_1) * volume_1 * volume_2
