"""Chamber walk along the segment L - t*A: destabilizing values and stability.

Within a chamber of support S the negative-part coefficients solve the fixed
pairing system with right-hand side ((L - t*A) . C_i), so they are affine in
t, and so is the candidate positive part P(t).  The walk advances t from 0:
the next destabilizing value is the least root of P(t) . C over listed curves
C outside S (an affine function with rational data, hence a rational root);
curves whose walls tie at the same t enter together.  The walk ends at the
least root of the quadratic P(t)**2, where the class stops being big; that
endpoint is the only possibly irrational value and is always reported as a
QuadraticIrrational (rational values embed with radicand 0).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import InstableDivisor, LatticeMismatch, NotAmple
from .lattice import DivisorClass, QuadraticIrrational, _Value, sqrt_fraction
from .surface import Numerators, SurfaceModel
from .zariski import (
    ChamberDescriptor,
    _decompose_big,
    null_set,
    on_chamber_boundary,
)

Endpoint = Union[Fraction, QuadraticIrrational]


class RaySegment(_Value, fields=("lambda_start", "lambda_end", "support")):
    """One chamber stretch of the walk; the support holds on the open interval."""

    lambda_start: Fraction
    lambda_end: Endpoint
    support: ChamberDescriptor

    def __init__(self, lambda_start: Fraction, lambda_end: Endpoint,
                 support: ChamberDescriptor) -> None:
        object.__setattr__(self, "lambda_start", lambda_start)
        object.__setattr__(self, "lambda_end", lambda_end)
        object.__setattr__(self, "support", support)


class RayWalkResult(_Value, fields=("segments", "breakpoints", "bigness_threshold")):
    segments: tuple[RaySegment, ...]
    breakpoints: tuple[Fraction, ...]
    bigness_threshold: QuadraticIrrational

    def __init__(self, segments: Iterable[RaySegment], breakpoints: Iterable[Fraction],
                 bigness_threshold: QuadraticIrrational) -> None:
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "breakpoints", tuple(breakpoints))
        object.__setattr__(self, "bigness_threshold", bigness_threshold)
        self.__post_init__()

    def __post_init__(self) -> None:
        segments = self.segments
        if not segments:
            raise ValueError("a walk has at least one segment")
        for left, right in zip(segments, segments[1:]):
            if Fraction(0) + left.lambda_end != right.lambda_start:
                raise ValueError("segments are not contiguous")
            if not left.support.label_set < right.support.label_set:
                raise ValueError("supports must strictly increase along the walk")
        expected_breaks = tuple(seg.lambda_start for seg in segments[1:])
        if self.breakpoints != expected_breaks:
            raise ValueError("breakpoints must match the interior segment bounds")
        if any(not isinstance(b, Fraction) for b in self.breakpoints):
            raise ValueError("breakpoints must be rational")
        threshold = self.bigness_threshold
        if not isinstance(threshold, QuadraticIrrational):
            raise ValueError("the bigness threshold must be a QuadraticIrrational")
        if any(not (0 < b and threshold > b) for b in self.breakpoints):
            raise ValueError("breakpoints must lie strictly between 0 and the threshold")
        last = segments[-1].lambda_end
        if QuadraticIrrational(0) + last != threshold:
            raise ValueError("the final segment must end at the bigness threshold")


def is_ample(model: SurfaceModel, divisor: DivisorClass) -> bool:
    """Strict positivity against the square, the witness and every curve."""
    return _ample_pairings(model, divisor) is not None


def _ample_pairings(model: SurfaceModel, divisor: DivisorClass) -> "Numerators | None":
    """The pairing numerators of an ample class, or None when it is not ample."""
    if divisor.lattice != model.lattice:
        raise LatticeMismatch("class lives in a different lattice")
    if divisor.square <= 0 or divisor.dot(model.ample) <= 0:
        return None
    nums, den = model.pairing_numerators(divisor)
    return (nums, den) if min(nums, default=1) > 0 else None


def _absorb_walls(
    model: SurfaceModel,
    support: list[int],
    bundle: DivisorClass,
    ample: DivisorClass,
    lam: Fraction,
    pairings: tuple[Numerators, Numerators],
):
    """Add every curve whose wall passes through lam with decreasing pairing.

    Returns the affine data on the grown support: the candidate positive part
    P(t) = p0 + t*p1, whose coefficients x(t) = x0 + t*x1 solve the support's
    pairing system, with p0 and p1 as (integer coordinates, denominator), and
    the pairing numerators (g0s, d0), (g1s, d1) of p0 and p1.  ``pairings``
    holds those of the bundle and of the ample class, computed once per walk.
    P(lam) . C has the sign of g0*u + g1*w, that is g0/d0 + lam*g1/d1 times
    d0*d1*lam's denominator.  The exact solves make g0 = g1 = 0 on the support.
    """
    (b, b_den), (a, a_den) = pairings
    bundle_coords, minus_ample = bundle.cleared, (-ample).cleared
    support = list(support)
    while True:
        x0 = model.solve_curves(support, [b[i] for i in support], b_den)
        x1 = model.solve_curves(support, [-a[i] for i in support], a_den)
        p0 = model.minus_curves(*bundle_coords, support, *x0)
        p1 = model.minus_curves(*minus_ample, support, *x1)
        f0, f1 = model.pair_cleared(*p0), model.pair_cleared(*p1)
        u, w = f1[1] * lam.denominator, f0[1] * lam.numerator
        entrants = [
            i for i, (g0, g1) in enumerate(zip(f0[0], f1[0])) if g1 < 0 and g0 * u + g1 * w == 0
        ]
        if not entrants:
            return support, p0, p1, f0, f1
        support.extend(entrants)


def destabilizing_numbers(
    model: SurfaceModel, bundle: DivisorClass, ample: DivisorClass
) -> RayWalkResult:
    """Walk L - t*A through its chambers and report every support jump.

    All interior breakpoints are exact rationals by construction; the final
    bigness threshold is a quadratic irrational.  When the bundle is ample,
    the first breakpoint is the nef threshold sup{t : L - t*A nef}.

    Three facts about a validated model carry the walk.  Coefficients never
    fall: x1 = -G_S^-1 (A . C_S) >= 0, since -G_S is a nonsingular M-matrix,
    so supports only grow and every segment but the last adds a curve; a
    walk has at most len(model.curves) + 1 segments.  Absorbing walls keeps
    the support negative definite: at each segment start P(lam) is nef with
    P(lam)**2 > 0, and its null curves span a negative definite space by
    Hodge index.  The threshold is the smaller root of P(t)**2: its leading
    coefficient p1**2 >= A**2 > 0, because -p1 is A projected off the span
    of the support, and P(t) . A falls without bound, so P(t)**2 turns
    non-positive above lam and both roots are real and above lam.
    """
    ample_pairings = _ample_pairings(model, ample)
    if ample_pairings is None:
        raise NotAmple("the direction class must be ample in the model")
    initial = _decompose_big(model, bundle)
    pairings = (model.pairing_numerators(bundle), ample_pairings)

    support = [model.curve_index(c.label) for c in initial.support]
    lam = Fraction(0)
    segments: list[RaySegment] = []
    breakpoints: list[Fraction] = []

    for _ in range(len(model.curves) + 1):
        support, p0, p1, f0, f1 = _absorb_walls(
            model, support, bundle, ample, lam, pairings
        )
        descriptor = _descriptor(model, support)

        # P(t) . C falls to zero at t = g0*d1 / (-g1*d0), above lam when g0*u +
        # g1*w > 0 (see _absorb_walls); walls compare as g0 / -g1 (d1/d0 > 0)
        u, w = f1[1] * lam.denominator, f0[1] * lam.numerator
        least: Optional[tuple[int, int]] = None
        for g0, g1 in zip(f0[0], f1[0]):
            if g1 >= 0:  # support curves included: g1 = 0 there
                continue
            above = g0 * u + g1 * w
            assert above >= 0, "segment invariant broken"
            if above and (least is None or g0 * least[1] < -g1 * least[0]):
                least = (g0, -g1)
        wall = None if least is None else Fraction(least[0] * f1[1], least[1] * f0[1])
        # p0 = u0/q0, p1 = u1/q1 and fij = ui . uj: P(t)**2 = f00/q0**2 + 2*f01*t/(q0*q1)
        # + f11*t**2/q1**2, whose smaller root -(f01 + sqrt(f01**2 - f00*f11)) * q1/(q0*f11)
        # is the threshold
        (u0, q0), (u1, q1), form = p0, p1, model.lattice.form
        f00, f01, f11 = form(u0, u0), form(u0, u1), form(u1, u1)
        root = sqrt_fraction(f01 * f01 - f00 * f11)
        threshold = (QuadraticIrrational(-f01) - root) * Fraction(q1, q0 * f11)

        if wall is None or threshold <= wall:
            segments.append(RaySegment(lam, threshold, descriptor))
            return RayWalkResult(
                segments=tuple(segments),
                breakpoints=tuple(breakpoints),
                bigness_threshold=threshold,
            )
        segments.append(RaySegment(lam, wall, descriptor))
        breakpoints.append(wall)
        lam = wall
    raise RuntimeError("ray walk did not terminate")


def _descriptor(model: SurfaceModel, support: list[int]) -> ChamberDescriptor:
    return ChamberDescriptor.from_labels(model.curves[i].label for i in support)


def is_stable(model: SurfaceModel, divisor: DivisorClass) -> bool:
    """True iff small ample perturbations do not change the stable base locus.

    Equivalent to lying in a chamber interior: the negative-part support
    equals the null set of the positive part.
    """
    return not on_chamber_boundary(model, divisor)


def stable_base_locus(model: SurfaceModel, divisor: DivisorClass) -> frozenset[str]:
    """Curve labels of the stable base locus of a stable big class.

    For stable classes the stable base locus is carried exactly by the
    negative part of the decomposition.  On chamber boundaries the model
    cannot see the finer base-locus behaviour, so InstableDivisor is raised.
    """
    decomposition = _decompose_big(model, divisor)
    if decomposition.support_labels != null_set(model, decomposition.positive):
        raise InstableDivisor("the class lies on a chamber boundary")
    return decomposition.support_labels
