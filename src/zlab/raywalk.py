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
from typing import Union

from .errors import InstableDivisor, NotAmple
from .lattice import DivisorClass, QuadraticIrrational, _from_radicand, _Value
from .surface import SurfaceModel
from .zariski import ChamberDescriptor, _big, on_chamber_boundary

Endpoint = Union[Fraction, QuadraticIrrational]


class RaySegment(_Value, fields=("lambda_start", "lambda_end", "support")):
    """One chamber stretch of the walk; the support holds on the open interval."""

    lambda_start: Fraction
    lambda_end: Endpoint
    support: ChamberDescriptor


class RayWalkResult(_Value, fields=("segments", "breakpoints", "bigness_threshold")):
    segments: tuple[RaySegment, ...]
    breakpoints: tuple[Fraction, ...]
    bigness_threshold: QuadraticIrrational

    def __post_init__(self) -> None:
        vars(self).update(segments=tuple(self.segments), breakpoints=tuple(self.breakpoints))
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
    """Strict positivity against the square, the witness and every curve: nef,
    no null curve and D**2 > 0, read on ints.  D.A > 0 then follows by the
    Hodge index theorem, as D.A >= 0 and D**2 > 0 with A**2 > 0."""
    sums, v = model._nef_read(divisor), divisor.cleared[0]
    return sums is not None and not sums.zeros() and model.lattice.form(v, v) > 0


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

    Each pass of the loop either adds the curves whose walls pass through
    lam with decreasing pairing, or closes the segment that starts at lam;
    so there are at most 2 * len(model.curves) + 1 passes.  A support is
    solved once, projecting the bundle and the direction together: the
    candidate positive part is P(t) = P_S(L) - t*P_S(A) = u0/q0 + t*u1/q1,
    and g0, g1 are the kernel's slots of u0 and u1, s times u . C.  So
    P(lam) . C has the sign of g0*q1*lam.den + g1*q0*lam.num, and its wall is
    t = g0*q1 / (-g1*q0); the exact solves make g0 = g1 = 0 on the support.

    Only the last segment takes a square root.  In tau = t*q0/q1, P(t)**2 is
    (f00 + 2*f01*tau + f11*tau**2) / q0**2 with fij = ui . uj, and the wall is
    a/b = g0/-g1.  It comes first exactly when f00*b*b + 2*f01*a*b + f11*a*a > 0
    (P is big there; a tie ends the walk) and f11*a + f01*b < 0 (left of the vertex).
    So segments abut, supports strictly grow and breakpoints lie in (0, threshold).
    """
    if not is_ample(model, ample):
        raise NotAmple("the direction class must be ample in the model")
    support = _big(model, bundle)[0]
    classes, form = [bundle.cleared, (-ample).cleared], model.lattice.form
    lam, grown = Fraction(0), True
    segments: list[RaySegment] = []

    for _ in range(2 * len(model.curves) + 2):
        if grown:
            [(u0, q0), (u1, q1)], _, _ = model.project(classes, support)
            g0s, g1s = model.pair_packed(u0).values(), model.pair_packed(u1).values()
        # entrants have P(lam) . C = 0; the least wall above lam compares as g0 / -g1
        u, w = q1 * lam.denominator, q0 * lam.numerator
        entrants, least = [], None
        for i, (g0, g1) in enumerate(zip(g0s, g1s)):
            if g1 >= 0:  # support curves included: g1 = 0 there
                continue
            above = g0 * u + g1 * w
            assert above >= 0, "segment invariant broken"
            if not above:
                entrants.append(i)
            elif least is None or g0 * least[1] < -g1 * least[0]:
                least = (g0, -g1)
        grown = bool(entrants)
        if grown:
            support.extend(entrants)
            continue
        descriptor = ChamberDescriptor._of(tuple(sorted(model.curves[i].label for i in support)))
        f00, f01, f11 = form(u0, u0), form(u0, u1), form(u1, u1)
        if least is not None:  # does the wall come first?  Decided on ints, see the docstring
            a, b = least
            if f11 * a + f01 * b < 0 and f00 * b * b + 2 * f01 * a * b + f11 * a * a > 0:
                segments.append(RaySegment(lam, Fraction(a * q1, b * q0), descriptor))
                lam = segments[-1].lambda_end
                continue
        # the smaller root -(f01 + sqrt(f01**2 - f00*f11)) * q1/(q0*f11) is the threshold
        threshold = _from_radicand(-f01 * q1, -q1, f01 * f01 - f00 * f11, q0 * f11)
        segments.append(RaySegment(lam, threshold, descriptor))
        breaks = tuple(s.lambda_start for s in segments[1:])
        return RayWalkResult._of(tuple(segments), breaks, threshold)  # checked on the way
    raise RuntimeError("ray walk did not terminate")


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
    support, sums = _big(model, divisor)
    if sorted(support) != sums.zeros():  # the null set of P, from the same pairings
        raise InstableDivisor("the class lies on a chamber boundary")
    return frozenset(model.curves[i].label for i in support)
