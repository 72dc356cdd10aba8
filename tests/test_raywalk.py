"""Chamber walks along L - t*A, stability and stable base loci."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    a2_chain_model,
    assert_segments_match_chambers,
    dp_model,
    k3_model,
    oracle_project,
    random_ample_class,
    random_big_class,
    user_models,
)
from zlab import (
    ChamberDescriptor,
    QuadraticIrrational,
    abelian_surface,
    abelian_surface_model,
    chamber_of,
    construct_nef_with_null,
    destabilizing_numbers,
    enumerate_chambers,
    is_ample,
    is_big,
    is_stable,
    null_set,
    sqrt_fraction,
    stable_base_locus,
    vol,
    volume_polynomial,
    zariski_decompose,
)
import zlab.lattice
from zlab.errors import InstableDivisor, NotAmple, NotBig
from zlab.lattice import is_negative_definite
from zlab.raywalk import RaySegment, RayWalkResult


@pytest.fixture(autouse=True)
def walks_equal_their_public_rebuild(monkeypatch):
    """destabilizing_numbers binds its result unchecked, through RayWalkResult._of;
    every walk a test here produces must equal its rebuild through the checking
    public constructor."""
    bind, built = RayWalkResult._of, []

    def checked(cls, *args):
        walk = bind(*args)
        assert RayWalkResult(walk.segments, walk.breakpoints, walk.bigness_threshold) == walk
        built.append(walk)
        return walk

    monkeypatch.setattr(RayWalkResult, "_of", classmethod(checked))
    return built


def dp2_walk(dp2):
    lat = dp2.lattice
    return destabilizing_numbers(
        dp2, lat.divisor([6, -2, -1]), lat.divisor([3, -1, -1])
    )


def test_two_point_walk(dp2):
    walk = dp2_walk(dp2)
    assert walk.breakpoints == (Fraction(1),)
    assert walk.bigness_threshold == 2
    assert walk.bigness_threshold.m == 0
    assert [seg.support.support for seg in walk.segments] == [(), ("E2",)]
    assert [(seg.lambda_start, seg.lambda_end) for seg in walk.segments] == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), walk.bigness_threshold),
    ]


def test_first_breakpoint_is_the_nef_threshold_for_ample_bundles(dp2):
    walk = dp2_walk(dp2)
    lat = dp2.lattice
    bundle, direction = lat.divisor([6, -2, -1]), lat.divisor([3, -1, -1])
    first = walk.breakpoints[0]
    below = bundle - (first - Fraction(1, 100)) * direction
    above = bundle - (first + Fraction(1, 100)) * direction
    assert dp2.is_nef(below) and not dp2.is_nef(above)


def test_abelian_walk_has_irrational_threshold():
    model = abelian_surface_model()
    data = abelian_surface()
    bundle = 3 * data.f2 + 3 * data.delta
    walk = destabilizing_numbers(model, bundle, data.d)
    assert walk.breakpoints == ()
    expected = (QuadraticIrrational(9) - 3 * sqrt_fraction(5)) / 2
    assert walk.bigness_threshold == expected
    assert walk.bigness_threshold.m == 5


def test_sixteen_digit_walk_takes_one_square_root(dp2, monkeypatch):
    """Walls are decided on ints, so only the last segment takes a root, by
    one radicand split: a root per closed segment would trial-divide each
    segment's large radicand."""
    roots, split = [], zlab.lattice.squarefree_split

    def counting(value):
        roots.append(value)
        return split(value)

    monkeypatch.setattr(zlab.lattice, "squarefree_split", counting)
    lat = dp2.lattice
    bundle = lat.divisor([19922054172509764, -215883242609972, -807440948040823])
    walk = destabilizing_numbers(dp2, bundle, lat.divisor([5, -1, -2]))
    assert walk.breakpoints == (215883242609972, Fraction(807440948040823, 2))
    assert walk.bigness_threshold == Fraction(19922054172509764, 5)
    assert [seg.support.support for seg in walk.segments] == [(), ("E1",), ("E1", "E2")]
    assert len(roots) == 1


def test_ray_to_the_origin(dp2):
    ample = dp2.lattice.divisor([3, -1, -1])
    walk = destabilizing_numbers(dp2, ample, ample)
    assert walk.breakpoints == ()
    assert walk.bigness_threshold == 1
    assert [seg.support.support for seg in walk.segments] == [()]


def test_simultaneous_wall_entry_mid_walk(dp3):
    """On the three-point blow-up, 5L-E1-E2-2E3 meets the E1 and E2 walls at
    the same value: both curves enter together at t = 1 as one breakpoint,
    and the walk keeps going to the threshold 3/2 (where the walls of
    L-E1-E3 and L-E2-E3 tie with the vanishing of the volume)."""
    lat = dp3.lattice
    walk = destabilizing_numbers(
        dp3, lat.divisor([5, -1, -1, -2]), lat.divisor([3, -1, -1, -1])
    )
    assert walk.breakpoints == (Fraction(1),)
    assert [seg.support.support for seg in walk.segments] == [(), ("E1", "E2")]
    assert walk.bigness_threshold == Fraction(3, 2)


def test_walk_starting_on_the_nef_boundary(dp2):
    """L itself sits on two walls, so both exceptional curves enter
    immediately; the only segment already carries them and no breakpoint is
    recorded at 0."""
    lat = dp2.lattice
    walk = destabilizing_numbers(dp2, lat.divisor([1, 0, 0]), lat.divisor([3, -1, -1]))
    assert walk.breakpoints == ()
    assert [seg.support.support for seg in walk.segments] == [("E1", "E2")]
    assert walk.bigness_threshold == Fraction(1, 3)


def test_walk_requires_ample_direction_and_big_bundle(dp2):
    lat = dp2.lattice
    with pytest.raises(NotAmple):
        destabilizing_numbers(dp2, lat.divisor([6, -2, -1]), lat.divisor([1, 0, 0]))
    with pytest.raises(NotBig):
        destabilizing_numbers(dp2, lat.divisor([0, 1, 0]), lat.divisor([3, -1, -1]))


def test_is_ample_predicate(dp2):
    lat = dp2.lattice
    assert is_ample(dp2, lat.divisor([3, -1, -1]))
    assert not is_ample(dp2, lat.divisor([1, 0, 0]))  # pairs 0 with E1
    assert not is_ample(dp2, lat.divisor([0, 1, 0]))


def test_segment_samples_match_chamber_of(dp2):
    rng = random.Random(59)
    model = abelian_surface_model()
    data = abelian_surface()
    walks = [
        (dp2, dp2.lattice.divisor([6, -2, -1]), dp2.lattice.divisor([3, -1, -1])),
        (model, 3 * data.f2 + 3 * data.delta, data.d),
    ]
    for surface, bundle, direction in walks:
        walk = destabilizing_numbers(surface, bundle, direction)
        for segment in walk.segments:
            lo = segment.lambda_start
            hi = segment.lambda_end
            hi_frac = (
                hi if isinstance(hi, Fraction) else Fraction(float(hi)).limit_denominator(10**6)
            )
            if not hi_frac > lo:
                continue
            for _ in range(100):
                t = lo + (hi_frac - lo) * Fraction(rng.randint(1, 127), 128)
                if not (lo < t and segment.lambda_end > t):
                    continue
                point = bundle - t * direction
                assert chamber_of(surface, point).support == segment.support.support


def test_vol_decreases_to_zero_at_the_threshold(dp2):
    lat = dp2.lattice
    bundle, direction = lat.divisor([6, -2, -1]), lat.divisor([3, -1, -1])
    walk = destabilizing_numbers(dp2, bundle, direction)
    threshold = walk.bigness_threshold
    values = []
    for k in range(2, 12):
        t = Fraction(float(threshold)) - Fraction(1, 2**k)
        assert threshold > t
        values.append(vol(dp2, bundle - t * direction))
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(1, 100)


def test_random_walks_have_rational_nested_breakpoints():
    rng = random.Random(61)
    for _ in range(15):
        model = dp_model(rng.choice([2, 3, 4]))
        bundle = random_big_class(model, rng)
        direction = random_ample_class(model, rng)
        walk = destabilizing_numbers(model, bundle, direction)
        for b in walk.breakpoints:
            assert isinstance(b, Fraction)
        supports = [set(seg.support.support) for seg in walk.segments]
        for small, large in zip(supports, supports[1:]):
            assert small < large
        assert isinstance(walk.bigness_threshold, QuadraticIrrational)


def test_result_validation_rejects_malformed_walks(dp2):
    empty = ChamberDescriptor(())
    e1 = ChamberDescriptor(("E1",))
    one = QuadraticIrrational(1)
    with pytest.raises(ValueError):  # gap between segments
        RayWalkResult(
            (
                RaySegment(Fraction(0), Fraction(1), empty),
                RaySegment(Fraction(2), one + 2, e1),
            ),
            (Fraction(2),),
            one + 2,
        )
    with pytest.raises(ValueError):  # support does not grow
        RayWalkResult(
            (
                RaySegment(Fraction(0), Fraction(1), e1),
                RaySegment(Fraction(1), one + 1, e1),
            ),
            (Fraction(1),),
            one + 1,
        )
    with pytest.raises(ValueError):  # breakpoint list out of sync
        RayWalkResult(
            (RaySegment(Fraction(0), one, empty),),
            (Fraction(1, 2),),
            one,
        )
    with pytest.raises(ValueError):  # threshold differs from the last end
        RayWalkResult(
            (RaySegment(Fraction(0), one, empty),),
            (),
            one + 1,
        )


def _segment(start, end, *labels):
    return RaySegment(start, end, ChamberDescriptor(labels))


@pytest.mark.parametrize(
    "segments, breakpoints, threshold, message",
    [
        ((), (), QuadraticIrrational(1), "a walk has at least one segment"),
        (
            (_segment(Fraction(0), Fraction(1)), _segment(1, QuadraticIrrational(2), "E1")),
            (1,), QuadraticIrrational(2), "breakpoints must be rational",
        ),
        (
            (_segment(Fraction(0), Fraction(1)),), (), Fraction(1),
            "the bigness threshold must be a QuadraticIrrational",
        ),
        (
            (
                _segment(Fraction(0), Fraction(0)),
                _segment(Fraction(0), QuadraticIrrational(1), "E1"),
            ),
            (Fraction(0),), QuadraticIrrational(1),
            "breakpoints must lie strictly between 0 and the threshold",
        ),
    ],
    ids=["no-segments", "integer-breakpoint", "rational-threshold", "breakpoint-at-zero"],
)
def test_result_validation_names_the_broken_rule(segments, breakpoints, threshold, message):
    with pytest.raises(ValueError) as excinfo:
        RayWalkResult(segments, breakpoints, threshold)
    assert str(excinfo.value) == message


def test_random_walk_segments_agree_with_pointwise_chambers():
    rng = random.Random(67)
    model = dp_model(4)
    for _ in range(8):
        bundle = random_big_class(model, rng)
        assert_segments_match_chambers(model, bundle, random_ample_class(model, rng))


@pytest.mark.parametrize("r", [5, 6])
def test_walk_segments_agree_with_chambers_on_dp5_dp6(r):
    """The walk's integer wall tests on bundles with denominators up to 4."""
    rng = random.Random(80 + r)
    model = dp_model(r)
    for _ in range(6):
        bundle = random_big_class(model, rng)
        assert_segments_match_chambers(model, bundle, random_ample_class(model, rng))


REBUILD_MODELS = {
    **{f"dp{r}": (lambda r=r: dp_model(r)) for r in range(2, 8)},
    "abelian": abelian_surface_model,
    "a2": a2_chain_model,
    "k3(1)": lambda: k3_model(1),
    "k3(2)": lambda: k3_model(2),
}


@pytest.mark.parametrize("key", REBUILD_MODELS)
def test_seeded_walks_equal_their_public_rebuild(key, walks_equal_their_public_rebuild):
    """Eight seeded walks per model family, each rebuilt by the autouse fixture
    through the public constructor; where the model has curves, some cross a wall."""
    model, rng = REBUILD_MODELS[key](), random.Random(f"rebuild-{key}")
    for _ in range(8):
        destabilizing_numbers(model, random_big_class(model, rng), random_ample_class(model, rng))
    walks = walks_equal_their_public_rebuild
    assert len(walks) == 8
    assert any(walk.breakpoints for walk in walks) == bool(model.curves)


def test_stability_worked_values(dp2):
    lat = dp2.lattice
    assert is_stable(dp2, lat.divisor([3, -1, -1]))
    assert is_stable(dp2, lat.divisor([2, 1, -1]))
    assert not is_stable(dp2, lat.divisor([2, 1, 0]))


def test_stable_base_locus_worked_values(dp2):
    lat = dp2.lattice
    assert stable_base_locus(dp2, lat.divisor([3, -1, -1])) == set()
    assert stable_base_locus(dp2, lat.divisor([2, 1, -1])) == {"E1"}
    with pytest.raises(InstableDivisor):
        stable_base_locus(dp2, lat.divisor([2, 1, 0]))
    with pytest.raises(NotBig):
        stable_base_locus(dp2, lat.divisor([0, 1, 0]))


# ---------------------------------------------------------------------------
# the theorems the walk rests on, as oracles
# ---------------------------------------------------------------------------


def rational_bracket(value, width=Fraction(1, 2**30)):
    """Rationals lo < value < hi with hi - lo = 2 * width."""
    mid = Fraction(float(value))
    lo, hi = mid - width, mid + width
    assert value > lo and hi > value
    return lo, hi


def negative_part(model, divisor):
    return {curve.label: coeff for curve, coeff in zariski_decompose(model, divisor).coefficients}


def assert_walk_theorems(model, bundle, direction):
    """Check the walk against the three facts its loop takes for granted.

    (a) Negative parts grow: every coefficient of the negative part of
        L - t*A is non-decreasing in t on (0, threshold).
    (b) At every breakpoint b the null set of the positive part of L - b*A
        spans a negative definite lattice.
    (c) L - t*A is big just below the threshold and not big just above it.
    """
    walk = destabilizing_numbers(model, bundle, direction)
    lo, hi = rational_bracket(walk.bigness_threshold)
    assert is_big(model, bundle - lo * direction)
    assert not is_big(model, bundle - hi * direction)

    for b in walk.breakpoints:
        positive = zariski_decompose(model, bundle - b * direction).positive
        indices = [model.curve_index(label) for label in null_set(model, positive)]
        assert indices and is_negative_definite(model.kernel_gram(indices))

    samples = set(walk.breakpoints)
    for segment in walk.segments:
        start = segment.lambda_start
        end = segment.lambda_end if isinstance(segment.lambda_end, Fraction) else lo
        samples.update(start + (end - start) * Fraction(k, 8) for k in (1, 4, 7))
    ts = sorted(t for t in samples if 0 < t and walk.bigness_threshold > t)
    coefficients = [negative_part(model, bundle - t * direction) for t in ts]
    for earlier, later in zip(coefficients, coefficients[1:]):
        assert set(earlier) <= set(later)
        assert all(coeff <= later[label] for label, coeff in earlier.items())


THEOREM_MODELS = {
    **{f"dp{r}": (lambda r=r: dp_model(r)) for r in range(2, 7)},
    "k3(1)": lambda: k3_model(1),
    "k3(2)": lambda: k3_model(2),
    "a2": a2_chain_model,
}


@pytest.mark.parametrize("key", THEOREM_MODELS)
def test_walk_theorems_on_seeded_walks(key):
    model = THEOREM_MODELS[key]()
    rng = random.Random(f"theorems-{key}")
    for _ in range(6):
        bundle = random_big_class(model, rng)
        assert_walk_theorems(model, bundle, random_ample_class(model, rng))


@settings(max_examples=60, deadline=None)
@given(user_models(), st.data())
def test_walk_theorems_on_user_models(model, data):
    rank = model.lattice.rank
    shift = data.draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=rank, max_size=rank))
    bundle = 2 * model.ample + model.lattice.divisor(shift)
    for curve in model.curves:
        bundle = bundle + data.draw(st.fractions(0, 2, max_denominator=3)) * curve.cls
    assume(is_big(model, bundle))
    direction = data.draw(st.integers(1, 3)) * model.ample + model.lattice.divisor(
        data.draw(st.lists(st.fractions(-1, 1, max_denominator=2), min_size=rank, max_size=rank))
    )
    assume(is_ample(model, direction))
    assert_walk_theorems(model, bundle, direction)


def walk_derivative(form, bundle, direction, t):
    """d/dt form(L - t*A) = -2 * A^T Q (L - t*A), Q the form's matrix."""
    point = (bundle - t * direction).coords
    return -2 * sum(a * q * x for a, row in zip(direction.coords, form.matrix)
                    for q, x in zip(row, point))


@pytest.mark.parametrize("key", THEOREM_MODELS)
def test_walk_derivative_and_c1_at_breakpoints(key):
    """d/dt vol(L - t*A) = -2 P(t) . A (Boucksom-Favre-Jonsson, J. Algebraic
    Geom. 18, 2009): inside each segment the derivative of the segment's volume
    form equals -2 P(t) . A with P(t) the positive part of the decomposition at
    t, and at each breakpoint the two neighbouring forms have equal derivatives."""
    model = THEOREM_MODELS[key]()
    rng = random.Random(f"derivative-{key}")
    for _ in range(6):
        bundle, direction = random_big_class(model, rng), random_ample_class(model, rng)
        walk = destabilizing_numbers(model, bundle, direction)
        forms = [volume_polynomial(model, segment.support) for segment in walk.segments]
        for segment, form in zip(walk.segments, forms):
            start, end = segment.lambda_start, segment.lambda_end
            if not isinstance(end, Fraction):
                end = rational_bracket(end)[0]
            for t in (start + (end - start) * Fraction(k, 8) for k in (1, 4, 7)):
                if start < t and segment.lambda_end > t:
                    positive = zariski_decompose(model, bundle - t * direction).positive
                    expected = -2 * positive.dot(direction)
                    assert walk_derivative(form, bundle, direction, t) == expected
        for b, left, right in zip(walk.breakpoints, forms, forms[1:]):
            assert left.matrix != right.matrix  # the forms differ, their derivatives agree
            assert (walk_derivative(left, bundle, direction, b)
                    == walk_derivative(right, bundle, direction, b))


@pytest.mark.parametrize("key", ["dp2", "dp3", "dp4", "dp5", "a2", "k3(1)", "k3(2)"])
def test_construct_then_decompose_round_trip(key):
    """P = construct_nef_with_null(S) is nef with null set S, and S is negative
    definite, so by uniqueness P + sum(c_i * C_i) with every c_i > 0
    decomposes to exactly P and the c_i, for every chamber S."""
    model = THEOREM_MODELS[key]()
    rng = random.Random(f"round-trip-{key}")
    for chamber in enumerate_chambers(model):
        positive = construct_nef_with_null(model, chamber)
        parts = {label: Fraction(rng.randint(1, 12), rng.randint(1, 4)) for label in chamber.support}
        divisor = positive
        for label, c in parts.items():
            divisor = divisor + c * model.curve_by_label(label).cls
        dec = zariski_decompose(model, divisor)
        assert dec.positive == positive
        assert {curve.label: x for curve, x in dec.coefficients} == parts


def per_segment_root_walk(model, bundle, direction):
    """The walk as it stood when every closed segment took the square root of
    its discriminant and compared the threshold with its wall, on Fraction
    projections: P(t) = P_S(L) - t*P_S(A) on the support S, whose curves C
    off S with P_S(A) . C > 0 meet their wall at P_S(L) . C / P_S(A) . C."""
    labels = sorted(zariski_decompose(model, bundle).support_labels)
    lam, segments = Fraction(0), []
    while True:
        p0, p1 = (oracle_project(model, c, labels)[0] for c in (bundle, direction))
        walls = {}
        for curve in model.curves:
            slope = p1.dot(curve.cls)
            if curve.label not in labels and slope > 0:
                walls.setdefault(p0.dot(curve.cls) / slope, []).append(curve.label)
        if lam in walls:
            labels = sorted(labels + walls[lam])
            continue
        wall = min((w for w in walls if w > lam), default=None)
        a, b, c = p0.square, p0.dot(p1), p1.square  # P(t)**2 = a - 2*b*t + c*t**2
        threshold = (QuadraticIrrational(b) - sqrt_fraction(b * b - a * c)) / c
        end = threshold if wall is None or threshold <= wall else wall
        segments.append(RaySegment(lam, end, ChamberDescriptor(labels)))
        if end is threshold:
            return RayWalkResult(segments, [s.lambda_start for s in segments[1:]], threshold)
        lam = wall


@pytest.mark.parametrize("key", THEOREM_MODELS)
def test_walk_matches_the_per_segment_root_oracle(key):
    """Deciding each wall on ints gives the walk, threshold included, that a
    square root per closed segment gave."""
    model = THEOREM_MODELS[key]()
    rng = random.Random(f"root-oracle-{key}")
    for _ in range(10):
        bundle, direction = random_big_class(model, rng), random_ample_class(model, rng)
        walk = destabilizing_numbers(model, bundle, direction)
        assert repr(walk) == repr(per_segment_root_walk(model, bundle, direction))
