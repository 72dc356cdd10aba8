"""Shared fixtures and sampling helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from zlab import (
    DivisorClass,
    IntersectionLattice,
    NegativeCurve,
    SurfaceModel,
    chamber_of,
    del_pezzo,
    destabilizing_numbers,
    is_big,
)
from zlab.errors import SignatureError
from zlab.lattice import solve_symmetric

_DP_CACHE: dict[int, SurfaceModel] = {}


def dp_model(r: int) -> SurfaceModel:
    if r not in _DP_CACHE:
        _DP_CACHE[r] = del_pezzo(r)
    return _DP_CACHE[r]


@pytest.fixture(scope="session")
def dp2() -> SurfaceModel:
    return dp_model(2)


@pytest.fixture(scope="session")
def dp3() -> SurfaceModel:
    return dp_model(3)


def k3_model(diag: int) -> SurfaceModel:
    """Rank-2 model with gram [[4, diag], [diag, -2]] and one (-2)-curve."""
    lattice = IntersectionLattice([[4, diag], [diag, -2]], ["H", "E"])
    curve = NegativeCurve("E", lattice.divisor([0, 1]))
    return SurfaceModel(lattice=lattice, ample=lattice.divisor([1, 0]), curves=(curve,))


def a2_chain_model() -> SurfaceModel:
    """Rank-3 model over (H, E1, E2) with two (-2)-curves meeting once."""
    lattice = IntersectionLattice(
        [[2, 1, 1], [1, -2, 1], [1, 1, -2]], ["H", "E1", "E2"]
    )
    curves = (
        NegativeCurve("E1", lattice.divisor([0, 1, 0])),
        NegativeCurve("E2", lattice.divisor([0, 0, 1])),
    )
    return SurfaceModel(lattice=lattice, ample=lattice.divisor([1, 0, 0]), curves=curves)


def standard_model(r: int) -> SurfaceModel:
    """Standard basis L, E1..Er with K = -3L + sum(E_i), ample 4L - sum(E_i)
    and no curves: for r >= 9 the Weyl group is infinite."""
    lattice = IntersectionLattice(
        [[1 if i == j == 0 else -(i == j) for j in range(r + 1)] for i in range(r + 1)],
        ["L"] + [f"E{i}" for i in range(1, r + 1)],
    )
    return SurfaceModel(
        lattice=lattice,
        ample=lattice.divisor([4] + [-1] * r),
        curves=(),
        canonical=lattice.divisor([-3] + [1] * r),
    )


def rank_ten_model() -> SurfaceModel:
    """Standard basis L, E1..E9 with K = -3L + sum(E_i): r = 9, infinite Weyl group."""
    return standard_model(9)


def random_rational(rng: random.Random, lo: int, hi: int, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_class(
    model: SurfaceModel,
    rng: random.Random,
    lo: int = -6,
    hi: int = 8,
    max_den: int = 4,
) -> DivisorClass:
    return model.lattice.divisor(
        [random_rational(rng, lo, hi, max_den) for _ in range(model.lattice.rank)]
    )


def random_big_class(
    model: SurfaceModel,
    rng: random.Random,
    lo: int = -4,
    hi: int = 6,
    max_den: int = 4,
) -> DivisorClass:
    """Rejection-sample a big class; the leading coordinate is kept positive
    to hit the big cone often."""
    while True:
        coords = [random_rational(rng, 1, 3 * hi, max_den)] + [
            random_rational(rng, lo, hi, max_den)
            for _ in range(model.lattice.rank - 1)
        ]
        candidate = model.lattice.divisor(coords)
        if is_big(model, candidate):
            return candidate


def assert_segments_match_chambers(model: SurfaceModel, bundle, direction) -> None:
    """Walk bundle - t*direction and check that interior points of every
    segment lie in that segment's chamber, pointwise by ``chamber_of``."""
    walk = destabilizing_numbers(model, bundle, direction)
    for segment in walk.segments:
        lo, hi = segment.lambda_start, segment.lambda_end
        if not isinstance(hi, Fraction):  # a rational point just below the threshold
            hi = Fraction(float(hi)).limit_denominator(10**9)
        for k in (1, 3, 7, 15, 31):
            t = lo + (hi - lo) * Fraction(k, 32)
            if lo < t and segment.lambda_end > t:
                point = bundle - t * direction
                assert chamber_of(model, point).support == segment.support.support


def oracle_project(model: SurfaceModel, divisor: DivisorClass, labels) -> tuple:
    """(P_S(D), xs): D - sum(x_i * C_i) over the curves S named by ``labels``,
    with x the solution of sum_j (C_i . C_j) x_j = D . C_i, solved on Fractions
    from the ``DivisorClass.dot`` Gram matrix."""
    curves = [model.curve_by_label(label).cls for label in labels]
    xs = solve_symmetric([[c.dot(e) for e in curves] for c in curves],
                         [divisor.dot(c) for c in curves]) if curves else []
    for c, x in zip(curves, xs):
        divisor = divisor - x * c
    return divisor, xs


def random_ample_class(model: SurfaceModel, rng: random.Random) -> DivisorClass:
    """A strictly positive combination of the witness and a nef basis tweak."""
    from zlab.raywalk import is_ample

    while True:
        scale = rng.randint(1, 4)
        candidate = scale * model.ample + rng.randint(0, 3) * model.lattice.basis_divisor(0)
        if is_ample(model, candidate):
            return candidate


@st.composite
def user_models(draw):
    """Small models that SurfaceModel accepts: a hyperbolic lattice of rank
    2-4, an ample witness and up to six curves meeting pairwise >= 0."""
    rank = draw(st.integers(2, 4))
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = draw(st.integers(1, 4))
    for i in range(1, rank):
        gram[i][i] = draw(st.integers(-4, -1))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-1, 1))
    try:
        lattice = IntersectionLattice(gram, [f"b{i}" for i in range(rank)])
    except SignatureError:
        assume(False)
    tail = st.lists(st.integers(-1, 1), min_size=rank - 1, max_size=rank - 1)
    ample = lattice.divisor([draw(st.integers(1, 3))] + draw(tail))
    assume(ample.square > 0)
    vectors = st.lists(st.sampled_from([0, 0, 1, -1, 2, -2]), min_size=rank, max_size=rank)
    curves: list[NegativeCurve] = []
    for coords in draw(st.lists(vectors, min_size=8, max_size=24)):
        cls = lattice.divisor(coords)
        if (
            len(curves) < 6
            and cls.square < 0
            and ample.dot(cls) > 0
            and all(cls.dot(c.cls) >= 0 for c in curves)
        ):
            curves.append(NegativeCurve(f"C{len(curves)}", cls))
    return SurfaceModel(lattice=lattice, ample=ample, curves=tuple(curves))
