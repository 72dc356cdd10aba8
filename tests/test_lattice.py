"""Pairings, signatures, exact solves and quadratic irrationals."""

from __future__ import annotations

import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zlab.lattice
from conftest import dp_model, random_big_class, user_models
from zlab import (
    IntersectionLattice,
    QuadraticIrrational,
    destabilizing_numbers,
    inverse_is_nonpositive,
    pair,
    signature,
    solve_gram_system,
    sqrt_fraction,
    zariski_decompose,
)
from zlab.cutkosky import abelian_surface
from zlab.errors import LatticeMismatch, NotNegativeDefinite, SignatureError
from zlab.lattice import (
    gram_matrix,
    invert_matrix,
    is_negative_definite,
    solve_symmetric,
    squarefree_split,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def dp2_class(*coords):
    return dp_model(2).lattice.divisor(coords)


# -- pair --------------------------------------------------------------------


def test_pair_worked_values():
    L = dp2_class(1, 0, 0)
    E1 = dp2_class(0, 1, 0)
    E2 = dp2_class(0, 0, 1)
    assert pair(L, L) == 1
    assert pair(E1, E2) == 0
    assert pair(E1, E1) == -1
    line = L - E1 - E2
    assert pair(line, line) == -1


def test_pair_rejects_mismatched_lattices():
    with pytest.raises(LatticeMismatch):
        pair(dp2_class(1, 0, 0), dp_model(3).lattice.divisor([1, 0, 0, 0]))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(rationals, rationals, rationals),
    st.tuples(rationals, rationals, rationals),
)
def test_pair_is_symmetric(u, v):
    du, dv = dp2_class(*u), dp2_class(*v)
    assert pair(du, dv) == pair(dv, du)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(rationals, rationals, rationals),
    st.tuples(rationals, rationals, rationals),
    st.tuples(rationals, rationals, rationals),
    rationals,
    rationals,
)
def test_pair_is_bilinear(u, v, w, s, t):
    du, dv, dw = dp2_class(*u), dp2_class(*v), dp2_class(*w)
    assert pair(s * du + t * dv, dw) == s * pair(du, dw) + t * pair(dv, dw)


# -- form on the non-zero Gram entries against the dense product ----------------


def dense_form(lattice, u, v):
    """u^T G v over every entry of G, zeros included."""
    return sum(x * g * y for x, row in zip(u, lattice.gram) for g, y in zip(row, v))


VECTOR_ENTRIES = st.integers(-(10**12), 10**12)


@settings(max_examples=80, deadline=None)
@given(user_models(), st.data())
def test_form_matches_the_dense_product_on_user_models(model, data):
    lattice = model.lattice
    vectors = st.lists(VECTOR_ENTRIES, min_size=lattice.rank, max_size=lattice.rank)
    u, v = data.draw(vectors), tuple(data.draw(vectors))  # lists and tuples alike
    assert lattice.form(u, v) == dense_form(lattice, u, v) == lattice.form(v, u)


@pytest.mark.parametrize("build", [
    lambda: IntersectionLattice([[3]], ["H"]),  # one entry: the padded getter still gives tuples
    lambda: IntersectionLattice([[2]], ["H"]),
    lambda: IntersectionLattice(  # every entry non-zero: J - 2I has signature (1, 9)
        [[1 if i != j else -1 for j in range(10)] for i in range(10)], [f"e{i}" for i in range(10)]),
    lambda: abelian_surface().lattice,  # zero diagonal
    lambda: dp_model(8).lattice,
    lambda: pickle.loads(pickle.dumps(abelian_surface().lattice)),
    lambda: pickle.loads(pickle.dumps(dp_model(8).lattice)),
], ids=["rank-1", "rank-1-square-2", "dense-rank-10", "abelian", "dp8", "pickled-abelian",
        "pickled-dp8"])
def test_form_matches_the_dense_product_on_edge_lattices(build):
    lattice, rng = build(), random.Random(11)
    for _ in range(50):
        u, v = ([rng.randint(-(10**9), 10**9) for _ in range(lattice.rank)] for _ in "uv")
        assert lattice.form(u, v) == dense_form(lattice, u, v)
    assert lattice.form([1] * lattice.rank, [1] * lattice.rank) == sum(map(sum, lattice.gram))


# -- signature ---------------------------------------------------------------


def test_signature_worked_values():
    assert signature([[1, 0, 0], [0, -1, 0], [0, 0, -1]]) == (1, 2, 0)
    assert signature([[4, 2], [2, -2]]) == (1, 1, 0)
    assert signature([[0, 0], [0, 0]]) == (0, 0, 2)


def test_signature_zero_diagonal_hyperbolic():
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == (1, 2, 0)


def test_signature_requires_symmetry():
    with pytest.raises(ValueError):
        signature([[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: signature([[1, 0], [0]]), "matrix is not square"),
        (lambda: invert_matrix([[-1, 0], [0]]), "matrix is not square"),
        (lambda: solve_symmetric([[-1]], [1, 2]), "rhs length must match the matrix size"),
        (lambda: IntersectionLattice([], []), "gram matrix must be square and non-empty"),
        (
            lambda: IntersectionLattice([[1, 0], [0]], ["a", "b"]),
            "gram matrix must be square and non-empty",
        ),
        (lambda: IntersectionLattice([["1"]], ["a"]), "gram matrix must be integral"),
        (lambda: IntersectionLattice([[1.5]], ["a"]), "gram matrix must be integral"),
        (
            lambda: IntersectionLattice([[Fraction(3, 2), 0], [0, -1]], ["a", "b"]),
            "gram matrix must be integral",
        ),
        (
            lambda: IntersectionLattice([[1, 0], [0, -1]], ["a", "a"]),
            "basis labels must be distinct and match the rank",
        ),
        (
            lambda: IntersectionLattice([[1, 0], [0, -1]], ["a"]),
            "basis labels must be distinct and match the rank",
        ),
        (lambda: dp_model(2).lattice.divisor([1, 0]), "expected 3 coordinates, got 2"),
    ],
    ids=[
        "signature-ragged", "invert-ragged", "rhs-length", "empty-gram", "ragged-gram",
        "string-entry", "float-entry", "fraction-entry", "repeated-label", "missing-label",
        "short-class",
    ],
)
def test_malformed_matrices_and_classes_are_refused(build, message):
    """A non-integral float or Fraction entry used to be truncated silently."""
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_lattice_rejects_wrong_signature():
    with pytest.raises(SignatureError):
        IntersectionLattice([[1, 0], [0, 1]], ["a", "b"])
    with pytest.raises(SignatureError):
        IntersectionLattice([[-1]], ["a"])


def test_every_del_pezzo_lattice_has_hyperbolic_signature():
    for r in range(1, 9):
        lattice = dp_model(r).lattice
        assert signature(lattice.gram) == (1, r, 0)


# -- solve_gram_system -------------------------------------------------------


def test_solve_gram_worked_values():
    model = dp_model(2)
    E1 = dp2_class(0, 1, 0)
    E2 = dp2_class(0, 0, 1)
    line = dp2_class(1, -1, -1)
    assert solve_gram_system([E1], [-1]) == [1]
    assert solve_gram_system([E1, E2], [-1, -1]) == [1, 1]
    assert solve_gram_system([line], [Fraction(-1, 2)]) == [Fraction(1, 2)]


def test_solve_gram_rejects_indefinite_sets():
    E1 = dp2_class(0, 1, 0)
    line = dp2_class(1, -1, -1)
    with pytest.raises(NotNegativeDefinite):
        solve_gram_system([E1, line], [-1, -1])


def test_solve_gram_refuses_rank_many_classes_unbuilt(monkeypatch):
    built = []
    monkeypatch.setattr(zlab.lattice, "gram_matrix", built.append)
    E1, E2, line = dp2_class(0, 1, 0), dp2_class(0, 0, 1), dp2_class(1, -1, -1)
    with pytest.raises(NotNegativeDefinite):
        solve_gram_system([E1, E2, line], [-1, -1, -1])
    assert built == []


def test_solve_gram_substitution_reproduces_rhs():
    rng = random.Random(101)
    model = dp_model(3)
    curves = [c.cls for c in model.curves]
    for _ in range(50):
        size = rng.randint(1, 3)
        subset = rng.sample(curves, size)
        if not is_negative_definite(gram_matrix(subset)):
            continue
        rhs = [Fraction(rng.randint(-12, -1), rng.randint(1, 3)) for _ in subset]
        solution = solve_gram_system(subset, rhs)
        gram = gram_matrix(subset)
        for i in range(size):
            assert sum(gram[i][j] * solution[j] for j in range(size)) == rhs[i]


# -- inverse_is_nonpositive --------------------------------------------------


def test_inverse_nonpositive_worked_values():
    assert inverse_is_nonpositive([[-1, 0], [0, -1]])
    assert inverse_is_nonpositive([[-2, 1], [1, -2]])
    assert inverse_is_nonpositive([[-1, 0], [0, -5]])


def test_inverse_nonpositive_requires_definite_input():
    with pytest.raises(NotNegativeDefinite):
        inverse_is_nonpositive([[1, 0], [0, -1]])


def test_invert_matrix_exact():
    inv = invert_matrix([[-2, 1], [1, -2]])
    assert inv == [
        [Fraction(-2, 3), Fraction(-1, 3)],
        [Fraction(-1, 3), Fraction(-2, 3)],
    ]


# -- squarefree_split against trial division to the square root ---------------


def trial_division_split(n):
    """n = s**2 * m with m squarefree, dividing out d*d for every d <= sqrt(m)."""
    if n in (0, 1):
        return 1, n
    s, m, d = 1, n, 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            s *= d
        d += 1
    return s, m


def _primes_from(start, count):
    out, n = [], start
    while len(out) < count:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
        n += 1
    return out


PRIMES_NEAR_1E4 = _primes_from(9_973, 6)  # 9973 is the largest prime below 10**4


def test_split_matches_oracle_below_20000():
    for n in range(20_000):
        assert squarefree_split(n) == trial_division_split(n), n


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9 - 1))
def test_split_matches_oracle_on_random_integers(n):
    s, m = squarefree_split(n)
    assert (s, m) == trial_division_split(n)
    assert s * s * m == n


def _structured():
    cases = []
    for i, p in enumerate(PRIMES_NEAR_1E4):
        q = PRIMES_NEAR_1E4[(i + 1) % len(PRIMES_NEAR_1E4)]
        cases += [p * p, p**3, p * q, p * p * q, p * q * q, 2 * p * p, 12 * p * q]
        # around d**3 for the divisor d at which the search stops
        cases += [p**3 - 1, p**3 + 1, p**3 - p, p**3 + p, (p + 1) ** 3]
    return cases


@pytest.mark.parametrize("n", _structured())
def test_split_matches_oracle_on_structured_integers(n):
    assert squarefree_split(n) == trial_division_split(n)


def _line_events(fn, n, budget):
    """Line events executed inside ``fn(n)``; stops with None past ``budget``."""
    code, count = fn.__code__, 0

    class Exceeded(Exception):
        pass

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > budget:
                raise Exceeded
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        fn(n)
    except Exceeded:
        return None
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("p, q", [(999_983, 1_000_003), (1_000_003, 1_000_033)])
def test_split_work_stops_at_the_cube_root(p, q):
    """A product of two primes near 10**6 is settled after about n**(1/3)
    ~ 10**4 trial divisors; searching to the square root would take 10**6."""
    n = p * q
    budget = 4 * round(n ** (1 / 3)) + 40
    assert _line_events(zlab.lattice.squarefree_split, n, budget) is not None
    assert squarefree_split(n) == (1, n)


SMALL_PRIME_BOUND = zlab.lattice._SMALL_PRIME_BOUND  # B: primes below it are found by one gcd
NEAR_B = _primes_from(SMALL_PRIME_BOUND - 20, 6)  # 4079, 4091, 4093 | 4099, 4111, 4127
BELOW_B = [p for p in NEAR_B if p < SMALL_PRIME_BOUND]
ABOVE_B = [p for p in NEAR_B if p > SMALL_PRIME_BOUND]


def _boundary_cases():
    cases = []
    for p in NEAR_B:
        cases += [p, p * p, p**3, 2 * p**3, 3 * p * p, p**4, p**5]
    for p in BELOW_B:
        cases += [p * q for q in ABOVE_B] + [p * p * q for q in ABOVE_B] + [p * q**3 for q in ABOVE_B]
    # just below and above B**3, and cofactors above it that the trial loop must split
    cases += [SMALL_PRIME_BOUND**3 + i for i in range(-6, 7)]
    a, b, c = ABOVE_B
    cases += [a * b * c, a * a * b, a * b * b, 12 * a * b * c]
    return cases


@pytest.mark.parametrize("n", _boundary_cases())
def test_split_matches_oracle_around_the_small_prime_bound(n):
    """Primes just below B are found by the gcd with their product and those
    just above by trial division, which runs only on a cofactor above B**3."""
    assert squarefree_split(n) == trial_division_split(n)


def test_importing_the_threefold_builds_no_prime_product():
    """The prime product is built by the first split, not at import: importing
    zlab.cutkosky and building the abelian surface model leave it unbuilt."""
    probe = (
        "import zlab.cutkosky, zlab.lattice\n"
        "zlab.cutkosky.abelian_surface_model()\n"
        "print(zlab.lattice._small_prime_product.cache_info().currsize)\n"
        "zlab.lattice.squarefree_split(12)\n"
        "print(zlab.lattice._small_prime_product.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zlab.lattice.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.split() == ["0", "1"]


def test_split_settles_a_square_with_one_isqrt():
    """A perfect square is recognised before any trial division; searching to
    the cube root of p**2 for a prime p near 10**6 takes about 10**4 divisors."""
    p = 999_983
    assert _line_events(zlab.lattice.squarefree_split, p * p, 8) is not None
    assert squarefree_split(p * p) == (p, 1)
    assert squarefree_split(12 * p * p) == (2 * p, 3)


def _primes_below(bound):
    """The primes below ``bound``, by a sieve of Eratosthenes on a list of flags."""
    flags = [True] * bound
    for d in range(2, bound):
        if flags[d]:
            flags[d * d :: d] = [False] * len(range(d * d, bound, d))
    return [d for d in range(2, bound) if flags[d]]


def _least_cube_at_least(bits):
    """The least c with c**3 >= 2**bits."""
    c = round(2 ** (bits / 3))
    while c**3 < 1 << bits:
        c += 1
    while (c - 1) ** 3 >= 1 << bits:
        c -= 1
    return c


def test_prime_product_holds_the_primes_below_the_cube_root():
    """P_L is the product of the primes p < B with p**3 < 2**L, for every L up to
    36, checked against a sieve here; from L = 36 on it holds every prime below B.
    Products of distinct primes are equal exactly when their prime sets are."""
    primes, product = _primes_below(SMALL_PRIME_BOUND), zlab.lattice._small_prime_product
    for bits in range(1, 37):
        assert product(bits) == math.prod(p for p in primes if p**3 < 1 << bits), bits
    assert product(36) == math.prod(primes)


@pytest.mark.parametrize("bits", range(2, 38))
def test_split_matches_oracle_around_each_cube_root_tier(bits):
    """An L-bit input is split with P_L, which holds a prime p exactly when
    p**3 < 2**L.  The two primes just below 2**(L/3) and the two just above,
    alone, squared, times each other, cubed and scaled, and squared times the
    cofactor that brings the input to L bits, all split as the oracle does."""
    c = _least_cube_at_least(bits)
    below = [p for p in range(c - 1, 1, -1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    near = below[:2] + _primes_from(c, 2)
    cases = set()
    for p in near:
        cases |= {p, p * p, *(p * q for q in near if q != p), *(p**3 * k for k in (1, 2, 3, 6))}
        k = -(-(1 << (bits - 1)) // (p * p))  # the least k with p**2 * k >= 2**(L-1)
        cases |= {p * p * k, p * p * (k + 1), p * p * k * 3}
    for n in sorted(cases):
        assert squarefree_split(n) == trial_division_split(n), n


def test_split_builds_at_most_36_prime_products():
    """The products are cached by min(L, 36): splits of 1- to 200-bit inputs
    leave one product per bit length from 2 to 36 and none above."""
    product = zlab.lattice._small_prime_product
    product.cache_clear()
    for bits in range(1, 201):
        n = 3 << (bits - 2) if bits > 1 else 1  # 3 * 2**(L-2) has L bits and is no square
        assert n.bit_length() == bits
        assert squarefree_split(n) == trial_division_split(n)
    assert product.cache_info().currsize == len(range(2, 37)) <= 36


# -- quadratic irrationals ---------------------------------------------------


def test_qi_canonical_form():
    x = QuadraticIrrational(0, 1, 45)
    assert (x.a, x.b, x.m) == (0, 3, 5)
    assert QuadraticIrrational(2, 0, 7) == QuadraticIrrational(2)
    assert QuadraticIrrational(1, 3, 4) == QuadraticIrrational(7)
    assert QuadraticIrrational(5, 2, 0) == 5
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)


def test_qi_sqrt_of_fraction():
    x = sqrt_fraction(Fraction(5, 9))
    assert x * x == Fraction(5, 9)
    y = sqrt_fraction(Fraction(45, 4))
    assert (y.a, y.b, y.m) == (0, Fraction(3, 2), 5)


def test_qi_comparisons():
    sqrt5 = sqrt_fraction(5)
    assert Fraction(2) < sqrt5 < Fraction(9, 4)
    assert sqrt5 > 0
    assert -sqrt5 < 0
    assert QuadraticIrrational(3, -1, 5) > 0  # 3 - sqrt(5) > 0
    assert QuadraticIrrational(2, -1, 5) < 0  # 2 - sqrt(5) < 0
    assert QuadraticIrrational(Fraction(9, 2), Fraction(-3, 2), 5) > 1


def test_qi_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        sqrt_fraction(2) + sqrt_fraction(3)
    with pytest.raises(ValueError):
        sqrt_fraction(2) < sqrt_fraction(3)


def test_qi_equality_across_fields_is_decidable():
    # canonical triples decide equality even when the radicands differ
    assert sqrt_fraction(2) != sqrt_fraction(3)
    assert not (sqrt_fraction(2) == sqrt_fraction(3))
    assert QuadraticIrrational(1, 2, 3) != QuadraticIrrational(1, 2, 5)
    assert sqrt_fraction(8) == 2 * sqrt_fraction(2)


def test_qi_hash_matches_rational_embedding():
    assert hash(QuadraticIrrational(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert QuadraticIrrational(Fraction(3, 2)) == Fraction(3, 2)


def test_qi_negative_radicand_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        QuadraticIrrational(0, 1, -5)
    with pytest.raises(ValueError):
        sqrt_fraction(-1)


@pytest.mark.parametrize("m", [Fraction(9, 2), 2.5, Fraction(-9, 2)])
def test_qi_radicand_that_is_not_an_integer_rejected(m):
    """Truncating would turn 9/2 into the square 4 and 2.5 into 2."""
    with pytest.raises(ValueError, match="integer"):
        QuadraticIrrational(0, 1, m)


def test_qi_integral_radicand_of_another_type_accepted():
    assert QuadraticIrrational(0, 1, Fraction(8)) == QuadraticIrrational(0, 2, 2)
    assert QuadraticIrrational(1, 1, 9.0) == 4


def test_zero_and_square_radicands_fold_into_the_rational_part():
    for n, value in [(0, Fraction(1, 3)), (9, Fraction(7, 3)), (16, 3)]:
        x = zlab.lattice._from_radicand(1, 2, n, 3)
        assert (x.a, x.b, x.m) == (value, 0, 0) and hash(x) == hash(value)
    x = zlab.lattice._from_radicand(1, 2, 8, -3)
    assert (x.a, x.b, x.m) == (Fraction(-1, 3), Fraction(-4, 3), 2)


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals, rationals, st.sampled_from([2, 3, 5, 7, 10]))
def test_qi_field_identities(a1, b1, a2, b2, m):
    x = QuadraticIrrational(a1, b1, m)
    y = QuadraticIrrational(a2, b2, m)
    z = QuadraticIrrational(1, 1, m)
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x
    assert x - x == 0
    if not (y.a == 0 and y.b == 0):
        assert (x * y) / y == x
        assert y * y.inverse() == 1


def test_sqrt_fraction_zero_and_squares():
    for value, root in [(0, 0), (Fraction(49, 16), Fraction(7, 4))]:
        x = sqrt_fraction(value)
        assert (x.a, x.b, x.m) == (root, 0, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**7), st.integers(min_value=1, max_value=10**7))
def test_sqrt_fraction_matches_the_product_route(p, q):
    """Splitting p and q apart gives the triple of sqrt(p*q)/q, normalised."""
    value = Fraction(p, q)
    root = sqrt_fraction(value)
    p, q = value.numerator, value.denominator
    expected = QuadraticIrrational(0, Fraction(1, q), p * q)
    assert (root.a, root.b, root.m) == (expected.a, expected.b, expected.m)
    assert root * root == value


radicands = st.integers(min_value=0, max_value=5_000)


def _is_canonical(x):
    if x.b == 0:
        return x.m == 0
    return x.m > 1 and trial_division_split(x.m) == (1, x.m)


def _public(x):
    return QuadraticIrrational(x.a, x.b, x.m)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals, rationals, radicands, st.booleans())
def test_qi_arithmetic_results_are_canonical(a1, b1, a2, b2, m, rational_y):
    """Every result has the triple the public constructor gives it, a
    squarefree radicand, and a hash that agrees with equality."""
    x = QuadraticIrrational(a1, b1, m)
    y = QuadraticIrrational(a2) if rational_y else QuadraticIrrational(a2, b2, m)
    results = [x + y, y + x, x - y, y - x, x * y, -x, x**2, a2 + x, a2 * x, a2 - x]
    for v in (x, y):
        if v != 0:
            results += [v.inverse(), (x + y) / v, a1 / v]
    for r in results:
        assert isinstance(r.a, Fraction) and isinstance(r.b, Fraction)
        assert _is_canonical(r), r
        again = _public(r)
        assert (r.a, r.b, r.m) == (again.a, again.b, again.m)
        assert r == again and hash(r) == hash(again)
        if r.is_rational:
            assert r == r.a and hash(r) == hash(r.a)
    assert (x * y) - (y * x) == 0
    if y != 0:
        assert (x / y) * y == x


class TripleQI:
    """Reference field arithmetic on canonical Fraction triples (a, b, m) for
    a + b*sqrt(m), the representation QuadraticIrrational computed on before
    it moved to integers; radicands are split by ``trial_division_split``."""

    def __init__(self, a=0, b=0, m=0):
        a, b, m = Fraction(a), Fraction(b), int(m)
        if b == 0 or m == 0:
            b, m = Fraction(0), 0
        else:
            s, m = trial_division_split(m)
            b *= s
            if m == 1:
                a, b, m = a + b, Fraction(0), 0
        self.a, self.b, self.m = a, b, m

    def key(self):
        return self.a, self.b, self.m

    def _radicand(self, other):
        if self.m and other.m and self.m != other.m:
            raise ValueError("mixed radicands")
        return self.m or other.m

    def __add__(self, other):
        return TripleQI(self.a + other.a, self.b + other.b, self._radicand(other))

    def __neg__(self):
        return TripleQI(-self.a, -self.b, self.m)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        m = self._radicand(other)
        return TripleQI(
            self.a * other.a + self.b * other.b * m, self.a * other.b + self.b * other.a, m
        )

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.m
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return TripleQI(self.a / norm, -self.b / norm, self.m)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        out = TripleQI(1)
        for _ in range(n):
            out = out * self
        return out

    def sign(self):
        a, b, m = self.a, self.b, self.m
        if b == 0:
            return (a > 0) - (a < 0)
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
            return -1
        lhs, rhs = a * a, b * b * m
        return ((lhs > rhs) - (lhs < rhs)) * (1 if a > 0 else -1)


big_rationals = st.one_of(
    rationals,
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**25),
    ),
)
field_radicands = st.sampled_from([0, 1, 2, 3, 4, 5, 12, 45, 49, 30030, 999_983, 4 * 999_983])


def _outcome(fn):
    try:
        return fn()
    except ZeroDivisionError:
        return ZeroDivisionError


def _matches(result, reference):
    """result is the QuadraticIrrational the reference triple describes,
    quadruple for quadruple, with a hash that agrees with equality."""
    if reference is ZeroDivisionError:
        return result is ZeroDivisionError
    again = QuadraticIrrational(*reference.key())
    if (result.a, result.b, result.m) != reference.key() or result != again:
        return False
    if hash(result) != hash(again):
        return False
    return reference.b != 0 or (result == reference.a and hash(result) == hash(reference.a))


@settings(max_examples=300, deadline=None)
@given(
    big_rationals, big_rationals, big_rationals, big_rationals, field_radicands,
    st.sampled_from(["field", "rational", "int", "fraction"]), st.integers(0, 4),
)
def test_qi_arithmetic_matches_the_fraction_triple_reference(a1, b1, a2, b2, m, kind, n):
    """Integer arithmetic against the Fraction-triple reference, also with
    int and Fraction operands on either side, zero operands (norm zero)
    and numerators of 40 digits."""
    x, X = QuadraticIrrational(a1, b1, m), TripleQI(a1, b1, m)
    if kind == "field":
        y, Y = QuadraticIrrational(a2, b2, m), TripleQI(a2, b2, m)
    elif kind == "rational":
        y, Y = QuadraticIrrational(a2), TripleQI(a2)
    elif kind == "int":
        y, Y = a2.numerator, TripleQI(a2.numerator)
    else:
        y, Y = a2, TripleQI(a2)
    cases = [
        (lambda: x + y, lambda: X + Y), (lambda: y + x, lambda: Y + X),
        (lambda: x - y, lambda: X - Y), (lambda: y - x, lambda: Y - X),
        (lambda: x * y, lambda: X * Y), (lambda: y * x, lambda: Y * X),
        (lambda: x / y, lambda: X / Y), (lambda: y / x, lambda: Y / X),
        (lambda: x.inverse(), lambda: X.inverse()), (lambda: -x, lambda: -X),
        (lambda: x**n, lambda: X**n),
    ]
    for ours, theirs in cases:
        assert _matches(_outcome(ours), _outcome(theirs))
    assert x.sign() == X.sign()
    assert (x == y) == (X.key() == Y.key())
    order = (X - Y).sign()
    assert ((x < y), (x <= y), (x > y), (x >= y)) == (order < 0, order <= 0, order > 0, order >= 0)
    assert float(x) == float(X.a) + float(X.b) * math.sqrt(X.m)


def test_qi_power():
    x = QuadraticIrrational(1, 1, 2)
    assert x**0 == 1
    assert x**3 == x * x * x
    assert float(x**2) == pytest.approx(float(x) ** 2)


# -- the fraction-free elimination behind solve_symmetric and invert_matrix ----


def test_factor_solves_and_inverts_fuzzed_matrices_exactly():
    from test_acceptance import _fuzzed_qualifying_matrix

    rng = random.Random(707)
    for _ in range(200):
        matrix = _fuzzed_qualifying_matrix(rng)
        n = len(matrix)
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        x = solve_symmetric(matrix, rhs)
        assert [sum(matrix[i][j] * x[j] for j in range(n)) for i in range(n)] == rhs
        inverse = invert_matrix(matrix)
        product = [
            [sum(matrix[i][t] * inverse[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 0], [0, -1]],  # indefinite
        [[-1, 2], [2, -1]],  # indefinite, negative diagonal
        [[-1, 1], [1, -1]],  # singular
        [[0, 0], [0, -1]],  # singular, zero pivot swapped away
        [[0, 1], [1, 0]],  # zero diagonal folded
        [[-2, 1, 0], [1, -2, 1], [0, 1, 0]],  # fails only at the last pivot
    ],
)
def test_factor_rejects_matrices_that_are_not_negative_definite(matrix):
    with pytest.raises(NotNegativeDefinite):
        solve_symmetric(matrix, [1] * len(matrix))
    with pytest.raises(NotNegativeDefinite):
        invert_matrix(matrix)


def reference_pivots(a):
    """The symmetric reduction over Q that the library ran before its
    fraction-free elimination, kept as the oracle: it reduces the Fraction
    matrix ``a`` by congruence in place and yields the pivots.  A zero
    diagonal entry is repaired by swapping in a later non-zero one or by
    folding in a row j with a[k][j] != 0; an all-zero row yields 0.  When every
    pivot is negative no repair ran and ``a`` holds L*D*L^T."""
    n = len(a)
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is not None:
                    for i in range(k, n):
                        a[k][i] += a[j][i]
                    for i in range(k, n):
                        a[i][k] += a[i][j]
        pivot = a[k][k]
        yield pivot
        if pivot == 0:
            continue
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            a[i][k] = f
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]


def reference_substitute(factor, rhs):
    """x with L*D*L^T x = rhs: one forward and one back substitution."""
    n = len(factor)
    y = [Fraction(b) for b in rhs]
    for i in range(1, n):
        y[i] -= sum(factor[i][j] * y[j] for j in range(i))
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = y[i] / factor[i][i] - sum(factor[j][i] * x[j] for j in range(i + 1, n))
    return x


def reference_solve(matrix, rhs):
    """The oracle solution, or None when the matrix is not negative definite."""
    a = [[Fraction(x) for x in row] for row in matrix]
    return reference_substitute(a, rhs) if all(p < 0 for p in reference_pivots(a)) else None


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([0, 0, -1, -2]),
)


@st.composite
def symmetric_matrices(draw, entries=ENTRIES):
    """Random symmetric matrices of int and Fraction entries, many with zero
    diagonal entries (so the swap and the fold run), singular or indefinite,
    and some shifted to be negative definite."""
    n = draw(st.integers(1, 6))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(entries)
    if draw(st.booleans()):  # diagonally dominant, so negative definite
        for i in range(n):
            a[i][i] = -sum(abs(x) for x in a[i]) - draw(st.integers(1, 3))
    return a


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices(), st.data())
def test_elimination_matches_the_fraction_reduction(matrix, data):
    pivots = list(reference_pivots([[Fraction(x) for x in row] for row in matrix]))
    expected = (sum(p > 0 for p in pivots), sum(p < 0 for p in pivots), pivots.count(0))
    assert signature(matrix) == expected
    n = len(matrix)
    rhs = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    reference = reference_solve(matrix, rhs)
    assert is_negative_definite(matrix) == (reference is not None)
    if reference is None:
        with pytest.raises(NotNegativeDefinite):
            solve_symmetric(matrix, rhs)
        with pytest.raises(NotNegativeDefinite):
            invert_matrix(matrix)
        return
    assert solve_symmetric(matrix, rhs) == reference
    assert invert_matrix(matrix) == [
        reference_solve(matrix, [int(i == j) for i in range(n)]) for j in range(n)
    ]


@pytest.mark.parametrize(
    "matrix, inertia",
    [
        ([[0, 1], [1, 0]], (1, 1, 0)),  # fold
        ([[0, 0], [0, -1]], (0, 1, 1)),  # swap
        ([[0, 1], [1, -2]], (1, 1, 0)),  # swap; folding row 1 in would leave 0 + 2 - 2
        ([[0, 2, 1], [2, 0, 3], [1, 3, 0]], (1, 2, 0)),  # fold, then a full block
        ([[-1, 1, 0], [1, -1, 0], [0, 0, 0]], (0, 1, 2)),  # zero rows skipped
        ([[0, Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 3)]], (1, 1, 0)),  # scaled by 6
    ],
)
def test_repairs_match_the_fraction_reduction(matrix, inertia):
    pivots = list(reference_pivots([[Fraction(x) for x in row] for row in matrix]))
    assert (sum(p > 0 for p in pivots), sum(p < 0 for p in pivots), pivots.count(0)) == inertia
    assert signature(matrix) == inertia


def test_solve_returns_the_adjugate_over_the_determinant():
    xs, det = zlab.lattice.solve_negative_definite([[-2, 1], [1, -2]], [[1, 0], [0, 1]])
    assert det == 3 and xs == [[-2, -1], [-1, -2]]  # adj, and (-1)^2 * 3 = det
    with pytest.raises(NotNegativeDefinite):
        zlab.lattice.solve_negative_definite([[-1, 1], [1, -1]], [[1, 0]])


def eager_eliminate(a):
    """The Bareiss elimination as the library ran it before its rows were
    scaled lazily, kept as the oracle: every step rewrites every later row,
    also a row that is 0 in the pivot column."""
    n = len(a)
    last = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is not None:
                    for i in range(k, n):
                        a[k][i] += a[j][i]
                    for i in range(k, n):
                        a[i][k] += a[i][j]
        pivot = a[k][k]
        yield pivot if last > 0 else -pivot
        if pivot == 0:
            continue
        tail = a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // last for x, y in zip(row[k + 1:], tail)]
        last = pivot


def eager_solve(matrix, columns):
    """``solve_negative_definite``'s back substitution on the eager rows: (xs, det),
    or None unless every pivot is negative."""
    n = len(matrix)
    a = [list(row) + [col[i] for col in columns] for i, row in enumerate(matrix)]
    if not all(p < 0 for p in eager_eliminate(a)):
        return None
    det = a[-1][n - 1] if n else 1
    xs = [[0] * n for _ in columns]
    for c, x in enumerate(xs, start=n):
        for i in reversed(range(n)):
            row = a[i]
            x[i] = (det * row[c] - sum(row[j] * x[j] for j in range(i + 1, n))) // row[i]
    return xs, det


@st.composite
def int_symmetric_matrices(draw):
    """Symmetric int matrices of size 0-8: diagonal, block-diagonal (so many
    rows are 0 in a pivot column), dense, indefinite or singular, some with
    zero diagonal entries so the swap and the fold run, some shifted to be
    negative definite."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["diagonal", "blocks", "dense", "zero diagonal"]))
    cut = set(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=3)))
    block = [sum(c <= i for c in cut) for i in range(n)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j or kind == "dense" or kind == "zero diagonal" or (
                    kind == "blocks" and block[i] == block[j]):
                a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    if kind == "zero diagonal":
        for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)) if n else ():
            a[i][i] = 0
    elif draw(st.booleans()):  # diagonally dominant, so negative definite
        for i in range(n):
            a[i][i] = -sum(abs(x) for x in a[i]) - draw(st.integers(1, 3))
    return a


@settings(max_examples=600, deadline=None)
@given(int_symmetric_matrices(), st.data())
def test_lazy_rows_match_the_eager_elimination(matrix, data):
    """The same pivots, the same final rows a[i][i:] (right-hand sides
    included) and the same solve as the eager elimination."""
    n = len(matrix)
    columns = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                                 max_size=3))
    lazy, eager = ([list(row) + [col[i] for col in columns] for i, row in enumerate(matrix)]
                   for _ in range(2))
    assert list(zlab.lattice._eliminate(lazy)) == list(eager_eliminate(eager))
    assert [row[i:] for i, row in enumerate(lazy)] == [row[i:] for i, row in enumerate(eager)]
    expected = eager_solve(matrix, columns)
    if expected is None:
        with pytest.raises(NotNegativeDefinite):
            zlab.lattice.solve_negative_definite(matrix, columns)
    else:
        assert zlab.lattice.solve_negative_definite(matrix, columns) == expected


def count_entries(monkeypatch) -> list[int]:
    """Record the size of every matrix that enters ``_eliminate``."""
    entered: list[int] = []
    plain = zlab.lattice._eliminate

    def counting(a):
        entered.append(len(a))
        return plain(a)

    monkeypatch.setattr(zlab.lattice, "_eliminate", counting)
    return entered


BIG = 1 << 64


@pytest.mark.parametrize("diagonal, columns", [
    ([], []),
    ([], [[], []]),
    ([-3], [[2]]),
    ([-3], [[0], [-7], [5]]),
    ([-1, 0, -2], [[1, 1, 1]]),  # a zero entry
    ([0, -1], [[1, 1]]),
    ([-1, 2], [[1, 0]]),  # a positive entry
    ([4], [[1]]),
    ([-2, -3, -5], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [4, -5, 6]]),  # several columns
    ([-4, -6, -1, -9], [[3, -2, 5, 1], [0, 0, 0, 0]]),
    ([-BIG - 3, -2, -(BIG << 5) + 1], [[BIG + 7, -1, 3], [1, BIG, -BIG]]),  # above 2**64
    ([-2, BIG], [[1, 1]]),
])
def test_diagonal_solve_matches_the_eager_elimination(diagonal, columns, monkeypatch):
    """A diagonal matrix is solved without entering the elimination, to the
    (xs, det) the eager elimination gives, and refused with its message."""
    n = len(diagonal)
    matrix = [[g * (i == j) for j in range(n)] for i, g in enumerate(diagonal)]
    expected = eager_solve(matrix, columns)
    entered = count_entries(monkeypatch)
    if expected is None:
        with pytest.raises(NotNegativeDefinite, match="^matrix is not negative definite$"):
            zlab.lattice.solve_negative_definite(matrix, columns)
    else:
        assert zlab.lattice.solve_negative_definite(matrix, columns) == expected
    assert entered == []


def test_an_entry_above_the_diagonal_is_eliminated(monkeypatch):
    """One non-zero entry above the diagonal, however far out, takes the elimination."""
    matrix = [[-3, 0, 0], [0, -2, 0], [0, 0, -5]]
    matrix[0][2] = matrix[2][0] = 1
    expected = eager_solve(matrix, [[1, 2, 3]])
    entered = count_entries(monkeypatch)
    assert zlab.lattice.solve_negative_definite(matrix, [[1, 2, 3]]) == expected
    assert entered == [3]


def test_del_pezzo_decompositions_and_walks_never_eliminate(monkeypatch):
    """Supports of (-1)-curves are pairwise disjoint (two that meet span a
    matrix [[-1, m], [m, -1]], m >= 1, not negative definite), so their
    matrices are diagonal: dp8 decompositions and a dp7 walk eliminate nothing."""
    dp7, dp8 = dp_model(7), dp_model(8)
    rng = random.Random(0)
    classes = [random_big_class(dp8, rng) for _ in range(40)]
    bundle = dp7.lattice.divisor([9, -3, -3, -2, -2, -1, -1, -1])
    entered = count_entries(monkeypatch)
    supports = [len(zariski_decompose(dp8, d).support) for d in classes]
    walk = destabilizing_numbers(dp7, bundle, dp7.ample)
    assert entered == [] and max(supports) >= 3 and len(walk.segments) == 3


# -- the ADE rule: (-2)-curve configurations ------------------------------------


def minus_two_graph(size, edges):
    """The intersection matrix of a configuration of (-2)-curves with the
    given graph: -2 on the diagonal and 1 for every edge (an edge listed
    twice, as in the affine A_1, meets twice)."""
    a = [[-2 * (i == j) for j in range(size)] for i in range(size)]
    for i, j in edges:
        a[i][j] += 1
        a[j][i] += 1
    return a


def chain(n, start=0):
    return [(i, i + 1) for i in range(start, start + n - 1)]


def star(*arms):
    """A center 0 with arms of the given lengths (T_{p,q,r} has arms p-1, q-1, r-1)."""
    edges, size = [], 1
    for length in arms:
        edges += [(0, size)] + chain(length, size)
        size += length
    return size, edges


DYNKIN = {  # name: (graph, |det| of the Cartan matrix)
    **{f"A{n}": ((n, chain(n)), n + 1) for n in range(1, 9)},
    **{f"D{n}": (star(1, 1, n - 3), 4) for n in range(4, 9)},
    "E6": (star(1, 2, 2), 3),
    "E7": (star(1, 2, 3), 2),
    "E8": (star(1, 2, 4), 1),
}
AFFINE = {
    "A~1": (2, [(0, 1), (0, 1)]),
    **{f"A~{n}": (n + 1, chain(n + 1) + [(n, 0)]) for n in range(2, 8)},
    "D~4": star(1, 1, 1, 1),
    **{f"D~{n}": (n + 1, chain(n - 1) + [(1, n - 1), (n - 3, n)]) for n in range(5, 8)},
    "E~6": star(2, 2, 2),
    "E~7": star(1, 3, 3),
    "E~8": star(1, 2, 5),
}


@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_dynkin_chains_are_negative_definite(name):
    (size, edges), det = DYNKIN[name]
    gram = minus_two_graph(size, edges)
    assert is_negative_definite(gram) and signature(gram) == (0, size, 0)
    _, bareiss_det = zlab.lattice.solve_negative_definite(gram, [])
    assert bareiss_det == (-1) ** size * det
    assert inverse_is_nonpositive(gram)


@pytest.mark.parametrize("name", sorted(AFFINE))
def test_affine_diagrams_are_not_negative_definite(name):
    """Each affine diagram is negative semi-definite with a one-dimensional
    kernel (the imaginary root), so it supports no negative part."""
    size, edges = AFFINE[name]
    gram = minus_two_graph(size, edges)
    assert not is_negative_definite(gram)
    assert signature(gram) == (0, size - 1, 1)
    with pytest.raises(NotNegativeDefinite):
        solve_symmetric(gram, [-1] * size)


class FractionClass:
    """Reference divisor class on a tuple of Fractions, the representation
    DivisorClass stored before it moved to one integer pair (v, d); its
    pairing sums the Gram entries directly."""

    def __init__(self, lattice, coords):
        self.lattice, self.coords = lattice, tuple(Fraction(c) for c in coords)

    def __add__(self, other):
        return FractionClass(self.lattice, [x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return FractionClass(self.lattice, [x - y for x, y in zip(self.coords, other.coords)])

    def __neg__(self):
        return FractionClass(self.lattice, [-x for x in self.coords])

    def scaled(self, scalar):
        return FractionClass(self.lattice, [scalar * x for x in self.coords])

    def dot(self, other):
        gram = self.lattice.gram
        return sum(x * gram[i][j] * y for i, x in enumerate(self.coords)
                   for j, y in enumerate(other.coords))

    def format(self):
        parts = []
        for coeff, label in zip(self.coords, self.lattice.basis_labels):
            if coeff:
                mag = abs(coeff)
                body = label if mag == 1 else (
                    f"{mag}{label}" if mag.denominator == 1 else f"({mag}){label}")
                parts.append(("-" if coeff < 0 else "+" if parts else "") + body)
        return "".join(parts) or "0"

    def __repr__(self):
        return f"DivisorClass(lattice={self.lattice!r}, coords={self.coords!r})"


def _same_class(ours, reference):
    """ours is the class the reference describes: canonical (v, d), the same
    coordinates, pairing, text and zero test."""
    v, d = ours.cleared
    assert d > 0 and math.gcd(*v, d) == 1 and type(v) is tuple
    assert ours.coords == reference.coords and all(type(x) is Fraction for x in ours.coords)
    assert ours.coords == tuple(Fraction(x, d) for x in v)
    assert ours.square == reference.dot(reference)
    assert ours.is_zero == (not any(reference.coords))
    assert ours.format() == str(ours) == reference.format()
    assert repr(ours) == repr(reference)
    twin = ours.lattice.divisor(reference.coords)
    assert twin == ours and hash(twin) == hash(ours) and twin.cleared == ours.cleared


DIFFERENTIAL_LATTICES = [
    dp_model(2).lattice,
    dp_model(4).lattice,
    IntersectionLattice([[2, 1, 0], [1, -2, 1], [0, 1, -2]], ["H", "A", "B"]),
]
mixed_coords = st.one_of(st.integers(-12, 12), rationals, big_rationals)
scalars = st.one_of(st.integers(-5, 5), rationals, st.just(0), st.just(Fraction(0)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_LATTICES), st.data(), scalars)
def test_divisor_class_matches_the_fraction_tuple_reference(lattice, data, scalar):
    """Integer (v, d) arithmetic against the Fraction-tuple reference: building
    from mixed ints and Fractions, +, -, negation, scalar products (zero and
    negative scalars among them), pairing, equality and its hash, and text."""
    coords = st.lists(mixed_coords, min_size=lattice.rank, max_size=lattice.rank)
    a, b = data.draw(coords), data.draw(coords)
    x, X = lattice.divisor(a), FractionClass(lattice, a)
    y, Y = lattice.divisor(b), FractionClass(lattice, b)
    for ours, reference in [
        (x, X), (y, Y), (x + y, X + Y), (x - y, X - Y), (y - x, Y - X), (-x, -X),
        (scalar * x, X.scaled(scalar)), (x * scalar, X.scaled(scalar)), (x - x, X - X),
    ]:
        _same_class(ours, reference)
    assert x.dot(y) == y.dot(x) == X.dot(Y)
    assert (x == y) == (X.coords == Y.coords) and (x != y) == (X.coords != Y.coords)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert x + y == y + x and hash(x + y) == hash(y + x)
    if scalar:
        assert (x * scalar) * (1 / Fraction(scalar)) == x
