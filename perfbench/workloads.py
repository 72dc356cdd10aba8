"""Seeded op lists for the four workloads, and the check behind each op.

An op is one public zlab call (or one CLI process).  Every list is a number
of identical-shaped blocks (plus, on dp8-queries, a part every list holds
once); a block fixes how many ops of each kind and each input stratum it
holds, so the cost of a run does not swing with the seed.
Checks run after the timed loop and use only ``exact`` (benchmark-owned
arithmetic) or a second public entry point, never the function under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import exact

# Nominal seconds per block, and of the part every list holds once, on a 2-vCPU
# Intel Xeon VM (Python 3.11.7) at the commit that introduced the benchmark; a
# list holds round((seconds - FIXED_SECONDS) / BLOCK_SECONDS) blocks, so it does
# not depend on timing.
BLOCK_SECONDS = {"dp8-queries": 2.4, "dp-combinatorics": 4.0, "threefold-eps": 4.5, "cli-mix": 4.0}
FIXED_SECONDS = {"dp8-queries": 14.0}

DP8_REGULAR, DP8_MID, DP8_CAP = 40, 64, 200
DP8_CLASSES_PER_BLOCK = 15


class Mismatch(Exception):
    """An op's output failed its check."""


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str]  # outcome (result or exception) -> canonical text


def n_blocks(workload: str, seconds: float) -> int:
    return max(1, round((seconds - FIXED_SECONDS.get(workload, 0.0)) / BLOCK_SECONDS[workload]))


def _frac(x) -> str:
    return str(Fraction(x))


def _coords(c) -> str:
    return ",".join(_frac(x) for x in c)


def _qi(v) -> str:
    return f"{_frac(v.a)}|{_frac(v.b)}|{v.m}"


def _error_name(outcome) -> str:
    return type(outcome).__name__


def _expect_error(outcome, *names) -> str:
    if not isinstance(outcome, BaseException) or _error_name(outcome) not in names:
        raise Mismatch(f"expected {'/'.join(names)}, got {outcome!r}")
    return _error_name(outcome)


def _expect_value(outcome):
    if isinstance(outcome, BaseException):
        raise Mismatch(f"unexpected {_error_name(outcome)}: {outcome}")
    return outcome


def roadmap_class(rng: random.Random, r: int) -> tuple:
    """The ROADMAP's random dp_r class: randint(1,30), then Fraction(randint(-6,8), randint(1,4))."""
    return (rng.randint(1, 30),) + tuple(Fraction(rng.randint(-6, 8), rng.randint(1, 4)) for _ in range(r))


# ---------------------------------------------------------------------------
# decomposition checks shared by dp8-queries and the walks
# ---------------------------------------------------------------------------


class Decomposition:
    """A zariski_decompose outcome verified against the benchmark's own pairings."""

    def __init__(self, outcome, coords, curves, ample, label_of):
        self.error = None
        if isinstance(outcome, BaseException):
            self.error = _expect_error(outcome, "NotPseudoEffective", "NotNegativeDefinite")
            confirmed = exact.augmentation_failure(coords, curves, ample)
            if confirmed != self.error:
                raise Mismatch(f"zariski_decompose raised {self.error}; the exact iteration ends in {confirmed}")
            self.big = False
            return
        p = tuple(outcome.positive.coords)
        n = [Fraction(0)] * len(p)
        support = []
        for curve, coeff in outcome.coefficients:
            c = tuple(curve.cls.coords)
            if c not in label_of or label_of[c] != curve.label or coeff <= 0:
                raise Mismatch(f"bad support entry {curve.label}: {coeff}")
            support.append(c)
            n = [x + coeff * y for x, y in zip(n, c)]
        if any(x + y != z for x, y, z in zip(p, n, coords)):
            raise Mismatch("P + N != D")
        pairings = {c: exact.dp_dot(p, c) for c in curves}
        if any(v < 0 for v in pairings.values()) or exact.dp_dot(p, ample) < 0:
            raise Mismatch("positive part is not nef")
        if any(pairings[c] != 0 for c in support):
            raise Mismatch("positive part is not orthogonal to the support")
        if support and not exact.is_negative_definite([[exact.dp_dot(a, b) for b in support] for a in support]):
            raise Mismatch("support is not negative definite")
        self.positive = p
        self.square = exact.dp_dot(p, p)
        if self.square < 0:
            raise Mismatch("nef class with negative square")
        self.big = self.square > 0
        self.support = sorted(label_of[c] for c in support)
        self.null = sorted(label_of[c] for c, v in pairings.items() if v == 0)
        self.text = f"P={_coords(p)} N=" + ";".join(
            f"{curve.label}:{_frac(coeff)}" for curve, coeff in outcome.coefficients
        )

    def canonical(self) -> str:
        return self.error or self.text


class DelPezzo:
    """Benchmark-side view of del_pezzo(r): curves, ample class, zlab labels."""

    def __init__(self, model, r):
        self.model, self.r = model, r
        self.curves = exact.dp_exceptional(r)
        self.ample = exact.dp_anticanonical(r)
        self.label_of = {tuple(c.cls.coords): c.label for c in model.curves}
        if set(self.label_of) != set(self.curves):
            raise Mismatch(f"del_pezzo({r}) curve list differs from the exceptional classes")

    def decomposition(self, outcome, coords) -> Decomposition:
        return Decomposition(outcome, coords, self.curves, self.ample, self.label_of)


def _walk_check(Z, dp: DelPezzo, bundle, ample):
    """Walk outcome check: each segment's support is the support of a point inside it."""

    def check(outcome) -> str:
        lat = dp.model.lattice
        if isinstance(outcome, BaseException):
            name = _expect_error(outcome, "NotBig")
            try:
                dec = dp.decomposition(Z.zariski_decompose(dp.model, lat.divisor(bundle)), bundle)
            except Z.ZlabError as exc:
                dec = dp.decomposition(exc, bundle)
            if dec.big:
                raise Mismatch("walk refused a big bundle")
            return name
        parts = []
        for seg in outcome.segments:
            start, end = Fraction(seg.lambda_start), seg.lambda_end
            t = (start + (end if isinstance(end, Fraction) else Fraction(float(end)))) / 2
            if not (start < t and t < end):
                raise Mismatch(f"no rational point found inside segment {start}..{end}")
            point = tuple(x - t * y for x, y in zip(bundle, ample))
            try:
                dec = dp.decomposition(Z.zariski_decompose(dp.model, lat.divisor(point)), point)
            except Z.ZlabError as exc:
                dec = dp.decomposition(exc, point)
            if not dec.big or dec.support != list(seg.support.support):
                raise Mismatch(f"segment support {seg.support} differs at t={t}")
            parts.append(f"{_frac(start)}:{list(seg.support.support)}")
        return "walk " + " ".join(parts) + f" end={_qi(outcome.bigness_threshold)}"

    return check


# ---------------------------------------------------------------------------
# dp8-queries
# ---------------------------------------------------------------------------


def setup_dp8(Z, seed, blocks):
    return {8: Z.del_pezzo(8), 7: Z.del_pezzo(7)}


def ops_dp8(Z, models, seed, blocks, oversized=True):
    """One class at the 200-curve cap and one in [40, 64) per list (unless not
    ``oversized``), and 15 classes with predicted support < 40 per block; each
    gets zariski_decompose, vol and chamber_of or stable_base_locus.  A dp7
    walk follows every fifth class."""
    dp8, dp7 = DelPezzo(models[8], 8), DelPezzo(models[7], 7)
    rng = random.Random(seed)
    regular: list = []
    mid, capped = ([], []) if oversized else ([None], [None])
    while len(regular) < DP8_CLASSES_PER_BLOCK * blocks or not mid or not capped:
        coords = roadmap_class(rng, 8)
        size = exact.predicted_support_size(coords, dp8.curves, dp8.ample, DP8_CAP)
        # a class predicted at DP8_MID..DP8_CAP-1 curves fits no stratum and is redrawn (NOTES.md)
        for bucket, fits, quota in (
            (regular, size < DP8_REGULAR, DP8_CLASSES_PER_BLOCK * blocks),
            (mid, DP8_REGULAR <= size < DP8_MID, 1),
            (capped, size >= DP8_CAP, 1),
        ):
            if fits and len(bucket) < quota:
                bucket.append(coords)
    classes = [c for c in regular + mid + capped if c is not None]
    rng.shuffle(classes)
    ops: list[Op] = []
    for i, coords in enumerate(classes):
        ops.extend(_dp8_class_ops(Z, dp8, coords, i % 2 == 0))
        if i % 5 == 4:
            bundle = roadmap_class(rng, 7)
            direction = (3 + rng.randint(0, 2),) + (-1,) * 7
            ops.append(_walk_op(Z, dp7, bundle, direction))
    return ops


def _dp8_class_ops(Z, dp: DelPezzo, coords, chamber_query: bool):
    model = dp.model
    divisor = model.lattice.divisor(coords)
    shared: dict = {}

    def check_zariski(outcome):
        shared["dec"] = dp.decomposition(outcome, coords)
        return "zariski " + shared["dec"].canonical()

    def checked_decomposition() -> Decomposition:
        if "dec" not in shared:
            raise Mismatch("the class's zariski_decompose failed its check")
        return shared["dec"]

    def check_vol(outcome):
        value = _expect_value(outcome)
        dec = checked_decomposition()
        expected = dec.square if dec.big else Fraction(0)
        if value != expected:
            raise Mismatch(f"vol {value} != max(P^2, 0) = {expected}")
        return f"vol {_frac(value)}"

    def check_chamber(outcome):
        dec = checked_decomposition()
        if not dec.big:
            return "chamber " + _expect_error(outcome, "NotBig")
        support = list(_expect_value(outcome).support)
        if support != dec.support:
            raise Mismatch(f"chamber_of {support} != support {dec.support}")
        return f"chamber {support}"

    def check_locus(outcome):
        dec = checked_decomposition()
        if not dec.big:
            return "locus " + _expect_error(outcome, "NotBig")
        if dec.support != dec.null:
            return "locus " + _expect_error(outcome, "InstableDivisor")
        locus = sorted(_expect_value(outcome))
        if locus != dec.support:
            raise Mismatch(f"stable base locus {locus} != support {dec.support}")
        return f"locus {locus}"

    ops = [
        Op("zariski", lambda: Z.zariski_decompose(model, divisor), check_zariski),
        Op("vol", lambda: Z.vol(model, divisor), check_vol),
    ]
    if chamber_query:
        ops.append(Op("chamber_of", lambda: Z.chamber_of(model, divisor), check_chamber))
    else:
        ops.append(Op("stable_base_locus", lambda: Z.stable_base_locus(model, divisor), check_locus))
    return ops


def _walk_op(Z, dp: DelPezzo, bundle, direction):
    lat = dp.model.lattice
    L, A = lat.divisor(bundle), lat.divisor(direction)
    return Op("walk", lambda: Z.destabilizing_numbers(dp.model, L, A), _walk_check(Z, dp, bundle, direction))


# ---------------------------------------------------------------------------
# dp-combinatorics
# ---------------------------------------------------------------------------


CHAMBER_COUNTS = {4: 76, 5: 393}
# dp5 twice per block: the tail percentile of a run then falls inside the
# cluster of dp5 enumerations, not at its edge (NOTES.md)
ENUMERATED = (4, 5, 5)


def setup_combinatorics(Z, seed, blocks):
    models = {r: Z.del_pezzo(r) for r in range(3, 8)}
    rng = random.Random(seed)
    permuted = []
    for _ in range(blocks):
        for r in ENUMERATED:
            base = models[r]
            curves = list(base.curves)
            rng.shuffle(curves)
            permuted.append(Z.SurfaceModel(base.lattice, base.ample, tuple(curves), base.canonical))
    models["permuted"] = permuted
    return models


def _random_chamber(rng, dp: DelPezzo, size: int):
    """A seeded chamber support of up to ``size`` curves, grown curve by curve
    while it stays a chamber."""
    order = list(dp.curves)
    rng.shuffle(order)
    support: list = []
    for c in order:
        if len(support) == size:
            break
        if exact.nef_with_null(dp.curves, dp.ample, support + [c]) is not None:
            support.append(c)
    return support


def ops_combinatorics(Z, models, seed, blocks):
    """Per block: enumerate_chambers on permuted dp4 and twice dp5, weyl_group_order
    for r = 3..6, six volume_polynomial calls on seeded chambers of dp4-dp6 and
    six weyl_orbit calls on dp4-dp7 from families with known orbits."""
    rng = random.Random(seed ^ 0x5EED)
    dps = {r: DelPezzo(models[r], r) for r in range(3, 8)}
    permuted = iter(models["permuted"])
    reference: dict = {}
    ops: list[Op] = []
    for b in range(blocks):
        for r in ENUMERATED:
            model = next(permuted)
            ops.append(Op(f"enumerate_chambers_dp{r}", lambda m=model: Z.enumerate_chambers(m),
                          _chambers_check(dps[r], reference)))
        for r in (3, 4, 5, 6):
            ops.append(Op(f"weyl_group_order_dp{r}", lambda m=models[r]: Z.weyl_group_order(m),
                          _order_check(r)))
        # surfaces and chamber sizes cycle with the block, so every seed gets the same mix
        for k in range(6):
            dp = dps[4 + (b + k) % 3]
            support = _random_chamber(rng, dp, (b + k) % dp.r)
            ops.append(_volpoly_op(Z, dp, support, [rng.randint(1, 5) for _ in support]))
        for k, family in enumerate(("exceptional", "root", "shifted") * 2):
            ops.append(_orbit_op(Z, dps[4 + (b + k) % 4], family, rng))
    return ops


def _chambers_check(dp: DelPezzo, reference: dict):
    def check(outcome):
        chambers = _expect_value(outcome)
        supports = sorted(tuple(c.support) for c in chambers)
        if len(supports) != CHAMBER_COUNTS[dp.r]:
            raise Mismatch(f"dp{dp.r} has {len(supports)} chambers, expected {CHAMBER_COUNTS[dp.r]}")
        if dp.r not in reference:
            coords_of = {label: c for c, label in dp.label_of.items()}
            for support in supports:
                if exact.nef_with_null(dp.curves, dp.ample, [coords_of[s] for s in support]) is None:
                    raise Mismatch(f"{support} is not a chamber")
            reference[dp.r] = supports
        elif supports != reference[dp.r]:
            raise Mismatch("chamber set depends on the curve order")
        return f"chambers dp{dp.r} {len(supports)}"

    return check


def _order_check(r):
    def check(outcome):
        order = _expect_value(outcome)
        if order != exact.WEYL_ORDERS[r]:
            raise Mismatch(f"|W| for r={r} is {order}, expected {exact.WEYL_ORDERS[r]}")
        return f"order dp{r} {order}"

    return check


def _volpoly_op(Z, dp: DelPezzo, support, weights):
    labels = [dp.label_of[c] for c in support]
    nef = exact.nef_with_null(dp.curves, dp.ample, support)
    point = list(nef)
    for w, c in zip(weights, support):
        point = [x + w * y for x, y in zip(point, c)]
    square = exact.dp_dot(nef, nef)

    def check(outcome):
        poly = _expect_value(outcome)
        value = poly.evaluate(dp.model.lattice.divisor(point))
        volume = Z.vol(dp.model, dp.model.lattice.divisor(point))
        if value != square or volume != square:
            raise Mismatch(f"volume form gives {value}, vol gives {volume}, expected {square}")
        return f"volpoly dp{dp.r} {labels} " + ";".join(_coords(row) for row in poly.matrix)

    return Op(f"volume_polynomial_dp{dp.r}", lambda: Z.volume_polynomial(dp.model, labels), check)


def _orbit_op(Z, dp: DelPezzo, family, rng):
    r = dp.r
    curves = dp.curves
    anti = dp.ample
    if family == "exceptional":
        start = rng.choice(curves)
        expected = set(curves)
    elif family == "shifted":
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        start_e = rng.choice(curves)
        shift = lambda e: tuple(a * x + b * y for x, y in zip(anti, e))
        start = shift(start_e)
        expected = {shift(e) for e in curves}
    else:
        i, j = sorted(rng.sample(range(1, r + 1), 2))
        start = tuple(1 if k == j else (-1 if k == i else 0) for k in range(r + 1))
        expected = None

    def check(outcome):
        orbit = {tuple(d.coords) for d in _expect_value(outcome)}
        if expected is not None and orbit != expected:
            raise Mismatch(f"orbit of {start} has {len(orbit)} classes, expected {len(expected)}")
        if expected is None:
            if len(orbit) != exact.root_count(r) or any(
                exact.dp_dot(x, x) != -2 or exact.dp_dot(x, anti) != 0 for x in orbit
            ):
                raise Mismatch(f"root orbit on dp{r} is not the root system")
        return f"orbit dp{r} {_coords(start)} {len(orbit)}"

    divisor = dp.model.lattice.divisor(start)
    return Op(f"weyl_orbit_dp{r}", lambda: Z.weyl_orbit(dp.model, divisor), check)


# ---------------------------------------------------------------------------
# threefold-eps
# ---------------------------------------------------------------------------

# strata of log10(exact.sqrt_work(eps)): 8 per decade over [1, 5.25)
EPS_STRATA_PER_DECADE, EPS_LOG_WORK = 8, (1.0, 5.25)


def setup_threefold(Z, seed, blocks):
    return {"abelian": Z.abelian_surface_model()}


def _abelian_dot(x, y):
    return x[0] * (y[1] + y[2]) + x[1] * (y[0] + y[2]) + x[2] * (y[0] + y[1])


def ops_threefold(Z, models, seed, blocks):
    """Per block: one eps = p/q for each of 34 strata of predicted square-root
    work, drawn with q log-uniform in [1, 10^4) and p uniform with p/q < 3/2;
    each gets volume_L_eps, volume_closed_form, sigma_eps and
    h0_section_count(k <= 4).  Four ray walks on abelian_surface_model() ride
    along."""
    rng = random.Random(seed ^ 0x3F0D)
    model = models["abelian"]
    ops: list[Op] = []
    low, high = EPS_LOG_WORK
    n_strata = round((high - low) * EPS_STRATA_PER_DECADE)
    for b in range(blocks):
        chosen: list = [None] * n_strata
        while None in chosen:
            q = int(10 ** (4 * rng.random()))
            eps = Fraction(rng.randrange(0, (3 * q + 1) // 2), q)
            s = math.floor((math.log10(exact.sqrt_work(eps)) - low) * EPS_STRATA_PER_DECADE)
            if 0 <= s < n_strata and chosen[s] is None:
                chosen[s] = eps
        for s, eps in enumerate(chosen):
            ops.extend(_eps_ops(Z, eps, 1 + (s + b) % 4))  # k cycles with the block
        for _ in range(4):
            bundle = tuple(rng.randint(1, 6) for _ in range(3))
            direction = tuple(rng.randint(1, 4) for _ in range(3))
            ops.append(_abelian_walk_op(Z, model, bundle, direction))
    return ops


def _eps_ops(Z, eps, k):
    shared: dict = {}

    def check_volume(outcome):
        shared["volume"] = _expect_value(outcome)
        return f"vol_L {_frac(eps)} {_qi(shared['volume'])}"

    def check_closed(outcome):
        value = _expect_value(outcome)
        if value != shared["volume"]:
            raise Mismatch(f"volume_closed_form({eps}) != volume_L_eps")
        return f"closed {_frac(eps)} {_qi(value)}"

    def check_sigma(outcome):
        sigma = _expect_value(outcome)
        denom = 18 - 12 * eps
        radicand = 45 + 78 * eps + 49 * eps * eps
        # sqrt(radicand) = u + v sqrt(m) must be non-negative with square radicand
        u, v, m = 9 + 5 * eps - sigma.a * denom, -sigma.b * denom, sigma.m
        if v != 0 and m != 0 and u != 0 or u < 0 or v < 0 or u * u + v * v * m != radicand:
            raise Mismatch(f"sigma_eps({eps}) is not the smaller root")
        shared["sigma"] = sigma
        return f"sigma {_frac(eps)} {_qi(sigma)}"

    def check_h0(outcome):
        value = _expect_value(outcome)
        sigma = shared["sigma"]
        d, h, f1 = (1, 1, 0), (0, 3, 3), (1, 0, 0)
        total = Fraction(0)
        for i in range(1, k + 1):
            j = k - i
            if _exceeds(sigma, Fraction(j, i)):
                cls = tuple(i * a - j * b + k * eps * c for a, b, c in zip(d, h, f1))
                total += Fraction(_abelian_dot(cls, cls), 2)
        if value != total:
            raise Mismatch(f"h0_section_count({k}, {eps}) = {value}, expected {total}")
        return f"h0 {k} {_frac(eps)} {_frac(value)}"

    return [
        Op("volume_L_eps", lambda: Z.volume_L_eps(eps), check_volume),
        Op("volume_closed_form", lambda: Z.volume_closed_form(eps), check_closed),
        Op("sigma_eps", lambda: Z.sigma_eps(eps), check_sigma),
        Op("h0_section_count", lambda: Z.h0_section_count(k, eps), check_h0),
    ]


def _exceeds(value, x: Fraction) -> bool:
    """value > x for value = a + b sqrt(m), decided in rationals."""
    u, v, m = value.a - x, value.b, value.m
    if v == 0 or m == 0:
        return u > 0
    if u >= 0 and v > 0:
        return True
    if u <= 0 and v < 0:
        return False
    return u * u > v * v * m if u > 0 else v * v * m > u * u


def _abelian_walk_op(Z, model, bundle, direction):
    lat = model.lattice
    L, A = lat.divisor(bundle), lat.divisor(direction)
    l2, la, a2 = _abelian_dot(bundle, bundle), _abelian_dot(bundle, direction), _abelian_dot(direction, direction)

    def check(outcome):
        walk = _expect_value(outcome)
        t = walk.bigness_threshold
        if len(walk.segments) != 1 or walk.breakpoints or walk.segments[0].support.support:
            raise Mismatch("a walk without curves has one segment and no breakpoints")
        # t = a + b sqrt(m) must be the smaller root of a2 t^2 - 2 la t + l2
        a, b, m = t.a, t.b, t.m
        if b != 0 and m != 0:
            ok = a2 * a == la and a2 * (a * a + b * b * m) - 2 * la * a + l2 == 0 and b < 0
        else:
            ok = a2 * a * a - 2 * la * a + l2 == 0 and a2 * a <= la
        if not ok:
            raise Mismatch(f"threshold {t} is not the smaller root")
        return f"abelian walk {_coords(bundle)} {_coords(direction)} {_qi(t)}"

    return Op("walk_abelian", lambda: Z.destabilizing_numbers(model, L, A), check)


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

GOLDEN = [
    ("zariski_dp2.json", ["zariski", "--delpezzo", "2", "--class", "2,1,0"]),
    ("volume_dp2.json", ["volume", "--delpezzo", "2", "--class", "3,-1,-1"]),
    ("volpoly_line_dp2.json", ["volpoly", "--delpezzo", "2", "--support", "L-E1-E2"]),
    ("chambers_dp2.json", ["chambers-enum", "--delpezzo", "2"]),
    ("walk_dp2.json", ["walk", "--delpezzo", "2", "--bundle", "6,-2,-1", "--ample", "3,-1,-1"]),
    ("cutkosky_vol_eps0.json", ["cutkosky-vol", "--eps", "0"]),
    ("surface_dp2.json", ["delpezzo", "--r", "2"]),
]


def surface_json(r: int) -> str:
    """The dp_r surface description, built from the benchmark's own curve list."""
    curves = exact.dp_exceptional(r)
    return json.dumps({
        "basis": ["L"] + [f"E{i}" for i in range(1, r + 1)],
        "gram": [[1 if i == j == 0 else (-1 if i == j else 0) for j in range(r + 1)] for i in range(r + 1)],
        "ample": [str(x) for x in exact.dp_anticanonical(r)],
        "curves": [{"label": f"C{n}", "class": [str(x) for x in c]} for n, c in enumerate(curves)],
        "canonical": [str(-x) for x in exact.dp_anticanonical(r)],
    })


def setup_cli(Z, seed, blocks):
    import zlab.cli

    return {"surface": zlab.cli.parse_surface(surface_json(4))}


def _arg(coords) -> str:
    return ",".join(str(x) for x in coords)


def cli_argvs(seed, blocks, surface_path):
    """Per block: one dp8 process (count-curves and a decomposition in
    alternate blocks) and nine light ones on dp2-dp7, a surface file and the
    threefold; one of them re-runs a golden command."""
    rng = random.Random(seed ^ 0xC11)
    curves8, ample8 = exact.dp_exceptional(8), exact.dp_anticanonical(8)
    argvs: list[tuple[str | None, list[str]]] = []
    for b in range(blocks):
        if b % 2 == 0:
            heavy = ["delpezzo", "--r", "8", "--count-curves"]
        else:
            while True:
                c8 = roadmap_class(rng, 8)
                if exact.predicted_support_size(c8, curves8, ample8, DP8_CAP) < DP8_REGULAR:
                    break
            heavy = ["zariski", "--delpezzo", "8", "--class", _arg(c8)]
        golden_name, golden_argv = GOLDEN[rng.randrange(len(GOLDEN))]
        q = rng.randint(1, 1000)
        block = [
            (None, heavy),
            (None, ["zariski", "--delpezzo", "7", "--class", _arg(roadmap_class(rng, 7))]),
            (None, ["volume", "--delpezzo", "7", "--class", _arg(roadmap_class(rng, 7))]),
            (None, ["walk", "--delpezzo", "7", "--bundle", _arg(roadmap_class(rng, 7)),
                    "--ample", _arg((3 + rng.randint(0, 2),) + (-1,) * 7)]),
            (None, ["chambers-enum", "--delpezzo", "4"]),
            (None, ["cutkosky-vol", "--eps", f"{rng.randrange(0, (3 * q + 1) // 2)}/{q}"]),
            (None, ["zariski", "--surface", str(surface_path), "--class", _arg(roadmap_class(rng, 4))]),
            (None, ["chamber", "--delpezzo", "6", "--class", _arg(roadmap_class(rng, 6))]),
            (None, ["weyl-order", "--delpezzo", str(rng.randint(3, 5))]),
            (golden_name, golden_argv),
        ]
        rng.shuffle(block)
        argvs.extend(block)
    return argvs


def run_cli_process(root: Path, argv, budget: float, shim_trace: Path | None = None):
    """One CLI process, killed after ``budget`` seconds; returns (exit code, stdout bytes)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if shim_trace is None:
        cmd = [sys.executable, "-m", "zlab.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")), str(shim_trace), *argv]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=root, timeout=budget)
    return done.returncode, done.stdout


class InProcessCli:
    """Runs zlab.cli.main in this process with del Pezzo models built once."""

    def __init__(self):
        import zlab.cli

        self.cli = zlab.cli
        cache: dict = {}
        original = zlab.cli.del_pezzo

        def cached(r):
            if r not in cache:
                cache[r] = original(r)
            return cache[r]

        zlab.cli.del_pezzo = cached

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return code, out.getvalue().encode()


def cli_check(root: Path, reference: "InProcessCli", golden_name, argv):
    def check(outcome):
        code, out = _expect_value(outcome)
        ref_code, ref_out = reference.run(argv)
        if (code, out) != (ref_code, ref_out):
            raise Mismatch(f"CLI output of {argv} differs from the in-process result")
        if golden_name is not None:
            golden = json.loads((root / "tests" / "golden" / golden_name).read_text())
            if code != 0 or json.loads(out) != golden:
                raise Mismatch(f"CLI output of {argv} differs from tests/golden/{golden_name}")
        if argv[:2] == ["delpezzo", "--r"] and "--count-curves" in argv and out.strip() != str(
            exact.exceptional_count(int(argv[2]))
        ).encode():
            raise Mismatch("wrong curve count")
        shown = " ".join(Path(a).name if a.endswith(".json") else a for a in argv)  # no checkout path
        return f"cli {shown} -> {code} {out.decode().strip()}"

    return check


SETUP = {
    "dp8-queries": setup_dp8,
    "dp-combinatorics": setup_combinatorics,
    "threefold-eps": setup_threefold,
    "cli-mix": setup_cli,
}
