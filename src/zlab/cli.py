"""Command-line front end: JSON surface descriptions in, JSON/CSV results out.

Rationals serialize as strings like "3/2" (never floats), quadratic
irrationals as {"a": ..., "b": ..., "m": ...} with a float "approx" attached
for convenience.  Exit codes: 0 success, 1 usage error, 2 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import cutkosky, raywalk, weyl
from .chambers import enumerate_chambers
from .errors import SchemaError, ZlabError
from .lattice import DivisorClass, IntersectionLattice, QuadraticIrrational
from .surface import NegativeCurve, SurfaceModel, del_pezzo
from .volume import vol, volume_polynomial
from .zariski import ChamberDescriptor, chamber_of, zariski_decompose


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fraction_str(value: Fraction) -> str:
    return str(Fraction(value))


def _parse_fraction(text: str) -> Fraction:
    text = str(text)
    if "e" in text.lower():  # "1e3000000" takes seconds to build, then cannot print
        raise SchemaError(f"not a rational number (no exponents): {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational number: {text!r}") from exc


def _parse_coords(text: str, lattice: IntersectionLattice) -> DivisorClass:
    parts = text.split(",")
    if "" in parts:
        raise SchemaError(f"empty coordinate in {text!r}")
    if len(parts) != lattice.rank:
        raise SchemaError(
            f"expected {lattice.rank} comma-separated coordinates, got {len(parts)}"
        )
    return lattice.divisor([_parse_fraction(p) for p in parts])


def _qi_json(value: QuadraticIrrational) -> dict[str, Any]:
    return {
        "a": _fraction_str(value.a),
        "b": _fraction_str(value.b),
        "m": value.m,
        "approx": float(value),
    }


def _coords_json(divisor: DivisorClass) -> list[str]:
    return [_fraction_str(c) for c in divisor.coords]


def parse_surface(text: str) -> SurfaceModel:
    """Validate and build a surface model from its JSON description.

    Schema: {"basis": [str], "gram": [[int]], "ample": [rational strings],
    "curves": [{"label": str, "class": [rational strings]}],
    "canonical": optional [rational strings]}.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("surface description must be a JSON object")
    for key in ("basis", "gram", "ample", "curves"):
        if key not in raw:
            raise SchemaError(f"missing key {key!r}")
    basis = raw["basis"]
    gram = raw["gram"]
    if not isinstance(basis, list) or not all(isinstance(s, str) for s in basis):
        raise SchemaError("basis must be a list of strings")
    if not isinstance(gram, list) or not all(isinstance(row, list) for row in gram):
        raise SchemaError("gram must be a list of integer rows")
    if len(gram) != len(basis) or any(len(row) != len(basis) for row in gram):
        raise SchemaError("gram must be square with one row per basis label")
    for row in gram:
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise SchemaError("gram entries must be integers")
    try:
        lattice = IntersectionLattice(gram, basis)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    def class_from(values: Any, what: str) -> DivisorClass:
        if not isinstance(values, list) or len(values) != lattice.rank:
            raise SchemaError(f"{what} must be a list of {lattice.rank} rationals")
        return lattice.divisor([_parse_fraction(v) for v in values])

    ample = class_from(raw["ample"], "ample")
    canonical = (
        class_from(raw["canonical"], "canonical") if "canonical" in raw else None
    )
    if not isinstance(raw["curves"], list):
        raise SchemaError("curves must be a list")
    curves = []
    for item in raw["curves"]:
        if (
            not isinstance(item, dict)
            or not isinstance(item.get("label"), str)
            or "class" not in item
        ):
            raise SchemaError("each curve needs a string label and a class")
        curves.append(
            NegativeCurve(item["label"], class_from(item["class"], "curve class"))
        )
    return SurfaceModel(
        lattice=lattice, ample=ample, curves=tuple(curves), canonical=canonical
    )


def surface_to_json(model: SurfaceModel) -> dict[str, Any]:
    out: dict[str, Any] = {
        "basis": list(model.lattice.basis_labels),
        "gram": [list(row) for row in model.lattice.gram],
        "ample": _coords_json(model.ample),
        "curves": [
            {"label": c.label, "class": _coords_json(c.cls)} for c in model.curves
        ],
    }
    if model.canonical is not None:
        out["canonical"] = _coords_json(model.canonical)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_model(args: argparse.Namespace) -> SurfaceModel:
    if getattr(args, "delpezzo", None) is not None:
        return del_pezzo(args.delpezzo)
    if getattr(args, "surface", None) is None:
        raise UsageError("either --surface FILE or --delpezzo R is required")
    with open(args.surface, "r", encoding="utf-8") as handle:
        return parse_surface(handle.read())


def _emit(payload: Any, args: argparse.Namespace, csv_rows=None) -> None:
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            raise UsageError("this subcommand has no CSV form")
        for row in csv_rows:
            print(",".join(str(cell) for cell in row))
    else:
        print(json.dumps(payload, indent=None, sort_keys=False))


def _cmd_zariski(args) -> None:
    model = _load_model(args)
    divisor = _parse_coords(args.cls, model.lattice)
    dec = zariski_decompose(model, divisor)
    _emit(
        {
            "positive": _coords_json(dec.positive),
            "negative": {
                curve.label: _fraction_str(coeff)
                for curve, coeff in dec.coefficients
            },
        },
        args,
    )


def _cmd_chamber(args) -> None:
    model = _load_model(args)
    divisor = _parse_coords(args.cls, model.lattice)
    chamber = chamber_of(model, divisor)
    _emit({"support": list(chamber.support)}, args)


def _cmd_volume(args) -> None:
    model = _load_model(args)
    divisor = _parse_coords(args.cls, model.lattice)
    _emit({"volume": _fraction_str(vol(model, divisor))}, args)


def _cmd_volpoly(args) -> None:
    model = _load_model(args)
    labels = [] if not args.support else args.support.split(",")
    poly = volume_polynomial(model, ChamberDescriptor.from_labels(labels))
    _emit(
        {
            "support": list(poly.chamber.support),
            "matrix": [[_fraction_str(q) for q in row] for row in poly.matrix],
        },
        args,
    )


def _cmd_chambers_enum(args) -> None:
    model = _load_model(args)
    chambers = enumerate_chambers(model)
    payload = {
        "count": len(chambers),
        "chambers": [list(c.support) for c in chambers],
    }
    csv_rows = [("index", "size", "support")] + [
        (i, len(c.support), "|".join(c.support)) for i, c in enumerate(chambers)
    ]
    _emit(payload, args, csv_rows)


def _cmd_walk(args) -> None:
    model = _load_model(args)
    bundle = _parse_coords(args.bundle, model.lattice)
    direction = _parse_coords(args.ample, model.lattice)
    result = raywalk.destabilizing_numbers(model, bundle, direction)

    def end_json(value):
        if isinstance(value, QuadraticIrrational):
            return _qi_json(value)
        return _fraction_str(value)

    _emit(
        {
            "segments": [
                {
                    "start": _fraction_str(seg.lambda_start),
                    "end": end_json(seg.lambda_end),
                    "support": list(seg.support.support),
                }
                for seg in result.segments
            ],
            "breakpoints": [_fraction_str(b) for b in result.breakpoints],
            "threshold": _qi_json(result.bigness_threshold),
        },
        args,
    )


def _cmd_stable_base_locus(args) -> None:
    model = _load_model(args)
    divisor = _parse_coords(args.cls, model.lattice)
    locus = raywalk.stable_base_locus(model, divisor)
    _emit({"support": sorted(locus)}, args)


def _cmd_delpezzo(args) -> None:
    model = del_pezzo(args.r)
    if args.count_curves:
        _emit(len(model.curves), args)
    else:
        _emit(surface_to_json(model), args)


def _cmd_weyl_orbit(args) -> None:
    model = _load_model(args)
    start = _parse_coords(args.cls, model.lattice)
    orbit = weyl.weyl_orbit(model, start)
    coords = sorted(_coords_json(d) for d in orbit)
    _emit({"size": len(orbit), "orbit": coords}, args)


def _cmd_weyl_order(args) -> None:
    model = _load_model(args)
    _emit({"order": weyl.weyl_group_order(model)}, args)


def _cmd_k3_reflect(args) -> None:
    model = _load_model(args)
    nef_class = _parse_coords(args.nef, model.lattice)
    value = weyl.k3_reflection_volume(model, nef_class, args.curve)
    _emit({"volume": _fraction_str(value)}, args)


def _cmd_cutkosky_vol(args) -> None:
    value = cutkosky.volume_L_eps(_parse_fraction(args.eps))
    _emit(_qi_json(value), args)


def _cmd_cutkosky_scan(args) -> None:
    start = _parse_fraction(args.start)
    stop = _parse_fraction(args.stop)
    num = args.num
    if num < 2 or stop <= start:
        raise UsageError("need --num >= 2 and --stop > --start")
    rows = []
    for i in range(num):
        eps = start + (stop - start) * Fraction(i, num - 1)
        value = cutkosky.volume_L_eps(eps)
        rows.append((eps, value))
    payload = [
        {"eps": _fraction_str(e), "volume": _qi_json(v)} for e, v in rows
    ]
    csv_rows = [("eps", "approx", "a", "b", "m")] + [
        (e, float(v), v.a, v.b, v.m) for e, v in rows
    ]
    _emit(payload, args, csv_rows)


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--surface", help="path to a surface JSON file")
    parser.add_argument(
        "--delpezzo", type=int, help="use the del Pezzo model with this many points"
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> _Parser:
    parser = _Parser(prog="zlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zariski", help="Zariski decomposition of a class")
    _add_model_arguments(p)
    p.add_argument("--class", dest="cls", required=True)
    p.set_defaults(func=_cmd_zariski)

    p = sub.add_parser("chamber", help="chamber support of a big class")
    _add_model_arguments(p)
    p.add_argument("--class", dest="cls", required=True)
    p.set_defaults(func=_cmd_chamber)

    p = sub.add_parser("volume", help="volume of a class")
    _add_model_arguments(p)
    p.add_argument("--class", dest="cls", required=True)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("volpoly", help="quadratic volume form on a chamber")
    _add_model_arguments(p)
    p.add_argument("--support", default="", help="comma-separated curve labels")
    p.set_defaults(func=_cmd_volpoly)

    p = sub.add_parser("chambers-enum", help="enumerate all chambers")
    _add_model_arguments(p)
    p.set_defaults(func=_cmd_chambers_enum)

    p = sub.add_parser("walk", help="destabilizing values along L - t*A")
    _add_model_arguments(p)
    p.add_argument("--bundle", required=True, help="coordinates of L")
    p.add_argument("--ample", required=True, help="coordinates of A")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("stable-base-locus", help="stable base locus of a stable class")
    _add_model_arguments(p)
    p.add_argument("--class", dest="cls", required=True)
    p.set_defaults(func=_cmd_stable_base_locus)

    p = sub.add_parser("delpezzo", help="emit a del Pezzo surface model")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--count-curves", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_delpezzo)

    p = sub.add_parser("weyl-orbit", help="orbit under simple-root reflections")
    _add_model_arguments(p)
    p.add_argument("--class", dest="cls", required=True)
    p.set_defaults(func=_cmd_weyl_orbit)

    p = sub.add_parser("weyl-order", help="order of the reflection group")
    _add_model_arguments(p)
    p.set_defaults(func=_cmd_weyl_order)

    p = sub.add_parser("k3-reflect", help="volume of a reflected nef class")
    _add_model_arguments(p)
    p.add_argument("--nef", required=True, help="coordinates of the nef class")
    p.add_argument("--curve", required=True, help="label of the (-2)-curve")
    p.set_defaults(func=_cmd_k3_reflect)

    p = sub.add_parser("cutkosky-vol", help="exact threefold volume at one eps")
    p.add_argument("--eps", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_cutkosky_vol)

    p = sub.add_parser("cutkosky-scan", help="(eps, volume) table for plotting")
    p.add_argument("--start", default="0")
    p.add_argument("--stop", default="1")
    p.add_argument("--num", type=int, default=9)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_cutkosky_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ZlabError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
