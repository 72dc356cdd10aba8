"""Command-line front end: JSON surface descriptions in, JSON/CSV results out.

Rationals serialize as strings like "3/2" (never floats), quadratic
irrationals as {"a": ..., "b": ..., "m": ...} with a float "approx" attached
for convenience.  Exit codes: 0 success, 1 usage error, 2 domain error.

Each subcommand handler imports the modules it uses, so a process pays only
for its own command's imports; ``del_pezzo`` stays a module global, which
callers may replace (with a cache, say).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from .errors import SchemaError, ZlabError
from .lattice import DivisorClass, IntersectionLattice, QuadraticIrrational
from .surface import NegativeCurve, SurfaceModel, del_pezzo

if TYPE_CHECKING:
    from .raywalk import RaySegment


# About 1 s for the default range on one x86-64 core (Python 3.11): 0.95 s for 5,000 points
MAX_SCAN_POINTS = 5000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


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
        "a": str(value.a),
        "b": str(value.b),
        "m": value.m,
        "approx": float(value),
    }


def _coords_json(divisor: DivisorClass) -> list[str]:
    """str of each coordinate, formatted from the stored ints v / d."""
    v, d = divisor.cleared
    return [str(x) for x in v] if d == 1 else [str(Fraction(x, d)) for x in v]


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


class _Coords(str):
    """Text of a class-valued flag, parsed against the model's lattice."""


def _zariski(model: SurfaceModel, divisor: DivisorClass) -> Any:
    from .zariski import zariski_decompose

    dec = zariski_decompose(model, divisor)
    negative = {curve.label: str(coeff) for curve, coeff in dec.coefficients}
    return {"positive": _coords_json(dec.positive), "negative": negative}


def _chamber(model: SurfaceModel, divisor: DivisorClass) -> Any:
    from .zariski import chamber_of

    return {"support": list(chamber_of(model, divisor).support)}


def _volume(model: SurfaceModel, divisor: DivisorClass) -> Any:
    from .volume import vol

    return {"volume": str(vol(model, divisor))}


def _volpoly(model: SurfaceModel, support: str) -> Any:
    from .volume import volume_polynomial

    labels = [] if not support else support.split(",")
    poly = volume_polynomial(model, labels)
    matrix = [[str(q) for q in row] for row in poly.matrix]
    return {"support": list(poly.chamber.support), "matrix": matrix}


def _chambers_enum(model: SurfaceModel) -> tuple[Any, list]:
    from .chambers import enumerate_chambers

    chambers = enumerate_chambers(model)
    payload = {"count": len(chambers), "chambers": [list(c.support) for c in chambers]}
    csv_rows = [("index", "size", "support")] + [
        (i, len(c.support), "|".join(c.support)) for i, c in enumerate(chambers)
    ]
    return payload, csv_rows


def _segment_json(seg: RaySegment) -> dict[str, Any]:
    end = seg.lambda_end
    return {
        "start": str(seg.lambda_start),
        "end": _qi_json(end) if isinstance(end, QuadraticIrrational) else str(end),
        "support": list(seg.support.support),
    }


def _walk(model: SurfaceModel, bundle: DivisorClass, direction: DivisorClass) -> Any:
    from .raywalk import destabilizing_numbers

    result = destabilizing_numbers(model, bundle, direction)
    return {
        "segments": [_segment_json(seg) for seg in result.segments],
        "breakpoints": [str(b) for b in result.breakpoints],
        "threshold": _qi_json(result.bigness_threshold),
    }


def _stable_base_locus(model: SurfaceModel, divisor: DivisorClass) -> Any:
    from .raywalk import stable_base_locus

    return {"support": sorted(stable_base_locus(model, divisor))}


def _delpezzo(r: int, count_curves: bool) -> Any:
    model = del_pezzo(r)
    return len(model.curves) if count_curves else surface_to_json(model)


def _weyl_orbit(model: SurfaceModel, start: DivisorClass) -> Any:
    from .weyl import weyl_orbit

    orbit = weyl_orbit(model, start)
    return {"size": len(orbit), "orbit": sorted(_coords_json(d) for d in orbit)}


def _weyl_order(model: SurfaceModel) -> Any:
    from .weyl import weyl_group_order

    return {"order": weyl_group_order(model)}


def _k3_reflect(model: SurfaceModel, nef_class: DivisorClass, curve: str) -> Any:
    from .weyl import k3_reflection_volume

    value = k3_reflection_volume(model, nef_class, curve)
    return {"volume": str(value)}


def _cutkosky_vol(eps: str) -> Any:
    from .cutkosky import volume_L_eps

    return _qi_json(volume_L_eps(_parse_fraction(eps)))


def _cutkosky_scan(start: str, stop: str, num: int) -> tuple[Any, list]:
    from .cutkosky import volume_L_eps

    first, last = _parse_fraction(start), _parse_fraction(stop)
    if num < 2 or last <= first:
        raise UsageError("need --num >= 2 and --stop > --start")
    if num > MAX_SCAN_POINTS:  # refused before any step is built
        raise UsageError(f"need --num <= {MAX_SCAN_POINTS}")
    steps = [first + (last - first) * Fraction(i, num - 1) for i in range(num)]
    rows = [(eps, volume_L_eps(eps)) for eps in steps]
    payload = [{"eps": str(e), "volume": _qi_json(v)} for e, v in rows]
    csv_rows = [("eps", "approx", "a", "b", "m")] + [
        (e, float(v), v.a, v.b, v.m) for e, v in rows
    ]
    return payload, csv_rows


class _Command(NamedTuple):
    """A subcommand.  Its handler takes the model (when ``model`` is set), then
    each argument's value in order, and returns the JSON payload, or
    (payload, csv rows) when ``csv`` is set."""

    name: str
    help: str
    handler: Callable[..., Any]
    arguments: tuple[tuple[str, dict[str, Any]], ...] = ()
    model: bool = True
    csv: bool = False


_CLASS = {"required": True, "type": _Coords}  # the options of every class-valued flag
_CLASS_FLAG = ("--class", dict(_CLASS, dest="cls"))

COMMANDS = (
    _Command("zariski", "Zariski decomposition of a class", _zariski, (_CLASS_FLAG,)),
    _Command("chamber", "chamber support of a big class", _chamber, (_CLASS_FLAG,)),
    _Command("volume", "volume of a class", _volume, (_CLASS_FLAG,)),
    _Command("volpoly", "quadratic volume form on a chamber", _volpoly,
             (("--support", {"default": "", "help": "comma-separated curve labels"}),)),
    _Command("chambers-enum", "enumerate all chambers", _chambers_enum, csv=True),
    _Command("walk", "destabilizing values along L - t*A", _walk,
             (("--bundle", dict(_CLASS, help="coordinates of L")),
              ("--ample", dict(_CLASS, help="coordinates of A")))),
    _Command("stable-base-locus", "stable base locus of a stable class",
             _stable_base_locus, (_CLASS_FLAG,)),
    _Command("delpezzo", "emit a del Pezzo surface model", _delpezzo,
             (("--r", {"type": int, "required": True}),
              ("--count-curves", {"action": "store_true"})), model=False),
    _Command("weyl-orbit", "orbit under simple-root reflections", _weyl_orbit, (_CLASS_FLAG,)),
    _Command("weyl-order", "order of the reflection group", _weyl_order),
    _Command("k3-reflect", "volume of a reflected nef class", _k3_reflect,
             (("--nef", dict(_CLASS, help="coordinates of the nef class")),
              ("--curve", {"required": True, "help": "label of the (-2)-curve"}))),
    _Command("cutkosky-vol", "exact threefold volume at one eps", _cutkosky_vol,
             (("--eps", {"required": True}),), model=False),
    _Command("cutkosky-scan", "(eps, volume) table for plotting", _cutkosky_scan,
             (("--start", {"default": "0"}), ("--stop", {"default": "1"}),
              ("--num", {"type": int, "default": 9})), model=False, csv=True),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="zlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        if command.model:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--surface", help="path to a surface JSON file")
            source.add_argument(
                "--delpezzo", type=int, help="use the del Pezzo model with this many points"
            )
        p.add_argument("--format", choices=("json", "csv"), default="json")
        dests = [p.add_argument(flag, **options).dest for flag, options in command.arguments]
        p.set_defaults(spec=command, dests=dests)
    return parser


def _run(args: argparse.Namespace) -> None:
    """Load the model, parse the class-valued flags, call the handler, print."""
    command = args.spec
    if args.format == "csv" and not command.csv:
        raise UsageError("this subcommand has no CSV form")
    values = [getattr(args, dest) for dest in args.dests]
    if command.model:
        if args.delpezzo is not None:
            model = del_pezzo(args.delpezzo)
        else:
            with open(args.surface, "r", encoding="utf-8") as handle:
                model = parse_surface(handle.read())
        values = [model] + [
            _parse_coords(v, model.lattice) if isinstance(v, _Coords) else v
            for v in values
        ]
    result = command.handler(*values)
    payload, csv_rows = result if command.csv else (result, None)
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for row in csv_rows:
            print(",".join(str(cell) for cell in row))


def _glue_values(argv: Sequence[str]) -> list[str]:
    """'--class -1,1,0' as '--class=-1,1,0': argparse takes a token that starts
    with '-' for an option unless the whole token reads as a negative number."""
    out: list[str] = []
    for token in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-\d", token):
            token = out.pop() + "=" + token
        out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
        _run(args)
    except (UsageError, OSError) as exc:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
