"""Command-line surface: schema validation, golden outputs, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import rank_ten_model
from zlab.cli import (COMMANDS, MAX_SCAN_POINTS, _coords_json, _qi_json, main, parse_surface,
                      surface_to_json)
from zlab.cutkosky import volume_closed_form
from zlab.errors import (
    AmpleWitnessError,
    CurvePairingError,
    SchemaError,
    SignatureError,
)

GOLDEN = Path(__file__).parent / "golden"

DP2_JSON = {
    "basis": ["L", "E1", "E2"],
    "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
    "ample": ["3", "-1", "-1"],
    "curves": [
        {"label": "E1", "class": ["0", "1", "0"]},
        {"label": "E2", "class": ["0", "0", "1"]},
        {"label": "L-E1-E2", "class": ["1", "-1", "-1"]},
    ],
    "canonical": ["-3", "1", "1"],
}

K3_JSON = {
    "basis": ["H", "E"],
    "gram": [[4, 2], [2, -2]],
    "ample": ["1", "0"],
    "curves": [{"label": "E", "class": ["0", "1"]}],
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ----------------------------------------------------------------


def test_parse_surface_roundtrip():
    model = parse_surface(json.dumps(DP2_JSON))
    assert [c.label for c in model.curves] == ["E1", "E2", "L-E1-E2"]
    once = surface_to_json(model)
    twice = surface_to_json(parse_surface(json.dumps(once)))
    assert once == twice


@pytest.mark.parametrize("coords", [
    ["3", "-1", "0"], ["0", "0", "0"], ["5/2", "-3/2", "0"], ["1/3", "-2", "7/6"],
    ["-1/2", "0", "123456789012345678901/2"],
])
def test_coords_json_prints_as_the_fractions_do(coords):
    """The strings are those of the class's Fraction coordinates, for integral,
    fractional, negative and zero entries, read off the cleared ints."""
    divisor = parse_surface(json.dumps(DP2_JSON)).lattice.divisor([Fraction(c) for c in coords])
    assert _coords_json(divisor) == [str(c) for c in divisor.coords] == coords


def test_parse_surface_schema_errors():
    with pytest.raises(SchemaError):
        parse_surface("not json")
    with pytest.raises(SchemaError):
        parse_surface(json.dumps({"basis": ["L"], "gram": [[1]]}))
    asym = dict(DP2_JSON, gram=[[1, 0, 0], [1, -1, 0], [0, 0, -1]])
    with pytest.raises(SchemaError):
        parse_surface(json.dumps(asym))
    bad_entry = dict(DP2_JSON, gram=[[1, 0, 0], [0, -1.5, 0], [0, 0, -1]])
    with pytest.raises(SchemaError):
        parse_surface(json.dumps(bad_entry))
    bad_rational = dict(DP2_JSON, ample=["3", "-1", "x"])
    with pytest.raises(SchemaError):
        parse_surface(json.dumps(bad_rational))


@pytest.mark.parametrize(
    "changes, message",
    [
        (None, "surface description must be a JSON object"),
        ({"basis": "L,E1,E2"}, "basis must be a list of strings"),
        ({"basis": ["L", "E1", 2]}, "basis must be a list of strings"),
        ({"gram": [1, 0, 0]}, "gram must be a list of integer rows"),
        ({"gram": [[1, 0], [0, -1]]}, "gram must be square with one row per basis label"),
        ({"gram": [[1, 0], [0, -1], [0, 0]]}, "gram must be square with one row per basis label"),
        ({"ample": ["3", "-1"]}, "ample must be a list of 3 rationals"),
        ({"canonical": "-3,1,1"}, "canonical must be a list of 3 rationals"),
        ({"curves": {"E1": ["0", "1", "0"]}}, "curves must be a list"),
        ({"curves": [{"label": 1, "class": ["0", "1", "0"]}]},
         "each curve needs a string label and a class"),
        ({"curves": [{"label": "E1"}]}, "each curve needs a string label and a class"),
        ({"curves": ["E1"]}, "each curve needs a string label and a class"),
        ({"curves": [{"label": "E1", "class": ["0", "1"]}]},
         "curve class must be a list of 3 rationals"),
    ],
    ids=["not-an-object", "basis-string", "basis-entry", "gram-flat", "gram-short",
         "gram-long", "ample-length", "canonical-string", "curves-object", "curve-label",
         "curve-without-class", "curve-string", "curve-class-length"],
)
def test_parse_surface_refuses_malformed_descriptions(changes, message):
    raw = ["not", "an", "object"] if changes is None else dict(DP2_JSON, **changes)
    with pytest.raises(SchemaError) as excinfo:
        parse_surface(json.dumps(raw))
    assert str(excinfo.value) == message


def test_asymmetric_surface_file_is_one_schema_error_line(capsys, tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(dict(DP2_JSON, gram=[[1, 0, 0], [1, -1, 0], [0, 0, -1]])))
    code, out, err = run_cli(capsys, ["zariski", "--surface", str(path), "--class", "1,0,0"])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "SchemaError",
        "message": "gram matrix must be symmetric",
    }


def test_parse_surface_signature_error():
    euclidean = dict(DP2_JSON, gram=[[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    with pytest.raises(SignatureError):
        parse_surface(json.dumps(euclidean))


def test_parse_surface_ample_errors():
    touching = dict(DP2_JSON, ample=["1", "0", "0"])  # pairs 0 with E1
    with pytest.raises(AmpleWitnessError):
        parse_surface(json.dumps(touching))


def test_parse_surface_curve_errors():
    bad = dict(
        DP2_JSON,
        curves=DP2_JSON["curves"] + [{"label": "dup", "class": ["0", "1", "0"]}],
    )
    with pytest.raises(CurvePairingError):
        parse_surface(json.dumps(bad))
    positive_square = dict(
        DP2_JSON, curves=[{"label": "L", "class": ["1", "0", "0"]}]
    )
    with pytest.raises(CurvePairingError):
        parse_surface(json.dumps(positive_square))


# -- golden outputs ----------------------------------------------------------


@pytest.mark.parametrize(
    "name, argv",
    [
        ("zariski_dp2.json", ["zariski", "--delpezzo", "2", "--class", "2,1,0"]),
        ("volume_dp2.json", ["volume", "--delpezzo", "2", "--class", "3,-1,-1"]),
        (
            "volpoly_line_dp2.json",
            ["volpoly", "--delpezzo", "2", "--support", "L-E1-E2"],
        ),
        ("chambers_dp2.json", ["chambers-enum", "--delpezzo", "2"]),
        (
            "walk_dp2.json",
            ["walk", "--delpezzo", "2", "--bundle", "6,-2,-1", "--ample", "3,-1,-1"],
        ),
        ("cutkosky_vol_eps0.json", ["cutkosky-vol", "--eps", "0"]),
        ("surface_dp2.json", ["delpezzo", "--r", "2"]),
    ],
)
def test_golden_outputs(capsys, name, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN / name).read_text())


# Exact stdout and exit code of one call per subcommand, recorded before the
# CLI became table-driven; "{k3}" stands for a file holding K3_JSON.
PINNED = {
    "zariski": (
        ["--delpezzo", "3", "--class", "3,1,0,-1"], 0,
        '{"positive": ["3", "0", "0", "-1"], "negative": {"E1": "1"}}\n',
    ),
    "chamber": (["--delpezzo", "3", "--class", "3,1,0,-1"], 0, '{"support": ["E1"]}\n'),
    "volume": (["--delpezzo", "3", "--class", "3,1,0,-1"], 0, '{"volume": "8"}\n'),
    "volpoly": (
        ["--delpezzo", "3", "--support", "E1,E2"], 0,
        '{"support": ["E1", "E2"], "matrix": [["1", "0", "0", "0"], ["0", "0", "0", "0"], '
        '["0", "0", "0", "0"], ["0", "0", "0", "-1"]]}\n',
    ),
    "chambers-enum": (
        ["--delpezzo", "2", "--format", "csv"], 0,
        "index,size,support\n0,0,\n1,1,E1\n2,1,E2\n3,1,L-E1-E2\n4,2,E1|E2\n",
    ),
    "walk": (
        ["--delpezzo", "3", "--bundle", "6,-2,-1,0", "--ample", "3,-1,-1,-1"], 0,
        '{"segments": [{"start": "0", "end": "1", "support": ["E3"]}, {"start": "1", '
        '"end": {"a": "2", "b": "0", "m": 0, "approx": 2.0}, "support": ["E2", "E3"]}], '
        '"breakpoints": ["1"], "threshold": {"a": "2", "b": "0", "m": 0, "approx": 2.0}}\n',
    ),
    "stable-base-locus": (["--delpezzo", "2", "--class", "2,1,-1"], 0, '{"support": ["E1"]}\n'),
    "delpezzo": (["--r", "2", "--format", "csv"], 1, ""),
    "weyl-orbit": (
        ["--delpezzo", "3", "--class", "0,1,0,0"], 0,
        '{"size": 6, "orbit": [["0", "0", "0", "1"], ["0", "0", "1", "0"], '
        '["0", "1", "0", "0"], ["1", "-1", "-1", "0"], ["1", "-1", "0", "-1"], '
        '["1", "0", "-1", "-1"]]}\n',
    ),
    "weyl-order": (["--delpezzo", "4"], 0, '{"order": 120}\n'),
    "k3-reflect": (["--surface", "{k3}", "--nef", "1,0", "--curve", "E"], 0, '{"volume": "6"}\n'),
    "cutkosky-vol": (
        ["--eps", "1/3"], 0,
        '{"a": "-4640/9747", "b": "1376/9747", "m": 43, "approx": 0.449680456493234}\n',
    ),
    "cutkosky-scan": (
        ["--start", "0", "--stop", "1/2", "--num", "3"], 0,
        '[{"eps": "0", "volume": {"a": "-77/722", "b": "135/722", "m": 5, '
        '"approx": 0.3114531536876338}}, {"eps": "1/4", "volume": {"a": "-16371/46208", '
        '"b": "1081/46208", "m": 1081, "approx": 0.414878985579045}}, {"eps": "1/2", '
        '"volume": {"a": "-4553/5776", "b": "385/5776", "m": 385, '
        '"approx": 0.5196062145228886}}]\n',
    ),
}


def test_every_subcommand_is_pinned():
    assert sorted(PINNED) == sorted(command.name for command in COMMANDS)


@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_stdout_and_exit_code(capsys, tmp_path, command):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(K3_JSON))
    args, expected_code, expected_out = PINNED[command]
    argv = [command] + [str(path) if a == "{k3}" else a for a in args]
    code, out, _ = run_cli(capsys, argv)
    assert (code, out) == (expected_code, expected_out)


@pytest.mark.parametrize("command", [command.name for command in COMMANDS])
def test_subcommand_help_exits_zero(capsys, command):
    code, out, _ = run_cli(capsys, [command, "--help"])
    assert code == 0
    assert out.startswith(f"usage: zlab {command} ")


@pytest.mark.parametrize(
    "source", [[], ["--delpezzo", "2", "--surface", "/nonexistent.json"]],
    ids=["neither", "both"],
)
def test_model_source_is_exactly_one_of_surface_and_delpezzo(capsys, source):
    """Passing both used to run on the del Pezzo model and never open the file."""
    code, out, err = run_cli(capsys, ["zariski", *source, "--class", "2,1,0"])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ")
    assert "--surface" in err and "--delpezzo" in err


def test_surface_file_input(capsys, tmp_path):
    path = tmp_path / "dp2.json"
    path.write_text(json.dumps(DP2_JSON))
    code, out, _ = run_cli(
        capsys, ["zariski", "--surface", str(path), "--class", "2,1,0"]
    )
    assert code == 0
    assert json.loads(out) == {"positive": ["2", "0", "0"], "negative": {"E1": "1"}}


def test_fractional_class_input(capsys):
    code, out, _ = run_cli(
        capsys, ["volume", "--delpezzo", "2", "--class", "2,-3/2,-1"]
    )
    assert code == 0
    assert json.loads(out) == {"volume": "1"}


@pytest.mark.parametrize("cls", ["3,,-1,-1", "3,-1,-1,", "1e3000000,-1,-1", "3,-1,-1E0"])
def test_malformed_class_is_one_schema_error_line(capsys, cls):
    """Empty fields were dropped silently, so "3,,-1,-1" read as 3,-1,-1; an
    exponent like 1e3000000 took seconds and then failed with a traceback."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["volume", "--delpezzo", "2", "--class", cls])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "SchemaError"


def test_unknown_support_label_is_named_without_escaped_quotes(capsys):
    """The message used to nest the KeyError's repr, quotes escaped."""
    code, out, err = run_cli(capsys, ["volpoly", "--delpezzo", "2", "--support", "X"])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "UnrealizableSupport",
        "message": "support {X}: no curve labelled 'X'",
    }


def test_delpezzo_count(capsys):
    code, out, _ = run_cli(capsys, ["delpezzo", "--r", "8", "--count-curves"])
    assert code == 0
    assert json.loads(out) == 240


def test_weyl_subcommands(capsys):
    code, out, _ = run_cli(capsys, ["weyl-order", "--delpezzo", "3"])
    assert code == 0 and json.loads(out) == {"order": 12}
    code, out, _ = run_cli(
        capsys, ["weyl-orbit", "--delpezzo", "3", "--class", "0,1,0,0"]
    )
    assert code == 0
    assert json.loads(out)["size"] == 6


def test_weyl_order_beyond_the_permutation_oracle(capsys):
    code, out, _ = run_cli(capsys, ["weyl-order", "--delpezzo", "7"])
    assert code == 0
    assert out == '{"order": 2903040}\n'


def test_weyl_order_refuses_an_infinite_group(capsys, tmp_path):
    path = tmp_path / "rank10.json"
    path.write_text(json.dumps(surface_to_json(rank_ten_model())))
    code, out, err = run_cli(capsys, ["weyl-order", "--surface", str(path)])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "RankTooLargeForEnumeration"


def test_k3_reflect(capsys, tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(K3_JSON))
    code, out, _ = run_cli(
        capsys, ["k3-reflect", "--surface", str(path), "--nef", "1,0", "--curve", "E"]
    )
    assert code == 0
    assert json.loads(out) == {"volume": "6"}


def test_stable_base_locus_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, ["stable-base-locus", "--delpezzo", "2", "--class", "2,1,-1"]
    )
    assert code == 0 and json.loads(out) == {"support": ["E1"]}
    code, _, err = run_cli(
        capsys, ["stable-base-locus", "--delpezzo", "2", "--class", "2,1,0"]
    )
    assert code == 2
    assert json.loads(err)["error"] == "InstableDivisor"


def test_k3_reflect_unknown_curve_is_one_json_error_line(capsys, tmp_path):
    """An unknown label used to end in a KeyError traceback."""
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(K3_JSON))
    code, out, err = run_cli(
        capsys, ["k3-reflect", "--surface", str(path), "--nef", "1,0", "--curve", "X"]
    )
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "NotMinusTwoClass",
        "message": "X is not a listed (-2)-curve",
    }


@pytest.mark.parametrize(
    "argv, error, message",
    [
        (["volume", "--delpezzo", "2", "--class", "3,-1"], "SchemaError",
         "expected 3 comma-separated coordinates, got 2"),
        (["volume", "--delpezzo", "2", "--class", "3,-1,-1,0"], "SchemaError",
         "expected 3 comma-separated coordinates, got 4"),
        (["k3-reflect", "--delpezzo", "2", "--nef", "3,-1,-1", "--curve", "E1"],
         "NotMinusTwoClass", "E1 has square -1, not -2"),
        # a flag value that starts with '-' and a digit is the flag's value, not an option
        (["zariski", "--delpezzo", "2", "--class", "-1,1,0"], "NotPseudoEffective",
         "class pairs non-positively with the ample witness and is not nef"),
        (["walk", "--delpezzo", "2", "--bundle", "6,-2,-1", "--ample", "-3,1,1"], "NotAmple",
         "the direction class must be ample in the model"),
        (["cutkosky-vol", "--eps", "-1/2"], "OutOfDomain", "eps must satisfy 0 <= eps < 3/2"),
    ],
    ids=["too-few", "too-many", "not-minus-two", "negative-class", "negative-ample",
         "negative-eps"],
)
def test_domain_refusal_is_one_json_error_line(capsys, argv, error, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": error, "message": message}


def test_negative_flag_values_read_as_with_an_equals_sign(capsys, monkeypatch):
    """'--class -1,1,0' reads as '--class=-1,1,0', also from sys.argv; a second
    such token after a glued value is still refused as a stray argument."""
    spaced = run_cli(capsys, ["zariski", "--delpezzo", "2", "--class", "-1,1,0"])
    assert spaced == run_cli(capsys, ["zariski", "--delpezzo", "2", "--class=-1,1,0"])
    monkeypatch.setattr(sys, "argv", ["zlab", "cutkosky-vol", "--eps", "-1/2"])
    assert run_cli(capsys, None)[0] == 2
    code, out, err = run_cli(capsys, ["zariski", "--delpezzo", "2", "--class", "-1,1,0", "-2"])
    assert (code, out) == (1, "") and "unrecognized arguments: -2" in err


@pytest.mark.parametrize(
    "bounds",
    [["--num", "1"], ["--start", "1/2", "--stop", "1/2"], ["--start", "1", "--stop", "0"]],
    ids=["one-sample", "empty-range", "reversed-range"],
)
def test_cutkosky_scan_refuses_bad_bounds(capsys, bounds):
    code, out, err = run_cli(capsys, ["cutkosky-scan", *bounds])
    assert (code, out) == (1, "")
    assert err == "usage error: need --num >= 2 and --stop > --start\n"


def test_cutkosky_scan_refuses_too_many_points_before_any_value(capsys, monkeypatch):
    """A point costs 0.2 ms and more as the steps' denominators grow, so an
    unbounded --num ran for minutes; the bound is checked before any step."""
    def unreached(eps):
        raise AssertionError("a value was computed")

    monkeypatch.setattr("zlab.cutkosky.volume_L_eps", unreached)
    code, out, err = run_cli(capsys, ["cutkosky-scan", "--num", str(MAX_SCAN_POINTS + 1)])
    assert (code, out) == (1, "")
    assert err == f"usage error: need --num <= {MAX_SCAN_POINTS}\n"


def test_csv_refusal_comes_before_any_work(capsys, monkeypatch):
    """The model is not loaded and the handler not called: a walk with an
    unreadable surface file, and a del Pezzo rank out of range, both fail
    on the format alone."""
    import zlab.cli

    calls = []
    commands = tuple(
        c._replace(handler=lambda *args: calls.append(args)) for c in zlab.cli.COMMANDS
    )
    monkeypatch.setattr(zlab.cli, "COMMANDS", commands)
    for argv in (
        ["walk", "--surface", "/nonexistent.json", "--bundle", "1,0,0", "--ample", "3,-1,-1"],
        ["delpezzo", "--r", "9"],
    ):
        code, out, err = run_cli(capsys, argv + ["--format", "csv"])
        assert (code, out) == (1, "")
        assert err == "usage error: this subcommand has no CSV form\n"
    assert calls == []


def test_walk_csv_not_available_but_scan_is(capsys):
    code, out, err = run_cli(
        capsys, ["walk", "--delpezzo", "2", "--bundle", "6,-2,-1", "--ample", "3,-1,-1",
                 "--format", "csv"],
    )
    assert (code, out) == (1, "")
    assert err == "usage error: this subcommand has no CSV form\n"
    code, out, _ = run_cli(
        capsys, ["cutkosky-scan", "--start", "0", "--stop", "1/2", "--num", "3",
                 "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,approx,a,b,m"
    assert len(lines) == 4
    assert lines[1].startswith("0,0.31145")


def test_chambers_csv(capsys):
    code, out, _ = run_cli(capsys, ["chambers-enum", "--delpezzo", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,size,support"
    assert len(lines) == 6
    assert lines[-1].endswith("E1|E2")


def test_orbit_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("ZLAB_ORBIT_CAP", "2")
    code, _, err = run_cli(
        capsys, ["weyl-orbit", "--delpezzo", "3", "--class", "0,1,0,0"]
    )
    assert code == 2
    assert json.loads(err)["error"] == "OrbitTooLarge"


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, ["no-such-command"])
    assert code == 1
    code, _, err = run_cli(capsys, ["zariski", "--delpezzo", "2"])  # missing --class
    assert code == 1
    code, _, err = run_cli(capsys, ["delpezzo", "--r", "9"])
    assert code == 2
    assert json.loads(err)["error"] == "OutOfRange"
    code, _, err = run_cli(capsys, ["delpezzo", "--r", "9", "--format", "csv"])
    assert code == 1  # the format is refused before the rank is read
    code, _, err = run_cli(
        capsys, ["chamber", "--delpezzo", "2", "--class", "0,1,0"]
    )
    assert code == 2
    assert json.loads(err)["error"] == "NotBig"
    code, _, err = run_cli(
        capsys, ["zariski", "--surface", "/does/not/exist.json", "--class", "1,0"]
    )
    assert code == 1


def test_chambers_enum_refuses_too_many_curves(capsys):
    code, out, err = run_cli(capsys, ["chambers-enum", "--delpezzo", "8"])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "RankTooLargeForEnumeration"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_bad_orbit_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("ZLAB_ORBIT_CAP", "many")
    code, _, err = run_cli(
        capsys, ["weyl-orbit", "--delpezzo", "3", "--class", "0,1,0,0"]
    )
    assert code == 2
    assert json.loads(err)["error"] == "OutOfRange"


def test_orbit_cap_env_below_one(capsys, monkeypatch):
    monkeypatch.setenv("ZLAB_ORBIT_CAP", "-3")
    code, out, err = run_cli(
        capsys, ["weyl-orbit", "--delpezzo", "3", "--class=-3,1,1,1"]
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "OutOfRange"
    assert "-3" in error["message"]


def test_cutkosky_vol_with_seven_digit_eps_finishes():
    """The radicand 45 + 78 eps + 49 eps**2 at this eps has a 52-bit numerator
    and a 46-bit denominator; trial division to the square root of their
    98-bit product did not finish in 20 s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-m", "zlab.cli", "cutkosky-vol", "--eps", "1234567/7654321"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert result.returncode == 0, result.stderr
    expected = _qi_json(volume_closed_form(Fraction(1234567, 7654321)))
    assert result.stdout == json.dumps(expected) + "\n"


def test_installed_entry_point():
    result = subprocess.run(
        ["zlab", "delpezzo", "--r", "2", "--count-curves"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "3"
