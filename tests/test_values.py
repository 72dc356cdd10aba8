"""The frozen value classes: equality and hashing over their fields, the
dataclass repr, refused assignment, and pickle and copy round trips."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import dp_model
from zlab import (
    CertificateReport,
    ChamberDescriptor,
    IntersectionLattice,
    NegativeCurve,
    RaySegment,
    abelian_surface,
    destabilizing_numbers,
    q_poly,
    volume_polynomial,
    zariski_decompose,
)


def examples() -> dict[str, tuple[object, tuple[str, ...]]]:
    """One instance of each value class, with its field names in order."""
    dp2 = dp_model(2)
    lattice = dp2.lattice
    return {
        "IntersectionLattice": (lattice, ("gram", "basis_labels")),
        "DivisorClass": (lattice.divisor([1, Fraction(1, 2), 0]), ("lattice", "coords")),
        "NegativeCurve": (dp2.curves[2], ("label", "cls")),
        "SurfaceModel": (dp2, ("lattice", "ample", "curves", "canonical")),
        "ZariskiDecomposition": (
            zariski_decompose(dp2, lattice.divisor([2, 1, 1])),
            ("model", "input", "positive", "coefficients"),
        ),
        "ChamberDescriptor": (ChamberDescriptor(("E2", "E1")), ("support",)),
        "RaySegment": (RaySegment(Fraction(0), Fraction(1), ChamberDescriptor(())),
                       ("lambda_start", "lambda_end", "support")),
        "RayWalkResult": (
            destabilizing_numbers(dp2, lattice.divisor([4, -1, -1]), dp2.ample),
            ("segments", "breakpoints", "bigness_threshold"),
        ),
        "QuadraticVolumePolynomial": (volume_polynomial(dp2, ["E1"]), ("chamber", "matrix")),
        "AbelianSurfaceData": (abelian_surface(), ("lattice", "f1", "f2", "delta", "d", "h")),
        "QuadraticPolynomial": (q_poly(Fraction(1, 3)), ("c2", "c1", "c0")),
        "CertificateReport": (CertificateReport((1, 2), (0.5, 0.25), 1e-6, True),
                              ("degrees", "residuals", "residual_floor", "passed")),
    }


NAMES = sorted(examples())


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_values_and_the_field_tuple_hash(name):
    value, fields = examples()[name]
    assert type(value).__name__ == name
    values = tuple(getattr(value, f) for f in fields)
    twin = type(value)(*values)
    assert twin is not value and twin == value and not twin != value
    # a divisor class hashes its one stored form, the canonical integer pair
    key = (value.lattice, value.cleared) if name == "DivisorClass" else values
    assert hash(twin) == hash(value) == hash(key)
    assert value != values and value.__eq__(values) is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value, fields = examples()[name]
    for field in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert hasattr(value, field)


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trip(name):
    value, _ = examples()[name]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value)


def test_a_lattice_pickled_in_another_process_hashes_its_fields():
    """A lattice caches its hash, and string hashes differ between processes,
    so unpickling rebuilds the lattice rather than restoring the cached value."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    dump = "import pickle, sys, zlab; sys.stdout.buffer.write(pickle.dumps(zlab.del_pezzo(2)))"
    load = (
        "import pickle, sys; model = pickle.loads(sys.stdin.buffer.read()); lattice = model.lattice;"
        "print(hash(lattice) == hash((lattice.gram, lattice.basis_labels)),"
        " hash(model.ample) == hash((lattice, model.ample.cleared)))"
    )
    data = subprocess.run([sys.executable, "-c", dump], capture_output=True, check=True,
                          env=dict(env, PYTHONHASHSEED="1"), timeout=120).stdout
    done = subprocess.run([sys.executable, "-c", load], input=data, capture_output=True,
                          check=True, env=dict(env, PYTHONHASHSEED="2"), timeout=120)
    assert done.stdout.split() == [b"True", b"True"]


def test_unequal_fields_give_unequal_values():
    lattice = dp_model(2).lattice
    assert lattice.divisor([1, 0, 0]) != lattice.divisor([1, 0, 1])
    assert lattice.divisor([1, 0, 0]) != dp_model(3).lattice.divisor([1, 0, 0, 0])
    other = IntersectionLattice([[1, 0, 0], [0, -2, 0], [0, 0, -1]], ["L", "E1", "E2"])
    assert lattice.divisor([1, 0, 0]) != other.divisor([1, 0, 0])
    assert lattice != IntersectionLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]], ["L", "E1", "E3"])
    assert ChamberDescriptor(("E1",)) != ChamberDescriptor(("E1", "E2"))
    assert NegativeCurve("A", lattice.divisor([0, 1, 0])) != NegativeCurve(
        "B", lattice.divisor([0, 1, 0])
    )


def test_cached_properties_still_cache():
    """A class stores ``cleared`` at construction; ``coords`` and ``square``
    are built on first read and cached."""
    divisor = dp_model(2).lattice.divisor([1, Fraction(1, 2), 0])
    assert vars(divisor)["cleared"] == ((2, 1, 0), 2)
    assert "coords" not in vars(divisor) and "square" not in vars(divisor)
    assert divisor.coords == (1, Fraction(1, 2), 0)
    assert divisor.square == Fraction(3, 4)
    assert vars(divisor)["coords"] is divisor.coords
    assert vars(divisor)["square"] == Fraction(3, 4)


DP2_LATTICE = (
    "IntersectionLattice(gram=((1, 0, 0), (0, -1, 0), (0, 0, -1)), basis_labels=('L', 'E1', 'E2'))"
)


def dp2_class(*coords: int) -> str:
    fractions = ", ".join(f"Fraction({c}, 1)" for c in coords)
    return f"DivisorClass(lattice={DP2_LATTICE}, coords=({fractions}))"


def dp2_curve(label: str, *coords: int) -> str:
    return f"NegativeCurve(label={label!r}, cls={dp2_class(*coords)})"


def test_repr_keeps_the_dataclass_format():
    dp2 = dp_model(2)
    e1 = dp2_curve("E1", 0, 1, 0)
    assert repr(dp2.curves[0]) == e1
    assert repr(ChamberDescriptor(("E2", "E1", "E2"))) == "ChamberDescriptor(support=('E1', 'E2'))"
    curves = ", ".join([e1, dp2_curve("E2", 0, 0, 1), dp2_curve("L-E1-E2", 1, -1, -1)])
    model = (
        f"SurfaceModel(lattice={DP2_LATTICE}, ample={dp2_class(3, -1, -1)}, "
        f"curves=({curves}), canonical={dp2_class(-3, 1, 1)})"
    )
    decomposition = zariski_decompose(dp2, dp2.lattice.divisor([1, 1, 0]))
    assert repr(decomposition) == (
        f"ZariskiDecomposition(model={model}, input={dp2_class(1, 1, 0)}, "
        f"positive={dp2_class(1, 0, 0)}, coefficients=(({e1}, Fraction(1, 1)),))"
    )
