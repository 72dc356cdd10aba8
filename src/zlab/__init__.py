"""Exact Zariski decompositions, big-cone chambers, volumes and Weyl actions
on intersection lattices of algebraic surfaces.

Importing the package loads none of its modules: each public name is looked
up in its home module on first use (PEP 562), so a CLI process compiles only
the modules its command needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "chambers": ("Face", "construct_nef_with_null", "enumerate_chambers", "face_of"),
    "cutkosky": (
        "AbelianSurfaceData", "CertificateReport", "abelian_surface", "abelian_surface_model",
        "h0_section_count", "nonpolynomiality_certificate", "q_poly", "quadrature_volume",
        "sigma_eps", "volume_L_eps", "volume_closed_form",
    ),
    "errors": ("ZlabError",),
    "lattice": (
        "DivisorClass", "IntersectionLattice", "QuadraticIrrational", "inverse_is_nonpositive",
        "pair", "signature", "solve_gram_system", "sqrt_fraction",
    ),
    "raywalk": (
        "RaySegment", "RayWalkResult", "destabilizing_numbers", "is_ample", "is_stable",
        "stable_base_locus",
    ),
    "surface": (
        "NegativeCurve", "RootSystem", "SurfaceModel", "del_pezzo", "enumerate_roots",
        "exceptional_classes", "is_nef", "simple_roots",
    ),
    "volume": ("QuadraticVolumePolynomial", "kunneth_volume", "vol", "volume_polynomial"),
    "weyl": ("k3_reflection_volume", "reflect", "weyl_group_order", "weyl_orbit"),
    "zariski": (
        "ChamberDescriptor", "ZariskiDecomposition", "chamber_closure_contains", "chamber_of",
        "is_big", "neg_set", "null_set", "on_chamber_boundary", "zariski_decompose",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home module of a public name and bind the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
