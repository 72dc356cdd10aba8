"""The package's import graph is acyclic and layered.

Every module of ``zlab`` may import only from a strictly lower tier, so the
graph follows lattice -> surface -> zariski -> {chambers, volume, raywalk}
-> weyl -> cli.  Imports inside function bodies count too.
"""

from __future__ import annotations

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import zlab

PACKAGE = Path(zlab.__file__).parent

TIERS = {
    "errors": 0,
    "lattice": 1,
    "surface": 2,
    "zariski": 3,
    "chambers": 4,
    "volume": 4,
    "raywalk": 4,
    "cutkosky": 4,
    "weyl": 5,
    "cli": 6,
    "__init__": 7,
}


def package_imports(path: Path) -> set[str]:
    """The zlab modules a source file imports anywhere in its body."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.level == 1:
                modules = [f"zlab.{node.module}" if node.module else "zlab"]
            if modules == ["zlab"]:
                # "from . import x": a submodule, or a name from __init__
                found.update(a.name if a.name in TIERS else "__init__" for a in node.names)
                continue
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("zlab."))
    return found


def import_graph() -> dict[str, set[str]]:
    return {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}


def test_every_module_has_a_tier():
    assert set(import_graph()) == set(TIERS)


def test_import_graph_is_acyclic_and_layered():
    graph = import_graph()
    list(TopologicalSorter(graph).static_order())  # raises CycleError
    upward = sorted(
        (module, target)
        for module, targets in graph.items()
        for target in targets
        if TIERS[target] >= TIERS[module]
    )
    assert upward == []
