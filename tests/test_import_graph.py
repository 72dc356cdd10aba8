"""The package's import graph is acyclic and layered, every import is used,
and every definition is read somewhere.

Every module of ``zlab`` may import only from a strictly lower tier, so the
graph follows lattice -> surface -> zariski -> {chambers, volume, raywalk}
-> weyl -> cli.  Imports inside function bodies count too.  Outside
``__init__``, which re-exports, a module uses every name it imports.
"""

from __future__ import annotations

import ast
from collections import Counter
from graphlib import TopologicalSorter
from pathlib import Path

import zlab
from test_cold_start import load_tracer

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


def imported_names(tree: ast.Module) -> set[str]:
    """The names a module binds by import, ``from __future__`` aside."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.update(a.asname or a.name for a in node.names)
    return found


def annotation_nodes(tree: ast.Module) -> list[ast.expr]:
    found: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [a for a in (arguments.vararg, arguments.kwarg) if a is not None]
            found += [a.annotation for a in every if a.annotation is not None]
            found += [node.returns] if node.returns is not None else []
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def used_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, including inside string annotations."""
    found = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotation_nodes(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                found.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return found


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            unused += [(path.stem, name) for name in imported_names(tree) - used_names(tree)]
    assert unused == []


# -- every definition is used ------------------------------------------------

# Methods no library code reads, each with the reason it stays.
UNREFERENCED_BY_DESIGN = {
    "DivisorClass.is_zero": "public predicate; the tests compare it with a reference class",
    "QuadraticIrrational.inverse": "public arithmetic beside the division operators",
    "QuadraticVolumePolynomial.evaluate": "public; the tests and the benchmark evaluate forms",
    "_Parser.error": "argparse calls it on a usage error",
    "ZariskiDecomposition.support_labels": "public; the tests' oracle for chamber_of and the "
                                           "stable base locus, which read the integer core",
}


def definitions(tree: ast.AST, prefix: str = "") -> list[tuple[str, ast.AST]]:
    """(qualified name, node) for every function, method and class a module
    defines, nested ones as ``outer.inner``."""
    found: list[tuple[str, ast.AST]] = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((prefix + child.name, child))
            found += definitions(child, f"{prefix}{child.name}.")
        else:
            found += definitions(child, prefix)
    return found


def identifiers(tree: ast.AST) -> Counter:
    """How often each identifier is read: names, attributes, and the names
    inside string annotations."""
    found = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    found.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    for annotation in annotation_nodes(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                found.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return found


def test_every_definition_is_used():
    """A function, method or class of ``zlab`` is read somewhere else in the
    package, or is public (``__all__``), a dunder, a benchmark tracer target,
    or listed above with a reason.  A listed entry that names no definition,
    or that the package reads, is stale and fails too."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    everywhere = sum(map(identifiers, trees), Counter())
    defined = [pair for tree in trees for pair in definitions(tree)]

    def unread(node: ast.AST) -> bool:  # read only inside itself
        return everywhere[node.name] <= identifiers(node)[node.name]

    kept = set(zlab.__all__) | set(UNREFERENCED_BY_DESIGN)
    kept.update(attr for _, attr, _, _ in load_tracer().TARGETS)
    unused = [
        name
        for name, node in defined
        if name not in kept
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and unread(node)
    ]
    assert unused == []
    listed = {name: node for name, node in defined if name in UNREFERENCED_BY_DESIGN}
    assert sorted(listed) == sorted(UNREFERENCED_BY_DESIGN)  # each entry names a definition
    assert [name for name, node in listed.items() if not unread(node)] == []
