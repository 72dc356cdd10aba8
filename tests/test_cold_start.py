"""Start-up cost: what importing zlab and running one command loads.

Importing the package loads none of its modules, ``zlab.cli`` loads only the
modules every command needs, and a command adds the modules it uses.  These
checks count modules in a fresh interpreter rather than timing it, so they do
not flake.  Nothing in ``src/zlab`` imports ``dataclasses``, whose import and
class building would cost a CLI process more than its computation.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zlab

ROOT = Path(__file__).resolve().parents[1]
CLI_CORE = {"zlab", "zlab.cli", "zlab.errors", "zlab.lattice", "zlab.surface"}


def loaded_after(code: str) -> set[str]:
    """The zlab modules a fresh interpreter holds after running ``code``."""
    probe = code + (
        "\nimport sys"
        "\nprint(' '.join(m for m in sys.modules if m == 'zlab' or m.startswith('zlab.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_no_module():
    assert loaded_after("import zlab") == {"zlab"}


def test_importing_the_cli_loads_only_its_core():
    assert loaded_after("import zlab.cli") == CLI_CORE


@pytest.mark.parametrize(
    "argv, added",
    [
        (["cutkosky-vol", "--eps", "0"], {"zlab.cutkosky"}),
        (["delpezzo", "--r", "3", "--count-curves"], set()),
        (["zariski", "--delpezzo", "2", "--class", "1,1,0"], {"zlab.zariski"}),
    ],
    ids=["cutkosky-vol", "delpezzo", "zariski"],
)
def test_a_command_loads_the_modules_it_uses(argv, added):
    loaded = loaded_after(f"from zlab.cli import main\nmain({argv!r})")
    assert loaded == CLI_CORE | added


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted((ROOT / "src" / "zlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(path.name, m) for m in modules if m.split(".")[0] == "dataclasses"]
    assert found == []


@pytest.mark.parametrize("name", zlab.__all__)
def test_public_name_resolves_to_its_home_object(name):
    value = getattr(zlab, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("zlab.")
    assert getattr(home, name) is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from zlab import *", namespace)
    assert {name: namespace.get(name) for name in zlab.__all__} == {
        name: getattr(zlab, name) for name in zlab.__all__
    }


def test_unknown_names_raise_and_dir_lists_the_public_ones():
    with pytest.raises(AttributeError, match="no_such_name"):
        zlab.no_such_name
    assert not hasattr(zlab, "zariski_decomposition")
    assert set(zlab.__all__) <= set(dir(zlab))
    assert "__version__" in dir(zlab)


def load_tracer():
    """The benchmark's tracer module, executed from its file without changing it."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists():
    """The benchmark wraps these functions by name and skips a module that is
    not loaded, so a renamed or dropped target would go untraced silently."""
    missing = []
    for module_name, attr, _, _ in load_tracer().TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or method not in vars(cls):
                missing.append((module_name, attr))
        elif not callable(getattr(module, attr, None)):
            missing.append((module_name, attr))
    assert missing == []
