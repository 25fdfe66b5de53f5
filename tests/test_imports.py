"""No module of the package imports a name it never uses, or loads a module it
never needs.

No linter is a dependency of the project, so this reads each module's syntax
tree with the standard library's ``ast``. A name counts as used when it is
read anywhere in the module or listed in ``__all__`` (a re-export).
``__init__.py`` only re-exports and is skipped.

The footprint test imports the package in a fresh interpreter: a run, a
study, an export or the CLI must load no network or XML module, which cost
about 6 MB and 30 ms per process.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specnego"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

# perfbench/spans.py rebinds protocol.topsis, and tests/test_tracer.py pins the name.
KEPT = {("protocol", "topsis")}


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, sys\n"
        "from a import b as c, d, e, f, g\n"
        "__all__ = ['d']\n"
        "def h(x: e) -> f:\n"
        "    return c(sys.argv)\n"
    )
    assert unused_imports(source) == ["g", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_import(path):
    unused = [
        name for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in KEPT
    ]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def loaded_modules(statement: str) -> set[str]:
    """The modules loaded after running ``statement`` in a fresh interpreter."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    stdout = subprocess.run(
        [sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True,
        check=True,
    ).stdout
    return set(json.loads(stdout))


def test_cli_loads_no_network_or_xml_module():
    loaded = loaded_modules("import specnego.cli")
    assert {f"specnego.{path.stem}" for path in MODULES} <= loaded  # the whole package
    banned = {"xml", "urllib.request", "http", "email", "ssl", "socket"}
    assert banned & loaded == set()


def test_package_import_loads_no_export_module():
    loaded = loaded_modules("import specnego")
    assert {"specnego.charts", "specnego.reports"} & loaded == set()
