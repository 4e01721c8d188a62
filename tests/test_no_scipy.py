"""The package runs on numpy alone: sparse TF-IDF products and exact
neighbor search are its own code, so no stage pays scipy's start-up cost.
This test keeps scipy from coming back: no module of the package imports
it, at module level or inside a function."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skyglow"


def _scipy_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name == "scipy" or name.startswith("scipy.")]
    return found


def test_no_module_imports_scipy():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        uses = _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
        if uses:
            found[str(path.relative_to(PACKAGE))] = uses
    assert found == {}


def test_scan_finds_every_import_form():
    source = ("import scipy\n"
              "import numpy, scipy.sparse as sp\n"
              "def f():\n"
              "    from scipy.spatial import cKDTree\n"
              "from scipyx import y\n"
              "from . import scipy\n")
    assert _scipy_imports(ast.parse(source)) == [
        "line 1: scipy", "line 2: scipy.sparse", "line 4: scipy.spatial"]
