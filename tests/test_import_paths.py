"""Each name has one import path: the module that defines it. A package
`__init__.py` holds its docstring alone (the top package also its
`__version__`), so importing a package loads none of its modules and
re-exports nothing. The import lines README's python examples show must
keep working."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "skyglow"


def _package_statements(tree: ast.Module, allowed: tuple[str, ...] = ()) -> list[str]:
    """The top-level statements of a package init other than string
    expressions (its docstring) and assignments to one of `allowed`, each
    with its line."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in allowed:
            continue
        found.append(f"line {node.lineno}: {ast.unparse(node).splitlines()[0]}")
    return found


def test_package_inits_bind_no_name():
    inits = sorted(PACKAGE.rglob("__init__.py"))
    assert {init.parent.name for init in inits} >= {"skyglow", "cli", "features",
                                                    "learners"}
    for init in inits:
        allowed = ("__version__",) if init.parent == PACKAGE else ()
        tree = ast.parse(init.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), init
        assert _package_statements(tree, allowed) == [], init


def test_package_init_scan_finds_every_binding():
    source = ('"""Docstring."""\n'
              "from .pipeline import N_CLASSES\n"
              "import numpy\n"
              "__version__ = '1'\n"
              "__all__ = ['N_CLASSES']\n"
              "def f():\n"
              "    pass\n"
              "class C:\n"
              "    pass\n"
              "if True:\n"
              "    x = 1\n"
              "y: int = 2\n"
              '"""A string."""\n')
    tree = ast.parse(source)
    assert _package_statements(tree, ("__version__",)) == [
        "line 2: from .pipeline import N_CLASSES", "line 3: import numpy",
        "line 5: __all__ = ['N_CLASSES']", "line 6: def f():",
        "line 8: class C:", "line 10: if True:", "line 12: y: int = 2"]
    assert "line 4: __version__ = '1'" in _package_statements(tree)


def _readme_python_imports() -> list[ast.stmt]:
    """The import statements of README's python code blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    return [node for block in blocks for node in ast.parse(block).body
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_readme_python_example_imports_run():
    imports = _readme_python_imports()
    assert any(isinstance(node, ast.ImportFrom) and node.module == "skyglow.validation"
               for node in imports)
    exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), {})
