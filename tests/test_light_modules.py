"""`ensemble` runs on numpy, `dataset` and the metric helpers of
`skyglow.metrics`, and loads no feature-stack, learner or sidecar code.
This test keeps those modules light: neither `metrics` nor `ensemble`
imports a fitting module, at module level or inside a function. It also
checks that the names `validation` imports from `metrics` are one object
under each module, and that the statistics and OOF file names have one
home: neither module re-exports them.

`ingest`, `eda` and `report` load no numpy at all: the modules they run
(`dataset`, `specs`, `errors` and the CLI's `config`, `svg` and `main`)
import numpy only for type checking."""

import ast
from pathlib import Path

import pytest

from skyglow import dataset, ensemble, metrics, validation

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skyglow"
LIGHT_MODULES = ("metrics.py", "ensemble.py")
NUMPY_FREE_MODULES = ("dataset.py", "specs.py", "errors.py", "cli/config.py",
                      "cli/svg.py", "cli/main.py")
FITTING_MODULES = {"validation", "features", "learners", "serialize", "synth",
                   "textfeat"}
MOVED_NAMES = ("MetricsReport", "classification_metrics", "micro_f1",
               "predicted_classes")


def _fitting_imports(tree: ast.AST) -> list[str]:
    """The fitting modules that a top-level module of the package imports,
    as full dotted names, each with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("skyglow." if node.level else "") + (node.module or "")
            # `from . import x` and `from skyglow import x` name submodules
            names = ([f"skyglow.{alias.name}" for alias in node.names]
                     if module.rstrip(".") == "skyglow" else [module])
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if _is_fitting(name)]
    return found


def _is_fitting(name: str) -> bool:
    package, _, submodule = name.partition(".")
    return package == "skyglow" and submodule.split(".")[0] in FITTING_MODULES


def _is_type_checking(test: ast.expr) -> bool:
    """Whether an `if` tests `TYPE_CHECKING` or `typing.TYPE_CHECKING`."""
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _runtime_numpy_imports(node: ast.AST) -> list[str]:
    """The imports of numpy or a numpy submodule under `node` that run
    when the code does: every one outside the body of an
    `if TYPE_CHECKING:` block (its `else` branch runs), each with its line."""
    if isinstance(node, ast.If) and _is_type_checking(node.test):
        children = [node.test, *node.orelse]
    else:
        children = list(ast.iter_child_nodes(node))
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module or ""]
    else:
        names = []
    found = [f"line {node.lineno}: {name}" for name in names
             if name.split(".")[0] == "numpy"]
    for child in children:
        found += _runtime_numpy_imports(child)
    return found


@pytest.mark.parametrize("name", NUMPY_FREE_MODULES)
def test_numpy_free_modules_import_numpy_only_for_type_checking(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    assert _runtime_numpy_imports(tree) == []


def test_numpy_scan_skips_only_type_checking_blocks():
    source = ("import os, numpy\n"
              "import numpy.linalg as la\n"
              "from numpy import ndarray\n"
              "from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    import numpy as np\n"
              "    from numpy.typing import NDArray\n"
              "else:\n"
              "    import numpy as np\n"
              "def f():\n"
              "    from numpy.random import default_rng\n"
              "if typing.TYPE_CHECKING:\n"
              "    import numpy\n"
              "if DEBUG:\n"
              "    import numpy\n"
              "import numpyx\n"
              "from .numpy import x\n")
    assert _runtime_numpy_imports(ast.parse(source)) == [
        "line 1: numpy", "line 2: numpy.linalg", "line 3: numpy",
        "line 9: numpy", "line 11: numpy.random", "line 15: numpy"]


@pytest.mark.parametrize("name", LIGHT_MODULES)
def test_light_modules_import_no_fitting_module(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    assert _fitting_imports(tree) == []


def test_scan_finds_every_import_form():
    source = ("from .validation import micro_f1\n"
              "import numpy, skyglow.learners.gbdt as gbdt\n"
              "def f():\n"
              "    from .features.stack import fit_stack\n"
              "from . import serialize, dataset\n"
              "from skyglow import synth\n"
              "from skyglow.textfeat import fit_text_features\n"
              "from .dataset import write_rows\n"
              "from .validations import x\n"
              "import skyglowx.validation\n")
    assert _fitting_imports(ast.parse(source)) == [
        "line 1: skyglow.validation", "line 2: skyglow.learners.gbdt",
        "line 5: skyglow.serialize", "line 6: skyglow.synth",
        "line 7: skyglow.textfeat", "line 4: skyglow.features.stack"]


def test_moved_metric_names_are_one_object_under_every_import_path():
    for name in MOVED_NAMES:
        assert getattr(validation, name) is getattr(metrics, name), name
    for name in ("pearson", "annual_trend"):
        assert hasattr(dataset, name), name
        assert not hasattr(metrics, name) and not hasattr(validation, name), name
    for name in ("read_oof_csv", "write_oof_csv"):
        assert hasattr(metrics, name) and not hasattr(validation, name), name
    assert ensemble.micro_f1 is metrics.micro_f1
    assert ensemble.predicted_classes is metrics.predicted_classes
