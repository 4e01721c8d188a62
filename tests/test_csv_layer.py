"""Every CSV artifact is written by `dataset.write_rows` and read back by
`dataset.read_rows` (or, for the outside inputs, `dataset.csv_reader`).
These tests keep CSV reading and writing from growing back elsewhere: no
module of the package but `dataset.py` touches `csv.reader` or
`csv.writer`. They also pin the cell contract that `write_rows` owns, and
keep per-site float formatting out: no module of the package calls
`repr`. The matrix path (`metrics.write_matrix` over
`dataset.write_coded_rows`) must write exactly the bytes `write_rows`
writes for the same rows."""

import ast
from pathlib import Path

import numpy as np
import pytest

from skyglow.dataset import read_rows, write_coded_rows, write_rows
from skyglow.metrics import write_matrix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skyglow"


def _csv_uses(tree: ast.AST) -> list[str]:
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("reader", "writer")
                and isinstance(node.value, ast.Name) and node.value.id == "csv"):
            uses.append(f"line {node.lineno}: csv.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            uses.append(f"line {node.lineno}: from csv import ...")
    return uses


def _repr_calls(tree: ast.AST) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "repr"]


def _scan(find) -> dict[str, list[str]]:
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        uses = find(ast.parse(path.read_text(encoding="utf-8")))
        if uses:
            found[str(path.relative_to(PACKAGE))] = uses
    return found


def test_csv_reader_and_writer_only_in_dataset():
    found = _scan(_csv_uses)
    assert set(found) == {"dataset.py"}, found


def test_no_module_calls_repr():
    assert _scan(_repr_calls) == {}


def test_repr_scan_finds_every_call():
    source = ("x = repr(1.0)\n"
              "y = f'{x!r}'\n"
              "def f(v):\n"
              "    return [repr(float(v))]\n"
              "z = obj.repr(2)\n")
    assert _repr_calls(ast.parse(source)) == ["line 1", "line 4"]


FLOATS = [0.1, 1 / 3, 0.1 + 0.2, 5e-324, -0.0, 1e16,
          *np.array([0.1, 1 / 3, -2.5e-8, 1e300, -0.0]).tolist()]
INTS = [0, 7, -3, 10**20, *np.array([2, -5], dtype=np.int64).tolist()]


def test_write_rows_formats_every_cell(tmp_path):
    path = tmp_path / "cells.csv"
    write_rows(path, ["kind", "value"],
               [["float", v] for v in FLOATS] + [["int", v] for v in INTS]
               + [["none", None]])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == (["kind,value"] + [f"float,{v!r}" for v in FLOATS]
                     + [f"int,{v}" for v in INTS] + ["none,"])

    _, cells = read_rows(path, ["kind", "value"], lambda row: row[1])
    floats = [float(cell) for cell in cells[:len(FLOATS)]]
    # equal bit for bit, so -0.0 keeps its sign
    assert [v.hex() for v in floats] == [v.hex() for v in FLOATS]
    assert [int(cell) for cell in cells[len(FLOATS):-1]] == INTS
    assert cells[-1] == ""


def _nan_with_payload() -> float:
    return np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]


MATRIX_CASES = {
    # -0.0 and 0.0 in one column, subnormal, large, small and integral
    "extremes": ([["a"], ["b"], ["c"], ["d"]], [
        [-0.0, 5e-324, 1e16, 1e-05, 1.0],
        [0.0, 5e-324, -1e16, 1e-05, -3.0],
        [-0.0, 0.1 + 0.2, 2.0 ** 53, 1 / 3, 0.0],
        [0.0, -5e-324, 1e300, 1e-05, 1.0]]),
    "nan_and_inf": ([["a", 0], ["b", 1]], [
        [np.nan, np.inf, -np.inf, _nan_with_payload()],
        [-np.nan, -np.inf, np.inf, 0.5]]),
    "no_rows": ([], np.zeros((0, 3))),
    "no_float_columns": ([["a"], [""], ["b,c"]], np.zeros((3, 0))),
    "no_label_cells": ([[], []], [[1.5, -0.0], [1.5, 2.0]]),
    "quoted_labels": ([["a,b", 1, "m"], ['say "hi"', 2, "m"],
                       ["line\nbreak", 3, "m"], ["", 4, ""], ["\r", 5, " "]],
                      np.arange(15, dtype=float).reshape(5, 3) / 7),
    "lone_empty_label": ([[""], [""]], [[0.25, 0.25], [-0.0, 0.0]]),
}


@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_matrix_path_writes_the_bytes_of_write_rows(tmp_path, case):
    labels, matrix = MATRIX_CASES[case]
    matrix = np.array(matrix, dtype=np.float64)
    header = ["x"] * (len(labels[0]) if labels else 1) + [
        f"p_{c}" for c in range(matrix.shape[1])]
    write_rows(tmp_path / "rows.csv", header,
               (list(label) + row.tolist() for label, row in zip(labels, matrix)))
    write_matrix(tmp_path / "matrix.csv", header, labels, matrix)
    expected = (tmp_path / "rows.csv").read_bytes()
    assert (tmp_path / "matrix.csv").read_bytes() == expected


def test_coded_rows_format_each_value_by_code(tmp_path):
    # the dataset side needs no numpy: codes index a list of floats
    write_coded_rows(tmp_path / "coded.csv", ["id", "u", "v"],
                     [["r0"], ["r1"]], [-0.0, 0.0, 1e-05],
                     [[0, 1], [2, 0]])
    assert (tmp_path / "coded.csv").read_text(encoding="utf-8") == (
        "id,u,v\nr0,-0.0,0.0\nr1,1e-05,-0.0\n")
