"""Every CSV artifact is written by `dataset.write_rows` and read back by
`dataset.read_rows` (or, for the outside inputs, `dataset.csv_reader`).
This test keeps CSV reading and writing from growing back elsewhere: no
module of the package but `dataset.py` touches `csv.reader` or
`csv.writer`."""

import ast
from pathlib import Path

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


def test_csv_reader_and_writer_only_in_dataset():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        uses = _csv_uses(ast.parse(path.read_text(encoding="utf-8")))
        if uses:
            found[str(path.relative_to(PACKAGE))] = uses
    assert set(found) == {"dataset.py"}, found
