"""Every source file parses as the oldest Python the package supports, the
version `requires-python` in pyproject.toml names, whatever interpreter
runs the tests: syntax that needs a newer one, such as `except*`, fails
here. This checks syntax only; a library call that behaves differently
on the oldest version passes it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_every_source_file_parses_as_the_oldest_supported_python():
    version = _oldest_python()
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert len(sources) > 20
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=version)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_the_syntax_check_refuses_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=_oldest_python())
