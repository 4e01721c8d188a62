"""The benchmark's tracer (bench/tracing.py) wraps library functions by
name, where their callers look them up. A refactor that drops or moves one
of those names breaks `bench/run.py --trace 1` at install time; this test
catches it in the tier-1 suite. The tracer file is only read, never
imported as a package module, so no bytecode is written next to it."""

import importlib
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module(monkeypatch) -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, module.__name__, module)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    targets = _tracing_module(monkeypatch).TARGETS
    assert targets
    for module_name, attribute, _, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            assert hasattr(owner, part), f"{module_name}.{attribute} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attribute} is not callable"
