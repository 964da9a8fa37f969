"""The benchmark's tracer patches package names by module and attribute; a
deletion or rename in the package must not leave one of them dangling."""
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_lookup_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    for module, cls_name, method, _, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if not callable(getattr(cls, method, None)):
            missing.append(f"{module}.{cls_name}.{method}")
    assert tracing.FUNCTIONS and tracing.METHODS
    assert missing == []
