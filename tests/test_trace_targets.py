"""Every function the benchmark's layer tracer wraps still exists in the library.

``bench/trace_layers.py`` names its targets as ``module.function`` strings
and rebinds them at run time, so a deleted or renamed function would only
surface when a traced run starts.
"""
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location(
        "trace_layers", ROOT / "bench" / "trace_layers.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name in tracer.FUNCTIONS:
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"triblock.{module}"), function, None)):
            missing.append(name)
    assert tracer.FUNCTIONS and missing == []
