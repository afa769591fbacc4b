"""Every function the benchmark's tracer wraps must exist in the package.

``bench/tracing.py`` replaces each ``(module, attribute)`` of its
``LAYER_FUNCTIONS`` list with a timing wrapper; a name dropped from
``circmeans`` would break ``bench/run.py --trace 1`` and the benchmark's
own tests, which this suite does not run.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_layer_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_FUNCTIONS
    for module, attr, _ in tracing.LAYER_FUNCTIONS:
        target = getattr(importlib.import_module(f"circmeans.{module}"), attr, None)
        assert callable(target), f"circmeans.{module}.{attr}"
