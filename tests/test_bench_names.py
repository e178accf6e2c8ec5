"""The names that the benchmark's tracer looks up in the package still resolve.

``bench/tracing.py`` wraps functions and methods of each layer by name, so a
refactor that renames or moves one of them would break ``--trace 1`` or
silently read as zero calls.  These tests read its tables and leave it as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("casfluct_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
# the pool and the CLI entry point are looked up apart from FUNCTIONS
LOOKED_UP = sorted({(module, attr) for module, attr, *_ in tracing.FUNCTIONS}
                   | {("provenance", "parallel_map"), ("cli", "main")})
METHODS = [(module, cls, method) for module, cls, methods, *_ in tracing.METHODS for method in methods]


@pytest.mark.parametrize("module, attr", LOOKED_UP, ids=[".".join(pair) for pair in LOOKED_UP])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), attr))


@pytest.mark.parametrize("module, cls, method", METHODS, ids=[".".join(entry) for entry in METHODS])
def test_traced_method_is_defined_on_its_class(module, cls, method):
    assert callable(vars(getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), cls))[method])

