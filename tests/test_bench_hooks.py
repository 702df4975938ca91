"""Every function the benchmark's tracer wraps must still exist, so a
refactor that drops or renames one fails here instead of in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, path",
                         [(entry[0], entry[1]) for entry in _traced()])
def test_traced_hook_resolves(module, path):
    target = importlib.import_module(f"z2beta.{module}")
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)
