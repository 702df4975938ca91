"""Every function the benchmark's tracer wraps must still exist, so a
refactor that drops or renames one fails here instead of in a traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, path",
                         [(entry[0], entry[1]) for entry in _tracing().TRACED])
def test_traced_hook_resolves(module, path):
    target = importlib.import_module(f"z2beta.{module}")
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_expand_zeta_takes_order_by_position_or_keyword():
    # the tracer buckets expand_zeta calls by ``order``, read from either
    zeta = importlib.import_module("z2beta.zeta")
    assert list(inspect.signature(zeta.expand_zeta).parameters) \
        == ["form", "order"]
    form = zeta.dl_zeta_signed(zeta.x2_plus_y4_resolution(), "+")
    assert zeta.expand_zeta(form, 8) == zeta.expand_zeta(form, order=8)
    bucket = _tracing()._order_bucket
    assert bucket((form, 8), {}) == bucket((form,), {"order": 8}) == "order32"
