"""The span names that the benchmark's tracer reports on.

``bench/tracer.py`` looks up every span named in ``CALL_COUNTS`` and
``INCLUSIVE_TIMES`` among the spans it installed, so a public function
of ``relmetric`` that is renamed or deleted would break a traced
benchmark run.  Each name must resolve, by the tracer's own rules, to a
public function or method that it wraps.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
SPANS = sorted(
    {s for spans in tracer.CALL_COUNTS.values() for s in spans}
    | set(tracer.INCLUSIVE_TIMES.values())
)


@pytest.mark.parametrize("span", SPANS)
def test_traced_span_names_resolve(span):
    layer, *attrs = span.split(".")
    assert layer in tracer.LAYERS and span not in tracer.UNWRAPPED
    module = importlib.import_module(f"relmetric.{layer}")
    top = vars(module).get(attrs[0])
    assert getattr(top, "__module__", None) == module.__name__
    obj = module
    for attr in attrs:
        assert not attr.startswith("_")
        obj = vars(obj).get(attr)
        assert obj is not None, f"{span}: no attribute {attr!r}"
    assert callable(obj) and not isinstance(obj, type)
