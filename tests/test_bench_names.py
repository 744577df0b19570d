"""The benchmark traces library functions and methods by name (bench/spans.py);
each name must still resolve, or a traced run stops inside Tracer.install."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    missing = []
    for mod, fn in spans.SPAN_FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"skewcat.{mod}"), fn, None)):
            missing.append(f"{mod}.{fn}")
    for mod, cls, meth in spans.SPAN_METHODS + spans.COUNTED_METHODS:
        klass = getattr(importlib.import_module(f"skewcat.{mod}"), cls, None)
        if klass is None or meth not in vars(klass):
            missing.append(f"{mod}.{cls}.{meth}")
    assert missing == []


def test_tracer_installs_and_uninstalls(spans):
    functions = {(mod, fn): getattr(importlib.import_module(f"skewcat.{mod}"), fn)
                 for mod, fn in spans.SPAN_FUNCTIONS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(importlib.import_module(f"skewcat.{mod}"), fn) is not original
                   for (mod, fn), original in functions.items())
    finally:
        tracer.uninstall()
    assert all(getattr(importlib.import_module(f"skewcat.{mod}"), fn) is original
               for (mod, fn), original in functions.items())
