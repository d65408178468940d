"""The benchmark's tracer wraps library entry points by attribute name; a
refactor that drops one of them would fail every benchmark run.  This test only
reads ``bench/tracer.py``."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("subriem_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("entry", tracer.COUNTED + tracer.TRACED,
                         ids=lambda e: f"{getattr(e[0], '__name__', e[0])}.{e[1]}")
def test_traced_binding_exists(entry):
    owner, attr = entry[0], entry[1]
    assert attr in owner.__dict__, f"{owner!r} has no attribute {attr!r} of its own"
    assert callable(owner.__dict__[attr])
