"""The benchmark's tracer wraps library entry points by attribute name; a
refactor that drops one of them would fail every benchmark run, and one that
calls them differently would make its counts read wrong.  These tests only
read ``bench/tracer.py``."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from subriem import flow, structure

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


@pytest.mark.parametrize("batch", [None, 3])
def test_integrators_count_every_stage_as_jet_rows(monkeypatch, batch):
    # the tracer counts jet rows as len(args[1]) of Structure.jet_raw_batch, so
    # every RHS evaluation must call it once, through the class attribute, with
    # the B phase rows as its first positional argument
    heis = structure.make_structure("heisenberg")
    rhs_rows = []
    make_rhs = flow._augmented_rhs

    def counting_rhs(struct):
        rhs = make_rhs(struct)

        def counted(t, y):
            rhs_rows.append(len(y))
            return rhs(t, y)
        return counted

    jet_calls = []
    jet = structure.Structure.jet_raw_batch

    def spy(self, *args, **kwargs):
        jet_calls.append((len(args), sorted(kwargs), args[0].shape))
        return jet(self, *args, **kwargs)

    monkeypatch.setattr(flow, "_augmented_rhs", counting_rhs)
    monkeypatch.setattr(structure.Structure, "jet_raw_batch", spy)
    rec = tracer.Recorder(timing=False)
    saved = tracer.install(rec)
    rec.active = True
    try:
        if batch is None:
            flow.integrate_extremal(heis, np.zeros(3), np.array([1.0, 0.0, 7.0]), 1.0)
        else:
            covs = np.array([[1.0, 0.0, 7.0], [0.5, 0.3, 4.0], [0.2, -0.9, 9.0]])
            flow.integrate_extremal_batch(heis, np.zeros(3), covs, 1.0)
    finally:
        rec.active = False
        tracer.uninstall(saved)
    rows = 1 if batch is None else batch
    assert rhs_rows and set(rhs_rows) == {rows}
    assert jet_calls == [(1, [], (rows, 6))] * len(rhs_rows)
    assert rec.table[0]["structure.jet.rows"] == sum(rhs_rows)
    assert rec.table[0]["flow.integrate.rays"] == rows
