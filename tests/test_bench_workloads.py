"""Each benchmark workload runs one query against the library and checks it
against its oracle, so a library change that breaks what the benchmark calls
fails here rather than in a benchmark run.  ``bench/`` is only read."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("subriem_bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_query_runs_and_checks(name):
    workload = workloads.WORKLOADS[name]()
    query = workload.block(np.random.default_rng(11), 0)[0]
    checked = workload.check(query, workload.run(query))
    assert checked.ok, checked.note
