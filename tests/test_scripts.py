"""Smoke tests of the scripts under scripts/: each runs as a fresh process
on a small input and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


def test_noninjectivity_demo_confirms_every_collision():
    proc = _run_script("noninjectivity_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("all collisions confirmed")


def test_conjugate_locus_scan_writes_its_grid(tmp_path):
    out = tmp_path / "locus.csv"
    proc = _run_script("conjugate_locus_scan.py", "--grid", "8", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "u0,v0,alpha0,conjugate,class,k1,k2,k3"
    assert len(lines) == 1 + 8 * 8
    assert "0 disagreement(s)" in proc.stdout
