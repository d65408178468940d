#!/usr/bin/env python3
"""Compare the end-to-end benchmark of two checkouts in alternating pairs.

    python3 scripts/bench.py --parent ../parent --change . --pr 6 --seed 6100

For every workload of the change's ``BENCHMARK.json`` and each of ten pairs i,
runs ``bench/run.py --workload W --seed SEED+i --seconds S --trace 0`` once in
each checkout, with S the file's ``run_seconds``, one process at a time, the
parent first on even pairs and the change first on odd ones, so slow drift of
the machine falls on both sides alike.  Each run's last stdout line is its
JSON result.

Then, per workload, runs ``bench/run.py ... --trace 1`` once in each checkout
(parent first) at the first pair's seed and run length, for the per-layer
metrics of ``BENCHMARK.json``.

Writes ``BENCH_<pr>.json`` into the change's checkout with, per workload and
metric, each side's median and quartiles over the pairs, the change's pairs
won and tied (by the metric's ``better`` direction in ``BENCHMARK.json``), the
parent's IQR and whether the change's median is better by more than it; plus
every run's raw metrics and failure counts, and under ``per_layer`` each
side's traced per-layer metrics (one run each, so no spread).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _summary(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    tied = sum(c == p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "better": better,
        "pairs": len(parent),
        "pairs_won": won,
        "pairs_tied": tied,
        "parent_iqr": p_q3 - p_q1,
        "median_gain_exceeds_parent_iqr": sign * (c_med - p_med) > p_q3 - p_q1,
        "relative_change": (c_med - p_med) / p_med if p_med else None,
    }


def _per_layer(sides: dict[str, Path], workload: str, seed: int, seconds: float) -> dict:
    """One traced run per side: the seed, each side's failure count and, per
    per-layer metric, its unit and both sides' values."""
    traced = {}
    for side, checkout in sides.items():
        start = time.time()
        traced[side] = _run(checkout, workload, seed, seconds, trace=1)
        print(f"{workload} traced {side}: {time.time() - start:.0f} s", file=sys.stderr)
    layers = traced["change"]["metrics"]
    return {
        "seed": seed,
        "failed": {side: r["failed"] for side, r in traced.items()},
        "metrics": {name: {"unit": m["unit"],
                           **{side: r["metrics"].get(name, {}).get("value")
                              for side, r in traced.items()}}
                    for name, m in layers.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", default=ROOT, type=Path, help="checkout of the change")
    ap.add_argument("--pr", required=True, help="label of the output file BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, default=6100, help="seed of the first pair")
    args = ap.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {"pairs": PAIRS, "seconds": seconds,
              "seeds": [args.seed + i for i in range(PAIRS)], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                start = time.time()
                runs[side].append(_run(sides[side], workload, args.seed + i, seconds))
                print(f"{workload} pair {i} {side}: {time.time() - start:.0f} s", file=sys.stderr)
        metrics = {}
        for name, direction in better.items():
            metrics[name] = _summary([r["metrics"][name]["value"] for r in runs["parent"]],
                                     [r["metrics"][name]["value"] for r in runs["change"]],
                                     direction)
        report["workloads"][workload] = {
            "metrics": metrics,
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
            "runs": {side: [{k: v["value"] for k, v in r["metrics"].items()}
                            for r in runs[side]] for side in runs},
            "per_layer": _per_layer(sides, workload, args.seed, seconds),
        }
    out = args.change / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
