"""subriem benchmark: one workload per process, checked against the
Heisenberg closed forms or an independent certificate.

    python3 bench/run.py --workload single-ray --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run

1. measures set-up in fresh processes (``setup_probe.py``), median of
   ``SETUP_PROBES``;
2. warms up with one short untimed query;
3. issues the workload's seeded queries in a closed loop with one caller,
   block after block, until the timed query bodies add up to ``--seconds``
   (the ``COUNTED_BLOCKS`` first blocks, and with tracing one more, always
   complete);
4. checks every output off the clock;
5. prints a readable summary and, as the last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

Query times are rescaled for the machine's speed drift by ``SpeedClock``;
the summary prints the raw seconds too.

With ``--trace 0`` the metrics are the end-to-end ones; only the jet and the
integrator entry points are wrapped, by counters.  With ``--trace 1`` the
metrics are per layer: the counted blocks and every second later block run
under the span tracer, the others with counters only (their difference is
the tracing overhead), and the spans are written to ``bench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the numbers describe the library, not the pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
#: nominal time of ``reference_kernel``: every reported time but setup_s is
#: rescaled to a machine on which the kernel takes this long (``SpeedClock``)
REFERENCE_SECONDS = 0.008
#: longest stretch of a query between two speed probes, untraced runs
SEGMENT_SECONDS = 0.5
#: blocks every run completes; their counts repeat exactly for a seed
COUNTED_BLOCKS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "rays_per_s": "1/s",
    "jet_evals_per_ray": "rows/ray",
    "oracle_margin_dec": "decades",
    "peak_rss_mb": "MB",
}

# per-layer metrics: (name, unit, how) where how is "count" (summed over the
# counted blocks, repeats exactly for a seed) or "time" (median over traced
# blocks)
PER_LAYER = [
    ("structure.jet.rows", "count", "count"),
    ("structure.jet.calls", "count", "count"),
    ("structure.jet.self_s", "s", "time"),
    ("structure.jet.us_per_row", "us", "time"),
    ("flow.integrate.calls", "count", "count"),
    ("flow.integrate.rays", "count", "count"),
    ("flow.integrate.landings", "count", "count"),
    ("flow.integrate.self_s", "s", "time"),
    ("flow.at.calls", "count", "count"),
    ("flow.at.offgrid", "count", "count"),
    ("flow.at.self_s", "s", "time"),
    ("maslov.frames", "count", "count"),
    ("maslov.frames.self_s", "s", "time"),
    ("maslov.curve.self_s", "s", "time"),
    ("maslov.frame_at.calls", "count", "count"),
    ("maslov.frame_at.offgrid", "count", "count"),
    ("maslov.scan.self_s", "s", "time"),
    ("maslov.crossings", "count", "count"),
    ("maslov.probes_per_crossing", "probes/crossing", "count"),
    ("maslov.crossing_form.calls", "count", "count"),
    ("maslov.crossing_form.self_s", "s", "time"),
    ("maslov.continuity.self_s", "s", "time"),
    ("maslov.refusals", "count", "count"),
    ("jacobi.regularity.self_s", "s", "time"),
    ("heisenberg.classify.calls", "count", "count"),
    ("heisenberg.classify.self_s", "s", "time"),
    ("heisenberg.locus.self_s", "s", "time"),
    ("cli.main.self_s", "s", "time"),
    ("trace.overhead_s", "s", "time"),
]


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_kernel() -> np.ndarray:
    """Fixed interpreter and small-matrix work, independent of subriem, of the
    same kind as the library's hot path."""
    a = np.eye(6) * 0.5
    x = np.ones(6)
    for _ in range(3000):
        x = a @ x + 1.0
    return x


def speed_probe(reps: int = 3) -> float:
    """Median seconds of ``reference_kernel`` now."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Raw and normalized seconds of one timed query.

    The shared machine's speed drifts by tens of percent within seconds (a
    fixed integration's 30 s medians spread 0.21 as IQR/median, with CPU
    time equal to wall time).  The clock cuts a query into segments at
    ``tick`` calls once ``SEGMENT_SECONDS`` have passed, probes the speed at
    each cut (off the clock) and scales each segment by ``REFERENCE_SECONDS``
    over the mean of the probes around it.
    """

    def __init__(self):
        self.probe = speed_probe()
        self.raw = self.normalized = 0.0
        self.mark = time.perf_counter()

    def start(self) -> None:
        self.raw = self.normalized = 0.0
        self.mark = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.mark >= SEGMENT_SECONDS:
            self.cut()

    def cut(self) -> None:
        segment = time.perf_counter() - self.mark
        probe = speed_probe()
        self.raw += segment
        self.normalized += segment * 2 * REFERENCE_SECONDS / (self.probe + probe)
        self.probe = probe
        self.mark = time.perf_counter()


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh processes, in raw seconds: process start
    and imports do not track ``reference_kernel``, so it is not rescaled."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=60, check=True,
                              cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail latency: the highest percentile with
    at least ten samples beyond it, but never below p90, interpolated
    linearly between order statistics.  Runs with fewer than 100 samples
    therefore report p90, which has fewer than ten samples beyond it; the
    summary states the sample count."""
    n = len(latencies)
    pct = max(90.0, 100.0 * (n - 10) / n)
    return float(np.percentile(latencies, pct)), pct


class Run:
    """One benchmark run: the loop over blocks and the numbers it keeps."""

    def __init__(self, tracer, workload, seed: int, seconds: float, trace: bool):
        self.tracer = tracer
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.rng = np.random.default_rng(seed)
        self.counting = tracer.Recorder(timing=False)
        self.tracing = tracer.Recorder(timing=True) if trace else None
        self.latencies: list[float] = []       # normalized, see SpeedClock
        self.raw_latencies: list[float] = []
        self.block_walls: list[tuple[int, bool, float]] = []   # complete blocks
        self.margins: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.measured = 0.0                    # raw seconds, sets the run length
        self.measured_norm = 0.0
        self.clock = SpeedClock()
        if not trace:
            # traced runs probe only between queries, so spans hold no probes
            self.counting.tick = self.clock.tick

    def recorder_for(self, b: int):
        if self.trace and (b < COUNTED_BLOCKS or (b - COUNTED_BLOCKS) % 2 == 1):
            return self.tracing
        return self.counting

    def loop(self) -> None:
        min_blocks = COUNTED_BLOCKS + 1 if self.trace else COUNTED_BLOCKS
        b = 0
        while self.measured < self.seconds or b < min_blocks:
            queries = self.workload.block(self.rng, b)
            rec = self.recorder_for(b)
            rec.block = b
            saved = self.tracer.install(rec)
            try:
                wall, complete = self.run_block(rec, b, queries, must_finish=b < min_blocks)
            finally:
                self.tracer.uninstall(saved)
            if complete:
                self.block_walls.append((b, rec is self.tracing, wall))
            b += 1

    def run_block(self, rec, b: int, queries, must_finish: bool) -> tuple[float, bool]:
        wall = 0.0
        for i, query in enumerate(queries):
            if self.measured >= self.seconds and not must_finish:
                return wall, False
            rec.query = f"{b}.{i}"
            self.clock.start()
            rec.active = True
            try:
                out, error = self.workload.run(query), None
            except Exception as exc:  # a refused query counts as failed
                out, error = None, exc
            rec.active = False
            self.clock.cut()
            elapsed, normalized = self.clock.raw, self.clock.normalized
            wall += normalized
            self.measured += elapsed
            self.measured_norm += normalized
            self.latencies.append(normalized)
            self.raw_latencies.append(elapsed)
            self.attempted += 1
            if error is not None:
                self.failures.append(f"query {b}.{i}: {type(error).__name__}: {error}")
                continue
            checked = self.workload.check(query, out)
            self.margins.extend(checked.margins)
            if not checked.ok:
                self.failures.append(f"query {b}.{i}: {checked.note}")
        return wall, True

    # -- metrics --------------------------------------------------------

    @staticmethod
    def counted(rec) -> dict:
        """Counters summed over the counted blocks."""
        total: dict = {}
        for b in range(COUNTED_BLOCKS):
            for name, value in rec.table[b].items():
                total[name] = total.get(name, 0.0) + value
        return total

    def rays(self) -> float:
        return sum(row["flow.integrate.rays"] for row in self.counting.table.values())

    def end_to_end(self, setup_s: float) -> dict:
        counts = self.counted(self.counting)
        rays = self.rays()
        p_tail, _ = tail(self.latencies)
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(w for _, _, w in self.block_walls),
            "latency_p50_s": statistics.median(self.latencies),
            "latency_tail_s": p_tail,
            "rays_per_s": rays / self.measured_norm,
            "jet_evals_per_ray": (counts.get("structure.jet.rows", 0.0)
                                  / max(counts.get("flow.integrate.rays", 0.0), 1.0)),
            # no margin at all only when every query failed (correct is false)
            "oracle_margin_dec": min(self.margins, default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        table = self.tracing.table
        traced = [b for b, t, _ in self.block_walls if t]
        counts = self.counted(self.tracing)

        def time_of(name):
            return statistics.median(table[b][name] for b in traced)

        per_row = statistics.median(
            1e6 * table[b]["structure.jet.self_s"] / max(table[b]["structure.jet.rows"], 1)
            for b in traced)
        crossings = counts.get("maslov.crossings", 0.0)
        derived = {
            "maslov.frames": counts.get("maslov.frames.calls", 0.0),
            "structure.jet.us_per_row": per_row,
            "maslov.probes_per_crossing": (counts.get("maslov.scan.probes", 0.0) / crossings
                                           if crossings else 0.0),
            "trace.overhead_s": (
                statistics.median(w for _, t, w in self.block_walls if t)
                - statistics.median(w for _, t, w in self.block_walls if not t)),
        }
        out = {}
        for name, _, how in PER_LAYER:
            if name in derived:
                out[name] = derived[name]
            elif how == "count":
                out[name] = counts.get(name, 0.0)
            else:
                out[name] = time_of(name)
        return out


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "subriem" / "__init__.py").is_file():
        sys.stderr.write(f"error: no subriem sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2

    setup_s = setup_seconds(args.workload)
    workload = workloads.WORKLOADS[args.workload]()
    workload.warm_up()
    run = Run(tracer, workload, args.seed, args.seconds, bool(args.trace))
    run.loop()

    if args.trace:
        metrics = run.per_layer()
        units = {name: unit for name, unit, _ in PER_LAYER}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        dump = run.tracing.dump()
        dump["per_block"] = {str(b): dict(row) for b, row in run.tracing.table.items()}
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    else:
        metrics = run.end_to_end(setup_s)
        units = END_TO_END

    failed = len(run.failures)
    raw_tail, pct = tail(run.raw_latencies)
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
          f"{os.cpu_count()} cpus, {platform.processor() or platform.machine()}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} queries in {len(run.block_walls)} complete blocks, "
          f"{run.measured:.1f} s measured ({run.measured_norm:.1f} s normalized)")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<30} {failed / run.attempted:>14.6g} "
          f"({failed} failed / {run.attempted} attempted)")
    print(f"  latency_tail_s is p{pct:.1f} of {len(run.latencies)} samples")
    print(f"  raw seconds: latency p50 "
          f"{statistics.median(run.raw_latencies):.6g}, tail {raw_tail:.6g}, "
          f"rays/s {run.rays() / run.measured:.6g}")
    for line in run.failures[:20]:
        print(f"  FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
