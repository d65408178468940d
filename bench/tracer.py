"""Outside-in tracing and counting of the subriem layers.

Nothing in the library is edited: ``install`` swaps the public entry points
for wrappers at every binding the library's own callers use (class
attributes, and the module globals that ``from .flow import ...`` copies into
``maslov`` and ``cli``), and ``uninstall`` puts the originals back.

Two modes share one recorder:

* counting (``timing=False``): only the Hamiltonian jet and the integrator
  entry points are wrapped, and only counters are bumped (no clock reads).
  This is all an untraced run installs; it gives ``jet_evals_per_ray`` and
  ``rays_per_s``.
* tracing (``timing=True``): every layer boundary opens a span with a name,
  start, end, parent span and query id.  Hot leaves (jet, ``at``,
  ``frame_at``, frame construction, classification) are not stored one by
  one; they are folded into one aggregate per (parent span, name).  Self time
  is a span's duration minus the time its children cover.

All numbers are kept per block (one stratified pass over a workload's input
mix), so a run can report the first block's exact counts and the median of
per-block times.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from subriem import cli, flow, heisenberg, jacobi, maslov, structure

_clock = time.perf_counter


class Recorder:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.active = False
        self.tick = None                     # called after each counted call
        self.block = 0
        self.query = None
        self.stack: list[list] = []          # open span frames, see ``enter``
        self.spans: list[tuple] = []         # (id, name, start, end, parent, query)
        self.leaves: dict = {}               # (parent, name) -> [calls, total_s, self_s]
        self.refusals: dict = defaultdict(int)
        # block -> name -> value; "<layer>.self_s" and counters share the table
        self.table: dict = defaultdict(lambda: defaultdict(float))
        self._next_id = 1

    def add(self, name: str, value: float = 1.0) -> None:
        self.table[self.block][name] += value

    def inside(self, name: str) -> bool:
        """True when the innermost open span has this name."""
        return bool(self.stack) and self.stack[-1][1] == name

    # span bookkeeping -------------------------------------------------

    def enter(self, name: str, leaf: bool) -> list:
        """Open a span.  A frame is [id, name, start, child_s, anchor, leaf]
        where anchor is the nearest stored span (the frame itself unless it
        is an aggregated leaf)."""
        span_id = self._next_id
        self._next_id += 1
        outer = self.stack[-1][4] if self.stack else None
        frame = [span_id, name, _clock(), 0.0, outer if leaf else span_id, leaf]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = _clock()
        self.stack.pop()
        span_id, name, start, child_s, _, leaf = frame
        dur = end - start
        parent = self.stack[-1][4] if self.stack else None
        if self.stack:
            self.stack[-1][3] += dur
        row = self.table[self.block]
        row[name + ".self_s"] += dur - child_s
        row[name + ".calls"] += 1
        if leaf:
            agg = self.leaves.setdefault((parent, name), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child_s
        else:
            self.spans.append((span_id, name, start, end, parent, self.query))

    def dump(self) -> dict:
        return {
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "query"), s))
                      for s in self.spans],
            "leaves": [{"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                       for (p, n), (c, t, s) in self.leaves.items()],
            "refusals": dict(self.refusals),
        }


# ---------------------------------------------------------------------------
# wrappers

def _span(rec: Recorder, name: str, orig, leaf: bool = False, count=None):
    """Wrap ``orig`` in a span; ``count(args, kwargs, result)`` bumps counters."""

    def wrapper(*args, **kwargs):
        if not rec.active:
            return orig(*args, **kwargs)
        frame = rec.enter(name, leaf)
        try:
            result = orig(*args, **kwargs)
        except Exception as exc:
            rec.leave(frame)
            if name == "maslov.scan":
                rec.refusals[type(exc).__name__] += 1
                rec.add("maslov.refusals")
            raise
        rec.leave(frame)
        if count is not None:
            count(args, kwargs, result)
        return result

    wrapper.__wrapped__ = orig
    return wrapper


def _counter(rec: Recorder, count, orig):
    def wrapper(*args, **kwargs):
        result = orig(*args, **kwargs)
        if rec.active:
            count(args, kwargs, result)
            if rec.tick is not None:
                rec.tick()
        return result

    wrapper.__wrapped__ = orig
    return wrapper


def _jet_rows(rec):
    def count(args, kwargs, result):
        rec.add("structure.jet.rows", 1)
    return count


def _jet_batch_rows(rec):
    def count(args, kwargs, result):
        rec.add("structure.jet.rows", len(args[1]))
    return count


def _integrate(rec):
    def count(args, kwargs, result):
        rec.add("flow.integrate.rays", 1)
        rec.add("flow.integrate.landings", len(result.ts))
    return count


def _integrate_batch(rec):
    def count(args, kwargs, result):
        rec.add("flow.integrate.rays", len(result))
        rec.add("flow.integrate.landings", len(result[0].ts))
    return count


def _at_offgrid(rec):
    def count(args, kwargs, result):
        traj, t = args[0], args[1]
        if traj._locate(t) is None:
            rec.add("flow.at.offgrid")
    return count


def _crossings(rec):
    def count(args, kwargs, result):
        rec.add("maslov.crossings", len(result))
    return count


#: (owner, attribute, layer name, leaf, counter factory) for every wrapped
#: entry point; entries sharing one function object share one wrapper.
#: COUNTED is wrapped in every run, TRACED only under the span tracer.
COUNTED = [
    (structure.Structure, "jet_raw", "structure.jet", True, _jet_rows),
    (structure.Structure, "jet_raw_batch", "structure.jet", True, _jet_batch_rows),
    (flow, "integrate_extremal", "flow.integrate", False, _integrate),
    (maslov, "integrate_extremal", "flow.integrate", False, _integrate),
    (cli, "integrate_extremal", "flow.integrate", False, _integrate),
    (flow, "integrate_extremal_batch", "flow.integrate", False, _integrate_batch),
    (maslov, "integrate_extremal_batch", "flow.integrate", False, _integrate_batch),
]
TRACED = [
    (flow, "d_exp", "flow.d_exp", False, None),
    (maslov, "d_exp", "flow.d_exp", False, None),
    (flow, "d_exp_batch", "flow.d_exp", False, None),
    (flow.ExtremalTrajectory, "at", "flow.at", True, _at_offgrid),
    (maslov, "jacobi_curve", "maslov.curve", True, None),
    (maslov, "l_curve", "maslov.curve", True, None),
    (maslov.LagrangianFrame, "__post_init__", "maslov.frames", True, None),
    (maslov.JacobiCurveSamples, "frame_at", "maslov.frame_at", True, None),
    (maslov, "locate_crossings", "maslov.scan", False, _crossings),
    (maslov, "crossing_form", "maslov.crossing_form", False, None),
    (maslov, "continuity_check", "maslov.continuity", False, None),
    (jacobi, "regularity_check", "jacobi.regularity", False, None),
    (heisenberg, "classify_conjugate", "heisenberg.classify", True, None),
    (heisenberg, "conjugate_locus_rows", "heisenberg.locus", False, None),
    (cli, "main", "cli.main", False, None),
]


def _frame_at_wrapper(rec: Recorder, orig):
    """``frame_at`` is wrapped by hand: an off-grid call is a probe, and probes
    issued directly by the scan (bisection, golden section) are counted apart
    from those of the crossing-form stencil."""

    def wrapper(self, t):
        if not rec.active:
            return orig(self, t)
        offgrid = not np.any(np.abs(self.ts - t) <= 1e-14 * max(1.0, abs(t)))
        if offgrid:
            rec.add("maslov.frame_at.offgrid")
            if rec.inside("maslov.scan"):
                rec.add("maslov.scan.probes")
        frame = rec.enter("maslov.frame_at", True)
        try:
            return orig(self, t)
        finally:
            rec.leave(frame)

    wrapper.__wrapped__ = orig
    return wrapper


def install(rec: Recorder) -> list:
    """Wrap the entry points for ``rec``; returns what ``uninstall`` needs."""
    entries = COUNTED + (TRACED if rec.timing else [])
    made: dict = {}
    saved = []
    for owner, attr, name, leaf, count in entries:
        orig = owner.__dict__[attr]
        key = (id(orig), attr)
        if key not in made:
            counter = count(rec) if count is not None else None
            if attr == "frame_at":
                made[key] = _frame_at_wrapper(rec, orig)
            elif rec.timing:
                made[key] = _span(rec, name, orig, leaf, counter)
            else:
                made[key] = _counter(rec, counter, orig)
        saved.append((owner, attr, orig))
        setattr(owner, attr, made[key])
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)
