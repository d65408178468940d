"""The three benchmark workloads: seeded, screened inputs, one timed
operation per query, and an output check against the Heisenberg closed
forms or an independent certificate.

Each workload hands out its inputs in blocks.  A block is one stratified pass
over the workload's input mix, so every block costs about the same and runs
of different seeds see the same mix.  ``run`` is the only code that is timed;
generation and ``check`` run off the clock with tracing paused.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from subriem import cli, flow, jacobi, maslov
from subriem import heisenberg as heis
from subriem.errors import AmbiguousRankError
from subriem.linalg import RANK_REL_TOL, block_swap, numerical_rank
from subriem.structure import load_structure, make_structure

ENGEL_FILE = Path(__file__).resolve().with_name("engel.json")

#: closed-form bounds of the acceptance battery
TIME_BOUND = 1e-8
STATE_BOUND = 1e-8
PHI_BOUND = 1e-7
#: windows whose endpoints (or midpoint) lie closer than this to a closed-form
#: conjugate time are redrawn
ENDPOINT_GAP = 0.01
#: Engel windows are redrawn unless sigma_min / scale of d_exp at both
#: endpoints exceeds this (the scan refuses below 10 * RANK_REL_TOL = 1e-7)
ENGEL_ENDPOINT_RATIO = 1e-6
COMMANDS = ("conjugate", "maslov")


@dataclass
class Query:
    kind: str
    args: dict
    expected: list = field(default_factory=list)


@dataclass
class Checked:
    ok: bool
    margins: list       # log10(bound / error), one per oracle comparison
    note: str = ""


def margin(error: float, bound: float) -> float:
    return math.log10(bound / max(error, 1e-300))


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _heis_conjugate_times(cov, t_hi: float) -> list[tuple[float, str]]:
    """Closed-form conjugate times in (0, t_hi] with their class tags."""
    alpha = abs(cov[2])
    if alpha * t_hi < 2 * math.pi:
        return []
    out = []
    for root in heis.heis_conjugate_roots(alpha * t_hi):
        tau = root.alpha / alpha
        hc = heis.HeisCovector((0.0, 0.0, 0.0), tuple(tau * np.asarray(cov)))
        out.append((tau, heis.classify_conjugate(hc, tol=1e-6).tag))
    return out


def _clear(times, points) -> bool:
    return all(abs(t - p) > ENDPOINT_GAP for t, _ in times for p in points)


def _heis_covector(rng, alpha_lo, alpha_hi, u_lo, u_hi) -> np.ndarray:
    theta = rng.uniform(0, 2 * math.pi)
    u = rng.uniform(u_lo, u_hi)
    alpha = rng.uniform(alpha_lo, alpha_hi) * rng.choice((-1.0, 1.0))
    return np.array([u * math.cos(theta), u * math.sin(theta), alpha])


def _compare_crossings(crossings, expected, with_class: bool) -> Checked:
    """Numeric Heisenberg crossings against the closed form: same count,
    times within TIME_BOUND, multiplicity 1, signature -1, class tag."""
    if len(crossings) != len(expected):
        return Checked(False, [], f"{len(crossings)} crossings, expected {len(expected)}")
    margins, ok = [], True
    for rep, (tau, tag) in zip(crossings, expected):
        err = abs(rep["t"] - tau)
        margins.append(margin(err, TIME_BOUND))
        ok &= err <= TIME_BOUND and rep["multiplicity"] == 1 and rep["signature"] == -1
        if with_class:
            ok &= rep.get("class") == tag
    return Checked(bool(ok), margins, "" if ok else "crossing mismatch")


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() or err.getvalue()


def _warm_up() -> None:
    """One short untimed query so lazy imports and first-call costs are paid
    before timing (set-up time is measured on its own)."""
    _cli(["conjugate", "--covector=1,0,5", "--t-min=0.2", "--t-max=0.4"])


# ---------------------------------------------------------------------------

class SingleRay:
    """In-process ``subriem conjugate`` / ``subriem maslov`` calls.

    A block has six Heisenberg queries, one per |alpha0| stratum of [4, 20]
    (0-5 crossings per window), and two Engel queries (one per command),
    in seeded order.
    """

    name = "single-ray"
    alpha_edges = np.linspace(4.0, 20.0, 7)

    def __init__(self):
        self.heis = make_structure("heisenberg")
        self.engel = load_structure(str(ENGEL_FILE))

    def block(self, rng, b: int) -> list[Query]:
        queries = [self._heis_query(rng, COMMANDS[(i + b) % 2], lo, hi)
                   for i, (lo, hi) in enumerate(zip(self.alpha_edges, self.alpha_edges[1:]))]
        queries += [self._engel_query(rng, cmd) for cmd in COMMANDS]
        return [queries[k] for k in rng.permutation(len(queries))]

    def _heis_query(self, rng, cmd, alpha_lo, alpha_hi) -> Query:
        while True:
            cov = _heis_covector(rng, alpha_lo, alpha_hi, 0.5, 1.5)
            t_lo, t_hi = rng.uniform(0.05, 0.15), rng.uniform(0.85, 1.0)
            times = _heis_conjugate_times(cov, t_hi + ENDPOINT_GAP)
            if _clear(times, (t_lo, t_hi)):
                break
        expected = [(t, tag) for t, tag in times if t_lo < t < t_hi]
        argv = [cmd, "--structure=heisenberg", "--covector=" + _fmt(cov),
                f"--t-min={t_lo!r}", f"--t-max={t_hi!r}"]
        return Query("heisenberg", {"cmd": cmd, "argv": argv, "cov": cov}, expected)

    def _engel_query(self, rng, cmd) -> Query:
        for _ in range(500):
            cov = rng.normal(size=4)
            cov[2] *= 3.0
            cov[3] = rng.uniform(40.0, 120.0) * rng.choice((-1.0, 1.0))
            t_lo, t_hi = rng.uniform(0.3, 0.4), rng.uniform(0.85, 1.0)
            if self._engel_window_ok(cov, t_lo, t_hi):
                break
        else:
            raise RuntimeError("no admissible Engel window in 500 draws")
        argv = [cmd, f"--structure-file={ENGEL_FILE}", "--covector=" + _fmt(cov),
                f"--t-min={t_lo!r}", f"--t-max={t_hi!r}"]
        return Query("engel", {"cmd": cmd, "argv": argv, "cov": cov})

    def _engel_window_ok(self, cov, t_lo, t_hi) -> bool:
        """Both endpoints well clear of a conjugate time: sigma_min of the
        (q, p) block of Phi over the window's largest sigma_max."""
        grid = np.linspace(t_lo, t_hi, 9)
        traj = flow.integrate_extremal(self.engel, np.zeros(4), cov, t_hi, 1e-8, samples=grid)
        inside = traj.ts >= t_lo - 1e-12
        svals = np.linalg.svd(traj.phis[inside][:, :4, 4:], compute_uv=False)
        scale = svals[:, 0].max()
        return bool(svals[0, -1] > ENGEL_ENDPOINT_RATIO * scale
                    and svals[-1, -1] > ENGEL_ENDPOINT_RATIO * scale)

    def run(self, q: Query):
        return _cli(q.args["argv"])

    def check(self, q: Query, out) -> Checked:
        code, text = out
        if code != 0:
            return Checked(False, [], f"exit {code}: {text.strip()[:200]}")
        data = json.loads(text)
        cmd = q.args["cmd"]
        crossings = data if cmd == "conjugate" else data["crossings"]
        if q.kind == "heisenberg":
            res = _compare_crossings(crossings, q.expected, cmd == "conjugate")
            if cmd == "maslov" and data["index"] != -len(q.expected):
                return Checked(False, res.margins, f"index {data['index']}")
            return res
        # Engel: every crossing certified by the rank drop of d_exp at t* lambda0
        cov = q.args["cov"]
        for rep in crossings:
            dmat = flow.d_exp(self.engel, np.zeros(4), rep["t"] * cov)
            try:
                rank, _ = numerical_rank(dmat)
            except AmbiguousRankError as exc:
                return Checked(False, [], f"certificate ambiguous at t = {rep['t']}: {exc}")
            if 4 - rank != rep["multiplicity"] or rep["signature"] != -rep["multiplicity"]:
                return Checked(False, [], f"certificate failed at t = {rep['t']}")
        if cmd == "maslov" and data["index"] != sum(rep["signature"] for rep in crossings):
            return Checked(False, [], "index differs from the sum of signatures")
        return Checked(True, [])

    def warm_up(self) -> None:
        _warm_up()


class MaslovIdentities:
    """Windows in the style of acceptance criterion 8: one landing
    integration on the union grid, then the whole, left/right, reversed and
    skew-resampled Maslov indices.  A block has four windows, one per
    |alpha0| stratum of [4, 12].  The window length s - r sets the size of
    the union grid (4-5k landings), so most of the cost; it is kept within
    [0.8, 0.9] so that windows, and blocks, cost about the same."""

    name = "maslov-identities"
    alpha_edges = np.linspace(4.0, 12.0, 5)

    def __init__(self):
        self.heis = make_structure("heisenberg")

    def block(self, rng, b: int) -> list[Query]:
        return [self._window(rng, lo, hi)
                for lo, hi in zip(self.alpha_edges, self.alpha_edges[1:])]

    def _window(self, rng, alpha_lo, alpha_hi) -> Query:
        while True:
            cov = _heis_covector(rng, alpha_lo, alpha_hi, 0.6, 2.0)
            r = rng.uniform(0.05, 0.25)
            s = r + rng.uniform(0.8, 0.9)
            mid = rng.uniform(0.4, 0.6)
            times = _heis_conjugate_times(cov, s + ENDPOINT_GAP)
            if _clear(times, (r, mid, s)):
                break
        expected = [(t, tag) for t, tag in times if r < t < s]
        return Query("window", {"cov": cov, "r": r, "mid": mid, "s": s}, expected)

    def run(self, q: Query):
        cov, r, mid, s = (q.args[k] for k in ("cov", "r", "mid", "s"))
        grid = maslov._scan_grid(r, s)
        for lo, hi in ((r, mid), (mid, s)):
            grid = np.union1d(grid, maslov._scan_grid(lo, hi))
        grid = np.union1d(grid, (r + s) - grid)
        t_total = float(grid[-1]) * (1 + 1e-3) + 1e-3
        traj = flow.integrate_extremal(self.heis, np.zeros(3), cov, t_total, 1e-10,
                                       samples=grid)
        curve = maslov.JacobiCurveSamples.sample(self.heis, traj, "jacobi", grid)
        l0 = maslov.vertical_frame(3)
        whole = maslov.locate_crossings(curve, l0, r, s)
        left = maslov.maslov_index(curve, l0, r, mid)
        right = maslov.maslov_index(curve, l0, mid, s)
        reversed_index = maslov.maslov_index(curve.reversed_over(r, s), l0, r, s)
        skew = maslov.JacobiCurveSamples.sample(
            self.heis, traj, "jacobi", r + (s - r) * np.linspace(0, 1, 157) ** 2)
        resampled = maslov.maslov_index(skew, l0, r, s)
        return traj, whole, left, right, reversed_index, resampled

    def check(self, q: Query, out) -> Checked:
        traj, whole, left, right, reversed_index, resampled = out
        index = sum(rep.signature for rep in whole)
        if left + right != index or reversed_index != -index or resampled != index:
            return Checked(False, [], f"identities fail: {index} {left}+{right} "
                                      f"{reversed_index} {resampled}")
        res = _compare_crossings([rep.to_json_dict() for rep in whole], q.expected, False)
        hc = heis.HeisCovector((0.0, 0.0, 0.0), tuple(q.args["cov"]))
        state_err = max(float(np.max(np.abs(traj.states[i] - heis.heis_state(hc, traj.ts[i]))))
                        for i in range(0, len(traj.ts), 8))
        phi_err = max(float(np.max(np.abs(block_swap(traj.phis[i])
                                          - heis.heis_jacobi_matrix(hc, traj.ts[i]))))
                      for i in np.linspace(0, len(traj.ts) - 1, 12).astype(int))
        margins = res.margins + [margin(state_err, STATE_BOUND), margin(phi_err, PHI_BOUND)]
        ok = res.ok and state_err <= STATE_BOUND and phi_err <= PHI_BOUND
        return Checked(ok, margins, res.note or ("" if ok else "oracle error"))

    def warm_up(self) -> None:
        _warm_up()


class RayBundle:
    """Batched work: a locus-style (u0, alpha0) tile classified in closed form
    and cross-checked by SVD of ``d_exp_batch`` (B = 200), a 50-ray
    ``continuity_check`` and a ``regularity_check`` at one of the two
    reference conjugate covectors.  A block has one bundle per reference."""

    name = "ray-bundle"
    references = ((1.0, 0.0, 2 * math.pi), (1.0, 0.0, heis.ALPHA_STAR))
    n_u, n_alpha = 10, 18

    def __init__(self):
        self.heis = make_structure("heisenberg")
        self.roots = [r.alpha for r in heis.heis_conjugate_roots(10.0)]

    def block(self, rng, b: int) -> list[Query]:
        return [self._bundle(rng, ref) for ref in self.references]

    def _bundle(self, rng, ref) -> Query:
        u_vals = 0.2 + 1.8 * (np.arange(self.n_u) + rng.uniform(size=self.n_u)) / self.n_u
        a_vals = []
        for i in range(self.n_alpha):
            while True:
                a = 0.25 + 9.75 * (i + rng.uniform()) / self.n_alpha
                if all(abs(a - root) > 0.02 for root in self.roots):
                    break
            a_vals.append(a)
        a_vals = np.sort(np.concatenate([a_vals, self.roots]))
        return Query("bundle", {"ref": np.array(ref), "u": u_vals, "alpha": a_vals,
                                "seed": int(rng.integers(2 ** 31))})

    def run(self, q: Query):
        u_vals, a_vals, ref = q.args["u"], q.args["alpha"], q.args["ref"]
        rows = heis.conjugate_locus_rows(u_vals, a_vals)
        covs = np.array([[u, 0.0, a] for u in u_vals for a in a_vals])
        mats = flow.d_exp_batch(self.heis, np.zeros(3), covs, tol=1e-10)
        svals = np.linalg.svd(mats, compute_uv=False)
        numeric = svals[:, -1] < RANK_REL_TOL * svals[:, 0]
        cont = maslov.continuity_check(self.heis, np.zeros(3), ref, 1e-2, 50, 1e-10,
                                       q.args["seed"])
        traj = flow.integrate_extremal(self.heis, np.zeros(3), ref, 1.0, samples=[1.0])
        reg = jacobi.regularity_check(self.heis, traj)
        return rows, covs, mats, numeric, cont, reg

    def check(self, q: Query, out) -> Checked:
        rows, covs, mats, numeric, cont, reg = out
        closed = np.array([row[3] == 1 for row in rows])
        if int(np.sum(closed)) != len(self.roots) * len(q.args["u"]):
            return Checked(False, [], "closed form missed a root column")
        disagreements = int(np.sum(closed != numeric))
        err = max(float(np.max(np.abs(
            mat - heis.heis_d_exp(heis.HeisCovector((0.0, 0.0, 0.0), tuple(cov))))))
            for cov, mat in zip(covs, mats))
        ok = (disagreements == 0 and err <= PHI_BOUND
              and cont.passed and cont.kernel_dim == 1 and bool(np.all(cont.ray_indices == -1))
              and reg.passed and reg.kernel_dim == 1)
        note = "" if ok else (f"disagreements {disagreements}, d_exp error {err:.2e}, "
                              f"continuity {cont.passed}, regularity {reg.passed}")
        return Checked(ok, [margin(err, PHI_BOUND)], note)

    def warm_up(self) -> None:
        _warm_up()
        flow.d_exp_batch(self.heis, np.zeros(3), np.array([[1.0, 0.0, 3.0], [0.5, 0.5, 7.0]]))


WORKLOADS = {w.name: w for w in (SingleRay, MaslovIdentities, RayBundle)}
