"""Lagrangian subspaces, Jacobi curves, crossing forms and Maslov indices.

Two curves of Lagrangian subspaces are attached to an extremal, both framed in
(p, x) coordinates where the vertical space is span[I; 0]:

* the Jacobi curve, the vertical space transported backward,
  ``J(t) = Phi(t)^{-1} [Ver]`` (so J(0) = Ver); its intersections with J(0)
  are exactly the conjugate times, its crossing forms are negative definite
  on the intersection and the Maslov index counts conjugate points with
  multiplicity and a minus sign;
* the forward curve ``L(t) = Phi(t) [Ver]``, which meets the vertical at the
  same times with the same multiplicities but with positive crossing forms.

Crossings against a reference Lagrangian L0 are located through the n x n
pairing ``G(t) = L0^T Omega F(t)``: its kernel is the intersection.  A curve
object may stack R curves that share one parameter (the Jacobi curves of one
ray batch; a single curve is R = 1), and the scan is one stacked pass over
one uniform grid: the R x T pairing matrices are decomposed (SVD and det) and
their frames checked in chunks of whole curves of about ``SCAN_CHUNK``
matrices.  The pairing SVD certifies most frames' rank on the way: since
``sigma_min(G) <= |L0^T Omega|_2 sigma_min(F)`` and ``sigma_max(F) <= |F|_F``,
a frame with ``sigma_min(G) > 2 RANK_REL_TOL |L0^T Omega|_2 |F|_F`` has full
rank well outside the ambiguity band, and only the others get a rank SVD of
their own.  Each curve keeps its own scale, checks and candidates.  Sign
changes of det G bracket odd-multiplicity crossings; minima of the smallest
singular value sigma(t) catch even-multiplicity touches.  Crossing forms
``omega(F c, F' c)`` are exact (F' from ``Phi' = S Phi`` with the Hamiltonian
Hessian; on the Jacobi curve the form is ``-c^T H_pp c``), so crossings are
regular and sigma has a simple zero with the exact slope ``u^T G'(t) v``:
Newton on sigma refines every candidate of every curve, all in shared rounds
of one batched trajectory lookup, one jet evaluation and one stacked SVD and
det each.  Newton's last SVD of G(t*) then classifies the crossing: its
singular values give the multiplicity and its right singular vectors the
kernel coefficients c of the crossing form; the frames of all crossings are
checked, and their forms built and signed, in a few stacked calls.  An
indicator that vanishes along a whole sub-interval signals an abnormal
segment and aborts (the counting theory assumes ideal structures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (AmbiguousRankError, CrossingEndpointError,
                     DegenerateCrossingError, NonIdealStructureError,
                     SubriemError, UnresolvedCrossingError,
                     ZeroHamiltonianError)
# d_exp is unused here but kept importable: the benchmark's tracer binds maslov.d_exp
from .flow import (ExtremalTrajectory, d_exp, integrate_extremal,
                   integrate_extremal_batch, lookup)
from .linalg import (RANK_REL_TOL, block_swap, numerical_rank, omega_px,
                     rank_decisions, rank_refusal, rank_split)
from .structure import Structure

#: step of the scan grid (until a window reaches SWEEP_CAP points)
SWEEP_STEP = 1e-3
#: maximum number of scan-grid points per window
SWEEP_CAP = 4000
#: bound on the Newton iterations that refine one crossing
NEWTON_STEPS = 50
#: two crossings closer than this are reported as an unresolved cluster
CLUSTER_TOL = 1e-8
#: about this many pairing matrices per chunk of the stacked scan
SCAN_CHUNK = 1024
#: a frame whose pairing has sigma_min above this many times RANK_REL_TOL
#: |L0^T Omega|_2 |F|_F needs no rank SVD of its own (see ``_check_lagrangian``)
CERTIFICATE_MARGIN = 2.0
#: a crossing form with an |eigenvalue| at most this times the largest is not signed
FORM_REL_TOL = 1e-6


@dataclass(frozen=True)
class LagrangianFrame:
    """A rank-n 2n x n matrix whose column span is a Lagrangian subspace."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != 2 * mat.shape[1]:
            raise ValueError(f"frame must be 2n x n, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        _check_lagrangian(mat[None])

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def isotropy_defect(self) -> float:
        return float(_lagrangian_defects(self.matrix[None])[0][0])


def _lagrangian_defects(mats: np.ndarray, certified: np.ndarray | None = None
                        ) -> tuple[np.ndarray, dict[int, Exception]]:
    """Isotropy defects ``max |F^T Omega F|`` of the 2n x n matrices F of a
    (T, 2n, n) stack, and by stack index the refusal of each F that is no
    Lagrangian frame: rank below n by the rank rule (relative limit, one
    stacked SVD; :class:`AmbiguousRankError` inside its band), or else a
    defect above 1e-9 of the squared norm.  Frames in the ``certified`` mask
    are known to have rank n and get no SVD."""
    n = mats.shape[2]
    defect = np.max(np.abs(np.swapaxes(mats, 1, 2) @ omega_px(n) @ mats), axis=(1, 2))
    skew = np.flatnonzero(defect > 1e-9 * np.sum(mats * mats, axis=(1, 2)))
    refusals: dict[int, Exception] = {
        i: ValueError(f"frame is not isotropic (defect {defect[i]:.3e})") for i in skew.tolist()}
    todo = np.arange(len(mats)) if certified is None else np.flatnonzero(~certified)
    if len(todo):
        svals = np.linalg.svd(mats[todo], compute_uv=False)
        ranks, ambiguous = rank_decisions(svals, RANK_REL_TOL * svals[:, 0])
        for j in np.flatnonzero(ranks < n).tolist():
            refusals[int(todo[j])] = (
                rank_refusal(svals[j], ranks[j]) if ambiguous[j]
                else ValueError("frame columns do not span an n-dimensional space"))
    return defect, refusals


def _check_lagrangian(mats: np.ndarray, certified: np.ndarray | None = None) -> None:
    """Require every 2n x n matrix of the (T, 2n, n) stack to have rank n
    (the rank rule) and isotropic columns (defect at most 1e-9 of the squared
    norm); the refusal of the first bad frame in stack order is raised, its
    rank failure before its isotropy failure.

    The scan passes the ``certified`` mask of frames whose rank its pairing
    SVD has already settled: for G = P F and every unit vector v,
    ``|G v| <= |P|_2 |F v|``, so ``sigma_min(F) >= sigma_min(G) / |P|_2``, and
    ``sigma_max(F) <= |F|_F``.  A frame with ``sigma_min(G) > 2 RANK_REL_TOL
    |P|_2 |F|_F`` therefore has ``sigma_min(F) > 2 RANK_REL_TOL sigma_max(F)``:
    full rank, and a factor 2 clear of the threshold, far more than the
    rounding of either SVD can move, so its own SVD could not refuse it and
    is skipped.  Only the rank test is skipped; every frame is tested for
    isotropy.
    """
    refusals = _lagrangian_defects(mats, certified)[1]
    if refusals:
        raise refusals[min(refusals)]


def vertical_frame(n: int) -> LagrangianFrame:
    return LagrangianFrame(np.vstack([np.eye(n), np.zeros((n, n))]))


def horizontal_frame(n: int) -> LagrangianFrame:
    return LagrangianFrame(np.vstack([np.zeros((n, n)), np.eye(n)]))


def _sympl_inverse(phi_px: np.ndarray) -> np.ndarray:
    """Inverse of symplectic matrices (..., 2n, 2n) in (p, x) order:
    Omega^{-1} M^T Omega (a signed block permutation, so exact)."""
    om = omega_px(phi_px.shape[-1] // 2)
    return om.T @ np.swapaxes(phi_px, -1, -2) @ om


def _curve_frames(kind: str, phis: np.ndarray) -> np.ndarray:
    """Frames (..., 2n, n) in (p, x) order of the Jacobi curve Phi^{-1} [I; 0]
    or the forward curve Phi [I; 0], from (..., 2n, 2n) fundamental matrices in
    (q, p) order; only the q rows [A | B] of Phi give Phi^{-1} [I; 0] = [A^T; -B^T]."""
    n = phis.shape[-1] // 2
    if kind == "l":
        return phis[..., np.r_[n:2 * n, :n], n:]
    return np.concatenate([np.swapaxes(phis[..., :n, :n], -1, -2),
                           -np.swapaxes(phis[..., :n, n:], -1, -2)], axis=-2)


def jacobi_curve(struct: Structure, traj: ExtremalTrajectory, t: float) -> LagrangianFrame:
    """Vertical space transported backward: columns of Phi(t)^{-1} [I; 0]."""
    return LagrangianFrame(_curve_frames("jacobi", traj.phi_at(t)))


def l_curve(struct: Structure, traj: ExtremalTrajectory, t: float) -> LagrangianFrame:
    """Vertical space transported forward: columns of Phi(t) [I; 0]."""
    return LagrangianFrame(_curve_frames("l", traj.phi_at(t)))


def intersection_dim(f: LagrangianFrame, g: LagrangianFrame) -> int:
    """dim(span F  intersect  span G) = 2n - rank([F | G])."""
    return 2 * f.n - numerical_rank(np.hstack([f.matrix, g.matrix]))[0]


class JacobiCurveSamples:
    """R curves of Lagrangian frames, one along each extremal of one batch
    (one sample grid and one step record), sharing one parameter.

    ``kind`` records the orientation: "jacobi" for the backward-transported
    curve in the fixed tangent space at the initial covector, "l" for the
    forward curve along the extremal.  Frames are read off the trajectories'
    fundamental matrices on demand.  ``ts`` is kept for callers; the crossing
    scan does not read it (it scans its own grid of the window).

    The curve protocol of the scan, shared by every curve it accepts: ``rays``
    is R; ``frames_at(ts, rays=0)`` gives the frames (m, 2n, n) of curve
    ``rays[i]`` at ``ts[i]``; ``jets_at(ts, rays=0)`` gives those frames with
    their exact derivatives F'.
    """

    def __init__(self, trajs: Sequence[ExtremalTrajectory], kind: str, ts: Sequence[float]):
        if kind not in ("jacobi", "l"):
            raise ValueError("kind must be 'jacobi' or 'l'")
        self.trajs = list(trajs)
        self.kind = kind
        self.ts = np.asarray(ts, dtype=float)

    @staticmethod
    def sample(struct: Structure, traj: ExtremalTrajectory, kind: str,
               ts: Sequence[float]) -> "JacobiCurveSamples":
        """The single curve (R = 1) along ``traj``."""
        return JacobiCurveSamples([traj], kind, ts)

    @property
    def traj(self) -> ExtremalTrajectory:
        return self.trajs[0]

    @property
    def rays(self) -> int:
        return len(self.trajs)

    def frame_at(self, t: float) -> LagrangianFrame:
        build = jacobi_curve if self.kind == "jacobi" else l_curve
        return build(self.traj.structure, self.traj, t)

    def frames_at(self, ts, rays=0) -> np.ndarray:
        return _curve_frames(self.kind, lookup(self.trajs, rays, ts)[1])

    def jets_at(self, ts, rays=0) -> tuple[np.ndarray, np.ndarray]:
        """Frames F and exact derivatives F' (m, 2n, n), from one batched
        trajectory lookup and one jet evaluation of all rows: Phi' = S Phi with
        S = J Hess H(lambda(t)) (here in (p, x) order), so the Jacobi curve
        moves as -Phi^{-1} S [I; 0] and the forward curve as S Phi [I; 0]."""
        states, phis = lookup(self.trajs, rays, ts)
        n = self.traj.n
        _, _, hess = self.traj.structure.jet_raw_batch(states)
        s_px = block_swap(omega_px(n) @ hess)
        frames = _curve_frames(self.kind, phis)
        if self.kind == "jacobi":
            return frames, -_sympl_inverse(block_swap(phis)) @ s_px[..., :n]
        return frames, s_px @ frames

    def reversed_over(self, r: float, s: float) -> "_ReversedCurve":
        """The time-reversed curves tau -> frame(r + s - tau) on the same window."""
        return _ReversedCurve(self, r + s)


class _ReversedCurve:
    def __init__(self, base: JacobiCurveSamples, total: float):
        self.base, self.total = base, total

    @property
    def rays(self) -> int:
        return self.base.rays

    def frames_at(self, ts, rays=0) -> np.ndarray:
        return self.base.frames_at(self.total - np.asarray(ts), rays)

    def jets_at(self, ts, rays=0) -> tuple[np.ndarray, np.ndarray]:
        frames, velocities = self.base.jets_at(self.total - np.asarray(ts), rays)
        return frames, -velocities


def crossing_form(curve, t_star: float, l0: LagrangianFrame) -> np.ndarray:
    """Quadratic form omega(z, zdot) on the intersection of the curve with l0
    at t_star, as the symmetric k x k matrix ``c^T F^T Omega F' c`` over the
    intersection coefficients c (the kernel of the pairing, by the rank
    rule), with the curve's exact derivative F'.
    """
    frames, velocities = curve.jets_at(np.array([t_star], dtype=float))
    f_star, velocity = frames[0], velocities[0]
    coeffs = rank_split(l0.matrix.T @ omega_px(l0.n) @ f_star)[3]
    if coeffs.shape[1] == 0:
        raise ValueError(f"curve does not meet the reference Lagrangian at t = {t_star}")
    return _kernel_forms(coeffs[None], f_star[None], velocity[None])[0]


def _kernel_forms(coeffs: np.ndarray, frames: np.ndarray,
                  velocities: np.ndarray) -> np.ndarray:
    """Symmetric crossing forms ``c^T F^T Omega F' c`` (m, k, k) from kernel
    coefficients (m, n, k), frames and their derivatives (m, 2n, n)."""
    forms = (np.swapaxes(coeffs, 1, 2)
             @ (np.swapaxes(frames, 1, 2) @ omega_px(frames.shape[2]) @ velocities)
             @ coeffs)
    return 0.5 * (forms + np.swapaxes(forms, 1, 2))


def _signatures(forms: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """Signatures of a stack (m, k, k) of symmetric forms, from one stacked
    eigvalsh, and by stack index the refusal of each form with an eigenvalue
    inside the degeneracy band (|eig| <= FORM_REL_TOL max |eig|), which must
    not be signed."""
    eigs = np.linalg.eigvalsh(forms)
    scale = np.maximum(np.max(np.abs(eigs), axis=1), 1e-300)
    degenerate = np.any(np.abs(eigs) <= FORM_REL_TOL * scale[:, None], axis=1)
    refusals: dict[int, Exception] = {
        i: DegenerateCrossingError(f"crossing form has a near-zero eigenvalue (eigs {eigs[i]})")
        for i in np.flatnonzero(degenerate).tolist()}
    return np.sum(eigs > 0, axis=1) - np.sum(eigs < 0, axis=1), refusals


def form_signature(form: np.ndarray) -> int:
    """Signature (positive minus negative eigenvalue count) of a symmetric form;
    refuses to sign eigenvalues inside the degeneracy band."""
    signatures, refusals = _signatures(np.asarray(form, dtype=float)[None])
    if refusals:
        raise refusals[0]
    return int(signatures[0])


@dataclass(frozen=True)
class CrossingReport:
    """One detected crossing: time, multiplicity, crossing-form signature and
    the bracket that localized it: the scan-grid cell of a sign change of
    det G, or the grid window around a near-zero run or a minimum of sigma."""

    t: float
    multiplicity: int
    signature: int
    bracket: tuple[float, float]

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("crossing multiplicity must be at least 1")
        if abs(self.signature) > self.multiplicity:
            raise ValueError("|signature| cannot exceed the multiplicity")

    def to_json_dict(self) -> dict:
        return {"t": self.t, "multiplicity": self.multiplicity,
                "signature": self.signature,
                "bracket": [self.bracket[0], self.bracket[1]]}


def _scan_grid(r: float, s: float) -> np.ndarray:
    """Uniform grid of [r, s] with steps of about SWEEP_STEP, at most
    SWEEP_CAP and at least 257 points."""
    if not (math.isfinite(r) and math.isfinite(s) and r < s):
        raise ValueError("need finite r < s")
    return np.linspace(r, s, max(min(math.ceil((s - r) / SWEEP_STEP), SWEEP_CAP), 257))


class _Candidate:
    """A crossing candidate of one curve under refinement: its scan window
    (the report's bracket), the det G bracket [lo, hi] or touch window it
    shrinks, the Newton iterate t, det G at the window's left end when det G
    changes sign on the window (None in a touch window), the last step length
    and the steps taken."""

    __slots__ = ("ray", "window", "lo", "hi", "t", "det_lo", "last", "steps")

    def __init__(self, ray: int, lo: float, hi: float, t: float, det_lo: float | None):
        self.ray, self.window, self.lo, self.hi = ray, (lo, hi), lo, hi
        self.t, self.det_lo, self.last, self.steps = t, det_lo, math.inf, 0


def _refine(curve, pair: np.ndarray, cands: list[_Candidate]) -> list:
    """Zero of sigma(t), the smallest singular value of G(t) = pair @ F(t), for
    every candidate, by Newton from its grid point with the exact slope
    u^T G'(t) v (u, v the singular vectors of sigma).  The candidates of all
    curves iterate together: each round reads the jets of every unsettled
    candidate in one ``jets_at`` call and decomposes their pairings in one
    stacked SVD and det.  With ``det_lo`` (det G changes sign on the window)
    each iterate shrinks the det bracket, and a step that leaves it or fails
    to halve is replaced by bisection; a bracket that collapses settles on
    its midpoint, whose jet the next round reads.  In a touch window a step
    that leaves the window means sigma has a minimum but no zero (None); one
    that fails to halve means Newton stalled (a near miss, or a zero resolved
    to rounding) and the multiplicity test decides.  Returns, per candidate,
    None or the zero t* with what Newton's last round has there: the frame,
    its derivative, and the singular values and right singular vectors (V^T)
    of G(t*), from which ``_classify`` decides the crossing.
    """
    hits: list = [None] * len(cands)
    todo, settling = list(range(len(cands))), set()
    while todo:
        frames, velocities = curve.jets_at(np.array([cands[i].t for i in todo]),
                                           np.array([cands[i].ray for i in todo]))
        g_mats = pair @ frames
        u, svals, vt = np.linalg.svd(g_mats)
        slopes = (u[:, None, :, -1] @ pair @ velocities @ vt[:, -1, :, None])[:, 0, 0]
        dets = np.linalg.det(g_mats)
        pending = []
        for k, i in enumerate(todo):
            cand, t = cands[i], cands[i].t
            hit = (t, frames[k], velocities[k], svals[k], vt[k])
            if i in settling:
                hits[i] = hit
                continue
            step = svals[k, -1] / slopes[k] if slopes[k] else math.inf
            tiny = 4 * np.finfo(float).eps * max(1.0, abs(t))
            if abs(step) <= tiny:
                hits[i] = hit
                continue
            if cand.det_lo is None:
                if not cand.lo <= t - step <= cand.hi:
                    continue
                if abs(step) > 0.5 * cand.last:
                    hits[i] = hit
                    continue
            else:
                if (dets[k] < 0) == (cand.det_lo < 0):
                    cand.lo = t
                else:
                    cand.hi = t
                if cand.hi - cand.lo <= tiny:
                    cand.t = 0.5 * (cand.lo + cand.hi)
                    settling.add(i)
                    pending.append(i)
                    continue
                if not (cand.lo < t - step < cand.hi and abs(step) <= 0.5 * cand.last):
                    step = t - 0.5 * (cand.lo + cand.hi)
            cand.steps += 1
            if cand.steps == NEWTON_STEPS:
                raise UnresolvedCrossingError(
                    f"Newton refinement on [{cand.lo}, {cand.hi}] did not settle "
                    f"in {NEWTON_STEPS} steps")
            cand.last = abs(step)
            cand.t = t - step
            pending.append(i)
        todo = pending
    return hits


def _scan_candidates(grid: np.ndarray, ratios: np.ndarray,
                     dets: np.ndarray) -> list[tuple[int, int, int, bool]]:
    """Crossing candidates of one curve from its indicator ``ratios`` (sigma
    over the curve's scan-wide scale) and det G on the grid, as grid indices
    (lo, hi, start, flip): the window [lo, hi], the grid point Newton starts
    from, and whether det G changes sign.  Raises on an abnormal segment and
    on an endpoint crossing."""
    near_zero = ratios < 10 * RANK_REL_TOL
    negative = dets < 0

    tiny = np.flatnonzero(ratios < 1e-10)
    if np.any(tiny[9:] - tiny[:-9] == 9):  # ten adjacent grid points
        raise NonIdealStructureError(
            "crossing indicator vanishes on a sub-interval; "
            "structure has an abnormal segment (not ideal)")

    for label, idx in (("left", 0), ("right", len(grid) - 1)):
        if near_zero[idx]:
            raise CrossingEndpointError(f"{label} endpoint t = {grid[idx]} is a crossing")

    candidates: list[tuple[int, int, int, bool]] = []
    consumed = np.zeros(len(grid) - 1, dtype=bool)   # cell i is [grid[i], grid[i + 1]]

    # grid points sitting (numerically) on a crossing: each run of adjacent
    # near-zero samples, with one neighbor on either side
    edges = np.diff(near_zero.astype(np.int8))
    for i, j in zip(np.flatnonzero(edges == 1) + 1, np.flatnonzero(edges == -1)):
        start = i + int(np.argmin(ratios[i:j + 1]))
        candidates.append((i - 1, j + 1, start, negative[i - 1] != negative[j + 1]))
        consumed[i - 1:j + 1] = True

    # odd-multiplicity crossings: sign changes of det G
    flips = (negative[:-1] != negative[1:]) & ~near_zero[:-1] & ~near_zero[1:] & ~consumed
    for i in np.flatnonzero(flips):
        consumed[i] = True
        candidates.append((i, i + 1, i + int(ratios[i + 1] < ratios[i]), True))

    # even-multiplicity touches: local minima of sigma_min without a sign change
    inner = ratios[1:-1]
    minima = ((inner <= ratios[:-2]) & (inner <= ratios[2:]) & (inner < 1e-4)
              & ~near_zero[1:-1])
    for i in np.flatnonzero(minima) + 1:
        if consumed[i - 1] or consumed[i]:
            continue
        consumed[i - 1:i + 1] = True
        candidates.append((i - 1, i + 1, i, False))
    return candidates


def _indicators(curve, pair: np.ndarray, floor: float, grid: np.ndarray,
                rays: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Largest and smallest singular value and det of G = pair @ F on the grid
    for the given curves, each (len(rays), T), from one checked stack of
    frames (only these small arrays outlive the call).  A frame with
    sigma_min(G) above ``floor`` times its Frobenius norm is certified to
    have full rank (see ``_check_lagrangian``)."""
    shape = (len(rays), len(grid))
    frames = curve.frames_at(np.tile(grid, len(rays)), np.repeat(rays, len(grid)))
    g_mats = pair @ frames
    svals = np.linalg.svd(g_mats, compute_uv=False)
    norms = np.sqrt(np.sum(frames * frames, axis=(1, 2)))
    _check_lagrangian(frames, certified=svals[:, -1] > floor * norms)
    return (svals[:, 0].reshape(shape), svals[:, -1].reshape(shape),
            np.linalg.det(g_mats).reshape(shape))


def _classify(scales: list[float], found: list[list]) -> list[list[CrossingReport]]:
    """Reports of each curve's refined crossings (each list sorted by time),
    decided from Newton's last SVD of G(t*) = pair @ F(t*): the multiplicity
    is n minus its rank by the rank rule, with RANK_REL_TOL times the curve's
    scan-wide scale as the limit (refused inside the ambiguity band), and the
    crossing form is taken on the right singular vectors of the rejected
    values.  The frames of all crossings are checked in one call, and the
    forms built and signed in one stacked call per multiplicity.
    The first failure is raised in order: curves in order; within a curve,
    the cluster check, then per crossing the frame check, the multiplicity
    and the signature."""
    flat = [hit for crossings in found for hit in crossings]
    if not flat:
        return [[] for _ in found]
    frames, velocities, svals, vts = (np.array([hit[j] for hit in flat]) for j in range(1, 5))
    n = svals.shape[1]
    ranks, ambiguous = rank_decisions(
        svals, RANK_REL_TOL * np.repeat(scales, [len(c) for c in found]))
    mults = n - ranks
    frame_refusals = _lagrangian_defects(frames)[1]
    # each crossing's first refusal: its frame's, else its multiplicity's, else its form's
    signatures = np.zeros(len(flat), dtype=int)
    refusals: dict[int, Exception] = {}
    for k in np.unique(mults[mults > 0]):
        idx = np.flatnonzero(mults == k)
        coeffs = np.swapaxes(vts[idx, n - k:], 1, 2)
        signatures[idx], degenerate = _signatures(_kernel_forms(coeffs, frames[idx],
                                                                velocities[idx]))
        refusals.update((int(idx[j]), error) for j, error in degenerate.items())
    refusals.update((i, AmbiguousRankError(f"multiplicity ambiguous at t = {flat[i][0]}",
                                           singular_values=svals[i]))
                    for i in np.flatnonzero(ambiguous).tolist())
    refusals.update(frame_refusals)

    reports, i = [], 0
    for crossings in found:
        times = [c[0] for c in crossings]
        for t1, t2 in zip(times, times[1:]):
            if t2 - t1 < CLUSTER_TOL:
                raise UnresolvedCrossingError(
                    f"crossings at {t1} and {t2} are closer than {CLUSTER_TOL}")
        ray_reports = []
        for t_star, *_, bracket in crossings:
            if i in refusals:
                raise refusals[i]
            if mults[i]:
                ray_reports.append(CrossingReport(t_star, int(mults[i]), int(signatures[i]),
                                                  bracket))
            i += 1
        reports.append(ray_reports)
    return reports


def _locate_all(curve, l0: LagrangianFrame, r: float, s: float) -> list[list[CrossingReport]]:
    """All crossings with l0 in (r, s) of each of the curve's R curves,
    refined and classified: one list per curve.

    One stacked pass: the R x T pairing matrices G = L0^T Omega F of the scan
    grid are decomposed (SVD and det) and their frames checked in chunks of
    whole curves of about SCAN_CHUNK matrices.  Each curve keeps its own
    scan-wide scale, abnormal-segment check, endpoint check and candidates;
    the candidates of all curves are refined together by ``_refine`` and
    classified together by ``_classify``.  The first failure met is raised:
    a scan check in curve order, then a refinement, then a classification in
    curve order.
    """
    grid = _scan_grid(r, s)
    pair = l0.matrix.T @ omega_px(l0.n)
    floor = CERTIFICATE_MARGIN * RANK_REL_TOL * np.linalg.norm(pair, 2)
    per_chunk = max(1, SCAN_CHUNK // len(grid))
    cands: list[_Candidate] = []
    scales = []
    for first in range(0, curve.rays, per_chunk):
        rays = range(first, min(first + per_chunk, curve.rays))
        for ray, sv_max, sv_min, det in zip(rays, *_indicators(curve, pair, floor, grid, rays)):
            scale = max(float(sv_max.max()), 1e-300)
            scales.append(scale)
            cands += [_Candidate(ray, grid[lo], grid[hi], grid[start],
                                 det[lo] if flip else None)
                      for lo, hi, start, flip in _scan_candidates(grid, sv_min / scale, det)]

    found: list[list] = [[] for _ in range(curve.rays)]
    for cand, hit in zip(cands, _refine(curve, pair, cands)):
        if hit is not None:
            found[cand.ray].append((*hit, cand.window))
    for crossings in found:
        crossings.sort(key=lambda c: c[0])
    return _classify(scales, found)


def locate_crossings(curve, l0: LagrangianFrame, r: float, s: float) -> list[CrossingReport]:
    """All crossings of a single curve (R = 1) with l0 in (r, s), refined and
    classified.

    Raises :class:`CrossingEndpointError` when an endpoint itself is a
    crossing and :class:`NonIdealStructureError` when the indicator vanishes
    identically on a sub-interval (abnormal segment).
    """
    if curve.rays != 1:
        raise ValueError(f"locate_crossings scans one curve, got {curve.rays}")
    return _locate_all(curve, l0, r, s)[0]


def maslov_index(curve, l0: LagrangianFrame, r: float, s: float) -> int:
    """Sum of crossing-form signatures over all crossings in (r, s).

    Endpoints must be crossing-free.  The result is invariant under monotone
    resampling of the grid and flips sign under curve reversal.
    """
    return sum(rep.signature for rep in locate_crossings(curve, l0, r, s))


def _maslov_count(reports: list[CrossingReport]) -> tuple[int, int]:
    """Total multiplicity and Maslov index of one Jacobi curve's crossings
    with the vertical; the count -index = total multiplicity is asserted."""
    index = sum(rep.signature for rep in reports)
    total = sum(rep.multiplicity for rep in reports)
    if -index != total:
        raise SubriemError(
            f"Maslov count inconsistent: index {index}, total multiplicity {total}")
    return total, index


def count_conjugate_on_ray(struct: Structure, point, covector, r: float,
                           s_end: float, tol: float = 1e-10) -> list[CrossingReport]:
    """Every conjugate time in (r, s_end) along the ray through ``covector``,
    with multiplicities, located as crossings of the Jacobi curve with the
    vertical space.

    Requires non-conjugate window endpoints and a covector off the zero level
    of H.  Consistency of the Maslov count (-index = total multiplicity) is
    asserted before returning.
    """
    point = np.asarray(point, dtype=float)
    covector = np.asarray(covector, dtype=float)
    if struct.hamiltonian_raw(point, covector) <= 1e-30:
        raise ZeroHamiltonianError("conjugate analysis requires H(lambda0) != 0")
    traj = integrate_extremal(struct, point, covector, s_end, tol,
                              samples=_scan_grid(r, s_end))
    curve = JacobiCurveSamples.sample(struct, traj, "jacobi", traj.ts)
    reports = locate_crossings(curve, vertical_frame(struct.n), r, s_end)
    _maslov_count(reports)
    return reports


class ContinuityReport(NamedTuple):
    """Per-ray conjugate counts in a window around a conjugate covector."""

    kernel_dim: int
    ray_covectors: np.ndarray      # (n_rays, n)
    ray_totals: np.ndarray         # (n_rays,)
    ray_indices: np.ndarray        # (n_rays,)

    @property
    def passed(self) -> bool:
        return bool(np.all(self.ray_totals == self.kernel_dim))


def continuity_check(struct: Structure, point, covector, delta_ray: float = 1e-2,
                     n_rays: int = 50, tol: float = 1e-10,
                     seed: int = 42) -> ContinuityReport:
    """Count conjugate points on rays through a neighborhood of a conjugate
    covector; each must carry exactly the kernel dimension of the center.

    Rays are sampled in a ball of radius ``delta_ray * |lambda0| / 4`` around
    the covector (``n_rays >= 1``, ``0 < delta_ray < 1``).  The centre and the
    rays are integrated as one batch, the centre first, to 1 + delta_ray; the
    kernel dimension is read off the centre's d exp, the q-p block of its
    stored Phi(1).  The rays are scanned over the window
    [1 - delta_ray, 1 + delta_ray] in one stacked pass (covering the bundle of
    rays joining the two endpoint balls of the construction).  Endpoint
    certification failures propagate as :class:`CrossingEndpointError`.
    """
    if n_rays < 1:
        raise ValueError(f"need n_rays >= 1, got {n_rays}")
    if not 0 < delta_ray < 1:
        raise ValueError(f"need 0 < delta_ray < 1, got {delta_ray}")
    point = np.asarray(point, dtype=float)
    covector = np.asarray(covector, dtype=float)
    if struct.hamiltonian_raw(point, covector) <= 1e-30:
        raise ZeroHamiltonianError("continuity check requires H(lambda0) != 0")

    rng = np.random.default_rng(seed)
    radius = delta_ray * float(np.linalg.norm(covector)) / 4
    dirs = rng.normal(size=(n_rays, struct.n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = radius * rng.uniform(0.2, 1.0, size=n_rays)
    rays = covector[None, :] + dirs * radii[:, None]

    r, s = 1.0 - delta_ray, 1.0 + delta_ray
    trajs = integrate_extremal_batch(struct, point, np.vstack([covector, rays]), s, tol,
                                     samples=np.append(_scan_grid(r, s), 1.0))
    centre, n = trajs[0], struct.n
    kernel_dim = n - numerical_rank(centre.phis[np.searchsorted(centre.ts, 1.0)][:n, n:])[0]
    curve = JacobiCurveSamples(trajs[1:], "jacobi", centre.ts)
    counts = [_maslov_count(reports)
              for reports in _locate_all(curve, vertical_frame(n), r, s)]
    totals, indices = (np.array(col, dtype=int) for col in zip(*counts))
    return ContinuityReport(kernel_dim, rays, totals, indices)
