"""Hamiltonian geodesic flow and its variational equation.

Integrates the canonical Hamilton equations ``zdot = J grad H`` (``qdot =
dH/dp, pdot = -dH/dq``) jointly with the linearized flow ``Phidot = S(t) Phi``,
``S = J Hess H``, as one augmented system (2n + 4n^2 components) so state and
fundamental matrix share step selection.  ``J = [[0, I], [-I, 0]]`` in (q, p)
order has only 0 and +-1 entries, so its products are exact.
The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control and exact landing on requested sample times.  It advances a batch of
B such systems with shared steps; a single extremal is the batch B = 1.

States and fundamental matrices are stored in (q, p) ordering; use
``linalg.block_swap`` to pass to the (p, x) ordering of the Jacobi machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DimensionMismatchError, IntegrationError,
                     NonFiniteStateError, StepSizeUnderflowError)
from .linalg import omega_px, omega_qp, symplectic_defect
from .structure import Structure

DEFAULT_TOL = 1e-10
ABS_FLOOR = 1e-13

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [np.array(row) for row in (       # stage i combines stages 0..i-1 by _A[i]
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
)]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = _B - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                    -92097 / 339200, 187 / 2100, 1 / 40])
_B5 = _B[:6]

_MAX_STEPS = 1_000_000
_EPS = np.finfo(float).eps


def _dopri5(fun, t0: float, y0: np.ndarray, targets: Sequence[float],
            rtol: float, atol: float) -> np.ndarray:
    """Integrate ``ydot = fun(t, y)`` from ``t0``, landing exactly on each target.

    ``y0`` has shape (B, D): B systems share one step sequence, and a step is
    accepted when the worst per-system scaled RMS error is at most one, so
    every system meets the tolerance; a single system is B = 1.  Returns the
    states at the targets (which must be >= t0, sorted) with shape
    (B, len(targets), D).
    """
    targets = list(targets)
    out = np.empty((y0.shape[0], len(targets), y0.shape[1]))
    t, y = t0, y0.copy()
    f = fun(t, y)
    if not np.all(np.isfinite(f)):
        raise NonFiniteStateError("vector field not finite at the initial state")

    ti = 0
    while ti < len(targets) and targets[ti] <= t + 1e-15 * max(1.0, abs(t)):
        out[:, ti] = y
        ti += 1
    if ti == len(targets):
        return out
    t_end = targets[-1]

    # initial step size (classic heuristic)
    sc = atol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean((y / sc) ** 2))
    d1 = np.sqrt(np.mean((f / sc) ** 2))
    h0 = 1e-6 if d1 < 1e-10 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    f1 = fun(t + h0, y + h0 * f)
    d2 = np.sqrt(np.mean(((f1 - f) / sc) ** 2)) / h0 if h0 > 0 else 0.0
    if max(d1, d2) <= 1e-15:
        h = min(max(h0 * 1e3, 1e-6), t_end - t)
    else:
        h = min(100 * h0, (0.01 / max(d1, d2)) ** 0.2, t_end - t)
    h = max(h, 1e-12 * max(1.0, abs(t_end)))

    err_prev = 1e-4
    stages = np.empty((7,) + y.shape)
    k = stages.reshape(7, -1)          # stage combinations as coeffs @ k
    rejected = False

    for _ in range(_MAX_STEPS):
        h_floor = 16 * _EPS * max(abs(t), 1.0)
        if h < h_floor:
            raise StepSizeUnderflowError(
                f"step size underflow at t = {t:.6g} (stiffness failure)")
        h = min(h, targets[ti] - t)

        stages[0] = f
        bad = False
        for i in range(1, 6):
            yi = y + h * (_A[i] @ k[:i]).reshape(y.shape)
            stages[i] = fun(t + _C[i] * h, yi)
            if not np.isfinite(stages[i]).all():
                bad = True
                break
        if not bad:
            y_new = y + h * (_B5 @ k[:6]).reshape(y.shape)
            stages[6] = fun(t + h, y_new)
            bad = not np.isfinite(stages[6]).all()
        if bad:
            h *= 0.25
            rejected = True
            if h < h_floor:
                raise NonFiniteStateError(f"state became non-finite near t = {t:.6g}")
            continue

        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = h * (_E @ k).reshape(y.shape) / sc
        err = math.sqrt(float(np.max(np.einsum("bd,bd->b", ratio, ratio))) / y.shape[1])

        if err <= 1.0:
            t, y, f = t + h, y_new, stages[6].copy()
            while ti < len(targets) and abs(targets[ti] - t) <= 1e-14 * max(1.0, abs(t)):
                out[:, ti] = y
                ti += 1
            if ti == len(targets):
                return out
            # PI controller (accepted step)
            err = max(err, 1e-10)
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08
            fac = min(5.0 if not rejected else 1.0, max(0.2, fac))
            h *= fac
            err_prev = err
            rejected = False
        else:
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
            rejected = True
    raise IntegrationError("step budget exhausted")


def _augmented_rhs(struct: Structure):
    """Hamilton's equations plus the variational equation on (B, 2n + 4n^2) rows:
    ``z' = J grad H`` and ``Phi' = S Phi`` with ``S = J Hess H``.  J has only
    0 and +-1 entries, so both products with it are exact."""
    n2 = 2 * struct.n
    j_mat = omega_px(struct.n)     # J = [[0, I], [-I, 0]] in (q, p) order
    j_tr = j_mat.T.copy()

    def rhs(t, y):
        b = y.shape[0]
        _, grad, hess = struct.jet_raw_batch(y[:, :n2])
        dy = np.empty_like(y)
        np.matmul(grad, j_tr, out=dy[:, :n2])
        np.matmul(j_mat @ hess, y[:, n2:].reshape(b, n2, n2),
                  out=dy[:, n2:].reshape(b, n2, n2))
        return dy

    return rhs


@dataclass(frozen=True)
class ExtremalTrajectory:
    """A sampled normal extremal with its fundamental-matrix samples.

    ``states[i]`` is (q, p) at ``ts[i]`` and ``phis[i]`` the 2n x 2n variational
    matrix (d of the time-t flow at the initial condition), with Phi(0) = I.
    """

    structure: Structure
    point: np.ndarray
    covector: np.ndarray
    t_final: float
    tol: float
    ts: np.ndarray
    states: np.ndarray
    phis: np.ndarray

    @property
    def n(self) -> int:
        return self.structure.n

    def _locate(self, t: float) -> int | None:
        i = np.searchsorted(self.ts, t)
        for j in (i - 1, i):
            if 0 <= j < len(self.ts) and abs(self.ts[j] - t) <= 1e-12 * max(1.0, abs(t)):
                return j
        return None

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """State and fundamental matrix at ``t``, re-integrating from the
        nearest stored sample when ``t`` is off the grid."""
        if t < -1e-12 or t > self.t_final + 1e-12 * max(1.0, self.t_final):
            raise ValueError(f"t = {t} outside the integrated span [0, {self.t_final}]")
        hit = self._locate(t)
        if hit is not None:
            return self.states[hit].copy(), self.phis[hit].copy()
        j = max(int(np.searchsorted(self.ts, t, side="right")) - 1, 0)
        n = self.n
        y0 = np.concatenate([self.states[j], self.phis[j].ravel()])[None]
        y = _dopri5(_augmented_rhs(self.structure), float(self.ts[j]), y0,
                    [t], rtol=self.tol, atol=ABS_FLOOR)[0, 0]
        return y[:2 * n], y[2 * n:].reshape(2 * n, 2 * n)

    def phis_at(self, ts) -> np.ndarray:
        """Fundamental matrices (T, 2n, 2n) at many times: stored samples are
        indexed as ``_locate`` matches them, other times go through ``at``."""
        ts = np.asarray(ts, dtype=float)
        i = np.searchsorted(self.ts, ts)
        tol = 1e-12 * np.maximum(1.0, np.abs(ts))
        left = np.maximum(i - 1, 0)
        idx = np.where((i > 0) & (np.abs(self.ts[left] - ts) <= tol),
                       left, np.minimum(i, len(self.ts) - 1))
        phis = self.phis[idx]
        for k in np.flatnonzero(np.abs(self.ts[idx] - ts) > tol):
            phis[k] = self.at(float(ts[k]))[1]
        return phis

    def state_at(self, t: float) -> np.ndarray:
        return self.at(t)[0]

    def phi_at(self, t: float) -> np.ndarray:
        return self.at(t)[1]

    def hamiltonian_values(self) -> np.ndarray:
        n = self.n
        return np.array([self.structure.hamiltonian_raw(s[:n], s[n:]) for s in self.states])

    def energy_drift(self) -> float:
        """Max relative drift of H over the stored samples."""
        h_vals = self.hamiltonian_values()
        h0 = h_vals[0]
        denom = abs(h0) if abs(h0) > 0 else 1.0
        return float(np.max(np.abs(h_vals - h0)) / denom)

    def symplectic_defect(self) -> float:
        om = omega_qp(self.n)
        return max(symplectic_defect(phi, om) for phi in self.phis)


def _integrate(struct: Structure, points: np.ndarray, covectors: np.ndarray,
               t_final: float, tol: float,
               samples: int | Sequence[float] | None) -> list[ExtremalTrajectory]:
    """Shared core of the entry points: validates the span, tolerance and
    sample grid, then integrates the (B, n) initial data as one batch."""
    if not 0 < t_final < math.inf:
        raise ValueError("t_final must be positive and finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(covectors))):
        raise ValueError("point and covector must be finite")
    if samples is None:
        samples = 65
    if isinstance(samples, int):
        if samples < 2:
            raise ValueError("need at least 2 samples")
        grid = np.linspace(0.0, t_final, samples)
    else:
        grid = np.unique(np.concatenate([[0.0, t_final], np.asarray(samples, dtype=float)]))
        if grid[0] < 0 or grid[-1] > t_final * (1 + 1e-12):
            raise ValueError("sample times must lie in [0, t_final]")

    b, n = covectors.shape
    y0 = np.hstack([points, covectors, np.tile(np.eye(2 * n).ravel(), (b, 1))])
    ys = _dopri5(_augmented_rhs(struct), 0.0, y0, grid, rtol=tol, atol=ABS_FLOOR)
    return [ExtremalTrajectory(struct, points[j], covectors[j], float(t_final), tol, grid,
                               ys[j, :, :2 * n], ys[j, :, 2 * n:].reshape(-1, 2 * n, 2 * n))
            for j in range(b)]


def integrate_extremal(struct: Structure, point, covector, t_final: float,
                       tol: float = DEFAULT_TOL,
                       samples: int | Sequence[float] | None = None) -> ExtremalTrajectory:
    """Integrate the normal extremal from (point, covector) over [0, t_final].

    ``samples`` selects the stored grid: an integer asks for that many uniform
    sample times, an array is used as-is (forced landings, always extended with
    0 and t_final; every time must lie in [0, t_final]), and None means 65
    uniform samples.
    """
    q0 = np.asarray(point, dtype=float)
    p0 = np.asarray(covector, dtype=float)
    n = struct.n
    if q0.shape != (n,) or p0.shape != (n,):
        raise DimensionMismatchError(
            f"point/covector must have shape ({n},), got {q0.shape} and {p0.shape}")
    return _integrate(struct, q0[None], p0[None], t_final, tol, samples)[0]


def integrate_extremal_batch(struct: Structure, point, covectors, t_final: float,
                             tol: float = DEFAULT_TOL,
                             samples: int | Sequence[float] | None = None
                             ) -> list[ExtremalTrajectory]:
    """Integrate many extremals jointly with shared adaptive steps.

    ``point`` is one base point shared by the batch or an array of shape
    (B, n); ``covectors`` has shape (B, n).  Each trajectory individually
    meets the tolerance (the step controller uses the worst per-system
    error).  Arguments and results follow ``integrate_extremal``.
    """
    covs = np.atleast_2d(np.asarray(covectors, dtype=float))
    b = covs.shape[0]
    n = struct.n
    if covs.shape[1] != n:
        raise DimensionMismatchError(f"covectors must have shape (B, {n})")
    pts = np.asarray(point, dtype=float)
    if pts.ndim == 1:
        pts = np.broadcast_to(pts, (b, n)).copy()
    if pts.shape != (b, n):
        raise DimensionMismatchError(f"points must have shape (B, {n})")
    return _integrate(struct, pts, covs, t_final, tol, samples)


def exp_map(struct: Structure, point, covector, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Exponential map: the configuration reached at time one."""
    p0 = np.asarray(covector, dtype=float)
    if not p0.any():
        return np.asarray(point, dtype=float).copy()
    traj = integrate_extremal(struct, point, covector, 1.0, tol, samples=[1.0])
    return traj.states[-1][:struct.n].copy()


def d_exp(struct: Structure, point, covector, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Differential of the exponential map in the fiber directions.

    Returns the n x n block of Phi(1) sending a covector perturbation
    d(lambda0) to the configuration perturbation dq(1).
    """
    traj = integrate_extremal(struct, point, covector, 1.0, tol, samples=[1.0])
    n = struct.n
    return traj.phis[-1][:n, n:].copy()


def d_exp_batch(struct: Structure, point, covectors, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Batched ``d_exp``: returns an array of shape (B, n, n)."""
    trajs = integrate_extremal_batch(struct, point, covectors, 1.0, tol, samples=[1.0])
    n = struct.n
    return np.array([t.phis[-1][:n, n:] for t in trajs])


def check_constant_speed(traj: ExtremalTrajectory) -> tuple[float, float]:
    """Diagnostics (max relative drift of H, max |squared speed - 2 H(0)|).

    The squared speed of the projected geodesic is sum_k h_k(lambda(t))^2.
    """
    n = traj.n
    h0 = traj.structure.hamiltonian_raw(traj.states[0][:n], traj.states[0][n:])
    speeds = np.array([
        float(np.sum(traj.structure.momenta_raw(s[:n], s[n:]) ** 2))
        for s in traj.states
    ])
    gap = float(np.max(np.abs(speeds - 2.0 * h0)))
    return traj.energy_drift(), gap
