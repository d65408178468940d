"""Hamiltonian geodesic flow and its variational equation.

Integrates the canonical Hamilton equations ``zdot = J grad H`` (``qdot =
dH/dp, pdot = -dH/dq``) jointly with the linearized flow ``Phidot = S(t) Phi``,
``S = J Hess H``, as one augmented system (2n + 4n^2 components) so state and
fundamental matrix share step selection.  ``J = [[0, I], [-I, 0]]`` in (q, p)
order has only 0 and +-1 entries; it is folded into the coefficients of the
structure's jet table, which emits ``J grad H`` and ``S`` directly, so one RHS
evaluation is one table product and one batched ``S @ Phi``.
The integrator is DOP853 (Hairer, Norsett and Wanner, *Solving ODEs I*,
II.5-II.6): 12 stages, an error estimate blended from embedded 5th- and
3rd-order solutions, and a 7th-order continuous extension from 3 extra
stages.  It takes its natural steps to t_final; each requested sample time is
interpolated from the accepted step that contains it (samples are never
landed on), and the extra stages run only on steps that contain samples.  It
advances a batch of B such systems with shared steps; a single extremal is
the batch B = 1, and the step loop reads the tableau from slices taken once.
After ``_MAX_STEPS`` tries it raises ``IntegrationError`` with the time
reached and the steps and RHS rows spent.  A lookup between samples replays
fixed DOP853 steps from the last sample before it, split at the recorded step
boundaries.

States and fundamental matrices are stored in (q, p) ordering; use
``linalg.block_swap`` to pass to the (p, x) ordering of the Jacobi machinery.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (DimensionMismatchError, IntegrationError,
                     NonFiniteStateError, StepSizeUnderflowError)
from .linalg import omega_qp, symplectic_defect
from .structure import Structure

DEFAULT_TOL = 1e-10
ABS_FLOOR = 1e-13
#: the controller's relative tolerance is RTOL_PER_TOL * tol (see ``_integrate``)
RTOL_PER_TOL = 1e-3

# DOP853 tableau (Hairer, Norsett and Wanner, Solving ODEs I, II.5-II.6):
# stages 0..11 make the 8th-order step, stage 12 is f at the step's end and
# stages 13..15 feed the 7th-order continuous extension.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])
_A = np.zeros((16, 16))          # stage i combines stages 0..i-1 by _A[i]
_A[1, [0]] = [5.26001519587677318785587544488e-2]
_A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1]
_A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1]
_A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3]
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138]
_B = _A[12, :12]                 # the 8th-order weights (stage 12 is FSAL)
# error estimators: embedded 3rd-order (_E3) and 5th-order (_E5) differences
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
# continuous extension: the last four of its seven coefficient vectors are h * _D @ k
_D = np.zeros((4, 16))
_D[:, [0, *range(5, 16)]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3]]

# the tableau as the stage loop reads it, sliced once: stage s's node as a
# float, its weights over stages 0..s-1, and the error weights of stages 0..11
_NODES = [float(c) for c in _C]
_WEIGHTS = [_A[s, :s] for s in range(16)]
_ERR5, _ERR3 = _E5[:12], _E3[:12]

_MAX_STEPS = 1_000_000
_EPS = np.finfo(float).eps


class IntegrationStats(NamedTuple):
    """Cost and step record of one integration, shared by every trajectory of
    its batch.  ``rhs_rows`` counts augmented-RHS rows (calls times B),
    ``max_error`` is the largest scaled error norm of an accepted step (at most
    one), and ``boundaries`` holds the accepted step boundaries from 0 to
    t_final (S + 1 floats for S steps), along which off-sample lookups step.
    ``accepted``, ``h_min`` and ``h_max`` are read off the boundaries.  A
    NamedTuple rather than a dataclass: its class costs about 0.1 ms to create
    at import, a frozen dataclass's about 1 ms."""

    rhs_rows: int
    rejected: int
    max_error: float
    boundaries: np.ndarray

    @property
    def accepted(self) -> int:
        return len(self.boundaries) - 1

    @property
    def h_min(self) -> float:
        return float(np.diff(self.boundaries).min())

    @property
    def h_max(self) -> float:
        return float(np.diff(self.boundaries).max())

    def summary(self) -> dict:
        """The cost figures, as the CLI's ``--stats`` prints them."""
        return {"rhs_rows": self.rhs_rows, "accepted": self.accepted,
                "rejected": self.rejected, "h_min": self.h_min, "h_max": self.h_max,
                "max_error": self.max_error}


def _fill_stages(rhs, t, y: np.ndarray, h, k: np.ndarray, stages: range) -> None:
    """Evaluate the given stages of a DOP853 step of size ``h`` (a scalar, or
    a (B, 1) column of per-row sizes) from ``y`` (B, D) into the stage buffer
    ``k`` (stage 0, f(y), already in place)."""
    kf = k.reshape(len(k), -1)          # stage combinations as weights . kf
    shape = y.shape
    for s in stages:
        k[s] = rhs(t + _NODES[s] * h, y + h * _WEIGHTS[s].dot(kf[:s]).reshape(shape))


def _step(rhs, t, y: np.ndarray, h, k: np.ndarray) -> np.ndarray:
    """Stages 1..11 of one DOP853 step; returns the 8th-order solution at t + h."""
    _fill_stages(rhs, t, y, h, k, range(1, 12))
    return y + h * _B.dot(k.reshape(len(k), -1)[:12]).reshape(y.shape)


def _dense(rhs, t: float, y: np.ndarray, y_new: np.ndarray, h: float,
           k: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """The 7th-order continuous extension of the accepted step [t, t + h] at
    the fractions ``x`` (m,), written into ``out`` (B, m, D) in place (no
    temporary of its size): runs the 3 extra stages into ``k[13:]``, with
    ``k[12]`` holding f(y_new)."""
    _fill_stages(rhs, t, y, h, k, range(13, 16))
    dy = y_new - y
    coef = [dy, h * k[0] - dy, 2 * dy - h * (k[12] + k[0]),
            *(h * _D.dot(k.reshape(16, -1)).reshape((4,) + y.shape))]
    x = x[None, :, None]
    rest = 1 - x
    out[...] = coef[6][:, None]
    for i in range(5, -1, -1):
        out *= x if i % 2 else rest
        out += coef[i][:, None]
    out *= x
    out += y[:, None]


def _dop853(rhs, y0: np.ndarray, samples: np.ndarray, rtol: float,
            atol: float) -> tuple[np.ndarray, IntegrationStats]:
    """Integrate ``ydot = rhs(t, y)`` from 0 to ``samples[-1]`` in natural
    adaptive steps, reading the states at the sorted ``samples`` (the first
    is 0) off the continuous extension of the step that contains each; the
    extra stages run only on steps that contain a sample before their end.

    ``y0`` has shape (B, D): B systems share one step sequence, and a step is
    accepted when the worst per-system error norm is at most one, so every
    system meets the tolerance; a single system is B = 1.  Returns the states
    with shape (B, len(samples), D) and the integration's record.
    """
    b, d = y0.shape
    t_end = float(samples[-1])
    out = np.empty((b, len(samples), d))
    out[:, 0] = y0
    t, y = 0.0, y0
    f = rhs(t, y)
    if not np.isfinite(f).all():
        raise NonFiniteStateError("vector field not finite at the initial state")

    # initial step size (classic heuristic, for an order-8 pair)
    sc = atol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean((y / sc) ** 2))
    d1 = np.sqrt(np.mean((f / sc) ** 2))
    h0 = min(1e-6 if d1 < 1e-10 else 0.01 * d0 / d1, t_end)
    f1 = rhs(t + h0, y + h0 * f)
    d2 = np.sqrt(np.mean(((f1 - f) / sc) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h = max(h0 * 1e3, 1e-6)
    else:
        h = min(100 * h0, (0.01 / max(d1, d2)) ** 0.125)
    h = max(min(h, t_end), 1e-12 * max(1.0, t_end))

    calls, rejected, retry, max_err = 2, 0, False, 0.0
    bounds = [0.0]
    k = np.empty((16, b, d))
    k12 = k.reshape(16, -1)[:12]        # the stages the error estimators weigh
    abs_y = np.abs(y)
    grid = samples.tolist()             # bisect on a list beats searchsorted per step
    ti = 1                              # next sample to fill
    for _ in range(_MAX_STEPS):
        h_floor = 16 * _EPS * max(t, 1.0)
        if h < h_floor:
            raise StepSizeUnderflowError(
                f"step size underflow at t = {t:.6g} (stiffness failure)")
        last = t + h >= t_end
        if last:
            h = t_end - t

        k[0] = f
        y_new = _step(rhs, t, y, h, k)
        calls += 11
        abs_new = np.abs(y_new)
        sc = atol + rtol * np.maximum(abs_y, abs_new)
        e5 = _ERR5.dot(k12).reshape(b, d) / sc
        e3 = _ERR3.dot(k12).reshape(b, d) / sc
        n5 = np.einsum("bd,bd->b", e5, e5)
        n3 = np.einsum("bd,bd->b", e3, e3)
        err = float(h * np.maximum.reduce(n5 / np.sqrt(d * np.maximum(n5 + 0.01 * n3, 1e-300))))
        finite = math.isfinite(err)
        if finite and err <= 1.0:
            k[12] = rhs(t + h, y_new)
            calls += 1
            finite = bool(np.logical_and.reduce(np.isfinite(k[12]), axis=None))
        if not finite:
            h *= 0.25
            rejected += 1
            retry = True
            if h < h_floor:
                raise NonFiniteStateError(f"state became non-finite near t = {t:.6g}")
            continue
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.125)
            rejected += 1
            retry = True
            continue

        t_new = t_end if last else t + h
        tj = len(grid) if last else bisect_right(grid, t_new)
        inside = bisect_left(grid, t_new, ti, tj)       # samples before t_new
        if inside > ti:
            _dense(rhs, t, y, y_new, h, k, (samples[ti:inside] - t) / h, out[:, ti:inside])
            calls += 3
        if tj > inside:
            out[:, inside:tj] = y_new[:, None]
        ti = tj
        bounds.append(t_new)
        max_err = max(max_err, err)
        if last:
            return out, IntegrationStats(calls * b, rejected, max_err, np.array(bounds))
        fac = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.125)
        h *= min(fac, 1.0) if retry else fac
        t, y, abs_y, f, retry = t_new, y_new, abs_new, k[12].copy(), False
    raise IntegrationError(
        f"step budget of {_MAX_STEPS} steps exhausted at t = {t:.6g} of t_final = "
        f"{t_end:.6g}: {len(bounds) - 1} accepted and {rejected} rejected steps, "
        f"{calls * b} RHS rows")


def _fixed_steps(rhs, y: np.ndarray, t0: np.ndarray, t1: np.ndarray,
                 bounds: np.ndarray) -> np.ndarray:
    """Advance the rows of ``y`` (R, D) from times ``t0`` to ``t1`` (R,) by
    DOP853 steps without error control, one step per piece of [t0, t1] cut at
    the interior points of ``bounds``.  Rows advance together, one batched RHS
    call per stage, so a row costs 12 RHS rows per piece."""
    first = np.searchsorted(bounds, t0, side="right")
    cuts = np.searchsorted(bounds, t1, side="left") - first
    y, t = y.copy(), t0.copy()
    for step in range(int(cuts.max()) + 1):
        rows = np.flatnonzero(cuts >= step)
        ends = np.where(cuts[rows] > step,
                        bounds[np.minimum(first[rows] + step, len(bounds) - 1)], t1[rows])
        h = (ends - t[rows])[:, None]
        k = np.empty((12, len(rows), y.shape[1]))
        k[0] = rhs(t[rows, None], y[rows])
        y[rows] = _step(rhs, t[rows, None], y[rows], h, k)
        t[rows] = ends
    return y


def _augmented_rhs(struct: Structure):
    """Hamilton's equations plus the variational equation on (B, 2n + 4n^2) rows:
    ``z' = J grad H`` and ``Phi' = S Phi`` with ``S = J Hess H``.  The jet
    table emits both J grad H and S (J folded into its exact coefficients),
    so a call is one table product and one batched matmul."""
    n2 = 2 * struct.n

    def rhs(t, y):
        b = y.shape[0]
        _, field, s_mat = struct.jet_raw_batch(y[:, :n2])
        dy = np.empty_like(y)
        dy[:, :n2] = field
        np.matmul(s_mat, y[:, n2:].reshape(b, n2, n2), out=dy[:, n2:].reshape(b, n2, n2))
        return dy

    return rhs


class ExtremalTrajectory(NamedTuple):
    """A sampled normal extremal with its fundamental-matrix samples.

    ``states[i]`` is (q, p) at ``ts[i]`` and ``phis[i]`` the 2n x 2n variational
    matrix (d of the time-t flow at the initial condition), with Phi(0) = I.
    ``stats`` is the integration's record, shared by a batch; its step
    boundaries let lookups between samples replay the accepted steps.  A
    NamedTuple, like ``IntegrationStats``: it validates nothing.
    """

    structure: Structure
    point: np.ndarray
    covector: np.ndarray
    t_final: float
    ts: np.ndarray
    states: np.ndarray
    phis: np.ndarray
    stats: IntegrationStats

    @property
    def n(self) -> int:
        return self.structure.n

    def _match(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest stored sample index for each time, and whether it matches
        to within 1e-12 relative."""
        i = np.searchsorted(self.ts, ts)
        tol = 1e-12 * np.maximum(1.0, np.abs(ts))
        left = np.maximum(i - 1, 0)
        idx = np.where((i > 0) & (np.abs(self.ts[left] - ts) <= tol),
                       left, np.minimum(i, len(self.ts) - 1))
        return idx, np.abs(self.ts[idx] - ts) <= tol

    def _locate(self, t: float) -> int | None:
        idx, hit = self._match(np.array([t], dtype=float))
        return int(idx[0]) if hit[0] else None

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """State and fundamental matrix at ``t``: a stored sample, or a replay
        of the accepted steps from the last sample before ``t``."""
        states, phis = lookup([self], 0, np.array([t], dtype=float))
        return states[0], phis[0]

    def phi_at(self, t: float) -> np.ndarray:
        return self.at(t)[1]

    def symplectic_defect(self) -> float:
        om = omega_qp(self.n)
        return max(symplectic_defect(phi, om) for phi in self.phis)


def lookup(trajs: Sequence[ExtremalTrajectory], rays, ts) -> tuple[np.ndarray, np.ndarray]:
    """States (m, 2n) and fundamental matrices (m, 2n, 2n) of ``trajs[rays[i]]``
    at ``ts[i]``, for trajectories of one batch (one sample grid and one step
    record); ``rays`` broadcasts against ``ts``.  Stored samples are read as
    ``_match`` finds them.  Every other row is replayed from the last sample
    at or before its time by fixed DOP853 steps, split at the accepted step
    boundaries so that no sub-step is longer than the step the controller
    accepted there; all such rows advance as one batch."""
    ts = np.asarray(ts, dtype=float)
    rays = np.broadcast_to(np.asarray(rays, dtype=np.intp), ts.shape)
    first = trajs[0]
    n2 = 2 * first.n
    idx, hit = first._match(ts)
    off = np.flatnonzero(~hit)
    if len(off):
        if np.any(ts[off] < -1e-12) or np.any(ts[off] > first.t_final
                                              + 1e-12 * max(1.0, first.t_final)):
            raise ValueError(f"t outside the integrated span [0, {first.t_final}]")
        idx[off] = np.maximum(np.searchsorted(first.ts, ts[off], side="right") - 1, 0)
    states = np.empty((len(ts), n2))
    phis = np.empty((len(ts), n2, n2))
    for ray in np.unique(rays):
        rows = np.flatnonzero(rays == ray)
        states[rows] = trajs[ray].states[idx[rows]]
        phis[rows] = trajs[ray].phis[idx[rows]]
    if len(off):
        y = np.concatenate([states[off], phis[off].reshape(len(off), -1)], axis=1)
        y = _fixed_steps(_augmented_rhs(first.structure), y, first.ts[idx[off]], ts[off],
                         first.stats.boundaries)
        states[off] = y[:, :n2]
        phis[off] = y[:, n2:].reshape(-1, n2, n2)
    return states, phis


def _integrate(struct: Structure, points: np.ndarray, covectors: np.ndarray,
               t_final: float, tol: float,
               samples: int | Sequence[float] | None) -> list[ExtremalTrajectory]:
    """Shared core of the entry points: validates the span, tolerance and
    sample grid, then integrates the (B, n) initial data as one batch.

    Every caller's ``tol`` maps to the controller by one rule: rtol =
    RTOL_PER_TOL * tol and atol = ABS_FLOOR.  Nothing caps the natural steps,
    and samples and lookups inherit the local error of the steps they fall
    in, so the controller runs tighter than ``tol``: at tol = 1e-10 the
    Heisenberg state error is about 2e-13.
    """
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
    ys, stats = _dop853(_augmented_rhs(struct), y0, grid, RTOL_PER_TOL * tol, ABS_FLOOR)
    return [ExtremalTrajectory(struct, points[j], covectors[j], float(t_final), grid,
                               ys[j, :, :2 * n], ys[j, :, 2 * n:].reshape(-1, 2 * n, 2 * n),
                               stats)
            for j in range(b)]


def integrate_extremal(struct: Structure, point, covector, t_final: float,
                       tol: float = DEFAULT_TOL,
                       samples: int | Sequence[float] | None = None) -> ExtremalTrajectory:
    """Integrate the normal extremal from (point, covector) over [0, t_final].

    ``samples`` selects the stored grid: an integer asks for that many uniform
    sample times, an array is used as-is (always extended with 0 and t_final;
    every time must lie in [0, t_final]), and None means 65 uniform samples.
    Samples do not shape the steps: the integrator takes its natural steps and
    interpolates each sample from the step that contains it.
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
    (B, n); ``covectors`` has shape (B, n) with B >= 1.  Each trajectory
    individually meets the tolerance (the step controller uses the worst
    per-system error).  Arguments and results follow ``integrate_extremal``.
    """
    covs = np.atleast_2d(np.asarray(covectors, dtype=float))
    b = covs.shape[0]
    n = struct.n
    if covs.shape[1] != n:
        raise DimensionMismatchError(f"covectors must have shape (B, {n})")
    if b == 0:
        raise ValueError("need at least one covector")
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


def _relative_drift(values: np.ndarray) -> float:
    h0 = values[0]
    return float(np.max(np.abs(values - h0)) / (abs(h0) if h0 else 1.0))


def check_constant_speed(traj: ExtremalTrajectory) -> tuple[float, float]:
    """Diagnostics (max relative drift of H, max |squared speed - 2 H(0)|) over
    the stored samples, from one batched jet evaluation.

    The squared speed of the projected geodesic is sum_k h_k(lambda(t))^2,
    which is <p, dH/dp> because H is quadratic in p.
    """
    n = traj.n
    values, field, _ = traj.structure.jet_raw_batch(traj.states)
    speeds = np.einsum("ti,ti->t", traj.states[:, n:], field[:, :n])     # <p, dH/dp>
    return _relative_drift(values), float(np.max(np.abs(speeds - 2.0 * values[0])))
