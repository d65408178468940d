import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subriem import flow, maslov
from subriem.errors import (AmbiguousRankError, CrossingEndpointError,
                            DegenerateCrossingError, NonIdealStructureError,
                            UnresolvedCrossingError, ZeroHamiltonianError)
from subriem.flow import integrate_extremal, integrate_extremal_batch
from subriem.heisenberg import ALPHA_STAR
from subriem.linalg import RANK_REL_TOL, numerical_rank, omega_px
from subriem.maslov import (CrossingReport, JacobiCurveSamples, LagrangianFrame,
                            _scan_grid, continuity_check, count_conjugate_on_ray,
                            crossing_form, jacobi_curve, locate_crossings,
                            maslov_index, vertical_frame)
from subriem.structure import Structure, load_structure

TWO_PI = 2 * math.pi
ENGEL_FILE = Path(__file__).resolve().parents[1] / "bench" / "engel.json"


def _curve_with_traj(struct, covector, r, s, kind="jacobi", extra=(), landings=()):
    """Trajectory whose stored grid covers every scan the test will run."""
    grid = np.union1d(_scan_grid(r, s), landings)
    for lo, hi in extra:
        grid = np.union1d(grid, _scan_grid(lo, hi))
        grid = np.union1d(grid, (r + s) - _scan_grid(lo, hi))  # reversed lookups
    traj = integrate_extremal(struct, np.zeros(3), np.asarray(covector, float),
                              float(grid[-1]), 1e-10, samples=grid)
    return JacobiCurveSamples.sample(struct, traj, kind, grid)


def _assert_brackets(reports, r, s):
    """Each bracket is a cell or a window of the scan grid around its crossing."""
    grid = _scan_grid(r, s)
    for rep in reports:
        lo, hi = rep.bracket
        assert lo in grid and hi in grid, rep
        assert lo < rep.t < hi, rep


# ---------------------------------------------------------------------------
# frames and curves

def test_lagrangian_frame_validation():
    vertical_frame(3)  # fine
    with pytest.raises(ValueError):
        LagrangianFrame(np.vstack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))
    with pytest.raises(ValueError):
        LagrangianFrame(np.zeros((4, 2)))


def test_isotropy_of_symmetric_graph_frames():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    frame = LagrangianFrame(np.vstack([np.eye(3), 0.5 * (a + a.T)]))
    defects, refusals = maslov._lagrangian_defects(frame.matrix[None])
    assert defects[0] <= 1e-12 and not refusals


def test_jacobi_curve_starts_vertical(heis, traj_2pi):
    frame = jacobi_curve(heis, traj_2pi, 0.0)
    assert np.allclose(frame.matrix[:3], np.eye(3))
    assert np.allclose(frame.matrix[3:], 0)
    # the intersection with the vertical has dimension 2n - rank([F | V])
    assert numerical_rank(np.hstack([frame.matrix, vertical_frame(3).matrix]))[0] == 3


def test_euclidean_jacobi_curve_never_returns(eucl3):
    traj = integrate_extremal(eucl3, np.zeros(3), np.array([1.0, -0.4, 0.2]), 1.0,
                              samples=9)
    for t_val in (0.25, 0.5, 1.0):
        frame = jacobi_curve(eucl3, traj, t_val)
        assert np.allclose(frame.matrix[:3], np.eye(3))
        assert np.allclose(frame.matrix[3:], -t_val * np.eye(3), atol=1e-12)
        assert numerical_rank(np.hstack([frame.matrix, vertical_frame(3).matrix]))[0] == 6


def test_heisenberg_conjugate_meets_vertical(heis, traj_2pi):
    j0 = jacobi_curve(heis, traj_2pi, 0.0)
    j1 = jacobi_curve(heis, traj_2pi, 1.0)
    assert numerical_rank(np.hstack([j1.matrix, j0.matrix]))[0] == 5   # a 1-dim intersection


def test_l_curve_crossings_match_jacobi_curve(heis):
    curve_j = _curve_with_traj(heis, [1.0, 0.0, TWO_PI], 0.5, 1.15, kind="jacobi")
    curve_l = JacobiCurveSamples.sample(heis, curve_j.traj, "l", curve_j.ts)
    l0 = vertical_frame(3)
    rep_j = locate_crossings(curve_j, l0, 0.5, 1.15)
    rep_l = locate_crossings(curve_l, l0, 0.5, 1.15)
    assert len(rep_j) == len(rep_l) == 1
    assert rep_j[0].t == pytest.approx(1.0, abs=1e-9)
    assert rep_l[0].t == pytest.approx(1.0, abs=1e-9)
    _assert_brackets(rep_j + rep_l, 0.5, 1.15)
    assert rep_j[0].multiplicity == rep_l[0].multiplicity == 1
    # forward transport flips the crossing-form sign relative to the Jacobi curve
    assert rep_j[0].signature == -1
    assert rep_l[0].signature == 1


# ---------------------------------------------------------------------------
# crossing forms

def test_crossing_form_requires_intersection(eucl3):
    traj = integrate_extremal(eucl3, np.zeros(3), np.array([1.0, 0, 0]), 1.0,
                              samples=9)
    curve = JacobiCurveSamples.sample(eucl3, traj, "l", traj.ts)
    with pytest.raises(ValueError):
        crossing_form(curve, 0.5, vertical_frame(3))


def test_crossing_form_at_zero_is_minus_twice_fiber_hamiltonian(heis, traj_2pi):
    curve = JacobiCurveSamples.sample(heis, traj_2pi, "jacobi", traj_2pi.ts)
    form = crossing_form(curve, 0.0, vertical_frame(3))
    # H_pp at the origin is diag(1, 1, 0), so the form is -H_pp = -diag(1, 1, 0)
    assert np.allclose(form, -np.diag([1.0, 1.0, 0.0]), rtol=0, atol=1e-12)


def test_jacobi_curve_crossing_form_negative(heis, traj_2pi):
    curve = JacobiCurveSamples.sample(heis, traj_2pi, "jacobi", traj_2pi.ts)
    form = crossing_form(curve, 1.0, vertical_frame(3))
    assert form.shape == (1, 1)
    assert form[0, 0] < -0.5


def _stencil_velocity(curve, t_star, t_max):
    """Reference frame derivative: a 5-point finite-difference stencil with
    step 1e-4 * max(1, |t_star|), one-sided near the ends of [0, t_max]."""
    h = 1e-4 * max(1.0, abs(t_star))
    if t_star - 2 * h >= 0 and t_star + 2 * h <= t_max:
        offsets, weights = (-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)
    elif t_star + 4 * h <= t_max:
        offsets, weights = (0, 1, 2, 3, 4), (-25 / 12, 4.0, -3.0, 4 / 3, -1 / 4)
    else:
        offsets, weights = (0, -1, -2, -3, -4), (25 / 12, -4.0, 3.0, -4 / 3, 1 / 4)
    frames = curve.frames_at(t_star + h * np.array(offsets))
    return np.tensordot(weights, frames, axes=1) / h


@pytest.mark.parametrize("name", ["heisenberg", "engel"])
def test_velocity_matches_finite_difference_stencil(heis, name):
    if name == "heisenberg":
        struct, cov = heis, np.array([0.7, -0.4, 13.0])
    else:
        struct = load_structure(str(ENGEL_FILE))
        cov = np.array([2.041, -2.556, 1.254, -47.53])
    traj = integrate_extremal(struct, np.zeros(struct.n), cov, 1.0, 1e-12, samples=41)
    r, s = 0.2, 0.9
    for kind in ("jacobi", "l"):
        curve = JacobiCurveSamples.sample(struct, traj, kind, traj.ts)
        for crv, t_max, times in ((curve, 1.0, (0.0, 0.35, 0.6125, 0.83, 1.0)),
                                  (curve.reversed_over(r, s), r + s, (0.35, 0.6125, 0.83))):
            frames, velocities = crv.jets_at(times)
            assert np.array_equal(frames, crv.frames_at(times))
            for t_star, exact in zip(times, velocities):
                approx = _stencil_velocity(crv, t_star, t_max)
                scale = np.max(np.abs(exact))
                assert np.max(np.abs(exact - approx)) <= 1e-8 * scale, (kind, t_star)


def test_crossing_forms_match_stencil_forms(heis):
    # the exact form against the form built on the stencil derivative, at the
    # three crossings of (0.7, -0.4, 13) on the Jacobi and the forward curve
    reports, _ = count_conjugate_on_ray(heis, np.zeros(3), np.array([0.7, -0.4, 13.0]),
                                        0.05, 1.0)
    traj = integrate_extremal(heis, np.zeros(3), np.array([0.7, -0.4, 13.0]), 1.0,
                              1e-10, samples=_scan_grid(0.05, 1.0))
    l0 = vertical_frame(3)
    om = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
    assert len(reports) == 3
    for kind in ("jacobi", "l"):
        curve = JacobiCurveSamples.sample(heis, traj, kind, traj.ts)
        for rep in reports:
            form = crossing_form(curve, rep.t, l0)
            assert form.shape == (1, 1)
            f_star = curve.frames_at([rep.t])[0]
            _, _, vt = np.linalg.svd(l0.matrix.T @ om @ f_star)
            c = vt[-1:].T
            ref = c.T @ f_star.T @ om @ _stencil_velocity(curve, rep.t, 1.0) @ c
            assert abs(form[0, 0] - ref[0, 0]) <= 1e-9 * abs(ref[0, 0]), (kind, rep.t)


def test_curve_derivative_rank_equals_horizontal_rank(heis, traj_2pi):
    # the derivative form of the Jacobi curve is -H_pp(lambda(t)), of rank
    # rank H_pp = 2
    curve = JacobiCurveSamples.sample(heis, traj_2pi, "jacobi", traj_2pi.ts)
    om = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
    for t_star in (0.0, 0.4, 0.9):
        (f_star,), (velocity,) = curve.jets_at([t_star])
        deriv_form = f_star.T @ om @ velocity
        state = traj_2pi.at(t_star)[0]
        assert np.allclose(deriv_form, -heis.jet_raw(state[:3], state[3:])[5],
                           rtol=0, atol=1e-10)
        svals = np.linalg.svd(deriv_form, compute_uv=False)
        assert svals[1] / svals[0] > 1e-3
        assert svals[2] / svals[0] < 1e-10


def test_form_signature_rejects_degenerate():
    signatures, refusals = maslov._signatures(
        np.array([np.diag([1.0, 0.0]), np.diag([2.0, -1.0]), np.diag([-2.0, -1.0])]))
    assert list(refusals) == [0] and isinstance(refusals[0], DegenerateCrossingError)
    assert signatures[1:].tolist() == [0, -2]


# ---------------------------------------------------------------------------
# index scans

def test_maslov_index_single_crossing(heis):
    curve = _curve_with_traj(heis, [1.0, 0.0, 7.0], 0.1, 1.0)
    l0 = vertical_frame(3)
    reports = locate_crossings(curve, l0, 0.1, 1.0)
    assert len(reports) == 1
    assert reports[0].t == pytest.approx(TWO_PI / 7, abs=1e-12)
    assert reports[0].multiplicity == 1
    _assert_brackets(reports, 0.1, 1.0)
    assert maslov_index(curve, l0, 0.1, 1.0) == -1


def test_maslov_index_zero_without_crossings(heis, eucl3):
    curve = _curve_with_traj(heis, [1.0, 0.0, 3.0], 0.1, 1.0)
    assert maslov_index(curve, vertical_frame(3), 0.1, 1.0) == 0
    curve_e = _curve_with_traj(eucl3, [1.0, 0.2, -0.5], 0.1, 1.0)
    assert maslov_index(curve_e, vertical_frame(3), 0.1, 1.0) == 0


def test_maslov_concatenation_and_reparametrization(heis, reparametrized):
    r, s, mid = 0.1, 1.0, 0.5
    curve = _curve_with_traj(heis, [1.0, 0.0, 13.0], r, s, extra=((r, mid), (mid, s)),
                             landings=reparametrized.phi(_scan_grid(r, s), r, s))
    l0 = vertical_frame(3)
    whole = locate_crossings(curve, l0, r, s)
    index = sum(rep.signature for rep in whole)
    assert len(whole) == 3 and index == -3
    assert index == maslov_index(curve, l0, r, mid) + maslov_index(curve, l0, mid, s)
    # a monotone reparametrization of [r, s] scans F at other times and
    # refines along another parameter, yet finds the same crossings
    skew = locate_crossings(reparametrized(curve, r, s), l0, r, s)
    assert [rep.multiplicity for rep in skew] == [rep.multiplicity for rep in whole]
    assert sum(rep.signature for rep in skew) == index
    times = reparametrized.phi(np.array([rep.t for rep in skew]), r, s)
    assert np.allclose(times, [rep.t for rep in whole], rtol=0, atol=1e-10)


def test_maslov_reversal_flips_sign(heis):
    r, s = 0.1, 1.0
    curve = _curve_with_traj(heis, [1.0, 0.0, 7.0], r, s)
    l0 = vertical_frame(3)
    assert maslov_index(curve.reversed_over(r, s), l0, r, s) == 1


def test_endpoint_crossing_is_rejected(heis):
    curve = _curve_with_traj(heis, [1.0, 0.0, TWO_PI], 0.5, 1.1)
    with pytest.raises(CrossingEndpointError):
        locate_crossings(curve, vertical_frame(3), 0.5, 1.0)


# ---------------------------------------------------------------------------
# synthetic curves exercising the detectors

class _SyntheticCurve:
    """Rotating pair of lines R_theta + R_{-theta} with theta = t - 0.5:
    multiplicity-2 touch of the vertical at theta = 0 with a signature-zero
    nondegenerate crossing form.  With ``gap`` > 0, theta = sqrt((t - 0.5)^2
    + gap): sigma has a minimum of about sqrt(gap) at t = 0.5 but no zero."""

    rays = 1

    def __init__(self, gap=0.0):
        self.gap = gap

    def _theta(self, ts):
        d = np.asarray(ts, dtype=float) - 0.5
        return np.sqrt(d * d + self.gap) if self.gap else d

    def frames_at(self, ts, rays=0):
        th = self._theta(ts)
        c, s, z = np.cos(th), np.sin(th), np.zeros_like(th)
        return np.stack([np.stack([c, z, s, z], -1), np.stack([z, c, z, -s], -1)], -1)

    def jets_at(self, ts, rays=0):
        ts = np.asarray(ts, dtype=float)
        th = self._theta(ts)
        dth = (ts - 0.5) / th if self.gap else np.ones_like(ts)
        c, s, z = np.cos(th), np.sin(th), np.zeros_like(th)
        velocity = np.stack([np.stack([-s, z, c, z], -1), np.stack([z, -s, z, -c], -1)], -1)
        return self.frames_at(ts), dth[:, None, None] * velocity


def test_even_multiplicity_touch_detected_by_sweep():
    curve = _SyntheticCurve()
    reports = locate_crossings(curve, vertical_frame(2), 0.2, 0.8)
    assert len(reports) == 1
    assert reports[0].t == pytest.approx(0.5, abs=1e-12)
    assert reports[0].multiplicity == 2
    assert reports[0].signature == 0
    _assert_brackets(reports, 0.2, 0.8)
    assert maslov_index(curve, vertical_frame(2), 0.2, 0.8) == 0


@pytest.mark.parametrize("r, s", [(0.2, 0.8), (0.2, 0.70002), (0.25, 0.75)])
def test_near_miss_minimum_is_not_a_crossing(r, s):
    # sigma dips to 1e-5 at t = 0.5 without vanishing.  The windows put 0.5 on
    # a grid point (the slope vanishes, Newton leaves the window), 1.2e-5 from
    # one (Newton stalls; the multiplicity test drops the minimum) and mid-cell
    curve = _SyntheticCurve(gap=1e-10)
    assert locate_crossings(curve, vertical_frame(2), r, s) == []


class _SteepLine:
    """Line [cos theta; sin theta] in R^2 with theta = 0.3 tanh(1e4 (t - 0.5002)):
    one regular crossing of the vertical, so steep that Newton from the
    nearest grid point of the scan (0.5) overshoots the sign-change cell."""

    rays = 1

    def _theta(self, ts):
        return 0.3 * np.tanh(1e4 * (np.asarray(ts, dtype=float) - 0.5002))

    def frames_at(self, ts, rays=0):
        th = self._theta(ts)
        return np.stack([np.cos(th), np.sin(th)], -1)[..., None]

    def jets_at(self, ts, rays=0):
        th = self._theta(ts)
        dth = 3e3 * (1 - (th / 0.3) ** 2)
        velocity = np.stack([-np.sin(th), np.cos(th)], -1)[..., None]
        return self.frames_at(ts), dth[:, None, None] * velocity


def test_sign_change_refinement_falls_back_to_bisection():
    reports = locate_crossings(_SteepLine(), vertical_frame(1), 0.2, 0.8)
    assert len(reports) == 1
    assert reports[0].t == pytest.approx(0.5002, abs=1e-12)
    assert (reports[0].multiplicity, reports[0].signature) == (1, 1)
    grid = _scan_grid(0.2, 0.8)
    assert reports[0].bracket == (grid[300], grid[301])  # the sign-change cell


class _FrozenCurve:
    rays = 1

    def frames_at(self, ts, rays=0):
        return np.broadcast_to(vertical_frame(2).matrix, (len(ts), 4, 2))


def test_identically_singular_indicator_aborts():
    with pytest.raises(NonIdealStructureError):
        locate_crossings(_FrozenCurve(), vertical_frame(2), 0.1, 0.9)


class _DefectiveStack:
    """R curves of frames [D; t D] with D = I (Lagrangian, no crossing with the
    vertical for t > 0), except that each ray named in ``defects`` has from
    t = 0.3 on a frame of that kind: "deficient" (D = diag(1, 1, 0)),
    "ambiguous" (D = diag(1, 1e-6, 5e-9): the rank decision falls in the
    ambiguity band) or "skew" (0.1 added to the x-block's (0, 1) entry, so
    the columns are not isotropic)."""

    def __init__(self, rays, defects):
        self.rays, self.defects = rays, defects

    def frames_at(self, ts, rays=0):
        ts = np.asarray(ts, dtype=float)
        rays = np.broadcast_to(rays, ts.shape)
        diag, skew = np.ones((len(ts), 3)), np.zeros((len(ts), 3, 3))
        for ray, kind in self.defects.items():
            bad = (rays == ray) & (ts >= 0.3)
            if kind == "deficient":
                diag[bad, 2] = 0.0
            elif kind == "ambiguous":
                diag[bad] = (1.0, 1e-6, 5e-9)
            else:
                skew[bad, 0, 1] = 0.1
        d_mat = diag[:, :, None] * np.eye(3)
        return np.concatenate([d_mat, ts[:, None, None] * d_mat + skew], axis=1)


_GRID_REFUSALS = {"deficient": (ValueError, "do not span"),
                  "ambiguous": (AmbiguousRankError, "rank decision ambiguous"),
                  "skew": (ValueError, "not isotropic")}


@pytest.mark.parametrize("kind", sorted(_GRID_REFUSALS))
def test_scan_refuses_bad_grid_frames(kind):
    error, message = _GRID_REFUSALS[kind]
    assert locate_crossings(_DefectiveStack(1, {}), vertical_frame(3), 0.2, 0.45) == []
    with pytest.raises(error, match=message) as info:
        locate_crossings(_DefectiveStack(1, {0: kind}), vertical_frame(3), 0.2, 0.45)
    assert type(info.value) is error
    # eight curves on a 257-point grid make chunks of rays 0-2, 3-5 and 6-7:
    # the bad ray sits behind good curves, and the other defect of a later
    # ray, in the next chunk or in the same one, must not be raised first
    other = "skew" if kind != "skew" else "deficient"
    for defects in ({4: kind, 6: other}, {3: kind, 4: other}):
        with pytest.raises(error, match=message) as info:
            maslov._locate_all(_DefectiveStack(8, defects), vertical_frame(3), 0.2, 0.45)
        assert type(info.value) is error
    assert [len(reps) for reps in maslov._locate_all(_DefectiveStack(8, {}), vertical_frame(3),
                                                     0.2, 0.45)] == [0] * 8


def test_rank_certificate_inequalities():
    # the bounds behind the scan's rank certificate, for G = P F with
    # P = L0^T Omega: sigma_min(F) >= sigma_min(G) / |P|_2 and
    # sigma_max(F) <= |F|_F; so sigma_min(G) > 2 RANK_REL_TOL |P|_2 |F|_F
    # leaves F clear of the rank threshold
    rng = np.random.default_rng(5)
    certified = refused = 0
    for n in (1, 2, 3, 4):
        sym = rng.normal(size=(n, n))
        graph, _ = np.linalg.qr(np.vstack([0.5 * (sym + sym.T), np.eye(n)]))
        horizontal = LagrangianFrame(np.vstack([np.zeros((n, n)), np.eye(n)]))
        for l0 in (vertical_frame(n), horizontal, LagrangianFrame(graph)):
            pair = l0.matrix.T @ omega_px(n)
            pair_norm = np.linalg.norm(pair, 2)
            for trial in range(40):
                u, _ = np.linalg.qr(rng.normal(size=(2 * n, n)))
                v, _ = np.linalg.qr(rng.normal(size=(n, n)))
                svals = np.sort(rng.uniform(0.5, 3.0, n))[::-1]
                if trial % 2:   # near-rank-deficient, down to exactly deficient
                    svals[-1] = svals[0] * [1e-4, 1e-7, 1e-8, 3e-9, 1e-12, 0.0][trial % 6]
                frame = (u * svals) @ v.T
                sv_f = np.linalg.svd(frame, compute_uv=False)
                sv_g = np.linalg.svd(pair @ frame, compute_uv=False)
                fro = np.linalg.norm(frame)
                assert sv_f[0] <= fro * (1 + 1e-14)
                assert sv_g[-1] <= pair_norm * sv_f[-1] + 1e-14 * pair_norm * fro
                if sv_g[-1] > maslov.CERTIFICATE_MARGIN * RANK_REL_TOL * pair_norm * fro:
                    certified += 1
                    assert sv_f[-1] > 2 * RANK_REL_TOL * sv_f[0]
                elif sv_f[-1] <= RANK_REL_TOL * sv_f[0]:
                    refused += 1
    assert certified > 100 and refused > 30


# ---------------------------------------------------------------------------
# conjugate counting on rays

def test_count_conjugate_scaled_ray(heis):
    alpha = TWO_PI + 0.3
    reports, _ = count_conjugate_on_ray(heis, np.zeros(3), np.array([1.0, 0, alpha]),
                                        0.05, 1.0)
    assert len(reports) == 1
    assert reports[0].t == pytest.approx(TWO_PI / alpha, abs=1e-12)
    assert reports[0].multiplicity == 1
    _assert_brackets(reports, 0.05, 1.0)


def test_count_conjugate_three_roots_below_thirteen(heis):
    reports, _ = count_conjugate_on_ray(heis, np.zeros(3), np.array([1.0, 0, 13.0]),
                                        0.05, 1.0)
    times = [rep.t for rep in reports]
    expected = [TWO_PI / 13, ALPHA_STAR / 13, 4 * math.pi / 13]
    assert len(reports) == 3
    assert np.allclose(times, expected, rtol=0, atol=1e-12)
    assert all(rep.multiplicity == 1 for rep in reports)
    assert sum(rep.signature for rep in reports) == -3
    _assert_brackets(reports, 0.05, 1.0)


@pytest.mark.parametrize("name, covector, r, s", [
    ("heisenberg", (1.0, 0.0, 13.0), 0.05, 1.0),
    ("heisenberg", (0.7, -0.4, 13.0), 0.05, 1.0),
    ("engel", (2.041, -2.556, 1.254, -47.53), 0.3, 0.95),
])
def test_refinement_work_per_crossing(heis, monkeypatch, name, covector, r, s):
    # every off-sample trajectory row replays integrator steps from a sample;
    # Newton refinement with the exact slope needs a few per crossing, and the
    # multiplicity and the crossing form reuse its last jet
    struct = heis if name == "heisenberg" else load_structure(str(ENGEL_FILE))
    replayed = []
    orig = flow._fixed_steps

    def counted(rhs, y, *args):
        replayed.append(len(y))
        return orig(rhs, y, *args)

    refined = []
    orig_refine = maslov._refine

    def refine(*args):
        hits = orig_refine(*args)
        refined.append(sum(replayed))
        return hits

    monkeypatch.setattr(flow, "_fixed_steps", counted)
    monkeypatch.setattr(maslov, "_refine", refine)
    reports, _ = count_conjugate_on_ray(struct, np.zeros(struct.n), np.array(covector), r, s)
    assert len(reports) >= 2
    _assert_brackets(reports, r, s)
    assert 0 < sum(replayed) <= 6 * len(reports)
    assert sum(replayed) == refined[-1]   # no lookup after the last refinement


def test_reported_crossings_match_exponential_singularities(heis):
    # t* is a crossing iff d exp at t* lambda0 is singular, with equal multiplicity
    from subriem.flow import d_exp

    lam = np.array([1.0, 0.0, 13.0])
    reports, _ = count_conjugate_on_ray(heis, np.zeros(3), lam, 0.05, 1.0)
    for rep in reports:
        svals = np.linalg.svd(d_exp(heis, np.zeros(3), rep.t * lam), compute_uv=False)
        assert np.sum(svals < 1e-8 * svals[0]) == rep.multiplicity
    times = [0.05] + [rep.t for rep in reports] + [1.0]
    for lo, hi in zip(times, times[1:]):
        mid = 0.5 * (lo + hi)
        svals = np.linalg.svd(d_exp(heis, np.zeros(3), mid * lam), compute_uv=False)
        assert svals[-1] > 1e-6 * svals[0]


def test_count_conjugate_empty_for_euclidean(eucl3):
    assert count_conjugate_on_ray(eucl3, np.zeros(3), np.array([1.0, 0.3, -0.2]),
                                  0.1, 1.0)[0] == []


def test_count_conjugate_rejects_zero_hamiltonian(heis):
    with pytest.raises(ZeroHamiltonianError):
        count_conjugate_on_ray(heis, np.zeros(3), np.array([0.0, 0, 1.0]), 0.1, 1.0)


def test_crossing_report_json_dict():
    rep = CrossingReport(0.5, 1, -1, (0.4, 0.6))
    data = rep.to_json_dict()
    assert data == {"t": 0.5, "multiplicity": 1, "signature": -1, "bracket": [0.4, 0.6]}


# ---------------------------------------------------------------------------
# continuity of the conjugate count

def test_continuity_at_conjugate_covector(heis):
    report = continuity_check(heis, np.zeros(3), np.array([1.0, 0, TWO_PI]),
                              delta_ray=1e-2, n_rays=12, seed=7)
    assert report.kernel_dim == 1
    assert report.passed
    assert np.all(report.ray_totals == 1)
    assert np.all(report.ray_indices == -1)


def test_continuity_multiplicity_bounded_by_dimension(heis):
    report = continuity_check(heis, np.zeros(3), np.array([1.0, 0, ALPHA_STAR]),
                              delta_ray=1e-2, n_rays=8, seed=8)
    assert report.kernel_dim == 1
    assert np.all(report.ray_totals <= 3)
    assert report.passed


def test_continuity_near_regular_covector(heis):
    report = continuity_check(heis, np.zeros(3), np.array([1.0, 0, 3.0]),
                              delta_ray=1e-2, n_rays=6, seed=9)
    assert report.kernel_dim == 0
    assert np.all(report.ray_totals == 0)
    assert report.passed


def test_continuity_rejects_bad_ray_batches(heis):
    cov = np.array([1.0, 0, TWO_PI])
    for n_rays in (0, -3):
        with pytest.raises(ValueError, match="n_rays"):
            continuity_check(heis, np.zeros(3), cov, n_rays=n_rays)
    for delta_ray in (0.0, -1e-2, 1.0, 2.0, np.nan):
        with pytest.raises(ValueError, match="delta_ray"):
            continuity_check(heis, np.zeros(3), cov, delta_ray=delta_ray)


def _ray_bundle(heis, alpha, n_rays, seed, r=0.99, s=1.01):
    """One batch of rays around (1, 0, alpha), integrated over the scan grid."""
    rng = np.random.default_rng(seed)
    cov = np.array([1.0, 0.0, alpha])
    dirs = rng.normal(size=(n_rays, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = 2.5e-3 * np.linalg.norm(cov) * rng.uniform(0.2, 1.0, n_rays)
    return integrate_extremal_batch(heis, np.zeros(3), cov + dirs * radii[:, None], s,
                                    1e-10, samples=_scan_grid(r, s))


@pytest.mark.parametrize("alpha", [TWO_PI, ALPHA_STAR, 3.0], ids=["2pi", "astar", "3"])
def test_stacked_scan_matches_single_curve_scans(heis, alpha):
    # 12 rays span four chunks of the stacked pass; each ray's crossings must
    # be those of its own R = 1 curve
    r, s = 0.99, 1.01
    l0 = vertical_frame(3)
    for seed in (11, 12):
        trajs = _ray_bundle(heis, alpha, 12, seed, r, s)
        stacked = maslov._locate_all(JacobiCurveSamples(trajs, "jacobi", trajs[0].ts),
                                     l0, r, s)
        assert len(stacked) == len(trajs)
        for traj, reports in zip(trajs, stacked):
            single = locate_crossings(JacobiCurveSamples.sample(heis, traj, "jacobi", traj.ts),
                                      l0, r, s)
            assert ([(c.multiplicity, c.signature, c.bracket) for c in reports]
                    == [(c.multiplicity, c.signature, c.bracket) for c in single])
            assert np.allclose([c.t for c in reports], [c.t for c in single],
                               rtol=0, atol=1e-13)
            if alpha != 3.0:
                assert len(reports) == 1


@pytest.mark.parametrize("alpha, max_calls, rows", [(TWO_PI, 51, 1309),
                                                    (ALPHA_STAR, 27, 1350)],
                         ids=["2pi", "astar"])
def test_continuity_jet_calls_bounded(heis, monkeypatch, alpha, max_calls, rows):
    # a 50-ray check integrates once: the centre joins its rays as row 0 of one
    # 51-row batch, and its kernel comes from that row's Phi(1) (no d_exp).
    # After the integration it refines every crossing of every ray in shared
    # Newton rounds: the jet rows are those of 50 separate scans (1,309 and
    # 1,350 one-row calls), in a few batched calls per round
    calls = []
    integrated = []
    single = []
    jet = Structure.jet_raw_batch
    batch = maslov.integrate_extremal_batch
    integrate = flow.integrate_extremal

    def counted_jet(self, z):
        if integrated:
            calls.append(len(z))
        return jet(self, z)

    def counted_batch(*args, **kwargs):
        trajs = batch(*args, **kwargs)
        integrated.append(len(trajs))
        return trajs

    def counted_single(*args, **kwargs):
        single.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(Structure, "jet_raw_batch", counted_jet)
    monkeypatch.setattr(maslov, "integrate_extremal_batch", counted_batch)
    monkeypatch.setattr(flow, "integrate_extremal", counted_single)
    monkeypatch.setattr(maslov, "integrate_extremal", counted_single)
    report = continuity_check(heis, np.zeros(3), np.array([1.0, 0, alpha]), 1e-2, 50,
                              1e-10, 42)
    assert report.passed and report.kernel_dim == 1
    assert integrated == [51] and single == []
    assert len(calls) <= max_calls
    assert sum(calls) == rows


@pytest.mark.parametrize("alpha, rank_svd_frames", [(TWO_PI, 0), (ALPHA_STAR, 0)],
                         ids=["2pi", "astar"])
def test_continuity_scan_decomposes_each_matrix_once(heis, monkeypatch, alpha,
                                                    rank_svd_frames):
    # the pairing SVD certifies the rank of the grid frames, so of the 50 x 257
    # frames of a 50-ray check none needs a rank SVD of its own; and the 50
    # crossings are classified from Newton's last SVD, in a fixed number of
    # LAPACK calls: one rank SVD of all crossing frames and one eigvalsh of
    # all (1 x 1) crossing forms
    frame_svds, after, scanning, refined = [], [], [], []
    for name in ("svd", "det", "eigvalsh", "eigh", "eig", "norm", "qr", "solve", "inv"):
        def counted(a, *args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            if refined:
                after.append(_name)
            elif scanning and _name == "svd" and np.shape(a)[1:] == (6, 3):
                frame_svds.append(len(a))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    orig_indicators, orig_refine = maslov._indicators, maslov._refine

    def indicators(curve, pair, floor, grid, rays):
        scanning.append(len(rays) * len(grid))
        try:
            return orig_indicators(curve, pair, floor, grid, rays)
        finally:
            scanning.pop()

    def refine(*args):
        hits = orig_refine(*args)
        refined.append(len(hits))
        return hits

    monkeypatch.setattr(maslov, "_indicators", indicators)
    monkeypatch.setattr(maslov, "_refine", refine)
    report = continuity_check(heis, np.zeros(3), np.array([1.0, 0, alpha]), 1e-2, 50,
                              1e-10, 42)
    assert report.passed and refined == [50]
    assert sum(frame_svds) == rank_svd_frames
    assert after == ["svd", "eigvalsh"]


def test_classification_raises_first_failure_in_curve_order():
    # hand-made refined crossings of three curves against the vertical (n = 3):
    # a clean one, one with a degenerate form and one with a bad frame; the
    # first failure in curve order is raised whatever comes after it
    pair = vertical_frame(3).matrix.T @ omega_px(3)

    def hit(t, x_diag, velocity_x, frame_fix=None):
        frame = np.vstack([np.eye(3), np.diag(x_diag)])
        if frame_fix is not None:
            frame = frame_fix(frame)
        velocity = np.vstack([np.zeros((3, 3)), np.diag(velocity_x)])
        _, svals, vt = np.linalg.svd(pair @ frame)
        return (t, frame, velocity, svals, vt, (t - 0.01, t + 0.01))

    clean = hit(0.5, (1.0, 2.0, 0.0), (0.0, 0.0, -1.0))
    flat = hit(0.6, (1.0, 2.0, 0.0), (0.0, 0.0, 0.0))        # zero crossing form
    skew = hit(0.7, (1.0, 2.0, 0.0), (0.0, 0.0, -1.0),
               lambda f: f + 0.1 * np.eye(6, 3, -4))          # x-block not symmetric
    late = hit(0.8, (1.0, 2.0, 0.0), (0.0, 0.0, -1.0))
    reports = maslov._classify([2.0] * 2, [[clean], [clean, late]])
    assert [[(c.t, c.multiplicity, c.signature) for c in reps] for reps in reports] == [
        [(0.5, 1, -1)], [(0.5, 1, -1), (0.8, 1, -1)]]
    with pytest.raises(DegenerateCrossingError):
        maslov._classify([2.0] * 3, [[clean], [flat], [skew]])
    with pytest.raises(ValueError, match="not isotropic"):
        maslov._classify([2.0] * 3, [[clean], [skew], [flat]])
    with pytest.raises(UnresolvedCrossingError):
        maslov._classify([2.0] * 2, [[clean, clean], [skew]])
    ambiguous = hit(0.65, (1.0, 4e-8, 1e-8), (0.0, 0.0, -1.0))   # scale 2: limit 2e-8
    with pytest.raises(AmbiguousRankError):
        maslov._classify([2.0], [[ambiguous, skew]])


def test_stacked_scan_memory_within_its_integration(heis):
    # the scan decomposes whole rays in chunks of about SCAN_CHUNK pairing
    # matrices, so its transient memory stays below that of the batch
    # integration feeding it (both: traced peak above what is live after)
    def transient(fn):
        tracemalloc.reset_peak()
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        return result, peak - current

    tracemalloc.start()
    try:
        trajs, integration = transient(lambda: _ray_bundle(heis, TWO_PI, 50, 42))
        curve = JacobiCurveSamples(trajs, "jacobi", trajs[0].ts)
        reports, scan = transient(
            lambda: maslov._locate_all(curve, vertical_frame(3), 0.99, 1.01))
    finally:
        tracemalloc.stop()
    assert [len(rep) for rep in reports] == [1] * 50
    assert scan <= integration
