"""Acceptance battery: each test exercises one shipping criterion at its
documented tolerance and prints a single PASS/FAIL line with the margin."""

import functools
import math
import time

import numpy as np
import pytest

from subriem import heisenberg as heis
from subriem import verify as verify_mod
from subriem.errors import CrossingEndpointError
from subriem.flow import (d_exp_batch, exp_map, integrate_extremal,
                          integrate_extremal_batch)
from subriem.heisenberg import ALPHA_STAR, HeisCovector
from subriem.linalg import (RANK_REL_TOL, block_swap, omega_px, rank_decisions,
                            symplectic_defect)
from subriem.maslov import (JacobiCurveSamples, _scan_grid, locate_crossings,
                            maslov_index, vertical_frame)
from subriem.structure import make_structure

TWO_PI = 2 * math.pi


def _report(criterion, detail):
    print(f"PASS: criterion {criterion} - {detail}")


def criterion(number):
    """Print the FAIL line when the wrapped criterion does not hold."""
    def wrap(fun):
        @functools.wraps(fun)
        def runner(*args, **kwargs):
            try:
                return fun(*args, **kwargs)
            except BaseException as exc:
                print(f"FAIL: criterion {number} - {exc}")
                raise
        return runner
    return wrap


def _unit_ball_covectors(rng, count, max_norm):
    covs = []
    while len(covs) < count:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        v *= rng.uniform(0.05, max_norm)
        if v[0] ** 2 + v[1] ** 2 > 1e-3:
            covs.append(v)
    return np.array(covs)


@criterion(1)
def test_criterion_1_oracle_equivalence():
    struct = make_structure("heisenberg")
    rng = np.random.default_rng(1001)
    covs = _unit_ball_covectors(rng, 100, 10.0)
    t_start = time.perf_counter()
    trajs = integrate_extremal_batch(struct, np.zeros(3), covs, 1.0, 1e-10,
                                     samples=33)
    worst = 0.0
    for cov, traj in zip(covs, trajs):
        hc = HeisCovector((0, 0, 0), tuple(cov))
        for t_val, state in zip(traj.ts, traj.states):
            worst = max(worst, float(np.max(np.abs(state - heis.heis_state(hc, t_val)))))
    elapsed = time.perf_counter() - t_start
    assert worst <= 1e-8, f"oracle sup-norm {worst:.3e} exceeds 1e-8"
    assert elapsed < 10.0, f"oracle run took {elapsed:.1f} s (budget 10 s)"
    _report(1, f"closed-form agreement {worst:.2e} <= 1e-8 over 100 covectors "
               f"in {elapsed:.1f} s")


@criterion(2)
def test_criterion_2_fundamental_matrix():
    struct = make_structure("heisenberg")
    rng = np.random.default_rng(1002)
    om = omega_px(3)
    worst_entry = 0.0
    worst_defect = 0.0
    for _ in range(20):
        cov = _unit_ball_covectors(rng, 1, 8.0)[0]
        t_val = float(rng.uniform(0.1, 1.0))
        traj = integrate_extremal(struct, np.zeros(3), cov, t_val, 1e-10,
                                  samples=[t_val])
        hc = HeisCovector((0, 0, 0), tuple(cov))
        m_mat = heis.heis_jacobi_matrix(hc, t_val)
        worst_entry = max(worst_entry,
                          float(np.max(np.abs(block_swap(traj.phis[-1]) - m_mat))))
        worst_defect = max(worst_defect, symplectic_defect(m_mat, om))
    assert worst_entry <= 1e-7, f"fundamental-matrix gap {worst_entry:.3e}"
    assert worst_defect <= 1e-10, f"closed-form symplectic defect {worst_defect:.3e}"
    _report(2, f"numeric vs closed-form propagator {worst_entry:.2e} <= 1e-7, "
               f"symplectic defect {worst_defect:.2e} <= 1e-10")


@criterion(3)
def test_criterion_3_r1_suite():
    results = verify_mod.suite_r1()
    for res in results:
        assert res.passed, res.line()
    drift = next(r for r in results if r.name == "r1/energy-drift")
    margin = next(r for r in results if r.name == "r1/ray-velocity-margin")
    _report(3, f"energy drift {drift.value:.2e} <= 1e-9, ray-velocity margin "
               f"{margin.value:+.2e} >= -1e-6")


@criterion(4)
def test_criterion_4_r2_suite():
    results = verify_mod.suite_r2()
    for res in results:
        assert res.passed, res.line()
    drifts = [r.value for r in results if "pairing" in r.name]
    _report(4, f"kernel dim 1 and theta-map isomorphism at both conjugate "
               f"covectors; pairing drift {max(drifts):.2e} <= 1e-9")


@criterion(5)
def test_criterion_5_r3_suite():
    results = verify_mod.suite_r3(n_rays=50, delta_ray=1e-2)
    for res in results:
        assert res.passed, res.line()
    _report(5, "50 rays per conjugate covector each carry multiplicity 1 with "
               "Maslov index -1 per crossing")


@criterion(6)
def test_criterion_6_conjugate_locus():
    struct = make_structure("heisenberg")
    u_vals = np.linspace(0.2, 2.0, 40)
    a_vals = np.linspace(0.25, 10.0, 40)
    covs = np.array([[u0, 0.0, al] for u0 in u_vals for al in a_vals])
    closed_flags = np.array([
        heis.classify_conjugate(HeisCovector((0, 0, 0), tuple(cov))).is_conjugate
        for cov in covs
    ])
    svals = np.concatenate([
        np.linalg.svd(d_exp_batch(struct, np.zeros(3), covs[lo:lo + 200], tol=1e-10),
                      compute_uv=False)
        for lo in range(0, len(covs), 200)])
    ranks, ambiguous = rank_decisions(svals, RANK_REL_TOL * svals[:, 0])
    assert not ambiguous.any(), f"ambiguous rank at {covs[ambiguous].tolist()}"
    disagreements = int(np.sum(closed_flags != (ranks < 3)))
    assert disagreements == 0, f"{disagreements} classification disagreements"
    roots = heis.heis_conjugate_roots(10.0)
    assert len(roots) == 2
    assert roots[0].alpha == pytest.approx(TWO_PI, abs=1e-12)
    assert roots[1].alpha == pytest.approx(8.986818916, abs=1e-8)
    _report(6, "40x40 grid classified with zero disagreements against SVD; "
               "roots below 10 are {2 pi, 8.986818916}")


@criterion(7)
def test_criterion_7_noninjectivity():
    struct = make_structure("heisenberg")
    hc1 = HeisCovector((0, 0, 0), (1.0, 0.0, TWO_PI))
    res = heis.find_collision(hc1, 1.0)
    assert res.circle_angle >= 0.1
    assert res.gap <= 1e-9
    target = np.array([0, 0, 1 / (4 * math.pi)])
    assert np.allclose(res.image1, target, atol=1e-12)
    assert np.allclose(res.image2, target, atol=1e-12)

    hc0 = HeisCovector((0, 0, 0), (1.0, 0.0, ALPHA_STAR))
    worst_gap = res.gap
    for radius in (0.5, 0.1, 0.02):
        fold = heis.find_collision(hc0, radius)
        assert fold.gap <= 1e-9, f"radius {radius}: gap {fold.gap:.2e}"
        assert fold.separation >= radius / 4
        num_gap = float(np.linalg.norm(
            exp_map(struct, np.zeros(3), fold.lambda1)
            - exp_map(struct, np.zeros(3), fold.lambda2)))
        assert num_gap <= 1e-8
        worst_gap = max(worst_gap, fold.gap)
    _report(7, f"collisions at both conjugate classes, shrinking radii "
               f"{{0.5, 0.1, 0.02}}, worst image gap {worst_gap:.2e} <= 1e-9")


@criterion(8)
def test_criterion_8_maslov_property_battery(reparametrized):
    struct = make_structure("heisenberg")
    rng = np.random.default_rng(1008)
    l0 = vertical_frame(3)
    segments = 0
    crossings_seen = 0
    attempts = 0
    while segments < 20:
        attempts += 1
        assert attempts <= 80, "could not draw 20 admissible windows"
        cov = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2),
                        rng.uniform(4.0, 12.0) * rng.choice([-1, 1])])
        if cov[0] ** 2 + cov[1] ** 2 < 0.3:
            continue
        r = float(rng.uniform(0.05, 0.25))
        s = float(rng.uniform(0.7, 1.25))
        mid = float(rng.uniform(0.4, 0.6))
        grid = _scan_grid(r, s)
        for lo, hi in ((r, mid), (mid, s)):
            grid = np.union1d(grid, _scan_grid(lo, hi))
        grid = np.union1d(grid, (r + s) - grid)
        grid = np.union1d(grid, reparametrized.phi(_scan_grid(r, s), r, s))
        traj = integrate_extremal(struct, np.zeros(3), cov, float(grid[-1]), 1e-10,
                                  samples=grid)
        curve = JacobiCurveSamples.sample(struct, traj, "jacobi", grid)
        try:
            whole = locate_crossings(curve, l0, r, s)
            index = sum(rep.signature for rep in whole)
            left = maslov_index(curve, l0, r, mid)
            right = maslov_index(curve, l0, mid, s)
            reversed_index = maslov_index(curve.reversed_over(r, s), l0, r, s)
            skew = locate_crossings(reparametrized(curve, r, s), l0, r, s)
        except CrossingEndpointError:
            continue  # endpoint or mid landed on a crossing; draw again
        assert left + right == index, "concatenation additivity failed"
        assert reversed_index == -index, "reversal antisymmetry failed"
        assert sum(rep.signature for rep in skew) == index, \
            "reparametrization invariance failed"
        assert ([rep.multiplicity for rep in skew]
                == [rep.multiplicity for rep in whole]), "reparametrized multiplicities differ"
        skew_times = reparametrized.phi([rep.t for rep in skew], r, s)
        assert np.allclose(skew_times, [rep.t for rep in whole], rtol=0, atol=1e-10), \
            "reparametrized crossing times differ"
        if not whole:
            assert index == 0
        crossings_seen += len(whole)
        segments += 1
    assert crossings_seen > 0
    _report(8, f"reparametrization/reversal/concatenation/zero-index identities "
               f"hold exactly on 20 segments ({crossings_seen} crossings)")


@criterion(9)
def test_criterion_9_verify_runtime():
    t_start = time.perf_counter()
    results = verify_mod.run_suite("all")
    elapsed = time.perf_counter() - t_start
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)
    assert elapsed < 60.0, f"verify all took {elapsed:.1f} s"
    _report(9, f"verify all: {len(results)} checks pass in {elapsed:.1f} s < 60 s")
