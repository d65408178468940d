import math

import numpy as np
import pytest

from subriem.errors import ZeroHamiltonianError
from subriem.flow import d_exp, exp_map, integrate_extremal
from subriem.heisenberg import (ALPHA_STAR,
                                HeisCovector, classify_conjugate, find_collision,
                                heis_conjugate_roots, heis_d_exp,
                                heis_exp_closed, heis_jacobi_matrix, heis_state,
                                phi_conjugate, conjugate_locus_rows)
from subriem.linalg import omega_px, symplectic_defect

TWO_PI = 2 * math.pi


def _rand_cov(rng, alpha_lo=0.5):
    u0, v0 = rng.uniform(-2, 2, 2)
    al = rng.uniform(alpha_lo, 9.0) * rng.choice([-1, 1])
    return (u0, v0, al)


# ---------------------------------------------------------------------------
# closed-form flow

def test_exp_closed_examples():
    z, tau, w, al = heis_exp_closed(HeisCovector((0, 0, 0), (1, 0, 0)), 1.0)
    assert abs(z - 1) < 1e-15 and abs(tau) < 1e-15

    z, tau, w, al = heis_exp_closed(HeisCovector((0, 0, 0), (1, 0, TWO_PI)), 1.0)
    assert abs(z) < 1e-14
    assert tau == pytest.approx(1 / (4 * math.pi), abs=1e-15)

    hc = HeisCovector((0.3, -0.7, 0.2), (1.1, 0.4, 2.5))
    z, tau, w, al = heis_exp_closed(hc, 0.0)
    assert z == hc.z0 and tau == 0.2 and w == hc.w0 and al == 2.5


def test_exp_closed_taylor_crossover_is_continuous():
    # seam between the Taylor branch and direct evaluation: two alpha values
    # a hair on either side of the cut give states differing only by the
    # genuine O(spacing) variation, with no branch jump
    base = (0.4, -0.2, 0.0)
    below = heis_state(HeisCovector(base, (1.0, 0.7, 1e-4 - 1e-12)), 1.0)
    above = heis_state(HeisCovector(base, (1.0, 0.7, 1e-4 + 1e-12)), 1.0)
    assert np.max(np.abs(below - above)) < 1e-10


def test_jacobi_matrix_taylor_crossover_is_continuous():
    # the second-order kernels switch branches at |theta| = 1e-2; with a large
    # horizontal momentum the matrix entries must still meet at the seam
    below = heis_jacobi_matrix(HeisCovector((0, 0, 0), (8.0, 0.0, 1e-2 - 1e-12)), 1.0)
    above = heis_jacobi_matrix(HeisCovector((0, 0, 0), (8.0, 0.0, 1e-2 + 1e-12)), 1.0)
    assert np.max(np.abs(below - above)) < 1e-9


def test_derived_quantities_recomputed():
    hc = HeisCovector((1.0, 2.0, 0.0), (0.5, -0.5, 4.0))
    assert hc.xi0 == 0.5 - 4.0 * 2.0 / 2
    assert hc.eta0 == -0.5 + 4.0 * 1.0 / 2
    assert hc.xi0_tilde == 0.5 + 4.0
    assert hc.eta0_tilde == -0.5 - 2.0
    assert hc.w0 == complex(0.5, -0.5)
    assert hc.zeta0 == complex(hc.xi0, hc.eta0)
    assert hc.hamiltonian == pytest.approx(0.5 * abs(hc.zeta0) ** 2)


# ---------------------------------------------------------------------------
# base points away from the origin

def test_left_invariance_of_geodesics(heis):
    # the numeric flow from random non-zero base points matches the closed
    # form: the one check of the oracle away from the origin
    rng = np.random.default_rng(31)
    for _ in range(10):
        hc = HeisCovector(tuple(rng.uniform(-1.5, 1.5, 3)), tuple(rng.uniform(-2, 2, 3)))
        traj = integrate_extremal(heis, hc.base, hc.cov, 1.0, samples=9)
        for t_val, state in zip(traj.ts, traj.states):
            assert np.max(np.abs(state - heis_state(hc, t_val))) <= 1e-8


# ---------------------------------------------------------------------------
# fundamental matrix

def test_jacobi_matrix_at_zero_is_identity():
    hc = HeisCovector((0.2, 0.4, -0.1), (1.0, -0.7, 3.3))
    assert np.allclose(heis_jacobi_matrix(hc, 0.0), np.eye(6))


def test_jacobi_matrix_top_left_entry_at_conjugate_time():
    hc = HeisCovector((0, 0, 0), (1.0, 0.0, TWO_PI))
    m = heis_jacobi_matrix(hc, 1.0)
    assert m[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_jacobi_matrix_matches_finite_differences_of_closed_flow():
    # independent oracle: differentiate the closed-form flow in its initial data
    rng = np.random.default_rng(32)
    step = 1e-6
    for _ in range(12):
        base = tuple(rng.uniform(-1.5, 1.5, 3))
        cov = _rand_cov(rng)
        t_val = rng.uniform(0.2, 1.0)
        m = heis_jacobi_matrix(HeisCovector(base, cov), t_val)
        init = np.array(cov + base)  # (u, v, alpha, x, y, tau) ordering
        for j in range(6):
            dz = np.zeros(6)
            dz[j] = step
            plus = heis_state(HeisCovector(tuple(init[3:] + dz[3:]),
                                           tuple(init[:3] + dz[:3])), t_val)
            minus = heis_state(HeisCovector(tuple(init[3:] - dz[3:]),
                                            tuple(init[:3] - dz[:3])), t_val)
            fd = (plus - minus) / (2 * step)
            col = np.concatenate([fd[3:], fd[:3]])  # back to (p, x) order
            assert np.max(np.abs(m[:, j] - col)) <= 1e-7


def test_jacobi_matrix_symplectic():
    rng = np.random.default_rng(33)
    om = omega_px(3)
    for _ in range(20):
        hc = HeisCovector(tuple(rng.uniform(-1, 1, 3)), _rand_cov(rng))
        t_val = rng.uniform(0.0, 1.5)
        assert symplectic_defect(heis_jacobi_matrix(hc, t_val), om) <= 1e-10


def test_jacobi_matrix_small_alpha_branch():
    hc = HeisCovector((0.5, -0.3, 0.1), (1.0, 0.4, 1e-6))
    m = heis_jacobi_matrix(hc, 1.0)
    assert np.all(np.isfinite(m))
    assert symplectic_defect(m, omega_px(3)) <= 1e-10


# ---------------------------------------------------------------------------
# conjugate condition

def test_conjugate_roots_below_ten():
    roots = heis_conjugate_roots(10.0)
    assert len(roots) == 2
    assert roots[0].alpha == pytest.approx(TWO_PI, abs=1e-12)
    assert roots[0].branch == "sin-zero"
    assert roots[1].alpha == pytest.approx(8.986818916, abs=1e-8)
    assert roots[1].branch == "sin-nonzero"


def test_conjugate_roots_below_five_empty_with_sampling_oracle():
    assert heis_conjugate_roots(5.0) == []
    alphas = np.arange(1e-3, 5.0, 1e-3)
    values = np.array([phi_conjugate(a) for a in alphas])
    assert np.all(values < 0)  # no sign change anywhere below 5


def test_conjugate_roots_below_thirteen():
    roots = heis_conjugate_roots(13.0)
    assert [r.branch for r in roots] == ["sin-zero", "sin-nonzero", "sin-zero"]
    assert roots[2].alpha == pytest.approx(4 * math.pi, abs=1e-12)


def test_phi_at_two_pi_vanishes():
    # float rounding of 2 pi leaves phi(fl(2 pi)) at the 1e-15 scale
    assert phi_conjugate(TWO_PI) == pytest.approx(0.0, abs=1e-14)


def test_classification_examples():
    cls = classify_conjugate(HeisCovector((0, 0, 0), (1.0, 0, TWO_PI)))
    assert cls.tag == "C1"
    assert np.allclose(cls.kernel / np.linalg.norm(cls.kernel), [0, 1, 0])

    assert classify_conjugate(HeisCovector((0, 0, 0), (1.0, 0, math.pi))).tag == "none"

    cls = classify_conjugate(HeisCovector((0, 0, 0), (1.0, 0, ALPHA_STAR)))
    assert cls.tag == "C0"
    assert cls.kernel[2] == 1.0

    with pytest.raises(ZeroHamiltonianError):
        classify_conjugate(HeisCovector((0, 0, 0), (0.0, 0, 1.0)))
    assert classify_conjugate(HeisCovector((0, 0, 0), (1.0, 0, 0.0))).tag == "none"


def test_kernels_match_svd_of_closed_form_jacobian():
    rng = np.random.default_rng(34)
    cases = []
    for _ in range(6):
        base = tuple(rng.uniform(-1, 1, 3))
        u0, v0 = rng.uniform(-2, 2, 2)
        cases.append(HeisCovector(base, (u0, v0, TWO_PI)))
        cases.append(HeisCovector(base, (u0, v0, ALPHA_STAR)))
    for hc in cases:
        cls = classify_conjugate(hc)
        assert cls.is_conjugate
        mat = heis_d_exp(hc)
        _, svals, vt = np.linalg.svd(mat)
        assert svals[-1] <= 1e-10 * svals[0]
        kernel = vt[-1]
        unit = cls.kernel / np.linalg.norm(cls.kernel)
        assert min(np.linalg.norm(kernel - unit), np.linalg.norm(kernel + unit)) <= 1e-9


def test_kernel_matches_svd_of_numeric_d_exp(heis):
    hc = HeisCovector((0, 0, 0), (1.0, 0, TWO_PI))
    mat = d_exp(heis, np.zeros(3), np.array([1.0, 0, TWO_PI]))
    _, svals, vt = np.linalg.svd(mat)
    unit = classify_conjugate(hc).kernel / np.linalg.norm(classify_conjugate(hc).kernel)
    assert min(np.linalg.norm(vt[-1] - unit), np.linalg.norm(vt[-1] + unit)) <= 1e-6


# ---------------------------------------------------------------------------
# collisions

def test_collision_c1_circle(heis):
    hc = HeisCovector((0, 0, 0), (1.0, 0, TWO_PI))
    res = find_collision(hc, 1.0)
    assert res.gap <= 1e-12
    assert res.circle_angle >= 0.1
    assert res.separation >= 0.25
    target = np.array([0, 0, 1 / (4 * math.pi)])
    assert np.allclose(res.image1, target, atol=1e-12)
    assert np.allclose(res.image2, target, atol=1e-12)
    # the numeric flow confirms the collision
    num_gap = np.linalg.norm(exp_map(heis, np.zeros(3), res.lambda1)
                             - exp_map(heis, np.zeros(3), res.lambda2))
    assert num_gap <= 1e-9


def test_collision_c1_general_base():
    hc = HeisCovector((0.4, -0.3, 0.2), (1.0, 0.8, TWO_PI))
    res = find_collision(hc, 0.6)
    assert res.gap <= 1e-12
    assert np.allclose(res.image1, res.image2, atol=1e-12)


def test_collision_c0_fold(heis):
    hc = HeisCovector((0, 0, 0), (1.0, 0, ALPHA_STAR))
    for radius in (0.5, 0.1, 0.02):
        res = find_collision(hc, radius)
        assert res.gap <= 1e-9
        assert res.separation >= radius / 4
        assert np.linalg.norm(res.lambda1 - np.array(hc.cov)) <= radius
        assert np.linalg.norm(res.lambda2 - np.array(hc.cov)) <= radius
    num_gap = np.linalg.norm(exp_map(heis, np.zeros(3), res.lambda1)
                             - exp_map(heis, np.zeros(3), res.lambda2))
    assert num_gap <= 1e-9


@pytest.mark.parametrize("root", [r.alpha for r in heis_conjugate_roots(30.0)
                                  if r.branch == "sin-nonzero"])
def test_collision_fold_is_exact_across_roots(root):
    # the fold partner is exact up to rounding; an iteration stopped at a
    # residual of 1e-12 would not meet the 1e-14 bound
    rng = np.random.default_rng(round(root))
    cases = [HeisCovector((0, 0, 0), (1.0, 0, root))]
    for sign in (1, -1):
        cases.append(HeisCovector(tuple(rng.uniform(-1, 1, 3)),
                                  (*rng.uniform(-1.5, 1.5, 2), sign * root)))
    for hc in cases:
        lam0 = np.array(hc.cov)
        kernel = classify_conjugate(hc).kernel
        for radius in (0.5, 0.1, 0.02):
            res = find_collision(hc, radius)
            assert res.gap <= 1e-14, (hc, radius, res.gap)
            assert np.array_equal(res.lambda1,
                                  lam0 + radius / 3 * (kernel / np.linalg.norm(kernel)))
            assert res.separation >= radius / 4
            assert np.linalg.norm(res.lambda2 - lam0) <= radius
            assert res.circle_angle is None


def test_classification_branch_is_the_vanishing_factor():
    # under the CLI's 1e-6 gate, 2 pi +- 1e-7 lay outside a fixed 1e-8 window
    # around 2 pi k and took the fold kernel
    for al in (TWO_PI + 1e-7, TWO_PI - 1e-7, -TWO_PI - 1e-7):
        cls = classify_conjugate(HeisCovector((0, 0, 0), (1.0, 0, al)), tol=1e-6)
        assert cls.tag == "C1"
        assert cls.kernel[2] == 0.0
    for al in (ALPHA_STAR + 1e-7, ALPHA_STAR - 1e-7, -ALPHA_STAR + 1e-7):
        assert classify_conjugate(HeisCovector((0, 0, 0), (1.0, 0, al)), tol=1e-6).tag == "C0"


def test_collision_rejects_bad_inputs():
    with pytest.raises(ValueError):
        find_collision(HeisCovector((0, 0, 0), (1.0, 0, 3.0)), 0.5)
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            find_collision(HeisCovector((0, 0, 0), (1.0, 0, TWO_PI)), radius)


def test_classification_agrees_with_ray_counts(heis):
    # along the ray through (u0, 0, alpha0), the conjugate times in (0, 1]
    # are exactly {root / alpha0 : root <= alpha0}
    from subriem.maslov import count_conjugate_on_ray

    for u0, al in ((0.7, 7.5), (1.3, 9.5), (0.4, 13.2)):
        reports, _ = count_conjugate_on_ray(heis, np.zeros(3), np.array([u0, 0.0, al]),
                                            0.02, 1.0)
        expected = [r.alpha / al for r in heis_conjugate_roots(al) if r.alpha / al > 0.02]
        assert len(reports) == len(expected)
        for rep, t_expected in zip(reports, expected):
            assert rep.t == pytest.approx(t_expected, abs=1e-8)
            scaled = HeisCovector((0, 0, 0), (rep.t * u0, 0.0, rep.t * al))
            assert classify_conjugate(scaled, tol=1e-6).is_conjugate


def test_kernel_jacobi_field_equivalence(heis):
    # initial data (A, 0) closes up at t = 1 iff A lies in the kernel
    from subriem.jacobi import propagate_jacobi
    from subriem.flow import integrate_extremal

    grid = np.unique(np.concatenate([np.linspace(0, 1.0, 33), [1.0]]))
    traj = integrate_extremal(heis, np.zeros(3), np.array([1.0, 0, TWO_PI]), 1.0,
                              samples=grid)
    kernel = np.array([0.0, 1.0, 0.0])
    coords = propagate_jacobi(heis, traj, kernel, np.zeros(3))
    assert np.linalg.norm(coords.at(1.0)[1]) <= 1e-7 * np.linalg.norm(kernel)
    rng = np.random.default_rng(36)
    for _ in range(5):
        a_vec = rng.normal(size=3)
        a_vec -= (a_vec @ kernel) * kernel  # orthogonal to the kernel
        coords = propagate_jacobi(heis, traj, a_vec, np.zeros(3))
        assert np.linalg.norm(coords.at(1.0)[1]) > 1e-3 * np.linalg.norm(a_vec)


# ---------------------------------------------------------------------------
# locus export

def test_locus_rows_structure():
    rows = conjugate_locus_rows([1.0], [math.pi, TWO_PI])
    assert len(rows) == 2
    assert rows[0][3] == 0 and rows[0][4] == "-"
    assert rows[1][3] == 1 and rows[1][4] == "C1"
    kernel = np.array(rows[1][5:])
    assert np.allclose(np.abs(kernel), [0, 1, 0])
