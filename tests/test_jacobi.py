import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp

from subriem.flow import integrate_extremal, integrate_extremal_batch
from subriem.heisenberg import HeisCovector, heis_frame_blocks, heis_jacobi_matrix
from subriem.jacobi import pairing, propagate_jacobi, regularity_check
from subriem.linalg import block_swap

TWO_PI = 2 * math.pi
small = st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False)


def frame_blocks(struct, traj, t):
    """Coefficients A = H_pq, B = H_pp, R = -H_qq of the Jacobi system
    d/dt (p, x) = [[-A^T, R], [B, A]] (p, x), read off the exact Hessian at lambda(t)."""
    state = traj.at(t)[0]
    n = struct.n
    _, _, _, hqq, hqp, hpp = struct.jet_raw(state[:n], state[n:])
    return hqp.T, hpp, -hqq


def test_frame_matrices_heisenberg_blocks(heis, traj_2pi):
    _, b, r = frame_blocks(heis, traj_2pi, 0.4)
    assert np.allclose(r, np.diag([-TWO_PI ** 2 / 4, -TWO_PI ** 2 / 4, 0.0]))
    assert np.allclose(b[:2, :2], np.eye(2))
    assert np.array_equal(b, b.T)
    assert np.array_equal(r, r.T)


def test_frame_matrices_match_closed_forms(heis):
    rng = np.random.default_rng(21)
    for _ in range(8):
        cov = rng.uniform(-2, 2, 3)
        cov[2] += 3.0
        base = rng.uniform(-1, 1, 3)
        traj = integrate_extremal(heis, base, cov, 1.0, samples=9)
        hc = HeisCovector(tuple(base), tuple(cov))
        for t_val in (0.25, 0.625, 1.0):
            a, b, r = frame_blocks(heis, traj, t_val)
            a_ref, b_ref, r_ref = heis_frame_blocks(hc, t_val)
            assert np.allclose(a, a_ref, atol=1e-9)
            assert np.allclose(b, b_ref, atol=1e-9)
            assert np.allclose(r, r_ref, atol=1e-12)


def test_frame_matrices_euclidean(eucl3):
    traj = integrate_extremal(eucl3, np.zeros(3), np.array([1.0, 2.0, -1.0]), 1.0,
                              samples=5)
    a, b, r = frame_blocks(eucl3, traj, 0.5)
    assert np.allclose(a, 0)
    assert np.allclose(r, 0)
    assert np.allclose(b, np.eye(3))


def test_darboux_frame_rank_condition_heisenberg(heis, traj_2pi):
    # rank A(t) should equal the distribution rank (2) along this extremal
    for t_val in (0.2, 0.7, 1.0):
        a, _, _ = frame_blocks(heis, traj_2pi, t_val)
        assert np.linalg.matrix_rank(a, tol=1e-10) == 2


def test_propagate_zero_is_zero(heis, traj_2pi):
    coords = propagate_jacobi(heis, traj_2pi, np.zeros(3), np.zeros(3))
    assert np.all(coords.ps == 0)
    assert np.all(coords.xs == 0)


def test_propagate_kernel_direction_vanishes_at_one(heis, traj_2pi):
    coords = propagate_jacobi(heis, traj_2pi, np.array([0.0, 1.0, 0.0]), np.zeros(3))
    _, x1 = coords.at(1.0)
    assert np.linalg.norm(x1) <= 1e-10


def test_fundamental_matrix_matches_closed_form(heis):
    rng = np.random.default_rng(22)
    covs = rng.uniform(-1.5, 1.5, (10, 3))
    covs[:, 2] += 2.5
    trajs = integrate_extremal_batch(heis, np.zeros(3), covs, 1.0, samples=9)
    for cov, traj in zip(covs, trajs):
        hc = HeisCovector((0, 0, 0), tuple(cov))
        for t_val, phi in zip(traj.ts, traj.phis):
            m_ref = heis_jacobi_matrix(hc, t_val)
            assert np.max(np.abs(block_swap(phi) - m_ref)) <= 1e-7


def test_pairing_constancy_and_normalization(heis, traj_2pi):
    j1 = propagate_jacobi(heis, traj_2pi, np.array([1.0, 0, 0]), np.array([0.3, -0.2, 0.5]))
    j2 = propagate_jacobi(heis, traj_2pi, np.array([0, 1.0, 0.4]), np.array([0, 0.7, 0.1]))
    vals = [pairing(j1, j2, t) for t in traj_2pi.ts]
    assert max(abs(v - vals[0]) for v in vals) <= 1e-9

    e1 = np.array([1.0, 0, 0])
    jp = propagate_jacobi(heis, traj_2pi, e1, np.zeros(3))
    jx = propagate_jacobi(heis, traj_2pi, np.zeros(3), e1)
    for t_val in traj_2pi.ts:
        assert pairing(jp, jx, t_val) == pytest.approx(1.0, abs=1e-9)


def test_pairing_self_is_zero(heis, traj_2pi):
    j1 = propagate_jacobi(heis, traj_2pi, np.array([0.2, -1.0, 0.7]), np.array([1.1, 0, 0.3]))
    for t_val in traj_2pi.ts[::10]:
        assert pairing(j1, j1, t_val) == 0.0


@given(p0=st.tuples(small, small, small), x0=st.tuples(small, small, small),
       p1=st.tuples(small, small, small), x1=st.tuples(small, small, small))
def test_pairing_antisymmetry(heis, traj_2pi, p0, x0, p1, x1):
    j1 = propagate_jacobi(heis, traj_2pi, np.array(p0), np.array(x0))
    j2 = propagate_jacobi(heis, traj_2pi, np.array(p1), np.array(x1))
    t_val = traj_2pi.ts[17]
    assert pairing(j1, j2, t_val) == -pairing(j2, j1, t_val)


def test_pairing_grid_mismatch(heis, traj_2pi):
    other = integrate_extremal(heis, np.zeros(3), np.array([1.0, 0, TWO_PI]), 1.0,
                               samples=7)
    j1 = propagate_jacobi(heis, traj_2pi, np.ones(3), np.zeros(3))
    j2 = propagate_jacobi(heis, other, np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        pairing(j1, j2, 0.5)


def test_regularity_non_conjugate(heis):
    traj = integrate_extremal(heis, np.zeros(3), np.array([1.0, 0, math.pi]), 1.0,
                              samples=5)
    rep = regularity_check(heis, traj)
    assert rep.kernel_dim == 0
    assert rep.passed


def test_regularity_at_conjugate_covectors(heis, traj_2pi, traj_astar):
    for traj in (traj_2pi, traj_astar):
        rep = regularity_check(heis, traj)
        assert rep.kernel_dim == 1
        assert rep.theta_rank == 1
        assert rep.passed


@pytest.mark.parametrize("check", [regularity_check], ids=["regularity"])
@pytest.mark.parametrize("traj_name", ["traj_2pi", "traj_astar"])
def test_rank_checks_decompose_each_matrix_once(heis, request, monkeypatch, check, traj_name):
    # one SVD of M3(1) gives its rank, image and kernel; the only other one
    # decides the rank of [image | M1 kernel]
    traj = request.getfixturevalue(traj_name)
    calls = []

    def counted(a, *args, _orig=np.linalg.svd, **kwargs):
        calls.append(np.shape(a))
        return _orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    check(heis, traj)
    assert 0 < len(calls) <= 2


def test_frame_ode_reproduces_propagation(heis, traj_2pi):
    # independent path: scipy integration of the linear frame system
    def rhs(t, y):
        a, b, r = frame_blocks(heis, traj_2pi, t)
        return np.block([[-a.T, r], [b, a]]) @ y

    init = np.array([0.3, -0.7, 1.1, 0.2, 0.0, -0.5])
    sol = solve_ivp(rhs, (0.0, 1.0), init, rtol=1e-11, atol=1e-13)
    coords = propagate_jacobi(heis, traj_2pi, init[:3], init[3:])
    p1, x1 = coords.at(1.0)
    assert np.max(np.abs(sol.y[:, -1] - np.concatenate([p1, x1]))) <= 1e-7


def test_derivative_space_independent_of_frame_choice(heis, traj_2pi):
    # A doubly-vanishing Jacobi field is vertical at t = 1, so its vertical
    # coefficients in the shared original frame are frame independent; compare
    # them between the Darboux frame and a constant symplectic change of frame
    # preserving the vertical (the frame derivative itself is frame dependent).
    rng = np.random.default_rng(24)
    g_mat = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    s_mat = rng.normal(size=(3, 3))
    s_mat = 0.5 * (s_mat + s_mat.T)
    c_mat = np.zeros((6, 6))
    c_mat[:3, :3] = g_mat
    c_mat[:3, 3:] = g_mat @ s_mat
    c_mat[3:, 3:] = np.linalg.inv(g_mat).T

    def derivative_space(phi):
        # M1 ker M3: the derivatives of the fields that vanish at 0 and 1
        _, svals, vt = np.linalg.svd(phi[3:, :3])
        kernel = vt[svals < 1e-8 * svals[0]].T
        assert kernel.shape[1] == 1
        return phi[:3, :3] @ kernel[:, 0]

    phi = block_swap(traj_2pi.phi_at(1.0))
    space = derivative_space(phi)
    space_new = g_mat @ derivative_space(np.linalg.solve(c_mat, phi @ c_mat))
    cos = abs(space @ space_new) / (np.linalg.norm(space) * np.linalg.norm(space_new))
    assert math.sqrt(max(0.0, 1 - cos * cos)) <= 1e-6
