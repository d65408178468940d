import math
from pathlib import Path

import numpy as np
import pytest

from subriem import flow
from subriem.errors import DimensionMismatchError, IntegrationError
from subriem.flow import (_augmented_rhs, check_constant_speed, d_exp, exp_map,
                          integrate_extremal, integrate_extremal_batch)
from subriem.heisenberg import HeisCovector, heis_jacobi_matrix, heis_state
from subriem.linalg import block_swap
from subriem.maslov import _scan_grid
from subriem.structure import PolyVectorField, Structure, load_structure

ENGEL_FILE = Path(__file__).resolve().parents[1] / "bench" / "engel.json"

TWO_PI = 2 * math.pi


def test_straight_line_geodesic(heis):
    traj = integrate_extremal(heis, np.zeros(3), np.array([1.0, 0, 0]), 1.0)
    assert np.allclose(traj.states[-1][:3], [1, 0, 0], atol=1e-10)
    h_vals = heis.jet_raw_batch(traj.states)[0]
    assert np.allclose(h_vals, 0.5, atol=1e-11)


def test_zero_covector_is_stationary(heis):
    traj = integrate_extremal(heis, np.array([0.2, -0.4, 1.0]), np.zeros(3), 1.0)
    assert np.allclose(traj.states, traj.states[0], atol=1e-14)


def test_zero_energy_covector_is_stationary(heis):
    traj = integrate_extremal(heis, np.zeros(3), np.array([0.0, 0, 1.0]), 1.0)
    assert np.allclose(traj.states, traj.states[0], atol=1e-14)
    drift, gap = check_constant_speed(traj)
    assert gap == 0.0


def test_conjugate_covector_endpoint(heis):
    traj = integrate_extremal(heis, np.zeros(3), np.array([1.0, 0, TWO_PI]), 1.0)
    assert np.allclose(traj.states[-1][:3], [0, 0, 1 / (4 * math.pi)], atol=1e-8)


def test_exp_map_examples(heis):
    p = np.array([0.4, 0.1, -0.2])
    assert np.array_equal(exp_map(heis, p, np.zeros(3)), p)
    img1 = exp_map(heis, np.zeros(3), np.array([1.0, 0, TWO_PI]))
    img2 = exp_map(heis, np.zeros(3), np.array([0.0, 1.0, TWO_PI]))
    target = np.array([0, 0, 1 / (4 * math.pi)])
    assert np.allclose(img1, target, atol=1e-8)
    assert np.allclose(img2, target, atol=1e-8)


def test_d_exp_euclidean_is_identity(eucl3):
    mat = d_exp(eucl3, np.zeros(3), np.array([0.7, -0.3, 1.1]))
    assert np.allclose(mat, np.eye(3), atol=1e-10)


def test_d_exp_singular_at_conjugate_covector(heis):
    mat = d_exp(heis, np.zeros(3), np.array([1.0, 0, TWO_PI]))
    _, svals, vt = np.linalg.svd(mat)
    assert svals[-1] < 1e-6
    kernel = vt[-1]
    assert min(np.linalg.norm(kernel - [0, 1, 0]),
               np.linalg.norm(kernel + [0, 1, 0])) < 1e-6


def test_d_exp_regular_away_from_conjugate(heis):
    mat = d_exp(heis, np.zeros(3), np.array([1.0, 0, math.pi]))
    svals = np.linalg.svd(mat, compute_uv=False)
    assert svals[-1] / svals[0] > 1e-3


def test_ray_homogeneity(heis):
    lam = np.array([0.8, -0.5, 4.0])
    for t_val in (0.3, 0.7, 1.0):
        a = integrate_extremal(heis, np.zeros(3), lam, t_val,
                               samples=[t_val]).states[-1][:3]
        b = exp_map(heis, np.zeros(3), t_val * lam)
        assert np.allclose(a, b, atol=1e-8)


def test_batch_invariants_energy_symplecticity_velocity(heis):
    rng = np.random.default_rng(11)
    covs = rng.normal(size=(20, 3))
    covs /= np.linalg.norm(covs, axis=1)[:, None]
    covs *= rng.uniform(0.5, 3.0, 20)[:, None]
    trajs = integrate_extremal_batch(heis, np.zeros(3), covs, 1.0, 1e-10, samples=33)
    for cov, traj in zip(covs, trajs):
        assert check_constant_speed(traj)[0] <= 1e-9
        assert traj.symplectic_defect() <= 1e-7
        h0 = heis.hamiltonian_raw(np.zeros(3), cov)
        floor = math.sqrt(2 * h0) - 1e-6
        for t_val, phi in zip(traj.ts[1:], traj.phis[1:]):
            assert np.linalg.norm(phi[:3, 3:] @ cov / t_val) >= floor


def test_oracle_agreement_small_sample(heis):
    rng = np.random.default_rng(12)
    covs = rng.normal(size=(10, 3))
    covs /= np.linalg.norm(covs, axis=1)[:, None]
    covs *= rng.uniform(0.5, 10.0, 10)[:, None]
    covs[0, 2] = 1e-5  # exercise the small-alpha branch
    trajs = integrate_extremal_batch(heis, np.zeros(3), covs, 1.0, 1e-10, samples=17)
    for cov, traj in zip(covs, trajs):
        hc = HeisCovector((0, 0, 0), tuple(cov))
        for t_val, st in zip(traj.ts, traj.states):
            assert np.max(np.abs(st - heis_state(hc, t_val))) <= 1e-8


def test_phi_initial_identity(traj_2pi):
    assert np.array_equal(traj_2pi.phis[0], np.eye(6))


def test_at_off_grid_matches_closed_form(heis, traj_2pi):
    hc = HeisCovector((0, 0, 0), (1.0, 0.0, TWO_PI))
    state, phi = traj_2pi.at(0.377)
    assert np.max(np.abs(state - heis_state(hc, 0.377))) < 1e-9
    with pytest.raises(ValueError):
        traj_2pi.at(1.5)
    with pytest.raises(ValueError):
        traj_2pi.at(-0.1)


def test_check_constant_speed_diagnostics(heis):
    traj = integrate_extremal(heis, np.zeros(3), np.array([1.0, 0, TWO_PI]), 1.0)
    drift, gap = check_constant_speed(traj)
    assert drift <= 1e-9
    assert gap <= 1e-9


def test_euclidean_speed_is_covector_norm(eucl3):
    lam = np.array([0.6, -1.1, 2.0])
    traj = integrate_extremal(eucl3, np.zeros(3), lam, 1.0, samples=9)
    drift, gap = check_constant_speed(traj)
    assert drift <= 1e-12
    assert 2 * eucl3.hamiltonian_raw(*np.split(traj.states[0], 2)) == pytest.approx(
        lam @ lam, rel=1e-15)


def test_integrator_input_validation(heis):
    single = [np.zeros(3), np.ones(3)]
    batch = [np.zeros(3), np.ones((2, 3))]
    for entry, args in ((integrate_extremal, single), (integrate_extremal_batch, batch)):
        for t_final in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="t_final"):
                entry(heis, *args, t_final)
        with pytest.raises(ValueError):
            entry(heis, *args, 1.0, tol=-1e-9)
        with pytest.raises(ValueError):
            entry(heis, *args, 1.0, samples=1)
        for samples in ([-0.3, 0.5], [0.5, 1.7]):
            with pytest.raises(ValueError, match="sample times"):
                entry(heis, *args, 1.0, samples=samples)
        for bad in (np.nan, np.inf):
            for k in range(2):
                data = [arg.copy() for arg in args]
                data[k].flat[-1] = bad
                with pytest.raises(ValueError, match="finite"):
                    entry(heis, *data, 1.0)
    with pytest.raises(DimensionMismatchError):
        integrate_extremal(heis, np.zeros(2), np.ones(3), 1.0)
    with pytest.raises(DimensionMismatchError):
        integrate_extremal_batch(heis, np.zeros(3), np.ones((2, 2)), 1.0)
    with pytest.raises(DimensionMismatchError):
        integrate_extremal_batch(heis, np.zeros((3, 3)), np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError, match="at least one covector"):
        integrate_extremal_batch(heis, np.zeros(3), np.empty((0, 3)), 1.0)


def test_general_degree_two_structure_flow_invariants(quadratic):
    # degree-2 fields push the flow through the full polynomial-Hessian path
    traj = integrate_extremal(quadratic, np.array([0.3, -0.2]), np.array([0.8, 0.5]),
                              1.0, 1e-10, samples=17)
    assert traj.symplectic_defect() <= 1e-7
    drift, gap = check_constant_speed(traj)
    assert drift <= 1e-9
    assert gap <= 1e-9 * max(1.0, 2 * quadratic.hamiltonian_raw(*np.split(traj.states[0], 2)))


def test_blowup_is_reported_as_integration_failure():
    # field (1 + q^2) d/dq reaches infinity in finite time
    field = PolyVectorField.from_lists(1, [[((0,), 1.0), ((2,), 1.0)]])
    struct = Structure(1, 1, (field,), name="blowup")
    with pytest.raises(IntegrationError):
        integrate_extremal(struct, np.zeros(1), np.array([1.0]), 3.0)


def test_batch_matches_single_integration(heis):
    covs = np.array([[1.0, 0.2, 3.0], [0.5, -0.8, 6.0]])
    batch = integrate_extremal_batch(heis, np.zeros(3), covs, 1.0, 1e-10, samples=9)
    for cov, traj in zip(covs, batch):
        single = integrate_extremal(heis, np.zeros(3), cov, 1.0, 1e-10, samples=9)
        assert np.max(np.abs(single.states - traj.states)) < 1e-9
        assert np.max(np.abs(single.phis - traj.phis)) < 1e-8


def _reference_rhs(struct, y):
    """Hamilton's equations plus Phi' = S Phi with S = J Hess H assembled block
    by block, row by row, from the scalar jet ``Structure.jet_raw``:
    z' = (H_p, -H_q) and S = [[H_pq, H_pp], [-H_qq, -H_qp]]."""
    n = struct.n
    dy = np.empty_like(y)
    for row, out in zip(y, dy):
        _, gq, gp, hqq, hqp, hpp = struct.jet_raw(row[:n], row[n:2 * n])
        s_mat = np.block([[hqp.T, hpp], [-hqq, -hqp]])
        out[:n] = gp
        out[n:2 * n] = -gq
        out[2 * n:] = (s_mat @ row[2 * n:].reshape(2 * n, 2 * n)).ravel()
    return dy


@pytest.mark.parametrize("batch", [1, 7])
def test_augmented_rhs_matches_block_assembly_bitwise(heis, quadratic, batch):
    # J folded into the jet table only permutes and negates, so the RHS equals
    # the block assembly from the scalar jet bit for bit.  One row runs the
    # scalar jet's own table product.  A batch may sum that product in another
    # order, so its rows are multiples of 1/8 and its structures those with
    # dyadic coefficients: every product and sum is then exact.
    rng = np.random.default_rng(8)
    engel = load_structure(str(ENGEL_FILE))
    for struct in (heis, quadratic, engel) if batch == 1 else (heis, engel):
        d = 2 * struct.n
        y = rng.uniform(-2, 2, (batch, d + d * d))
        if batch > 1:
            y = np.round(8 * y) / 8
        assert np.array_equal(_augmented_rhs(struct)(0.0, y), _reference_rhs(struct, y))


def _count_jet_rows(monkeypatch) -> list[int]:
    """Rows of every ``Structure.jet_raw_batch`` call from now on, one entry
    per call (each augmented-RHS evaluation is one call)."""
    rows = []
    orig = Structure.jet_raw_batch

    def counted(struct, z):
        rows.append(len(z))
        return orig(struct, z)

    monkeypatch.setattr(Structure, "jet_raw_batch", counted)
    return rows


def test_scan_integration_jet_rows_bounded(heis, monkeypatch):
    # deterministic cost gate: jet rows of one integration sampled on the
    # scan grid of (1, 0, 13)
    rows = _count_jet_rows(monkeypatch)
    traj = integrate_extremal(heis, np.zeros(3), np.array([1.0, 0.0, 13.0]), 1.0,
                              samples=_scan_grid(0.05, 1.0))
    assert sum(rows) <= 1_500
    assert traj.stats.rhs_rows == sum(rows)


def test_engel_scan_integration_jet_rows_bounded(monkeypatch):
    # the same gate on R^4, where the jet's Hessian has q-dependent terms:
    # 1,698 rows (108 accepted and 8 rejected steps) at the time of writing
    engel = load_structure(str(ENGEL_FILE))
    rows = _count_jet_rows(monkeypatch)
    traj = integrate_extremal(engel, np.zeros(4), np.array([1.0, 0.4, -2.0, 80.0]), 1.0,
                              samples=_scan_grid(0.05, 1.0))
    assert sum(rows) <= 1_800
    assert traj.stats.rhs_rows == sum(rows)


def test_step_budget_error_reports_progress(heis, monkeypatch):
    # five steps of (1, 0, 13), none rejected: the message gives where the
    # integration stopped and what it had spent
    cov = np.array([1.0, 0.0, 13.0])
    full = integrate_extremal(heis, np.zeros(3), cov, 1.0, samples=9).stats
    assert full.rejected == 0
    rows = _count_jet_rows(monkeypatch)
    monkeypatch.setattr(flow, "_MAX_STEPS", 5)
    with pytest.raises(IntegrationError) as exc:
        integrate_extremal(heis, np.zeros(3), cov, 1.0, samples=9)
    assert str(exc.value) == (
        f"step budget of 5 steps exhausted at t = {full.boundaries[5]:.6g} of t_final = 1: "
        f"5 accepted and 0 rejected steps, {sum(rows)} RHS rows")
    assert 2 + 12 * 5 <= sum(rows) <= 2 + 15 * 5


def test_dop853_tableau_matches_reference():
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    for mine, theirs in ((flow._C, ref.C), (flow._A, ref.A), (flow._B, ref.B),
                         (flow._E3, ref.E3), (flow._E5, ref.E5), (flow._D, ref.D)):
        assert np.array_equal(mine, theirs)


def test_integration_stats_record(heis, monkeypatch):
    rows = _count_jet_rows(monkeypatch)
    covs = np.array([[1.0, 0.2, 3.0], [0.5, -0.8, 6.0], [0.1, 0.9, -9.0]])
    trajs = integrate_extremal_batch(heis, np.zeros(3), covs, 1.0, 1e-10, samples=17)
    stats = trajs[0].stats
    assert all(t.stats is stats for t in trajs)
    assert stats.rhs_rows == sum(rows) and set(rows) == {3}
    bounds = stats.boundaries
    assert bounds[0] == 0.0 and bounds[-1] == 1.0 and np.all(np.diff(bounds) > 0)
    assert stats.accepted >= 1 and 0.0 < stats.h_min <= stats.h_max <= 1.0
    assert 0.0 < stats.max_error <= 1.0 and stats.rejected >= 0
    # 2 calls pick the first step, each try runs 11 new stages, each accepted
    # step one f(t + h) and, if it holds samples, 3 dense-output stages
    calls = 2 + 11 * (stats.accepted + stats.rejected) + stats.accepted
    assert calls <= stats.rhs_rows / 3 <= calls + 3 * stats.accepted


def test_off_sample_lookups_match_closed_form(heis):
    # single lookups, and one batched lookup of rows spread over two rays
    covs = np.array([[0.7, -0.4, 13.0], [1.0, 0.3, -9.0]])
    trajs = integrate_extremal_batch(heis, np.zeros(3), covs, 1.0, samples=9)
    rng = np.random.default_rng(6)
    ts = np.concatenate([rng.uniform(0.0, 1.0, 40), trajs[0].ts[[2, 5]]])
    rays = rng.integers(0, 2, len(ts))
    states, phis = flow.lookup(trajs, rays, ts)
    for t_val, ray, state_batch, phi_batch in zip(ts, rays, states, phis):
        state, phi = trajs[ray].at(float(t_val))
        hc = HeisCovector((0, 0, 0), tuple(covs[ray]))
        assert np.max(np.abs(state - heis_state(hc, t_val))) <= 1e-11
        assert np.max(np.abs(block_swap(phi) - heis_jacobi_matrix(hc, t_val))) <= 1e-10
        assert np.max(np.abs(state_batch - state)) <= 1e-13
        assert np.max(np.abs(phi_batch - phi)) <= 1e-13


def test_off_sample_lookup_work_is_bounded(heis, monkeypatch):
    traj = integrate_extremal(heis, np.zeros(3), np.array([1.0, 0.0, 13.0]), 1.0, samples=9)
    bounds = traj.stats.boundaries
    rows = _count_jet_rows(monkeypatch)
    ts = np.random.default_rng(7).uniform(0.0, 1.0, 25)
    for t_val in ts:
        rows.clear()
        traj.at(float(t_val))
        start = traj.ts[np.searchsorted(traj.ts, t_val, side="right") - 1]
        crossed = np.count_nonzero((bounds > start) & (bounds < t_val))
        assert 0 < sum(rows) <= 12 * (crossed + 1)
    # a stored sample costs nothing; many off-sample rows go as one batch
    rows.clear()
    traj.at(float(traj.ts[3]))
    assert rows == []
    flow.lookup([traj], 0, ts)
    pieces = max(np.count_nonzero((bounds > traj.ts[np.searchsorted(traj.ts, t, side="right") - 1])
                                  & (bounds < t)) + 1 for t in ts)
    assert len(rows) == 12 * pieces and rows[0] == len(ts)
