"""Invariant batteries behind the ``verify`` CLI command.

Each suite returns a list of :class:`CheckResult` with the achieved value and
its documented bound, so callers can print one margin line per check.

* ``r1``     constant-speed battery: energy conservation, symplecticity of the
             variational matrix, squared-speed identity, non-vanishing image
             of the ray velocity.
* ``r2``     kernel/derivative regularity at the two reference conjugate
             covectors, plus pairing constancy.
* ``r3``     continuity battery: conjugate counts on bundles of nearby rays.
* ``oracle`` closed-form reproduction: states and fundamental matrices of the
             numeric flow against the exact Heisenberg formulas.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import heisenberg as heis
from . import jacobi as jac
from . import maslov as mas
from .flow import DEFAULT_TOL, check_constant_speed, integrate_extremal_batch
from .linalg import block_swap, omega_px, symplectic_defect
from .structure import make_structure

#: the two reference conjugate covectors at the origin
CONJUGATE_COVECTORS = ((1.0, 0.0, 2 * math.pi), (1.0, 0.0, heis.ALPHA_STAR))

#: the r3 bundle around each reference covector: ray count and spread
R3_RAYS = 50
R3_SPREAD = 1e-2


class CheckResult(NamedTuple):
    name: str
    value: float
    bound: float
    sense: str  # "<=" or ">="

    @property
    def passed(self) -> bool:
        return self.value <= self.bound if self.sense == "<=" else self.value >= self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:34s} value={self.value: .6e}  bound {self.sense} {self.bound:.1e}"


def _random_covectors(rng, count: int, max_norm: float) -> np.ndarray:
    covs = []
    while len(covs) < count:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        v *= rng.uniform(0.3, max_norm)
        if v[0] ** 2 + v[1] ** 2 > 1e-3:  # keep H away from zero
            covs.append(v)
    return np.array(covs)


def suite_r1(seed: int = 42, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    struct = make_structure("heisenberg")
    rng = np.random.default_rng(seed)
    covs = np.vstack([_random_covectors(rng, 20, 3.0), np.array(CONJUGATE_COVECTORS)])
    trajs = integrate_extremal_batch(struct, np.zeros(3), covs, 1.0, tol, samples=33)

    drift, speed_gap = np.max([check_constant_speed(t) for t in trajs], axis=0)
    sympl = max(t.symplectic_defect() for t in trajs)

    velocity_margin = np.inf
    for cov, traj in zip(covs, trajs):
        h0 = struct.hamiltonian_raw(np.zeros(3), cov)
        floor = math.sqrt(2 * h0)
        for t_val, phi in zip(traj.ts[1:], traj.phis[1:]):
            image = phi[:3, 3:] @ cov / t_val
            velocity_margin = min(velocity_margin, np.linalg.norm(image) - floor)

    return [
        CheckResult("r1/energy-drift", drift, 1e-9, "<="),
        CheckResult("r1/speed-identity", speed_gap, 1e-9, "<="),
        CheckResult("r1/symplecticity", sympl, 1e-7, "<="),
        CheckResult("r1/ray-velocity-margin", velocity_margin, -1e-6, ">="),
    ]


def suite_r2(seed: int = 42, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    struct = make_structure("heisenberg")
    out = []
    for label, cov in zip(("2pi", "astar"), CONJUGATE_COVECTORS):
        traj = integrate_extremal_batch(struct, np.zeros(3), np.array([cov]), 1.0,
                                        tol, samples=65)[0]
        report = jac.regularity_check(struct, traj)
        out.append(CheckResult(f"r2/kernel-dim-err[{label}]",
                               abs(report.kernel_dim - 1), 0, "<="))
        out.append(CheckResult(f"r2/theta-rank-err[{label}]",
                               abs(report.theta_rank - report.kernel_dim), 0, "<="))

        basis = [jac.propagate_jacobi(struct, traj, e, np.zeros(3)) for e in np.eye(3)]
        basis += [jac.propagate_jacobi(struct, traj, np.zeros(3), e) for e in np.eye(3)]
        drift = 0.0
        for i in range(6):
            for j in range(i, 6):
                vals = [jac.pairing(basis[i], basis[j], t) for t in traj.ts]
                drift = max(drift, max(abs(v - vals[0]) for v in vals))
        out.append(CheckResult(f"r2/pairing-drift[{label}]", drift, 1e-9, "<="))
    return out


def suite_r3(seed: int = 42, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    struct = make_structure("heisenberg")
    out = []
    for label, cov in zip(("2pi", "astar"), CONJUGATE_COVECTORS):
        report = mas.continuity_check(struct, np.zeros(3), np.array(cov),
                                      R3_SPREAD, R3_RAYS, tol, seed)
        total_err = float(np.max(np.abs(report.ray_totals - report.kernel_dim)))
        index_err = float(np.max(np.abs(report.ray_indices + report.kernel_dim)))
        out.append(CheckResult(f"r3/kernel-dim-err[{label}]",
                               abs(report.kernel_dim - 1), 0, "<="))
        out.append(CheckResult(f"r3/ray-multiplicity-err[{label}]", total_err, 0, "<="))
        out.append(CheckResult(f"r3/ray-index-err[{label}]", index_err, 0, "<="))
    return out


def suite_oracle(seed: int = 42, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    struct = make_structure("heisenberg")
    rng = np.random.default_rng(seed)
    covs = _random_covectors(rng, 96, 10.0)
    # exercise the small-alpha Taylor branch explicitly
    covs = np.vstack([covs, [[1.0, 0.0, 1e-5], [2.0, -1.0, -5e-5],
                             [0.5, 0.5, 5e-7], [3.0, 0.2, 0.0]]])
    trajs = integrate_extremal_batch(struct, np.zeros(3), covs, 1.0, tol, samples=33)
    state_err = 0.0
    for cov, traj in zip(covs, trajs):
        hc = heis.HeisCovector((0.0, 0.0, 0.0), tuple(cov))
        for t_val, state in zip(traj.ts, traj.states):
            state_err = max(state_err, float(np.max(np.abs(
                state - heis.heis_state(hc, t_val)))))

    phi_err = 0.0
    m_defect = 0.0
    om = omega_px(3)
    t_rands = rng.uniform(0.1, 1.0, size=20)
    covs20 = _random_covectors(rng, 20, 8.0)
    for cov, t_val in zip(covs20, t_rands):
        traj = integrate_extremal_batch(struct, np.zeros(3), np.array([cov]),
                                        float(t_val), tol, samples=[float(t_val)])[0]
        hc = heis.HeisCovector((0.0, 0.0, 0.0), tuple(cov))
        m_mat = heis.heis_jacobi_matrix(hc, float(t_val))
        phi_err = max(phi_err, float(np.max(np.abs(block_swap(traj.phis[-1]) - m_mat))))
        m_defect = max(m_defect, symplectic_defect(m_mat, om))

    return [
        CheckResult("oracle/state-sup-error", state_err, 1e-8, "<="),
        CheckResult("oracle/fundamental-matrix", phi_err, 1e-7, "<="),
        CheckResult("oracle/closed-form-symplectic", m_defect, 1e-10, "<="),
    ]


SUITES = {"r1": suite_r1, "r2": suite_r2, "r3": suite_r3, "oracle": suite_oracle}


def run_suite(name: str, seed: int = 42, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """The checks of one suite, or of every suite in turn for ``all``."""
    if name == "all":
        return [res for suite in SUITES.values() for res in suite(seed, tol)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {(*SUITES, 'all')}")
    return SUITES[name](seed, tol)
