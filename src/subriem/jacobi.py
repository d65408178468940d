"""Jacobi fields along normal extremals in the global Darboux frame.

The linearized Hamiltonian flow in (p, x) = (momentum, configuration)
coordinates is

    d/dt (p, x) = [[-A(t)^T, R(t)], [B(t), A(t)]] (p, x)

with A = H_pq, B = H_pp, R = -H_qq read off the Hamiltonian Hessian along the
extremal.  The x-part of a solution is the Jacobi field in coordinates, the
p-part its frame derivative.  These quantities are frame dependent; everything
here is expressed in the coordinate Darboux frame (d/dp_i, d/dq_i), for which
the induced scalar product on the configuration space is the Euclidean one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .flow import ExtremalTrajectory
from .linalg import block_swap, numerical_rank, rank_split
from .structure import Structure


class JacobiCoordinates(NamedTuple):
    """Sampled coordinates (p(t), x(t)) of one Jacobi field along an extremal."""

    ts: np.ndarray
    ps: np.ndarray
    xs: np.ndarray

    def _index_of(self, t: float) -> int:
        hits = np.nonzero(np.abs(self.ts - t) <= 1e-12 * max(1.0, abs(t)))[0]
        if len(hits) == 0:
            raise ValueError(f"t = {t} is not a grid time")
        return int(hits[0])

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        i = self._index_of(t)
        return self.ps[i], self.xs[i]


def propagate_jacobi(struct: Structure, traj: ExtremalTrajectory,
                     p0, x0) -> JacobiCoordinates:
    """Propagate initial data (p0, x0) through the stored fundamental matrices."""
    n = struct.n
    p0 = np.asarray(p0, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if p0.shape != (n,) or x0.shape != (n,):
        raise DimensionMismatchError(f"initial data must be {n}-vectors")
    init = np.concatenate([p0, x0])
    out = np.array([block_swap(phi) @ init for phi in traj.phis])
    return JacobiCoordinates(traj.ts.copy(), out[:, :n], out[:, n:])


def pairing(j_field: JacobiCoordinates, k_field: JacobiCoordinates, t: float) -> float:
    """Symplectic pairing <p_J(t), x_K(t)> - <p_K(t), x_J(t)>; constant in t."""
    if j_field.ts.shape != k_field.ts.shape or not np.allclose(
            j_field.ts, k_field.ts, rtol=0, atol=1e-12):
        raise ValueError("Jacobi coordinate grids do not match")
    pj, xj = j_field.at(t)
    pk, xk = k_field.at(t)
    return float(pj @ xk - pk @ xj)


class RegularityReport(NamedTuple):
    """Outcome of the kernel-versus-derivative independence check at t = 1."""

    kernel_dim: int
    theta_rank: int
    passed: bool
    singular_values: np.ndarray


def regularity_check(struct: Structure, traj: ExtremalTrajectory) -> RegularityReport:
    """Check that frame derivatives of kernel Jacobi fields complement the
    image of the exponential differential.

    Vertical initial data (w, 0) propagates to x(1) = M3(1) w and
    p(1) = M1(1) w in the (p, x) splitting, so the kernel of dq(1)/dlambda0 is
    the kernel of M3(1).  For each kernel vector A, the doubly-vanishing
    Jacobi field with initial data (A, 0) contributes grad J_A(1) = M1(1) A;
    the check passes iff these are independent modulo the image, i.e.
    rank([image basis | all grad J_A]) = rank(image) + kernel dim.  Both
    ranks follow the rank rule (:class:`AmbiguousRankError` inside its band).
    """
    phi = block_swap(traj.phi_at(1.0))
    n = phi.shape[0] // 2
    rank_img, svals, image_basis, kernel = rank_split(phi[n:, :n])
    derivs = phi[:n, :n] @ kernel
    k = derivs.shape[1]
    if k == 0:
        return RegularityReport(0, 0, True, svals)
    theta_rank = numerical_rank(np.hstack([image_basis, derivs]))[0] - rank_img
    return RegularityReport(k, theta_rank, theta_rank == k, svals)
