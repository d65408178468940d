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


class FrameMatrices(NamedTuple):
    """Coefficient matrices of the Jacobi system at one time; B and R symmetric."""

    t: float
    a: np.ndarray
    b: np.ndarray
    r: np.ndarray

    def system_matrix(self) -> np.ndarray:
        """[[-A^T, R], [B, A]] acting on (p, x)."""
        n = self.a.shape[0]
        s = np.empty((2 * n, 2 * n))
        s[:n, :n] = -self.a.T
        s[:n, n:] = self.r
        s[n:, :n] = self.b
        s[n:, n:] = self.a
        return s


def frame_matrices(struct: Structure, traj: ExtremalTrajectory, t: float) -> FrameMatrices:
    """Read A = H_pq, B = H_pp, R = -H_qq off the exact Hessian at lambda(t)."""
    state = traj.state_at(t)
    n = struct.n
    _, _, _, hqq, hqp, hpp = struct.jet_raw(state[:n], state[n:])
    return FrameMatrices(t, hqp.T.copy(), hpp, -hqq)


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


class DecompositionReport(NamedTuple):
    """Orthogonal splitting of the configuration tangent space at time t into
    values of initially-vanishing Jacobi fields (basis_values) and frame
    derivatives of doubly-vanishing ones (basis_derivatives).

    The derivative basis is frame dependent; it is reported in the coordinate
    Darboux frame, like every derivative in this module.
    """

    t: float
    basis_values: np.ndarray       # n x k1
    basis_derivatives: np.ndarray  # n x k2
    cross_gram: np.ndarray         # k1 x k2

    @property
    def dims(self) -> tuple[int, int]:
        return self.basis_values.shape[1], self.basis_derivatives.shape[1]

    @property
    def max_cross(self) -> float:
        return float(np.max(np.abs(self.cross_gram))) if self.cross_gram.size else 0.0


def _vertical_split(traj: ExtremalTrajectory, t: float
                    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Vertical initial data (w, 0) propagates to x(t) = M3(t) w and
    p(t) = M1(t) w in the (p, x) splitting.  Returns the rank split of M3
    (rank, singular values, image basis) and M1 applied to its kernel basis:
    the derivatives of the fields that vanish at 0 and t."""
    phi = block_swap(traj.phi_at(t))
    n = phi.shape[0] // 2
    rank, svals, image, kernel = rank_split(phi[n:, :n])
    return rank, svals, image, phi[:n, :n] @ kernel


def decomposition(struct: Structure, traj: ExtremalTrajectory, t: float) -> DecompositionReport:
    """Split T_{gamma(t)} M into J(t)-values and grad-J(t)-derivatives.

    The value space is range(M3(t)), the derivative space is M1(ker M3(t))
    (see ``_vertical_split``).  Their dimensions must sum to n and the spaces
    must be mutually orthogonal.  Both bases come from the rank rule, so a
    decision inside its ambiguity band raises :class:`AmbiguousRankError`.
    """
    _, _, basis_values, derivs = _vertical_split(traj, t)
    basis_derivatives = rank_split(derivs)[2]
    return DecompositionReport(t, basis_values, basis_derivatives,
                               basis_values.T @ basis_derivatives)


class RegularityReport(NamedTuple):
    """Outcome of the kernel-versus-derivative independence check at t = 1."""

    kernel_dim: int
    theta_rank: int
    passed: bool
    singular_values: np.ndarray


def regularity_check(struct: Structure, traj: ExtremalTrajectory) -> RegularityReport:
    """Check that frame derivatives of kernel Jacobi fields complement the
    image of the exponential differential.

    For each kernel vector A of dq(1)/dlambda0, the doubly-vanishing Jacobi
    field with initial data (A, 0) contributes grad J_A(1) = M1(1) A; the check
    passes iff these are independent modulo the image, i.e.
    rank([image basis | all grad J_A]) = rank(image) + kernel dim.
    """
    rank_img, svals, image_basis, derivs = _vertical_split(traj, 1.0)
    k = derivs.shape[1]
    if k == 0:
        return RegularityReport(0, 0, True, svals)
    theta_rank = numerical_rank(np.hstack([image_basis, derivs]))[0] - rank_img
    return RegularityReport(k, theta_rank, theta_rank == k, svals)
