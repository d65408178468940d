"""Small dense linear-algebra helpers: symplectic matrices, rank decisions, subspaces.

Conventions used throughout the package, in one place:

* Phase vectors come in two orderings.  The flow modules store states and
  fundamental matrices in ``(q, p)`` order; Jacobi/Lagrangian computations
  use ``(p, x)`` order (momentum coordinates first).  ``block_swap`` converts.
* The symplectic form in ``(p, x)`` order is
  ``omega((p1,x1),(p2,x2)) = <p1,x2> - <x1,p2>``, i.e. the matrix
  ``[[0, I], [-I, 0]]``.  Conjugating with the block swap gives
  ``[[0, -I], [I, 0]]`` in ``(q, p)`` order, so Hamilton's equations read
  ``zdot = Omega^{-1} grad H``.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousRankError

#: relative singular-value threshold for rank decisions
RANK_REL_TOL = 1e-8
#: required ratio between the smallest accepted and largest rejected singular value
RANK_GAP_FACTOR = 1e3


def omega_px(n: int) -> np.ndarray:
    """Symplectic matrix [[0, I], [-I, 0]] acting on (p, x)-ordered vectors."""
    om = np.zeros((2 * n, 2 * n))
    om[:n, n:] = np.eye(n)
    om[n:, :n] = -np.eye(n)
    return om


def omega_qp(n: int) -> np.ndarray:
    """Symplectic matrix [[0, -I], [I, 0]] acting on (q, p)-ordered vectors."""
    return -omega_px(n)


def block_swap(mat: np.ndarray) -> np.ndarray:
    """Conjugate 2n x 2n matrices (..., 2n, 2n) by the permutation exchanging
    the two n-blocks."""
    n = mat.shape[-1] // 2
    perm = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    return mat[..., perm[:, None], perm]


def symplectic_defect(mat: np.ndarray, omega: np.ndarray) -> float:
    """Max-norm of M^T Omega M - Omega."""
    return float(np.max(np.abs(mat.T @ omega @ mat - omega)))


def numerical_rank(mat: np.ndarray, rel_tol: float = RANK_REL_TOL,
                   gap: float = RANK_GAP_FACTOR) -> tuple[int, np.ndarray]:
    """Rank of ``mat`` by SVD with an explicit ambiguity band.

    Singular values above ``rel_tol * s_max`` are accepted.  When both accepted
    and rejected values exist, their ratio must exceed ``gap``; otherwise the
    decision is refused with :class:`AmbiguousRankError` (multiplicities must
    not be guessed near degeneracy).
    """
    if mat.size == 0:
        return 0, np.zeros(0)
    svals = np.linalg.svd(mat, compute_uv=False)
    smax = svals[0]
    if smax == 0.0:
        return 0, svals
    accepted = svals > rel_tol * smax
    rank = int(np.count_nonzero(accepted))
    if 0 < rank < len(svals):
        lo, hi = svals[rank], svals[rank - 1]
        if lo > 0 and hi / lo < gap:
            raise AmbiguousRankError(
                f"rank decision ambiguous: gap {hi / lo:.3e} < {gap:.0e}",
                singular_values=svals)
    return rank, svals


def null_space(mat: np.ndarray, rel_tol: float = RANK_REL_TOL,
               gap: float = RANK_GAP_FACTOR) -> np.ndarray:
    """Orthonormal basis of the kernel, as columns (may be empty)."""
    rank, _ = numerical_rank(mat, rel_tol, gap)
    _, _, vt = np.linalg.svd(mat)
    return vt[rank:].T.copy()


def range_space(mat: np.ndarray, rel_tol: float = RANK_REL_TOL,
                gap: float = RANK_GAP_FACTOR) -> np.ndarray:
    """Orthonormal basis of the column space, as columns."""
    rank, _ = numerical_rank(mat, rel_tol, gap)
    u, _, _ = np.linalg.svd(mat)
    return u[:, :rank].copy()


def orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(columns), dropping numerically null directions."""
    if mat.size == 0 or mat.shape[1] == 0:
        return mat.reshape(mat.shape[0], 0)
    u, svals, _ = np.linalg.svd(mat, full_matrices=False)
    keep = svals > RANK_REL_TOL * max(svals[0], 1e-300)
    return u[:, keep]


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of ``a`` and ``b``."""
    qa = orthonormalize(a)
    qb = orthonormalize(b)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))
