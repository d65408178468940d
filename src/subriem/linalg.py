"""Small dense linear-algebra helpers: symplectic matrices and rank decisions.

Conventions used throughout the package, in one place:

* Phase vectors come in two orderings.  The flow modules store states and
  fundamental matrices in ``(q, p)`` order; Jacobi/Lagrangian computations
  use ``(p, x)`` order (momentum coordinates first).  ``block_swap`` converts.
* The symplectic form in ``(p, x)`` order is
  ``omega((p1,x1),(p2,x2)) = <p1,x2> - <x1,p2>``, i.e. the matrix
  ``[[0, I], [-I, 0]]``.  Conjugating with the block swap gives
  ``[[0, -I], [I, 0]]`` in ``(q, p)`` order, so Hamilton's equations read
  ``zdot = Omega^{-1} grad H``.
* Every rank decision (multiplicities, kernels, images, frame ranks) follows
  one rule, ``rank_decisions``: a singular value counts when it exceeds the
  limit (``RANK_REL_TOL`` times the largest one, or a caller's scale), and a
  decision whose smallest accepted value is not ``RANK_GAP_FACTOR`` times the
  largest rejected one is refused with :class:`AmbiguousRankError`.  Each
  decided matrix is decomposed once; ``rank_split`` returns its rank,
  singular values, image and kernel from that one SVD.
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


def rank_decisions(svals: np.ndarray, limits: np.ndarray | float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The one rank rule, on a stack (..., k) of singular values with one
    limit per row (...,): the rank counts the values above the limit, and
    the mask marks the rows whose smallest accepted value is not
    ``RANK_GAP_FACTOR`` times their largest rejected one (a decision inside
    the ambiguity band, which must be refused, not guessed).  A row with
    nothing accepted or nothing rejected is never ambiguous."""
    accepted = svals > np.asarray(limits)[..., None]
    smallest_accepted = np.where(accepted, svals, np.inf).min(axis=-1, initial=np.inf)
    largest_rejected = np.where(accepted, 0.0, svals).max(axis=-1, initial=0.0)
    return accepted.sum(axis=-1), smallest_accepted < RANK_GAP_FACTOR * largest_rejected


def rank_refusal(svals: np.ndarray, rank: int) -> AmbiguousRankError:
    """The error refusing a rank decision that ``rank_decisions`` marked
    ambiguous, with the gap it found."""
    return AmbiguousRankError(
        f"rank decision ambiguous: gap {svals[rank - 1] / svals[rank]:.3e} "
        f"< {RANK_GAP_FACTOR:.0e}", singular_values=svals)


def rank_split(mat: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Numerical rank of ``mat`` (limit ``RANK_REL_TOL * s_max``) from one
    SVD, with its singular values and orthonormal bases of its image and
    kernel as columns (either may be empty); raises
    :class:`AmbiguousRankError` inside the ambiguity band."""
    u, svals, vt = np.linalg.svd(mat)
    rank, ambiguous = rank_decisions(svals, RANK_REL_TOL * np.max(svals, initial=0.0))
    if ambiguous:
        raise rank_refusal(svals, rank)
    return int(rank), svals, u[:, :rank], vt[rank:].T


def numerical_rank(mat: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank and singular values of ``mat`` by ``rank_split``."""
    return rank_split(mat)[:2]
