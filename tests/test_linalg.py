import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from subriem.errors import AmbiguousRankError
from subriem.linalg import (RANK_GAP_FACTOR, RANK_REL_TOL, block_swap,
                            numerical_rank, omega_px, omega_qp,
                            rank_decisions, rank_split, symplectic_defect)

SRC = Path(__file__).resolve().parents[1] / "src" / "subriem"


def _diag_matrix(svals):
    rng = np.random.default_rng(0)
    n = len(svals)
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(svals) @ q2


def test_numerical_rank_clear_cases():
    assert numerical_rank(_diag_matrix([1.0, 0.5, 0.2]))[0] == 3
    assert numerical_rank(_diag_matrix([1.0, 0.3, 1e-14]))[0] == 2
    assert numerical_rank(np.zeros((3, 3)))[0] == 0


def test_numerical_rank_refuses_ambiguity():
    # accepted 1e-7 and rejected 1e-9 are only a factor 100 apart
    with pytest.raises(AmbiguousRankError) as exc:
        numerical_rank(_diag_matrix([1.0, 1e-7, 1e-9]))
    assert exc.value.singular_values is not None


def test_null_and_range_space():
    mat = _diag_matrix([1.0, 0.5, 1e-15])
    rank, svals, image, kernel = rank_split(mat)
    assert rank == 2 and np.allclose(svals, [1.0, 0.5, 1e-15], rtol=1e-12, atol=1e-15)
    assert kernel.shape == (3, 1)
    assert np.linalg.norm(mat @ kernel) < 1e-12
    assert image.shape == (3, 2)
    assert np.allclose(image.T @ image, np.eye(2), atol=1e-12)
    assert np.linalg.norm(image.T @ mat @ kernel) < 1e-12


def test_rank_split_image_drops_null_directions():
    cols = np.column_stack([[1.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0]])
    rank, _, q, kernel = rank_split(cols)
    assert rank == 2 and q.shape == (3, 2) and kernel.shape == (3, 1)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
    assert np.allclose(q @ (q.T @ cols), cols, atol=1e-12)
    # empty inputs split into empty bases
    assert [b.shape for b in rank_split(np.zeros((3, 0)))[2:]] == [(3, 0), (0, 0)]


def test_rank_split_refuses_inside_the_band():
    # a 3 x 4 matrix with accepted 1e-7 and rejected 2e-10: a factor 500
    # where 1e3 is required; with 1e-11 rejected (a factor 1e4) it decides
    for last, refused in ((2e-10, True), (1e-11, False)):
        mat = _diag_matrix([1.0, 1e-7, last]) @ np.eye(3, 4)
        if refused:
            with pytest.raises(AmbiguousRankError, match="rank decision ambiguous") as exc:
                rank_split(mat)
            assert len(exc.value.singular_values) == 3
        else:
            rank, _, image, kernel = rank_split(mat)
            assert (rank, image.shape, kernel.shape) == (2, (3, 2), (4, 2))


def _reference_decision(svals, limit):
    """The rank rule for one row, written out value by value."""
    rank = 0
    for value in svals:
        if value > limit:
            rank += 1
    ambiguous = 0 < rank < len(svals) and svals[rank - 1] < RANK_GAP_FACTOR * svals[rank]
    return rank, ambiguous


# a singular value as scale times 10^e, e near 0 or near the limits (about
# 1e-8 times the scale), or an exact zero: rows come out full rank, zero,
# clear of the band or inside it
_exponents = st.one_of(st.floats(-2.0, 0.0), st.floats(-11.0, -5.0), st.just(-np.inf))


@given(st.integers(0, 6), st.integers(1, 8), st.floats(0.5, 1e3), st.floats(-10.0, -6.0),
       st.data())
def test_rank_decisions_match_per_row_reference(k, m, scale, limit_exp, data):
    rows = data.draw(st.lists(st.lists(_exponents, min_size=k, max_size=k),
                              min_size=m, max_size=m))
    svals = -np.sort(-scale * 10.0 ** np.array(rows, dtype=float).reshape(m, k), axis=1)
    # limits relative to each row's top value, or one shared limit (a curve scale)
    if k and data.draw(st.booleans()):
        limits = RANK_REL_TOL * svals[:, 0]
    else:
        limits = np.full(m, scale * 10.0 ** limit_exp)
    ranks, ambiguous = rank_decisions(svals, limits)
    assert ranks.shape == ambiguous.shape == (m,)
    for i in range(m):
        assert (ranks[i], ambiguous[i]) == _reference_decision(svals[i], limits[i])
        assert rank_decisions(svals[i], limits[i]) == (ranks[i], ambiguous[i])


def test_rank_decisions_cover_full_rank_zero_and_band():
    svals = np.array([[3.0, 2.0, 1.0],      # full rank
                      [0.0, 0.0, 0.0],      # zero matrix
                      [1.0, 1e-7, 1e-9],    # gap 1e2: ambiguous
                      [1.0, 1e-5, 1e-9],    # gap 1e4: clear
                      [1.0, 1e-4, 1e-12],   # gap 1e8: clear
                      [1.0, 1e-9, 0.0]])    # rejected values only beyond the limit
    ranks, ambiguous = rank_decisions(svals, RANK_REL_TOL * svals[:, 0])
    assert ranks.tolist() == [3, 0, 2, 2, 2, 1]
    assert ambiguous.tolist() == [False, False, True, False, False, False]


def test_rank_gap_factor_is_read_only_by_linalg():
    # the rank rule has one home: no other module compares against the gap
    users = sorted(path.name for path in SRC.glob("*.py")
                   if path.name != "linalg.py"
                   and re.search(r"\bRANK_GAP_FACTOR\b", path.read_text()))
    assert users == []


def test_omega_conventions_are_block_swaps_of_each_other():
    assert np.array_equal(block_swap(omega_px(3)), omega_qp(3))
    assert np.array_equal(omega_px(3) @ omega_px(3), -np.eye(6))


def test_block_swap_involution():
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(6, 6))
    assert np.array_equal(block_swap(block_swap(mat)), mat)


def test_symplectic_defect_of_shear():
    shear = np.eye(6)
    shear[:3, 3:] = np.diag([0.3, -0.2, 0.7])  # symmetric block: symplectic
    assert symplectic_defect(shear, omega_px(3)) < 1e-15
    shear[0, 4] = 1.0  # now asymmetric: not symplectic
    assert symplectic_defect(shear, omega_px(3)) > 0.5
