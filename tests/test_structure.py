import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from subriem.errors import DimensionMismatchError
from subriem.linalg import omega_px
from subriem.structure import (PolyVectorField, SparsePolynomial, Structure,
                               load_structure, make_structure, structure_from_dict)

ENGEL_FILE = Path(__file__).resolve().parents[1] / "bench" / "engel.json"

# exclude magnitudes whose squares underflow, which would break the
# "H = 0 iff all momenta vanish" equivalence for spurious float reasons
coords = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=3),
    st.floats(min_value=-3, max_value=-1e-6),
)


def momenta(struct, q, p):
    """The momentum columns h_1..h_m of the structure's jet table at (q, p)."""
    return struct._table.evaluate(np.concatenate([q, p]).astype(float)[None])[0, :struct.m]


def test_momenta_at_origin(heis):
    assert np.allclose(momenta(heis, [0, 0, 0], [1, 0, 0]), [1, 0])
    assert np.allclose(momenta(heis, [0, 0, 0], [0, 0, 1]), [0, 0])


def test_momenta_off_origin(heis):
    # h1 = u - alpha y / 2, h2 = v + alpha x / 2 at q = (1, 1, 0), p = (0, 0, 2)
    assert np.allclose(momenta(heis, [1, 1, 0], [0, 0, 2]), [-1, 1])


def test_hamiltonian_values(heis):
    assert heis.hamiltonian_raw(np.zeros(3), np.array([1.0, 0, 0])) == pytest.approx(0.5)
    assert heis.hamiltonian_raw(np.array([0.3, -1, 2]), np.zeros(3)) == 0.0


def test_hamiltonian_matches_displayed_formula(heis):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y, tau = rng.uniform(-2, 2, 3)
        u, v, al = rng.uniform(-3, 3, 3)
        expected = 0.5 * ((v + al * x / 2) ** 2 + (u - al * y / 2) ** 2)
        assert heis.hamiltonian_raw(np.array([x, y, tau]), np.array([u, v, al])) == (
            pytest.approx(expected, rel=1e-15, abs=1e-15))


@given(q=st.tuples(coords, coords, coords), p=st.tuples(coords, coords, coords))
def test_hamiltonian_nonnegative_and_zero_iff_momenta_vanish(q, p):
    struct = make_structure("heisenberg")
    h_val = struct.hamiltonian_raw(np.array(q), np.array(p))
    assert h_val >= 0
    assert (h_val == 0) == bool(np.all(momenta(struct, q, p) == 0))


# Heisenberg fields are affine; the degree-2 ``quadratic`` fields also run the
# second q-derivative terms of the Hessian.  ``jet_raw_batch`` returns the field
# J grad H and S = J Hess H, so the finite differences are taken through J.

def test_jet_gradient_matches_finite_differences(heis, quadratic):
    step = 1e-6
    for struct in (heis, quadratic):
        rng = np.random.default_rng(1)
        n = struct.n
        for _ in range(20):
            z = rng.uniform(-2, 2, 2 * n)
            _, field, _ = struct.jet_raw_batch(z[None])
            fd = np.empty(2 * n)
            for i in range(2 * n):
                dz = np.zeros(2 * n)
                dz[i] = step
                plus, minus = struct.jet_raw_batch(np.array([z + dz, z - dz]))[0]
                fd[i] = (plus - minus) / (2 * step)
            for got, want in zip(field[0], omega_px(n) @ fd):
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_jet_hessian_matches_gradient_differences(heis, quadratic):
    # S = J Hess H is the derivative of the field J grad H
    step = 1e-6
    for struct in (heis, quadratic):
        rng = np.random.default_rng(2)
        n = struct.n
        for _ in range(10):
            z = rng.uniform(-2, 2, 2 * n)
            _, _, s_mat = struct.jet_raw_batch(z[None])
            for i in range(2 * n):
                dz = np.zeros(2 * n)
                dz[i] = step
                _, (fp, fm), _ = struct.jet_raw_batch(np.array([z + dz, z - dz]))
                fd = (fp - fm) / (2 * step)
                assert np.max(np.abs(s_mat[0, :, i] - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


def test_jet_hessian_exactly_symmetric(heis, quadratic):
    for struct in (heis, quadratic):
        rng = np.random.default_rng(3)
        n = struct.n
        for _ in range(20):
            z = rng.uniform(-2, 2, 2 * n)
            _, _, _, hqq, hqp, hpp = struct.jet_raw(z[:n], z[n:])
            hess = np.block([[hqq, hqp], [hqp.T, hpp]])
            assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("name", ["heisenberg", "euclidean:3", "engel", "quadratic"])
def test_jet_table_folds_j_exactly(name, quadratic):
    # the field and S are J grad H and J Hess H bit for bit, with grad and Hess
    # the scalar jet's; -J S is the Hessian and exactly symmetric at any batch
    if name == "quadratic":
        struct = quadratic
    elif name == "engel":
        struct = load_structure(str(ENGEL_FILE))
    else:
        struct = make_structure(name)
    n = struct.n
    j_mat = omega_px(n)
    z = np.random.default_rng(9).uniform(-2, 2, (7, 2 * n))
    for row in z:
        _, gq, gp, hqq, hqp, hpp = struct.jet_raw(row[:n], row[n:])
        _, field, s_mat = struct.jet_raw_batch(row[None])
        assert np.array_equal(field[0], j_mat @ np.concatenate([gq, gp]))
        assert np.array_equal(s_mat[0], j_mat @ np.block([[hqq, hqp], [hqp.T, hpp]]))
    for rows in (z[:1], z):
        hess = -j_mat @ struct.jet_raw_batch(rows)[2]
        assert np.array_equal(hess, np.swapaxes(hess, 1, 2))


def test_jet_batch_rows_match_single_jet(heis, quadratic):
    for struct in (heis, quadratic):
        rng = np.random.default_rng(6)
        n = struct.n
        z = rng.uniform(-2, 2, (7, 2 * n))
        batch = struct.jet_raw_batch(z)
        assert [a.shape for a in batch] == [(7,), (7, 2 * n), (7, 2 * n, 2 * n)]
        for i in range(7):
            value, gq, gp, hqq, hqp, hpp = struct.jet_raw(z[i, :n], z[i, n:])
            want = (value, np.concatenate([gp, -gq]),
                    np.block([[hqp.T, hpp], [-hqq, -hqp]]))
            for got, ref in zip(batch, want):
                assert np.allclose(got[i], ref, rtol=1e-14, atol=1e-14)


def test_jet_gradient_vanishes_at_zero_covector(heis):
    _, field, _ = heis.jet_raw_batch(np.array([[0.7, -0.4, 1.2, 0, 0, 0]]))
    assert np.all(field == 0)


def test_polynomial_canonicalization():
    poly = SparsePolynomial.from_terms(2, [((1, 0), 2.0), ((1, 0), 3.0), ((0, 1), 0.0)])
    assert poly.terms == (((1, 0), 5.0),)


def test_polynomial_rejects_bad_multi_indices():
    with pytest.raises(ValueError):
        SparsePolynomial.from_terms(2, [((1,), 1.0)])
    with pytest.raises(ValueError):
        SparsePolynomial.from_terms(2, [((-1, 0), 1.0)])
    with pytest.raises(ValueError, match="not an integer"):
        SparsePolynomial.from_terms(2, [((1.5, 0), 1.0)])


def test_polynomial_derivative_is_exact():
    poly = SparsePolynomial.from_terms(2, [((2, 1), 3.0), ((0, 3), -1.0)])
    assert poly.diff(0).terms == (((1, 1), 6.0),)
    assert poly.diff(1).terms == (((0, 2), -3.0), ((2, 0), 3.0))


def test_polynomial_product_is_exact():
    x_plus_2y = SparsePolynomial.from_terms(2, [((1, 0), 1.0), ((0, 1), 2.0)])
    x_minus_y = SparsePolynomial.from_terms(2, [((1, 0), 1.0), ((0, 1), -1.0)])
    assert (x_plus_2y * x_minus_y).terms == (
        ((0, 2), -2.0), ((1, 1), 1.0), ((2, 0), 1.0))
    assert (0.5 * x_minus_y).terms == (((0, 1), -0.5), ((1, 0), 0.5))
    assert (x_plus_2y + x_minus_y).terms == (((0, 1), 1.0), ((1, 0), 2.0))
    assert (x_minus_y * SparsePolynomial(2, ())).terms == ()
    with pytest.raises(DimensionMismatchError):
        x_plus_2y * SparsePolynomial.from_terms(3, [((1, 0, 0), 1.0)])


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionMismatchError):
        PolyVectorField.from_lists(2, [[], [], []])
    with pytest.raises(DimensionMismatchError):
        Structure(3, 1, (PolyVectorField.from_lists(2, [[], []]),))


def test_registry_selectors():
    assert make_structure("heisenberg").m == 2
    eucl = make_structure("euclidean:4")
    assert (eucl.n, eucl.m) == (4, 4)
    with pytest.raises(ValueError):
        make_structure("euclidean:0")
    with pytest.raises(ValueError):
        make_structure("euclidean:x")
    with pytest.raises(ValueError):
        make_structure("nope")


#: the Heisenberg structure in the file format shown in the README
HEIS_JSON = {"name": "heisenberg", "dim": 3, "fields": [
    {"components": [[[[0, 0, 0], 1.0]], [], [[[0, 1, 0], -0.5]]]},
    {"components": [[], [[[0, 0, 0], 1.0]], [[[1, 0, 0], 0.5]]]},
]}


def test_structure_json_roundtrip(tmp_path, heis):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(HEIS_JSON))
    assert load_structure(str(path)) == heis


def test_structure_from_dict_rejects_empty():
    with pytest.raises(ValueError):
        structure_from_dict({"name": "", "dim": 2, "fields": []})


def test_euclidean_hamiltonian(eucl3):
    rng = np.random.default_rng(5)
    z = rng.uniform(-2, 2, 6)
    assert eucl3.hamiltonian_raw(z[:3], z[3:]) == pytest.approx(0.5 * z[3:] @ z[3:])
