"""Sub-Riemannian structures on R^n given by polynomial generating families.

A structure is a family of m polynomial vector fields X_1..X_m in a single
global chart.  The fiber-quadratic Hamiltonian

    H(q, p) = 1/2 * sum_k h_k(q, p)^2,      h_k(q, p) = <p, X_k(q)>,

is itself polynomial in (q, p), so its gradient and Hessian are evaluated by
exact polynomial differentiation; no numerical differentiation enters the
geodesic or variational flow.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError

Term = tuple[tuple[int, ...], float]

#: the jet table's column count is a multiple of this (see ``_JetTable``); it
#: covers the register blocks (4 to 16 doubles) of the usual BLAS kernels
_COLUMN_BLOCK = 16


def _integral(value, what: str) -> int:
    """``value`` as an int; a float with a fractional part (or a non-finite
    one) is refused rather than truncated."""
    if not float(value).is_integer():
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def _canonical_terms(nvars: int, terms) -> tuple[Term, ...]:
    acc: dict[tuple[int, ...], float] = {}
    for expo, coef in terms:
        expo = tuple(_integral(e, "exponent") for e in expo)
        if len(expo) != nvars:
            raise ValueError(f"multi-index {expo} has length {len(expo)}, expected {nvars}")
        if any(e < 0 for e in expo):
            raise ValueError(f"multi-index {expo} has a negative entry")
        coef = float(coef)
        if not math.isfinite(coef):
            raise ValueError("non-finite coefficient")
        acc[expo] = acc.get(expo, 0.0) + coef
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0.0))


class SparsePolynomial(NamedTuple):
    """Polynomial in ``nvars`` variables, stored as sorted (multi-index, coeff) terms.

    Terms are merged and zero coefficients dropped at construction, so equal
    polynomials compare equal and evaluation order is deterministic.  A
    NamedTuple rather than a dataclass: it validates nothing, and its class
    costs about 0.1 ms to create at import, a frozen dataclass's about 1 ms.
    """

    nvars: int
    terms: tuple[Term, ...]

    @staticmethod
    def from_terms(nvars: int, terms) -> "SparsePolynomial":
        return SparsePolynomial(nvars, _canonical_terms(nvars, terms))

    def diff(self, j: int) -> "SparsePolynomial":
        """Exact partial derivative with respect to variable ``j``."""
        out = []
        for expo, coef in self.terms:
            if expo[j] == 0:
                continue
            new = list(expo)
            new[j] -= 1
            out.append((tuple(new), coef * expo[j]))
        return SparsePolynomial.from_terms(self.nvars, out)

    def _same_vars(self, other: "SparsePolynomial") -> None:
        if other.nvars != self.nvars:
            raise DimensionMismatchError(
                f"polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._same_vars(other)
        return SparsePolynomial.from_terms(self.nvars, self.terms + other.terms)

    def __mul__(self, other) -> "SparsePolynomial":
        """Exact product with another polynomial in the same variables or a scalar."""
        if not isinstance(other, SparsePolynomial):
            return SparsePolynomial.from_terms(
                self.nvars, [(expo, coef * other) for expo, coef in self.terms])
        self._same_vars(other)
        return SparsePolynomial.from_terms(self.nvars, [
            (tuple(a + b for a, b in zip(ea, eb)), ca * cb)
            for ea, ca in self.terms for eb, cb in other.terms])

    __rmul__ = __mul__


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field on R^n with polynomial components."""

    n: int
    components: tuple[SparsePolynomial, ...]

    def __post_init__(self):
        if len(self.components) != self.n:
            raise DimensionMismatchError(
                f"field with {len(self.components)} components on R^{self.n}")
        for comp in self.components:
            if comp.nvars != self.n:
                raise DimensionMismatchError("component has wrong number of variables")

    @staticmethod
    def from_lists(n: int, components: Sequence) -> "PolyVectorField":
        return PolyVectorField(n, tuple(SparsePolynomial.from_terms(n, c) for c in components))


def _momentum_polynomial(field: PolyVectorField) -> SparsePolynomial:
    """h(q, p) = <p, X(q)> as a polynomial in the 2n phase variables (q, p)."""
    n = field.n
    terms = []
    for i, comp in enumerate(field.components):
        p_i = tuple(int(j == i) for j in range(n))
        terms += [(expo + p_i, coef) for expo, coef in comp.terms]
    return SparsePolynomial.from_terms(2 * n, terms)


class _JetTable:
    """One monomial table for the momenta and the exact jet of H in z = (q, p).

    ``H = 1/2 sum_k h_k^2`` is expanded into one polynomial in the 2n phase
    variables and differentiated exactly.  The table's columns are the momenta
    h_1..h_m, H, the Hamiltonian field ``J grad H`` (2n) and ``S = J Hess H``
    (4n^2, row-major), with ``J = [[0, I], [-I, 0]]`` in (q, p) order folded
    in: J only permutes and negates, so every entry of J grad H is +-dH/dz_j
    and every entry of S is +-d^2H/dz_j dz_l, with exactly negated
    coefficients.  Both entries of a Hessian pair take the one polynomial
    d^2H/dz_j dz_l (l >= j), up to sign, and round alike (see the padding
    below), so ``-J S`` is exactly symmetric.  Every column is a coefficient
    vector over one shared list of monomials, so all of them come out of one
    matrix product at any batch size, and each output is a view of it.
    """

    def __init__(self, struct: "Structure"):
        n, d = struct.n, 2 * struct.n
        momenta = [_momentum_polynomial(field) for field in struct.fields]
        ham = 0.5 * sum((h * h for h in momenta), SparsePolynomial(d, ()))
        grad = [ham.diff(j) for j in range(d)]
        hess = {(j, l): grad[j].diff(l) for j in range(d) for l in range(j, d)}
        # row i of J: +e_{n+i} for i < n, -e_{i-n} for i >= n
        j_rows = [(n + i, 1.0) for i in range(n)] + [(i, -1.0) for i in range(n)]
        columns = ([(poly, 1.0) for poly in momenta + [ham]]
                   + [(grad[j], sign) for j, sign in j_rows]
                   + [(hess[min(j, l), max(j, l)], sign) for j, sign in j_rows
                      for l in range(d)])

        monomials = sorted({expo for poly, _ in columns for expo, _ in poly.terms})
        row_of = {expo: r for r, expo in enumerate(monomials)}
        # zero columns pad the table to a multiple of _COLUMN_BLOCK, so that no
        # column falls into a BLAS kernel's remainder loop: every column is
        # then summed by the same code, and the two entries of a Hessian pair
        # (equal or negated coefficients) round alike
        width = -(-len(columns) // _COLUMN_BLOCK) * _COLUMN_BLOCK
        self.coefs = np.zeros((len(monomials), width))
        for col, (poly, sign) in enumerate(columns):
            for expo, coef in poly.terms:
                self.coefs[row_of[expo], col] = sign * coef
        top = max((max(expo) for expo in monomials), default=0)
        # monomial r is the product over w of powers.reshape(-1, B)[gather[w, r]],
        # where powers[e, j] = z_j^e (batch last); entry 0 (z_0^0 = 1) pads the
        # short monomials, and a constant monomial is one such padding factor
        factors = [[e * d + j for j, e in enumerate(expo) if e] for expo in monomials]
        most = max([1, *map(len, factors)])
        self.gather = np.array([f + [0] * (most - len(f)) for f in factors],
                               dtype=np.int64).reshape(len(monomials), most).T.copy()
        self.exponents = max(top, 1) + 1
        self.m, self.d = struct.m, d

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Every column at the rows of ``z`` (B, 2n), as one (B, columns) array.

        The batch is the last axis of the power table and of the gathered
        factors, so each multiply, and the one reduce over the factors, runs
        over whole rows of B at every batch size."""
        powers = np.empty((self.exponents, self.d, z.shape[0]))
        powers[0] = 1.0
        powers[1] = z.T
        for e in range(2, self.exponents):
            np.multiply(powers[e - 1], powers[1], out=powers[e])
        factors = powers.reshape(-1, z.shape[0]).take(self.gather, axis=0)
        return np.multiply.reduce(factors, axis=0).T.dot(self.coefs)

    def jet(self, z: np.ndarray):
        """H (B,), the field J grad H (B, 2n) and S = J Hess H (B, 2n, 2n) at
        the rows of ``z``, as views of one ``evaluate``."""
        b, d, m = z.shape[0], self.d, self.m
        flat = self.evaluate(z)
        return (flat[:, m], flat[:, m + 1:m + 1 + d],
                flat[:, m + 1 + d:m + 1 + d + d * d].reshape(b, d, d))


@dataclass(frozen=True)
class Structure:
    """Free sub-Riemannian structure: m polynomial fields on R^n plus the
    Euclidean metric on the controls."""

    n: int
    m: int
    fields: tuple[PolyVectorField, ...]
    name: str | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if len(self.fields) != self.m:
            raise DimensionMismatchError(f"{len(self.fields)} fields, m = {self.m}")
        for field in self.fields:
            if field.n != self.n:
                raise DimensionMismatchError("field dimension differs from structure dimension")

    @cached_property
    def _table(self) -> _JetTable:
        return _JetTable(self)

    # raw-array entry points used by the integrators (hot path)

    def hamiltonian_raw(self, q: np.ndarray, p: np.ndarray) -> float:
        """H = 1/2 sum_k h_k^2 at (q, p), from the momenta h_k; always >= 0."""
        h = self._table.evaluate(np.concatenate([q, p])[None])[0, :self.m]
        return 0.5 * float(h @ h)

    def jet_raw(self, q: np.ndarray, p: np.ndarray):
        """Value, gradient pieces and Hessian blocks of H at (q, p).

        Returns ``(value, gq, gp, hqq, hqp, hpp)`` with hqq, hpp exactly
        symmetric; the full Hessian in (q, p) order is
        ``[[hqq, hqp], [hqp.T, hpp]]``.  They are read back exactly off the
        folded table: grad H = -J (J grad H) and Hess H = -J S.
        """
        values, field, s_mat = self._table.jet(np.concatenate([q, p])[None])
        n = self.n
        return (float(values[0]), -field[0, n:], field[0, :n],
                -s_mat[0, n:, :n], -s_mat[0, n:, n:], s_mat[0, :n, n:])

    def jet_raw_batch(self, z: np.ndarray):
        """Batched Hamiltonian jet over the (B, 2n) phase rows z = (q, p).

        Returns ``(values (B,), field (B, 2n), S (B, 2n, 2n))`` in (q, p)
        order: H, the Hamiltonian field ``J grad H = (dH/dp, -dH/dq)`` and
        ``S = J Hess H``, the matrix of the variational equation, with
        ``J = [[0, I], [-I, 0]]``.  J is folded into the monomial table, so
        both are exact and ``-J S`` is the exactly symmetric Hessian.  The
        arrays are views of one matrix product; ``z`` may be a strided view.
        """
        return self._table.jet(z)


# ---------------------------------------------------------------------------
# built-in registry and file format

def heisenberg_structure() -> Structure:
    """The Heisenberg group structure on R^3:
    X1 = d/dx - (y/2) d/dtau, X2 = d/dy + (x/2) d/dtau."""
    x1 = PolyVectorField.from_lists(3, [
        [((0, 0, 0), 1.0)],
        [],
        [((0, 1, 0), -0.5)],
    ])
    x2 = PolyVectorField.from_lists(3, [
        [],
        [((0, 0, 0), 1.0)],
        [((1, 0, 0), 0.5)],
    ])
    return Structure(3, 2, (x1, x2), name="heisenberg")


def euclidean_structure(n: int) -> Structure:
    """Degenerate Riemannian sanity case: X_k = d/dq_k, H = |p|^2 / 2."""
    fields = []
    for k in range(n):
        comps = [[] for _ in range(n)]
        comps[k] = [((0,) * n, 1.0)]
        fields.append(PolyVectorField.from_lists(n, comps))
    return Structure(n, n, tuple(fields), name=f"euclidean:{n}")


def make_structure(selector: str) -> Structure:
    """Resolve a registry name: ``heisenberg`` or ``euclidean:n``."""
    if selector == "heisenberg":
        return heisenberg_structure()
    if selector.startswith("euclidean:"):
        try:
            n = int(selector.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad euclidean selector {selector!r}") from None
        if n < 1:
            raise ValueError("euclidean dimension must be >= 1")
        return euclidean_structure(n)
    raise ValueError(f"unknown structure {selector!r}")


def structure_from_dict(data: dict) -> Structure:
    n = _integral(data["dim"], "dim")
    fields = tuple(
        PolyVectorField.from_lists(n, entry["components"])
        for entry in data["fields"]
    )
    if not fields:
        raise ValueError("structure file declares no fields")
    return Structure(n, len(fields), fields, name=data.get("name") or None)


def load_structure(path: str) -> Structure:
    with open(path, "r", encoding="utf-8") as fh:
        return structure_from_dict(json.load(fh))
