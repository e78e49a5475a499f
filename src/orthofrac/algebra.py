"""Indicator-function algebra for fractions of a full factorial design.

Central objects, all exact:

* the exponent lattice L (one exponent per factor, below the arity) and
  the m x m model matrix X of monomial evaluations at the runs, which is
  the Kronecker product of one small Vandermonde matrix V_j per factor,
  so X v and X^{-1} v are n exact mode products, and X and X^{-1} scale
  to integer matrices factor by factor (scaled_model_matrix);
* the indicator polynomial of a fraction, with coefficient vector
  theta = X^{-1} y for the 0/1 membership vector y;
* the quadratic idempotency system theta_a = mu_a(theta) obtained by
  squaring the generic lattice polynomial and reducing to standard form
  (a coefficient vector satisfies it iff the polynomial is 0/1-valued on
  the whole ambient);
* the contrast matrix C and the linear system 1'X theta = s,
  C_l X theta = 0 (l = 1..t) characterizing fractions of size s with
  orthogonality strength t.

Everything derived from an ambient is cached on the (hashable) ambient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Sequence

import numpy as np

from .designs import Design, FactorSpec, FullFactorial, all_points
from .linalg import Matrix
from .polynomials import Polynomial, reduce_to_standard_form, _power_table


class NotAnIndicatorError(ValueError):
    """A polynomial evaluated to something outside {0, 1} on the ambient."""


class InconsistentSystemError(ValueError):
    """A linear system reduced to 0 = nonzero."""


@lru_cache(maxsize=None)
def exponent_lattice(ambient: FullFactorial) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with e_j < r_j, in canonical (last fastest) order."""
    return tuple(itertools.product(*(range(r) for r in ambient.radices)))


@lru_cache(maxsize=None)
def build_model_matrix(ambient: FullFactorial) -> Matrix:
    """X[i, a] = product_j level_{ij}^{a_j}; rows in run order, columns in lattice order.

    Evaluated directly at the points, independently of the Kronecker
    factors: the tests' reference for scaled_model_matrix and the mode products.
    """
    lattice = exponent_lattice(ambient)
    rows = []
    for pt in all_points(ambient):
        powers = [
            [v**e for e in range(r)]
            for v, r in zip(pt, ambient.radices)
        ]
        rows.append([prod(p[e] for p, e in zip(powers, a)) for a in lattice])
    return Matrix(rows)


@lru_cache(maxsize=None)
def model_matrix_inverse(ambient: FullFactorial) -> Matrix:
    """X^{-1} by rational Gauss-Jordan elimination: the tests' reference."""
    return build_model_matrix(ambient).inverse()


def theta_vector(poly: Polynomial, ambient: FullFactorial) -> tuple[Fraction, ...]:
    """Coefficient vector of a standard-form polynomial in lattice order."""
    if not poly.in_lattice(ambient):
        raise ValueError("polynomial is not in standard form for this ambient")
    return tuple(poly.coefficient(a) for a in exponent_lattice(ambient))


def polynomial_from_theta(theta: Sequence[Fraction], ambient: FullFactorial) -> Polynomial:
    lattice = exponent_lattice(ambient)
    if len(theta) != len(lattice):
        raise ValueError("coefficient vector length mismatch")
    return Polynomial(ambient.n_factors, dict(zip(lattice, map(Fraction, theta))))


@lru_cache(maxsize=None)
def _factor_matrix(factor: FactorSpec, inverse: bool) -> tuple[np.ndarray, int]:
    """(A, d) with A / d = V or V^{-1}, where V[l, e] = level_l^e and A holds Python ints."""
    matrix = Matrix([[v**e for e in range(factor.arity)] for v in factor.levels])
    if inverse:
        matrix = matrix.inverse()
    scale = lcm(*(x.denominator for row in matrix for x in row))
    return np.array([[int(x * scale) for x in row] for row in matrix], dtype=object), scale


@lru_cache(maxsize=None)
def scaled_model_matrix(ambient: FullFactorial, inverse: bool) -> tuple[np.ndarray, int]:
    """(A, d) with A / d = X or X^{-1} exactly: A is the Kronecker product of the
    per-factor integer matrices, a read-only object array of Python ints."""
    a, d = np.ones((1, 1), dtype=object), 1
    for factor in ambient.factors:
        f, scale = _factor_matrix(factor, inverse)
        a, d = np.kron(a, f), d * scale
    a.flags.writeable = False
    return a, d


def _mode_products(ambient: FullFactorial, v: Sequence, inverse: bool) -> tuple[Fraction, ...]:
    """prod_j V_j (or V_j^{-1}) applied along mode j of v, exactly: the per-factor
    integer matrices act on Python ints and the scales divide once at the end."""
    radices = ambient.radices
    if len(v) != prod(radices):
        raise ValueError("vector length mismatch")
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    t = np.array([x.numerator * (den // x.denominator) for x in v], dtype=object).reshape(radices)
    for j, factor in enumerate(ambient.factors):
        a, scale = _factor_matrix(factor, inverse)
        t = np.moveaxis(np.tensordot(a, t, axes=([1], [j])), 0, j)
        den *= scale
    return tuple(Fraction(int(x), den) for x in t.ravel())


def mul_model_matrix(ambient: FullFactorial, theta: Sequence) -> tuple[Fraction, ...]:
    """X theta, the values at the runs of the lattice polynomial with coefficients theta."""
    return _mode_products(ambient, theta, inverse=False)


def mul_model_inverse(ambient: FullFactorial, values: Sequence) -> tuple[Fraction, ...]:
    """X^{-1} values, the coefficients of the lattice polynomial taking these values at the runs."""
    return _mode_products(ambient, values, inverse=True)


def indicator_from_design(design: Design) -> Polynomial:
    """The unique lattice polynomial equal to 1 on the fraction and 0 elsewhere."""
    theta = mul_model_inverse(design.ambient, design.membership())
    return polynomial_from_theta(theta, design.ambient)


def design_from_indicator(poly: Polynomial, ambient: FullFactorial) -> Design:
    """Total inverse of indicator_from_design for standard-form polynomials."""
    values = mul_model_matrix(ambient, theta_vector(poly, ambient))
    for i, value in enumerate(values):
        if value != 0 and value != 1:
            raise NotAnIndicatorError(f"value {value} at run {i} is not 0 or 1")
    return Design(ambient, tuple(i for i, value in enumerate(values) if value == 1))


# ---------------------------------------------------------------------------
# Contrast matrix and the linear orthogonality system


@dataclass(frozen=True)
class ContrastMatrix:
    """All-ones row followed by level-contrast blocks C_1..C_n.

    Block C_k has one row per (factor subset J of size k, pinned index
    vector): the row is +1 on runs whose J-coordinates hit the pinned
    cell with last coordinate at level index 0, -1 on the same cell with
    the last coordinate moved, 0 elsewhere.  Row order: J lexicographic,
    then pin vectors lexicographic.
    """

    ambient: FullFactorial
    blocks: tuple[Matrix, ...]
    row_labels: tuple[tuple, ...]

    def block(self, k: int) -> Matrix:
        if not 1 <= k <= len(self.blocks):
            raise ValueError(f"block index must be in 1..{len(self.blocks)}")
        return self.blocks[k - 1]

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.rows for b in self.blocks)

    def stacked(self) -> Matrix:
        m = self.ambient.run_count
        out = Matrix([[Fraction(1)] * m])
        for b in self.blocks:
            if b.rows:
                out = out.vstack(b)
        return out


def expected_block_size(ambient: FullFactorial, k: int) -> int:
    """v_k = sum over size-k factor subsets of prod (r_j - 1)."""
    radices = ambient.radices
    return sum(
        prod(radices[j] - 1 for j in subset)
        for subset in itertools.combinations(range(len(radices)), k)
    )


@lru_cache(maxsize=None)
def build_contrast_matrix(ambient: FullFactorial) -> ContrastMatrix:
    n = ambient.n_factors
    radices = ambient.radices
    m = ambient.run_count
    index_vectors = [ambient.decode(i) for i in range(m)]
    blocks = []
    labels: list[tuple] = [("size",)]
    for k in range(1, n + 1):
        rows = []
        for subset in itertools.combinations(range(n), k):
            pin_ranges = [range(radices[j] - 1) for j in subset[:-1]]
            last = subset[-1]
            for pins in itertools.product(*pin_ranges):
                for v in range(1, radices[last]):
                    # Pins fix the leading J-coordinates (level indices
                    # 0..r-2); the row compares the last J-coordinate at
                    # level index 0 against level index v.
                    row = [Fraction(0)] * m
                    for i, iv in enumerate(index_vectors):
                        if any(iv[j] != p for j, p in zip(subset[:-1], pins)):
                            continue
                        if iv[last] == 0:
                            row[i] = Fraction(1)
                        elif iv[last] == v:
                            row[i] = Fraction(-1)
                    rows.append(row)
                    labels.append(("contrast", k, subset, pins + (v,)))
        blocks.append(Matrix(rows) if rows else Matrix([]))
    return ContrastMatrix(ambient, tuple(blocks), tuple(labels))


@dataclass(frozen=True)
class LinearSystem:
    """Rows of exact linear constraints on theta: coeffs @ theta = constants."""

    coeffs: Matrix
    constants: tuple[Fraction, ...]
    tags: tuple[tuple, ...]

    @property
    def n_rows(self) -> int:
        return self.coeffs.rows

    def residuals(self, theta: Sequence[Fraction]) -> tuple[Fraction, ...]:
        lhs = self.coeffs.mul_vec(theta)
        return tuple(a - b for a, b in zip(lhs, self.constants))

    def satisfied_by(self, theta: Sequence[Fraction]) -> bool:
        return all(r == 0 for r in self.residuals(theta))


@lru_cache(maxsize=None)
def scaled_contrast_rows(ambient: FullFactorial) -> np.ndarray:
    """[1'; C_1; ...; C_n] A as a read-only object array of Python ints, where
    A / d = X (scaled_model_matrix); rows follow build_contrast_matrix's row_labels."""
    m = ambient.run_count
    # Contrast entries are -1, 0 or 1, so they convert without scaling.
    stacked = [[1] * m] + [
        [int(v) for v in row] for block in build_contrast_matrix(ambient).blocks for row in block
    ]
    rows = np.array(stacked, dtype=object) @ scaled_model_matrix(ambient, inverse=False)[0]
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def orthogonality_system(ambient: FullFactorial, size: int, strength: int) -> LinearSystem:
    """1'X theta = size plus C_l X theta = 0 for l = 1..strength.

    A standard-form polynomial's coefficient vector satisfies this system
    iff its design has the given size and strength.
    """
    if not 1 <= strength <= ambient.n_factors:
        raise ValueError("strength out of range")
    contrast = build_contrast_matrix(ambient)
    n_rows = 1 + sum(contrast.block_sizes()[:strength])
    d = scaled_model_matrix(ambient, inverse=False)[1]
    rows = scaled_contrast_rows(ambient)[:n_rows]
    coeffs = Matrix([[Fraction(v, d) for v in row] for row in rows])
    constants = (Fraction(size),) + (Fraction(0),) * (n_rows - 1)
    return LinearSystem(coeffs, constants, contrast.row_labels[:n_rows])


@dataclass(frozen=True)
class AffineExpression:
    """constant + sum(coeffs[j] * theta_j) over free variables."""

    constant: Fraction
    coeffs: tuple[tuple[int, Fraction], ...]

    def evaluate(self, values: dict[int, Fraction]) -> Fraction:
        return self.constant + sum(c * values[j] for j, c in self.coeffs)


@dataclass(frozen=True)
class Preprocessed:
    """Result of exact linear elimination on a constraint system."""

    eliminated: dict[int, AffineExpression]
    free_variables: tuple[int, ...]

    @property
    def n_free(self) -> int:
        return len(self.free_variables)

    @property
    def n_eliminated(self) -> int:
        return len(self.eliminated)


def linear_preprocess(system: LinearSystem) -> Preprocessed:
    """Express each pivot variable affinely in the free variables via exact RREF."""
    n_vars = system.coeffs.cols
    augmented = system.coeffs.hstack(Matrix([[c] for c in system.constants]))
    reduced, rank, pivots = augmented.rref()
    if n_vars in pivots:
        raise InconsistentSystemError("system reduces to 0 = nonzero")
    pivot_set = set(pivots)
    free = tuple(j for j in range(n_vars) if j not in pivot_set)
    eliminated: dict[int, AffineExpression] = {}
    for row_idx, pivot_col in enumerate(pivots):
        row = reduced.row(row_idx)
        coeffs = tuple(
            (j, -row[j]) for j in free if row[j] != 0
        )
        eliminated[pivot_col] = AffineExpression(row[n_vars], coeffs)
    return Preprocessed(eliminated, free)


# ---------------------------------------------------------------------------
# Quadratic idempotency system


@dataclass(frozen=True)
class QuadraticEquation:
    """theta_target = sum over unordered pairs of coeff * theta_a1 * theta_a2.

    Off-diagonal pairs carry doubled coefficients so the unordered form is
    canonical.
    """

    target: tuple[int, ...]
    form: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], Fraction], ...]

    def residual(self, theta: dict[tuple[int, ...], Fraction]) -> Fraction:
        zero = Fraction(0)
        total = Fraction(0)
        for (a1, a2), coeff in self.form:
            t1 = theta.get(a1, zero)
            if t1 == 0:
                continue
            t2 = theta.get(a2, zero)
            if t2 == 0:
                continue
            total += coeff * t1 * t2
        return theta.get(self.target, zero) - total


@lru_cache(maxsize=None)
def idempotency_system(ambient: FullFactorial) -> tuple[QuadraticEquation, ...]:
    """One equation per lattice exponent; satisfied iff the polynomial is 0/1 on D.

    Built in one pass over unordered exponent pairs: the product monomial
    x^{a1+a2} is reduced to the standard basis once, and its coefficients
    are scattered into the per-target quadratic forms.
    """
    lattice = exponent_lattice(ambient)
    factors = ambient.factors
    radices = ambient.radices
    tables = [
        _power_table(f, 2 * (r - 1))
        for f, r in zip(factors, radices)
    ]
    forms: dict[tuple[int, ...], dict[tuple, Fraction]] = {a: {} for a in lattice}
    for i1, a1 in enumerate(lattice):
        for a2 in lattice[i1:]:
            weight = 1 if a1 == a2 else 2
            # Expand prod_j reduction of x_j^{a1_j + a2_j} over target exponents.
            partial: dict[tuple[int, ...], Fraction] = {(): Fraction(weight)}
            for j in range(len(radices)):
                row = tables[j][a1[j] + a2[j]]
                nxt: dict[tuple[int, ...], Fraction] = {}
                for prefix, c in partial.items():
                    for k, ck in enumerate(row):
                        if ck:
                            nxt[prefix + (k,)] = nxt.get(prefix + (k,), Fraction(0)) + c * ck
                partial = nxt
            key = (a1, a2)
            for target, coeff in partial.items():
                if coeff:
                    forms[target][key] = forms[target].get(key, Fraction(0)) + coeff
    return tuple(
        QuadraticEquation(target, tuple(sorted(form.items())))
        for target, form in forms.items()
    )


def satisfies_idempotency(poly: Polynomial, ambient: FullFactorial) -> bool:
    theta = {a: c for a, c in poly.items()}
    return all(eq.residual(theta) == 0 for eq in idempotency_system(ambient))


def verify_theta_report(
    poly: Polynomial, ambient: FullFactorial, size: int, strength: int
) -> dict[str, bool]:
    """Per-check results: the idempotency system, the size row, each contrast block."""
    if not poly.in_lattice(ambient):
        raise ValueError("polynomial is not in standard form for this ambient")
    report: dict[str, bool] = {}
    report["idempotency"] = satisfies_idempotency(poly, ambient)
    theta = theta_vector(poly, ambient)
    system = orthogonality_system(ambient, size, strength)
    residuals = system.residuals(theta)
    report["size"] = residuals[0] == 0
    for k in range(1, strength + 1):
        ok = all(
            r == 0
            for r, tag in zip(residuals, system.tags)
            if tag[0] == "contrast" and tag[1] == k
        )
        report[f"contrast[{k}]"] = ok
    return report


def verify_theta(poly: Polynomial, ambient: FullFactorial, size: int, strength: int) -> bool:
    """True iff the coefficients satisfy both the idempotency system and the
    size/strength linear system, i.e. the polynomial is the indicator of an
    orthogonal fraction of that size and strength."""
    return all(verify_theta_report(poly, ambient, size, strength).values())
