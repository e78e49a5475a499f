"""Indicator-function algebra for fractions of a full factorial design.

Central objects, all exact:

* the exponent lattice L (one exponent per factor, below the arity) and
  the m x m model matrix X of monomial evaluations at the runs, which is
  the Kronecker product of one small Vandermonde matrix V_j per factor,
  so X v and X^{-1} v are n exact mode products, and X and X^{-1} scale
  to integer matrices factor by factor (scaled_model_matrix);
* the indicator polynomial of a fraction, with coefficient vector
  theta = X^{-1} y for the 0/1 membership vector y;
* the contrast matrix C and the linear system 1'X theta = s,
  C_l X theta = 0 (l = 1..t) characterizing fractions of size s with
  orthogonality strength t.

verify_theta_report reads every check from the values at the runs
v = X theta.  theta is idempotent (theta = mu(theta), the reduced square
of the polynomial) iff v is in {0, 1}^m, because mu(theta) =
X^{-1} (v o v) and X is invertible; the size and contrast rows
[1; C] X theta are [1; C] v.

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

from .designs import Design, FactorSpec, FullFactorial
from .linalg import Matrix
from .polynomials import Polynomial, reduce_to_standard_form


class NotAnIndicatorError(ValueError):
    """A polynomial evaluated to something outside {0, 1} on the ambient."""


class InconsistentSystemError(ValueError):
    """A linear system reduced to 0 = nonzero."""


@lru_cache(maxsize=None)
def exponent_lattice(ambient: FullFactorial) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with e_j < r_j, in canonical (last fastest) order."""
    return tuple(itertools.product(*(range(r) for r in ambient.radices)))


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


def _scaled_mode_products(ambient: FullFactorial, v: Sequence, inverse: bool) -> tuple[np.ndarray, int]:
    """prod_j V_j (or V_j^{-1}) applied along mode j of v, exactly: integer
    numerators (a flat object array of Python ints) over one positive denominator.
    The per-factor integer matrices act on Python ints; the scales multiply the
    denominator."""
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
    return t.ravel(), den


def _mode_products(ambient: FullFactorial, v: Sequence, inverse: bool) -> tuple[Fraction, ...]:
    nums, den = _scaled_mode_products(ambient, v, inverse)
    return tuple(Fraction(int(x), den) for x in nums)


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


def _values_at_runs(poly: Polynomial, ambient: FullFactorial) -> tuple[np.ndarray, int, int | None]:
    """X theta as integer numerators over one positive denominator, and the
    first run whose value is not 0 or 1 (None iff the polynomial is 0/1-valued)."""
    nums, den = _scaled_mode_products(ambient, theta_vector(poly, ambient), inverse=False)
    bad = next((i for i, v in enumerate(nums) if v != 0 and v != den), None)
    return nums, den, bad


def design_from_indicator(poly: Polynomial, ambient: FullFactorial) -> Design:
    """Total inverse of indicator_from_design for standard-form polynomials."""
    nums, den, bad = _values_at_runs(poly, ambient)
    if bad is not None:
        raise NotAnIndicatorError(f"value {Fraction(nums[bad], den)} at run {bad} is not 0 or 1")
    return Design(ambient, tuple(i for i, v in enumerate(nums) if v))


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


@lru_cache(maxsize=None)
def _contrast_rows(ambient: FullFactorial) -> np.ndarray:
    """[1'; C_1; ...; C_n] as a read-only object array of the ints -1, 0 and 1;
    rows follow build_contrast_matrix's row_labels."""
    m = ambient.run_count
    stacked = [[1] * m] + [
        [int(v) for v in row] for block in build_contrast_matrix(ambient).blocks for row in block
    ]
    rows = np.array(stacked, dtype=object)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def scaled_contrast_rows(ambient: FullFactorial) -> np.ndarray:
    """[1'; C_1; ...; C_n] A as a read-only object array of Python ints, where
    A / d = X (scaled_model_matrix); rows follow build_contrast_matrix's row_labels."""
    rows = _contrast_rows(ambient) @ scaled_model_matrix(ambient, inverse=False)[0]
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


def verify_theta_report(
    poly: Polynomial, ambient: FullFactorial, size: int, strength: int
) -> dict[str, bool]:
    """Per-check results: idempotency, the size row, each contrast block.

    All are read from v = X theta (see the module docstring): idempotency is
    v in {0, 1}^m, the size row is sum(v) == size and block k is C_k v == 0.
    """
    nums, den, bad = _values_at_runs(poly, ambient)
    if not 1 <= strength <= ambient.n_factors:
        raise ValueError("strength out of range")
    sizes = build_contrast_matrix(ambient).block_sizes()[:strength]
    sums = _contrast_rows(ambient)[: 1 + sum(sizes)] @ nums
    report = {"idempotency": bad is None, "size": sums[0] == size * den}
    start = 1
    for k, n_rows in enumerate(sizes, 1):
        report[f"contrast[{k}]"] = not any(sums[start : start + n_rows])
        start += n_rows
    return report


def verify_theta(poly: Polynomial, ambient: FullFactorial, size: int, strength: int) -> bool:
    """True iff the polynomial is the indicator of an orthogonal fraction of
    that size and strength: theta is idempotent and satisfies the size and
    contrast rows."""
    return all(verify_theta_report(poly, ambient, size, strength).values())
