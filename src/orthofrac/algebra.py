"""Indicator-function algebra for fractions of a full factorial design.

Central objects, all exact:

* the exponent lattice L (one exponent per factor, below the arity) and
  the m x m model matrix X of monomial evaluations at the runs, which is
  the Kronecker product of one small Vandermonde matrix V_j per factor;
  mode_products applies X or X^{-1} to a batch of integer rows as n
  per-factor integer mode products, in int64 where an exact bound allows
  and in Python ints otherwise, and is the only code that does;
* the indicator polynomial of a fraction, with coefficient vector
  theta = X^{-1} y for the 0/1 membership vector y;
* the contrast rows [1; C] (contrast_rows, int64 -1/0/1) and the linear
  system 1'X theta = s, C_l X theta = 0 (l = 1..t) characterizing
  fractions of size s with orthogonality strength t, as Fraction rows;
* rref, the only exact Gaussian elimination: linear_preprocess reduces the
  system with it, and _factor_matrix takes each V_j^{-1} from it;
* the standard form of any polynomial (reduce_to_standard_form): x_j^e
  reduces to the polynomial of degree below r_j with the values level^e at
  the factor's levels, whose coefficients are V_j^{-1} applied to them.

value_checks reads every check from the values at the runs v = X theta.
theta is idempotent (theta = mu(theta), the reduced square of the
polynomial) iff v is in {0, 1}^m, because mu(theta) = X^{-1} (v o v) and
X is invertible; the size and contrast rows [1; C] X theta are [1; C] v.
So the check is "v is 0/1 and [1; C] v = [s; 0]".

There is one set of rows, contrast_rows, summed two ways.
verify_theta_report computes v for one polynomial as integer numerators
over a denominator, sums the rows by contrast_sums, an integer product,
and decides them by contrast_checks.  The batch cross-check
(fastcheck.BatchChecker) reads the designs' keys: for theta = X^{-1} y the
values X theta are y, the key's bits, which are 0/1 by construction; the
rows, of -1, 0 and 1, sum over them through per-octet tables
(designs.octet_sums), and one compare of packed words decides every
block of contrast_checks at once.

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

from . import designs
from .designs import Design, FactorSpec, FullFactorial, ProblemTooLargeError
from .polynomials import _ZERO, Polynomial


class NotAnIndicatorError(ValueError):
    """A polynomial evaluated to something outside {0, 1} on the ambient."""


class InconsistentSystemError(ValueError):
    """A linear system reduced to 0 = nonzero."""


@lru_cache(maxsize=None)
def exponent_lattice(ambient: FullFactorial) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with e_j < r_j, in run order: the index vectors."""
    return tuple(map(tuple, ambient.index_vectors.tolist()))


_INT64_SAFE = 2**62


def _exact_dtype(bound: int):
    """int64 when bound, an exact bound on every magnitude formed, is below 2^62;
    Python ints (object) otherwise."""
    return np.int64 if bound < _INT64_SAFE else object


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


@lru_cache(maxsize=None)
def _factor_matrix(factor: FactorSpec, inverse: bool) -> tuple[np.ndarray, int, int]:
    """(A, d, g) with A / d = V or V^{-1}, where V[l, e] = level_l^e, A holds
    Python ints and g is its largest row-abs-sum, so |A u| <= g * max|u|.

    V^{-1} is the right half of rref([V | I]): V is a Vandermonde matrix on
    distinct levels (FactorSpec enforces them), so it is invertible."""
    r = factor.arity
    matrix = [[v**e for e in range(r)] for v in factor.levels]
    if inverse:
        reduced, _ = rref([row + [int(i == j) for j in range(r)] for i, row in enumerate(matrix)])
        matrix = [row[r:] for row in reduced]
    scale = lcm(*(x.denominator for row in matrix for x in row))
    a = np.array([[int(x * scale) for x in row] for row in matrix], dtype=object)
    return a, scale, max(sum(map(abs, row)) for row in a)


@lru_cache(maxsize=None)
def _power_row(factor: FactorSpec, e: int) -> tuple[Fraction, ...]:
    """The coefficients over x^0 .. x^{r-1} of the reduction of x^e: V^{-1}
    applied to the levels' e-th powers (_factor_matrix).

    Raises ProblemTooLargeError, before forming any power, when a level's
    e-th power would take more than designs._CHUNK_BYTES: e times the bit
    length of its |numerator| or denominator passes 8 _CHUNK_BYTES.  The
    powers of levels 0, 1 and -1 stay one bit long."""
    big = [max(abs(v.numerator), v.denominator) for v in factor.levels if v not in (-1, 0, 1)]
    bits = max(big, default=0).bit_length()
    if e * bits > 8 * designs._CHUNK_BYTES:
        raise ProblemTooLargeError(
            f"x^{e} on levels of up to {bits} bits exceeds the {designs._CHUNK_BYTES}-byte budget of a level power"
        )
    a, d, _ = _factor_matrix(factor, inverse=True)
    powers = [v**e for v in factor.levels]
    return tuple(sum(x * v for x, v in zip(row, powers)) / d for row in a.tolist())


def reduce_to_standard_form(poly: Polynomial, ambient: FullFactorial) -> Polynomial:
    """The unique lattice-supported polynomial equal to `poly` on every ambient point."""
    if poly.n_vars != ambient.n_factors:
        raise ValueError("variable count does not match the ambient")
    factors = ambient.factors
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in poly.items():
        # Expand factor by factor; each variable reduces independently.
        partial: dict[tuple[int, ...], Fraction] = {(): coeff}
        for factor, e in zip(factors, exps):
            row = _power_row(factor, e)
            nxt: dict[tuple[int, ...], Fraction] = {}
            for prefix, c in partial.items():
                for k, ck in enumerate(row):
                    if ck:
                        key = prefix + (k,)
                        nxt[key] = nxt.get(key, _ZERO) + c * ck
            partial = nxt
        for key, c in partial.items():
            out[key] = out.get(key, _ZERO) + c
    return Polynomial._trusted(poly.n_vars, {e: c for e, c in out.items() if c})


@lru_cache(maxsize=None)
def _mode_factors(ambient: FullFactorial, inverse: bool) -> tuple[tuple, int]:
    """Per factor of the ambient (A, A64, g) from _factor_matrix, where A64
    is A as int64, or None where g, so possibly an entry, reaches 2^63;
    then the product of the factor scales d."""
    factors = [_factor_matrix(f, inverse) for f in ambient.factors]
    steps = tuple((a, a.astype(np.int64) if g < 2**63 else None, g) for a, _, g in factors)
    return steps, prod(d for _, d, _ in factors)


def mode_products(
    ambient: FullFactorial, rows: np.ndarray, inverse: bool
) -> tuple[np.ndarray, int]:
    """X v (or X^{-1} v) for every row v of a B x m integer array, exactly:
    B x m integer numerators over one positive denominator d.

    X = V_1 (x) ... (x) V_n, so the product is one mode product per factor:
    factor j's integer matrix acts on axis j of each row reshaped to the
    radices, and the factor scales multiply into d.  Each step runs in int64
    when the largest magnitude of its input times the factor's row-abs-sum (a
    bound on every value the step forms) is below 2^62, and on Python ints
    otherwise.  The largest magnitude is measured once and then carried as
    the bound max|out| <= g * max|in|; it is measured again only where the
    carried bound would leave int64, so each step picks the dtype a fresh
    measurement would.  This is the only code that applies X or X^{-1}.
    """
    rows = np.asarray(rows)
    m = ambient.run_count
    if rows.ndim != 2 or rows.shape[1] != m:
        raise ValueError("vector length mismatch")
    batch = len(rows)
    steps, scale = _mode_factors(ambient, inverse)
    bound = _max_abs(rows)
    # rows is rebound at each step, so a temporary input is freed after the first.
    lead, inner = batch, m
    for (a, a64, g), r in zip(steps, ambient.radices):
        if bound * g >= _INT64_SAFE:
            bound = _max_abs(rows)
        if bound * g < _INT64_SAFE and a64 is not None:
            a, dtype = a64, np.int64
        else:
            dtype = object
        inner //= r
        rows = a @ rows.astype(dtype, copy=False).reshape(lead, r, inner)
        lead *= r
        bound *= g
    return rows.reshape(batch, m), scale


@lru_cache(maxsize=None)
def _lattice_index(ambient: FullFactorial) -> dict[tuple[int, ...], int]:
    """The position of each lattice exponent vector in exponent_lattice."""
    return {exps: i for i, exps in enumerate(exponent_lattice(ambient))}


def values_at_runs(poly: Polynomial, ambient: FullFactorial) -> tuple[np.ndarray, int]:
    """X theta, the values at the runs of a standard-form polynomial, as one
    row of integer numerators over one positive denominator."""
    index = _lattice_index(ambient)
    den = lcm(*(c.denominator for _, c in poly.items()))
    nums = [0] * ambient.run_count
    for exps, c in poly.items():
        i = index.get(exps)
        if i is None:
            raise ValueError("polynomial is not in standard form for this ambient")
        nums[i] = c.numerator * (den // c.denominator)
    values, scale = mode_products(ambient, np.array([nums], dtype=object), inverse=False)
    return values, den * scale


def polynomial_from_values(values: np.ndarray, den: int, ambient: FullFactorial) -> list[Polynomial]:
    """The lattice polynomial whose values at the runs are row / den, for
    every row of a B x m array of integer numerators: X^{-1} applied to all
    rows at once, then one Fraction per distinct numerator of a row, shared
    by every coefficient that has it."""
    theta, scale = mode_products(ambient, values, inverse=True)
    den *= scale
    lattice, n = exponent_lattice(ambient), ambient.n_factors
    polys = []
    for row in theta.tolist():
        coeffs = {x: Fraction(x, den) for x in set(row)}
        polys.append(Polynomial._trusted(n, {exps: coeffs[x] for exps, x in zip(lattice, row) if x}))
    return polys


def indicator_from_design(design: Design) -> Polynomial:
    """The unique lattice polynomial equal to 1 on the fraction and 0 elsewhere."""
    return polynomial_from_values(np.array([design.membership()]), 1, design.ambient)[0]


def _off_indicator(values: np.ndarray, den: int) -> np.ndarray:
    """Where values / den is neither 0 nor 1."""
    return (values != 0) & (values != den)


def design_from_indicator(poly: Polynomial, ambient: FullFactorial) -> Design:
    """Total inverse of indicator_from_design for standard-form polynomials."""
    values, den = values_at_runs(poly, ambient)
    bad = np.flatnonzero(_off_indicator(values[0], den))
    if len(bad):
        run = int(bad[0])
        value = Fraction(int(values[0, run]), den)
        raise NotAnIndicatorError(f"value {value} at run {run} is not 0 or 1")
    return Design(ambient, tuple(np.flatnonzero(values[0]).tolist()))


# ---------------------------------------------------------------------------
# Contrast rows and the linear orthogonality system


def expected_block_size(ambient: FullFactorial, k: int) -> int:
    """v_k = sum over size-k factor subsets of prod (r_j - 1)."""
    radices = ambient.radices
    return sum(
        prod(radices[j] - 1 for j in subset)
        for subset in itertools.combinations(range(len(radices)), k)
    )


@lru_cache(maxsize=None)
def _block_starts(ambient: FullFactorial) -> tuple[int, ...]:
    """The first rows of the blocks 1', C_1, ..., C_n of _contrast_rows, then
    its row count: [1'; C_1; ...; C_t] is rows [0, starts[t + 1])."""
    sizes = (expected_block_size(ambient, k) for k in range(1, ambient.n_factors + 1))
    return (0, *itertools.accumulate(sizes, initial=1))


@lru_cache(maxsize=None)
def _contrast_rows(ambient: FullFactorial) -> tuple[np.ndarray, tuple[tuple, ...]]:
    """[1'; C_1; ...; C_n] as a read-only int64 array of -1, 0 and 1, and
    its row labels: ("size",), then ("contrast", k, J, pins + (v,)).

    Block C_k has one row per (factor subset J of size k, pinned index
    vector): the row is +1 on runs whose J-coordinates hit the pinned
    cell with last coordinate at level index 0, -1 on the same cell with
    the last coordinate at level index v, 0 elsewhere.  Row order: J
    lexicographic, then pin vectors lexicographic.
    """
    radices, n, m = ambient.radices, ambient.n_factors, ambient.run_count
    ivs = ambient.index_vectors
    rows = [np.ones(m, dtype=np.int64)]
    labels: list[tuple] = [("size",)]
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            *lead, last = subset
            # Pins fix the leading J-coordinates (level indices 0..r-2).
            for pins in itertools.product(*(range(radices[j] - 1) for j in lead)):
                pinned = np.all(ivs[:, lead] == np.array(pins, dtype=np.int64), axis=1)
                base = pinned & (ivs[:, last] == 0)
                for v in range(1, radices[last]):
                    rows.append(base.astype(np.int64) - (pinned & (ivs[:, last] == v)))
                    labels.append(("contrast", k, subset, pins + (v,)))
    table = np.array(rows, dtype=np.int64)
    table.flags.writeable = False
    return table, tuple(labels)


@dataclass(frozen=True)
class LinearSystem:
    """Exact linear constraints on theta, one Fraction row of coeffs per
    constraint: coeffs theta = constants."""

    coeffs: tuple[tuple[Fraction, ...], ...]
    constants: tuple[Fraction, ...]
    tags: tuple[tuple, ...]

    @property
    def n_rows(self) -> int:
        return len(self.coeffs)


def contrast_rows(ambient: FullFactorial, strength: int) -> np.ndarray:
    """[1'; C_1; ...; C_strength]: the leading rows of _contrast_rows (one
    per row label), a read-only int64 array of -1, 0 and 1 with at most m
    rows.  These are the package's only contrast rows."""
    if not 1 <= strength <= ambient.n_factors:
        raise ValueError("strength out of range")
    return _contrast_rows(ambient)[0][: _block_starts(ambient)[strength + 1]]


def contrast_sums(ambient: FullFactorial, values: np.ndarray, strength: int) -> np.ndarray:
    """contrast_rows applied to every row of a B x m integer array, exactly:
    one column per row.

    int64 when max|value| * m (the all-ones row has the largest row-abs-sum)
    is below 2^62, Python ints otherwise.
    """
    rows = contrast_rows(ambient, strength).T
    dtype = _exact_dtype(_max_abs(values) * ambient.run_count)
    return values.astype(dtype, copy=False) @ rows.astype(dtype, copy=False)


def contrast_checks(
    ambient: FullFactorial, sums: np.ndarray, size: int | np.ndarray, strength: int
) -> np.ndarray:
    """The verdict of every block of contrast_rows(ambient, strength) on the
    B x R sums of B vectors: a B x (1 + strength) bool array with columns
    size (the all-ones row sums to size, one int or one per row), then
    contrast[1..strength] (every row of C_k sums to 0)."""
    hits = sums == 0
    hits[:, 0] = sums[:, 0] == size
    # One AND per block: the size row, then each C_k.
    return np.logical_and.reduceat(hits, _block_starts(ambient)[: strength + 1], axis=1)


@lru_cache(maxsize=None)
def orthogonality_system(ambient: FullFactorial, size: int, strength: int) -> LinearSystem:
    """1'X theta = size plus C_l X theta = 0 for l = 1..strength.

    A standard-form polynomial's coefficient vector satisfies this system
    iff its design has the given size and strength.
    """
    # Row i of the mode products of the identity is d times column i of X,
    # so its contrast sums are column i of d [1; C] X.
    columns, d = mode_products(ambient, np.eye(ambient.run_count, dtype=np.int64), inverse=False)
    sums = contrast_sums(ambient, columns, strength)
    coeffs = tuple(tuple(Fraction(v, d) for v in row) for row in sums.T.tolist())
    constants = (Fraction(size),) + (Fraction(0),) * (len(coeffs) - 1)
    return LinearSystem(coeffs, constants, _contrast_rows(ambient)[1][: len(coeffs)])


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


def rref(rows: Sequence[Sequence]) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """The reduced row echelon form of rows of rationals, exactly: the reduced
    rows as Fraction tuples, and the pivot columns (their count is the rank).

    Each column's pivot is its first nonzero entry at or below the next pivot
    row.  This is the package's only Gaussian elimination.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        if top == len(m):
            break
        sel = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[top], m[sel] = m[sel], m[top]
        inv = 1 / m[top][col]
        pivot = m[top] = [x * inv for x in m[top]]
        for r, row in enumerate(m):
            if r != top and row[col] != 0:
                f = row[col]
                m[r] = [x - f * y for x, y in zip(row, pivot)]
        pivots.append(col)
    return tuple(map(tuple, m)), tuple(pivots)


def linear_preprocess(system: LinearSystem) -> Preprocessed:
    """Express each pivot variable affinely in the free variables via exact RREF."""
    reduced, pivots = rref([row + (c,) for row, c in zip(system.coeffs, system.constants)])
    n_vars = len(reduced[0]) - 1
    if n_vars in pivots:
        raise InconsistentSystemError("system reduces to 0 = nonzero")
    pivot_set = set(pivots)
    free = tuple(j for j in range(n_vars) if j not in pivot_set)
    eliminated: dict[int, AffineExpression] = {}
    for row_idx, pivot_col in enumerate(pivots):
        row = reduced[row_idx]
        coeffs = tuple(
            (j, -row[j]) for j in free if row[j] != 0
        )
        eliminated[pivot_col] = AffineExpression(row[n_vars], coeffs)
    return Preprocessed(eliminated, free)


def value_checks(
    ambient: FullFactorial, values: np.ndarray, den: int, size: int | np.ndarray, strength: int
) -> np.ndarray:
    """Every check of verify_theta_report for each row of a B x m integer array
    of values at the runs over one positive denominator: a B x (2 + strength)
    bool array with columns idempotency (every value is 0 or den), size
    (the values sum to size * den), then contrast[1..strength] (C_k v == 0).

    size is one int or one per row.
    """
    sums = contrast_sums(ambient, values, strength)
    blocks = contrast_checks(ambient, sums, np.multiply(size, den, dtype=object), strength)
    return np.column_stack([~_off_indicator(values, den).any(axis=1), blocks])


def verify_theta_report(
    poly: Polynomial, ambient: FullFactorial, size: int, strength: int
) -> dict[str, bool]:
    """Per-check results: idempotency, the size row, each contrast block.

    All are read from v = X theta by value_checks (see the module docstring).
    """
    values, den = values_at_runs(poly, ambient)
    names = ["idempotency", "size"] + [f"contrast[{k}]" for k in range(1, strength + 1)]
    return dict(zip(names, value_checks(ambient, values, den, size, strength)[0].tolist()))

