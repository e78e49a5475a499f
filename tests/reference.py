"""Reference implementations the tests check the production routes against.

None of these is used by the package itself:

* the dense model matrix X as Fraction rows, evaluated directly at the
  points, and its inverse, the right half of algebra.rref([X | I])
  (production applies X and X^-1 only through the per-factor mode
  products, algebra.mode_products); inverse_by_rref, that inverse for any
  square matrix; identity, mat_vec and mat_mul, the plain products the
  tests check them with;
* mul_model_matrix and mul_model_inverse, X v and X^-1 v as Fractions
  through algebra.mode_products, for the tests' vector checks;
* vanishing_substitution, _power_table and reduce_to_standard_form, the
  standard form as it was reduced before it went through each factor's
  V^-1 (algebra.reduce_to_standard_form): x^r -> g(x), with x^r - g(x) the
  monic polynomial vanishing on the factor's levels, applied e - r + 1
  times to reduce x^e;
* the quadratic idempotency system theta_a = mu_a(theta), built by
  squaring the generic lattice polynomial and reducing it to standard
  form (production checks idempotency as X theta in {0, 1}^m);
* the Fraction residuals of a LinearSystem (production reads the size and
  contrast rows from X theta);
* reference_report, verify_theta_report assembled from the last two;
  verify_theta, verify_theta_report reduced to one verdict;
* reference_contrast_matrix, the contrast blocks built entry by entry as
  Fraction rows (production builds the int64 rows of algebra._contrast_rows
  from the index vectors);
* read_designs, the design-list reader as it was before the canonical
  lines were parsed in bulk: every line on its own; and count_line_error,
  the "# count: N" rule checked line by line on the whole text;
* join_assignments, the slice join as it was before it ran on packed
  free-cell keys: a recursion over full margin-count tuples;
* _backtrack_subsets, the slice candidates as they were found before the
  slice-and-join recursed: a backtracking search over the runs with exact
  margin counters and remaining-capacity pruning;
* image_keys and orbit_keys, the orbit closure as it was before the keys
  were summed from one-run uint64 words: a bool scatter of every image
  into a G x m array, packed into one big-endian void key per image, and
  the canonical form, orbit and stabilizer read from them (production
  reads the canonical form and orbit size from classify.classify_keys, and
  tests orbit membership only by designs.find_keys in sorted search keys);
* theta_vector and polynomial_from_theta, a standard-form polynomial as
  its coefficients in lattice order and back, read coefficient by
  coefficient (production goes through the values at the runs,
  algebra.values_at_runs and algebra.polynomial_from_values);
* membership_rows and margin_counts, run sets as int64 0/1 rows and their
  margin counts as those rows times a run-by-cell incidence matrix built
  from MarginCells.cells (production counts margins as popcounts of keys);
* full_design, margins (a MarginTable), j_statistic (which raises
  NonTwoLevelFactorError) and save_design_csv, a Design's runs, its
  margins and J-statistics counted point by point in Fraction levels, and
  the CSV that designs.load_design_csv reads (production counts margins
  on keys and computes J-statistics through designs.invariant_triples);
* brute_force_oracle, search.brute_force_keys as a Design list;
* bitset_keys, the key of every 0/1 membership row packed bit by bit by
  np.packbits, an encoding of the key layout independent of the one the
  package uses (designs.indexed_keys shifts bits out of run indices); and
  run_keys, the keys of the one-run designs, packed from the rows of the
  identity: summing them builds keys, deliberately bad ones with repeated
  runs included;
* points, a Design's runs as their Fraction level tuples (all_points);
  evaluate, a polynomial's value at one point, term by term; add, subtract
  and product, polynomial arithmetic term by term (production never
  multiplies polynomials: it checks f^2 = f as X theta in {0, 1}^m, and
  reads values at the runs through algebra.values_at_runs);
* parse_polynomial and to_text, the text parser and renderer as they were
  before the parser built each coefficient once from the token's parts and
  the renderer formatted numerator and denominator directly: the parser
  goes through Fraction(str) and the validating Polynomial constructor,
  the renderer through abs() and comparisons of Fractions;
* from_level_sets, an ambient from explicit level lists, and is_identity,
  whether a group element fixes every run: only the tests build ambients
  from level lists or look for the identity.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Sequence

import numpy as np

from orthofrac.algebra import (
    LinearSystem,
    exponent_lattice,
    mode_products,
    orthogonality_system,
    rref,
    verify_theta_report,
)
from orthofrac.classify import GroupElement, run_perm_table
from orthofrac.designs import Design, FactorSpec, FullFactorial, all_points, key_designs, key_words, margin_cells
from orthofrac.polynomials import Polynomial
from orthofrac.search import SearchProblem, brute_force_keys


Rows = tuple[tuple[Fraction, ...], ...]


def from_level_sets(level_sets: Sequence[Sequence]) -> FullFactorial:
    return FullFactorial(tuple(FactorSpec(tuple(Fraction(v) for v in ls)) for ls in level_sets))


def is_identity(g: GroupElement) -> bool:
    return all(p == i for i, p in enumerate(g.run_perm))


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_vec(a: Sequence[Sequence], v: Sequence) -> tuple[Fraction, ...]:
    """a v, exactly."""
    v = [Fraction(x) for x in v]
    if any(len(row) != len(v) for row in a):
        raise ValueError("shape mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Rows:
    """a b, exactly."""
    columns = list(zip(*b))
    return tuple(mat_vec(columns, row) for row in a)


@lru_cache(maxsize=None)
def build_model_matrix(ambient: FullFactorial) -> Rows:
    """X[i, a] = product_j level_{ij}^{a_j}; rows in run order, columns in lattice order."""
    lattice = exponent_lattice(ambient)
    rows = []
    for pt in all_points(ambient):
        powers = [[v**e for e in range(r)] for v, r in zip(pt, ambient.radices)]
        rows.append(tuple(prod(p[e] for p, e in zip(powers, a)) for a in lattice))
    return tuple(rows)


def inverse_by_rref(a: Sequence[Sequence]) -> tuple[Rows, tuple[int, ...]]:
    """The right half of rref([A | I]) for a square A, and the reduction's
    pivots: A is invertible, and the half is A^{-1}, iff they are 0..n-1."""
    n = len(a)
    reduced, pivots = rref([tuple(row) + e for row, e in zip(a, identity(n))])
    return tuple(row[n:] for row in reduced), pivots


@lru_cache(maxsize=None)
def model_matrix_inverse(ambient: FullFactorial) -> Rows:
    """X^{-1}, the right half of rref([X | I])."""
    inverse, pivots = inverse_by_rref(build_model_matrix(ambient))
    assert pivots == tuple(range(ambient.run_count)), "X is singular"
    return inverse


def _mul(ambient: FullFactorial, v: Sequence, inverse: bool) -> tuple[Fraction, ...]:
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    nums, d = mode_products(ambient, np.array([[int(x * den) for x in v]], dtype=object), inverse)
    return tuple(Fraction(int(x), den * d) for x in nums[0])


def mul_model_matrix(ambient: FullFactorial, theta: Sequence) -> tuple[Fraction, ...]:
    """X theta, the values at the runs of the lattice polynomial with coefficients theta."""
    return _mul(ambient, theta, inverse=False)


def mul_model_inverse(ambient: FullFactorial, values: Sequence) -> tuple[Fraction, ...]:
    """X^{-1} values, the coefficients of the lattice polynomial taking these values at the runs."""
    return _mul(ambient, values, inverse=True)


def vanishing_substitution(factor: FactorSpec) -> tuple[Fraction, ...]:
    """Coefficients (g_0, ..., g_{r-1}) with x^r - g(x) = prod(x - a) over the levels.

    Hence x^r equals g(x) at every level of the factor.
    """
    # Expand prod (x - a) exactly; coeffs[k] is the coefficient of x^k.
    coeffs = [Fraction(1)]
    for a in factor.levels:
        coeffs = [Fraction(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= a * coeffs[k + 1]
    r = factor.arity
    return tuple(-coeffs[k] for k in range(r))


@lru_cache(maxsize=None)
def _power_table(factor: FactorSpec, max_exp: int) -> tuple[tuple[Fraction, ...], ...]:
    """table[e] = coefficients over x^0..x^{r-1} of the reduction of x^e."""
    r = factor.arity
    g = vanishing_substitution(factor)
    table: list[tuple[Fraction, ...]] = [
        tuple(Fraction(1) if k == e else Fraction(0) for k in range(r))
        for e in range(r)
    ]
    for e in range(r, max_exp + 1):
        prev = table[e - 1]
        top = prev[r - 1]
        shifted = (Fraction(0),) + prev[: r - 1]
        table.append(tuple(shifted[k] + top * g[k] for k in range(r)))
    return tuple(table)


def reduce_to_standard_form(poly: Polynomial, ambient: FullFactorial) -> Polynomial:
    """Unique lattice-supported polynomial equal to `poly` on every ambient point."""
    if poly.n_vars != ambient.n_factors:
        raise ValueError("variable count does not match the ambient")
    factors = ambient.factors
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in poly.items():
        # Expand factor by factor; each variable reduces independently.
        partial: dict[tuple[int, ...], Fraction] = {(): coeff}
        for j, e in enumerate(exps):
            table = _power_table(factors[j], max(e, factors[j].arity - 1))
            row = table[e]
            nxt: dict[tuple[int, ...], Fraction] = {}
            for prefix, c in partial.items():
                for k, ck in enumerate(row):
                    if ck:
                        key = prefix + (k,)
                        nxt[key] = nxt.get(key, Fraction(0)) + c * ck
            partial = nxt
        for key, c in partial.items():
            out[key] = out.get(key, Fraction(0)) + c
    return Polynomial(poly.n_vars, out)


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
    tables = [_power_table(f, 2 * (f.arity - 1)) for f in ambient.factors]
    forms: dict[tuple[int, ...], dict[tuple, Fraction]] = {a: {} for a in lattice}
    for i1, a1 in enumerate(lattice):
        for a2 in lattice[i1:]:
            weight = 1 if a1 == a2 else 2
            # Expand prod_j reduction of x_j^{a1_j + a2_j} over target exponents.
            partial: dict[tuple[int, ...], Fraction] = {(): Fraction(weight)}
            for j, table in enumerate(tables):
                row = table[a1[j] + a2[j]]
                nxt: dict[tuple[int, ...], Fraction] = {}
                for prefix, c in partial.items():
                    for k, ck in enumerate(row):
                        if ck:
                            nxt[prefix + (k,)] = nxt.get(prefix + (k,), Fraction(0)) + c * ck
                partial = nxt
            for target, coeff in partial.items():
                if coeff:
                    form = forms[target]
                    form[(a1, a2)] = form.get((a1, a2), Fraction(0)) + coeff
    return tuple(
        QuadraticEquation(target, tuple(sorted(form.items())))
        for target, form in forms.items()
    )


def satisfies_idempotency(poly: Polynomial, ambient: FullFactorial) -> bool:
    theta = dict(poly.items())
    return all(eq.residual(theta) == 0 for eq in idempotency_system(ambient))


def residuals(system: LinearSystem, theta: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """coeffs @ theta - constants, as Fractions."""
    lhs = mat_vec(system.coeffs, theta)
    return tuple(a - b for a, b in zip(lhs, system.constants))


def satisfied_by(system: LinearSystem, theta: Sequence[Fraction]) -> bool:
    return all(r == 0 for r in residuals(system, theta))


def reference_report(
    poly: Polynomial, ambient: FullFactorial, size: int, strength: int
) -> dict[str, bool]:
    """The per-check report from the quadratic system and the Fraction residuals."""
    if not poly.in_lattice(ambient):
        raise ValueError("polynomial is not in standard form for this ambient")
    report = {"idempotency": satisfies_idempotency(poly, ambient)}
    system = orthogonality_system(ambient, size, strength)
    res = residuals(system, theta_vector(poly, ambient))
    report["size"] = res[0] == 0
    for k in range(1, strength + 1):
        report[f"contrast[{k}]"] = all(
            r == 0 for r, tag in zip(res, system.tags) if tag[0] == "contrast" and tag[1] == k
        )
    return report


def verify_theta(poly: Polynomial, ambient: FullFactorial, size: int, strength: int) -> bool:
    """True iff every check of algebra.verify_theta_report passes: the
    polynomial is the indicator of an orthogonal fraction of that size and
    strength."""
    return all(verify_theta_report(poly, ambient, size, strength).values())


def reference_contrast_matrix(ambient: FullFactorial) -> tuple[tuple[Rows, ...], tuple[tuple, ...]]:
    """The contrast blocks C_1..C_n and the row labels, entry by entry."""
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
                    row = [Fraction(0)] * m
                    for i, iv in enumerate(index_vectors):
                        if any(iv[j] != p for j, p in zip(subset[:-1], pins)):
                            continue
                        if iv[last] == 0:
                            row[i] = Fraction(1)
                        elif iv[last] == v:
                            row[i] = Fraction(-1)
                    rows.append(tuple(row))
                    labels.append(("contrast", k, subset, pins + (v,)))
        blocks.append(tuple(rows))
    return tuple(blocks), tuple(labels)


def theta_vector(poly: Polynomial, ambient: FullFactorial) -> tuple[Fraction, ...]:
    """Coefficient vector of a standard-form polynomial in lattice order."""
    if not poly.in_lattice(ambient):
        raise ValueError("polynomial is not in standard form for this ambient")
    return tuple(poly.coefficient(a) for a in exponent_lattice(ambient))


def polynomial_from_theta(theta: Sequence[Fraction], ambient: FullFactorial) -> Polynomial:
    lattice = exponent_lattice(ambient)
    if len(theta) != len(lattice):
        raise ValueError("coefficient vector length mismatch")
    return Polynomial(ambient.n_factors, dict(zip(lattice, theta)))


def bitset_keys(y: np.ndarray) -> np.ndarray:
    """The key of every 0/1 membership row: ceil(m/64) uint64 words, run r
    at bit 63 - r % 64 of word r // 64."""
    padded = np.zeros((len(y), 64 * key_words(y.shape[1])), dtype=bool)
    padded[:, : y.shape[1]] = y
    return np.packbits(padded, axis=1).view(">u8").astype(np.uint64)


@lru_cache(maxsize=None)
def run_keys(m: int) -> np.ndarray:
    """The m x ceil(m/64) keys of the one-run designs (read-only), packed
    from the identity's rows.  A design's key is the sum of its runs' keys:
    their bits are disjoint, so the sum is their OR."""
    keys = bitset_keys(np.eye(m, dtype=bool))
    keys.flags.writeable = False
    return keys


def membership_rows(designs, m: int) -> np.ndarray:
    """The int64 0/1 membership row over m runs of every Design, run tuple
    or row of a 2-D run array."""
    y = np.zeros((len(designs), m), dtype=np.int64)
    for row, design in zip(y, designs):
        row[list(design.runs if isinstance(design, Design) else design)] = 1
    return y


def margin_counts(table, y: np.ndarray) -> np.ndarray:
    """counts[b, c]: how many runs of the 0/1 row y[b] hit cell c of the
    MarginCells table, as y times the table's run-by-cell incidence matrix."""
    m = len(table.cells)
    incidence = np.zeros((m, len(table.volumes)), dtype=np.int64)
    incidence[np.arange(m)[:, None], table.cells] = 1
    return y @ incidence


def points(design: Design) -> list[tuple[Fraction, ...]]:
    """The level tuple of every run of the design, in run order."""
    pts = all_points(design.ambient)
    return [pts[r] for r in design.runs]


def evaluate(poly: Polynomial, point: Sequence) -> Fraction:
    """The value of the polynomial at one point, term by term."""
    if len(point) != poly.n_vars:
        raise ValueError("point length mismatch")
    pt = [Fraction(v) for v in point]
    return sum((c * prod(v**e for v, e in zip(pt, exps)) for exps, c in poly.items()), Fraction(0))


def add(p: Polynomial, q: Polynomial) -> Polynomial:
    """p + q, term by term."""
    if p.n_vars != q.n_vars:
        raise ValueError("variable count mismatch")
    terms = dict(p.items())
    for exps, c in q.items():
        terms[exps] = terms.get(exps, Fraction(0)) + c
    return Polynomial(p.n_vars, terms)


def product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p q, every pair of terms multiplied out."""
    if p.n_vars != q.n_vars:
        raise ValueError("variable count mismatch")
    terms: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            terms[exps] = terms.get(exps, Fraction(0)) + c1 * c2
    return Polynomial(p.n_vars, terms)


def subtract(p: Polynomial, q: Polynomial) -> Polynomial:
    """p - q: p plus q times the constant -1."""
    return add(p, product(Polynomial.constant(q.n_vars, -1), q))


def full_design(ambient: FullFactorial) -> Design:
    return Design(ambient, tuple(range(ambient.run_count)))


@dataclass
class MarginTable:
    """Occurrence counts of every level combination of a factor subset."""

    factor_subset: tuple[int, ...]
    counts: dict[tuple[Fraction, ...], int]

    def is_uniform(self) -> bool:
        return len(set(self.counts.values())) <= 1


def margins(design: Design, factor_subset: Sequence[int]) -> MarginTable:
    """Exact counts of each level combination of the given factors, from
    the design's points labelled by their Fraction levels."""
    if not factor_subset:
        raise ValueError("factor subset must be nonempty")
    subset = tuple(factor_subset)
    factors = design.ambient.factors
    counts: dict[tuple[Fraction, ...], int] = {
        combo: 0 for combo in itertools.product(*(factors[j].levels for j in subset))
    }
    for pt in points(design):
        counts[tuple(pt[j] for j in subset)] += 1
    return MarginTable(subset, counts)


class NonTwoLevelFactorError(ValueError):
    """A J-statistic was requested for a factor whose levels are not {-1, 1}."""


def j_statistic(design: Design, factor_subset: Sequence[int]) -> int:
    """Sum over the design's runs of the product of the +-1 coordinates in the subset."""
    subset = tuple(factor_subset)
    factors = design.ambient.factors
    for j in subset:
        if set(factors[j].levels) != {Fraction(-1), Fraction(1)}:
            raise NonTwoLevelFactorError(f"factor {j} does not have levels {{-1, 1}}")
    total = 0
    for pt in points(design):
        sign = 1
        for j in subset:
            sign *= 1 if pt[j] > 0 else -1
        total += sign
    return total


def save_design_csv(design: Design, path) -> None:
    """Write one run per row with exact level values, header x1..xn: the
    format designs.load_design_csv reads."""
    n = design.ambient.n_factors
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(n)])
        for pt in points(design):
            writer.writerow([str(v) for v in pt])


def brute_force_oracle(problem: SearchProblem) -> list[Design]:
    """search.brute_force_keys as a Design list."""
    return key_designs(problem.ambient, brute_force_keys(problem))


_INT_TYPE = frozenset((int,))


def read_designs(fh, ambient: FullFactorial) -> list[Design]:
    designs = []
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            runs = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        # An exact type test: bool is a subclass of int, but true/false are not run indices.
        if type(runs) is not list or not _INT_TYPE.issuperset(map(type, runs)):
            raise ValueError(f"line {lineno}: expected a list of run indices")
        try:
            designs.append(Design.from_runs(ambient, runs))
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return designs


def count_line_error(text: str) -> str | None:
    """The error of the first "# count: N" line of the text, line by line,
    that does not follow N design lines since the previous count line or
    the start, or, when none, of design lines after the last count line;
    None when the count lines hold.  Design lines are those that are
    neither blank nor start with "#" once stripped."""
    since, last = 0, None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if match := re.fullmatch(r"#\s*count:\s*(\d+)", line):
            if int(match[1]) != since:
                return f"line {lineno}: '# count: {int(match[1])}', but {since} design lines since the last count"
            since, last = 0, lineno
        elif line and not line.startswith("#"):
            since += 1
    if last is not None and since:
        return f"line {last}: {since} design lines after the last count: the input was cut or joined"
    return None


def join_assignments(keys, buckets, target, n_levels):
    """All n_levels-tuples of vector keys whose componentwise sum is target."""
    n_cells = len(target)
    assignments: list[tuple] = []
    stack: list = []

    def rec(level: int, partial: tuple[int, ...]) -> None:
        if level == n_levels - 1:
            need = tuple(t - p for t, p in zip(target, partial))
            if all(v >= 0 for v in need) and need in buckets:
                assignments.append(tuple(stack) + (need,))
            return
        for key in keys:
            if all(k + p <= t for k, p, t in zip(key, partial, target)):
                stack.append(key)
                rec(level + 1, tuple(k + p for k, p in zip(key, partial)))
                stack.pop()

    if n_cells == 0:
        assignments.extend(itertools.product(keys, repeat=n_levels))
    else:
        rec(0, (0,) * n_cells)
    return assignments


def _backtrack_subsets(
    ambient: FullFactorial,
    size: int,
    strength: int,
    prefix: tuple[bool, ...] = (),
) -> list[tuple[int, ...]]:
    """All size-`size` run subsets balanced on every size-`strength` factor
    subset, in lexicographic order.

    `prefix` forces include/exclude decisions for the first runs.  Maintains
    exact margin counters and per-cell remaining-capacity bounds; a branch
    is cut as soon as some cell's deficit exceeds what the undecided runs
    can still supply.
    """
    m = ambient.run_count
    if size < 0 or size > m:
        return []
    table = margin_cells(ambient, strength)
    if np.any(size % table.volumes):
        return []
    run_cells = [tuple(row) for row in table.cells.tolist()]
    targets = (size // table.volumes).tolist()
    n_cells = len(targets)
    counts = [0] * n_cells
    # caps[i][c]: how many runs with index >= i hit cell c.
    caps = [[0] * n_cells for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        row = caps[i + 1][:]
        for c in run_cells[i]:
            row[c] += 1
        caps[i] = row
    if any(t > caps[0][c] for c, t in enumerate(targets)):
        return []

    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    # Forced prefix decisions, with the same pruning as the search proper.
    start = 0
    remaining = size
    for i, take in enumerate(prefix):
        cells_i = run_cells[i]
        nxt = caps[i + 1]
        if take:
            if remaining == 0 or any(counts[c] >= targets[c] for c in cells_i):
                return []
            for c in cells_i:
                counts[c] += 1
            chosen.append(i)
            remaining -= 1
        if any(targets[c] - counts[c] > nxt[c] for c in cells_i):
            return []
        if m - (i + 1) < remaining:
            return []
        start = i + 1

    def rec(i: int, remaining: int) -> None:
        if remaining == 0:
            # Counters never exceed targets and each subset's cells sum to
            # the chosen count, so all targets are exactly met here.
            out.append(tuple(chosen))
            return
        if m - i < remaining:
            return
        cells_i = run_cells[i]
        nxt = caps[i + 1]
        if all(counts[c] < targets[c] for c in cells_i):
            for c in cells_i:
                counts[c] += 1
            if all(targets[c] - counts[c] <= nxt[c] for c in cells_i):
                chosen.append(i)
                rec(i + 1, remaining - 1)
                chosen.pop()
            for c in cells_i:
                counts[c] -= 1
        if all(targets[c] - counts[c] <= nxt[c] for c in cells_i):
            rec(i + 1, remaining)

    rec(start, remaining)
    return out


def _packed_keys(ambient: FullFactorial, images: np.ndarray) -> np.ndarray:
    """One big-endian void key per row of run indices, padded to whole 64-bit words."""
    bits = np.zeros((len(images), -(-ambient.run_count // 64) * 64), dtype=bool)
    bits[np.arange(len(images))[:, None], images] = True
    return np.packbits(bits, axis=1).view(f"V{bits.shape[1] // 8}").ravel()


def image_keys(ambient: FullFactorial, runs) -> np.ndarray:
    """The bitset of the design with these runs under every group element, in table order."""
    return _packed_keys(ambient, run_perm_table(ambient)[:, np.array(runs, dtype=np.int64)])


def orbit_keys(ambient: FullFactorial, runs) -> np.ndarray:
    """The sorted distinct bitsets of the orbit; the last one is the canonical form."""
    keys = image_keys(ambient, runs)
    keys = keys[np.lexsort(keys.view(">u8").reshape(len(keys), -1).T[::-1])]
    return keys[np.r_[True, keys[1:] != keys[:-1]]]


def _key_runs(keys: np.ndarray) -> list[tuple[int, ...]]:
    bits = np.unpackbits(keys.view(np.uint8).reshape(len(keys), -1), axis=1)
    return [tuple(np.flatnonzero(row).tolist()) for row in bits]


def canonical_form(design: Design) -> tuple[int, ...]:
    return _key_runs(orbit_keys(design.ambient, design.runs)[-1:])[0]


def orbit_of(design: Design) -> set[tuple[int, ...]]:
    return set(_key_runs(orbit_keys(design.ambient, design.runs)))


def stabilizer_size(design: Design) -> int:
    own = _packed_keys(design.ambient, np.array(design.runs, dtype=np.int64).reshape(1, -1))
    return int(np.count_nonzero(image_keys(design.ambient, design.runs) == own))


_COEFF_RE = re.compile(r"^-?\d+(?:/\d+)?$")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, n_vars: int) -> Polynomial:
    """Parse the indicator text format; terms may appear in any order.

    Grammar: terms joined by ' + ' / ' - ', each an optional rational
    coefficient followed by space-separated factors 'x<j>' or 'x<j>^<e>'.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Polynomial.zero(n_vars)
    # Normalize a leading sign into the first term.
    chunks = re.split(r"\s+([+-])\s+", s)
    signed: list[tuple[int, str]] = []
    first = chunks[0]
    if first.startswith("-"):
        signed.append((-1, first[1:].strip()))
    else:
        signed.append((1, first))
    for op, term in zip(chunks[1::2], chunks[2::2]):
        signed.append((1 if op == "+" else -1, term))
    terms: dict[tuple[int, ...], Fraction] = {}
    for sign, term in signed:
        tokens = term.split()
        if not tokens:
            raise ValueError(f"empty term in {text!r}")
        coeff = Fraction(1)
        start = 0
        if _COEFF_RE.match(tokens[0]):
            coeff = Fraction(tokens[0])
            start = 1
        elif not tokens[0].startswith("x"):
            raise ValueError(f"bad token {tokens[0]!r}")
        exps = [0] * n_vars
        for tok in tokens[start:]:
            if tok == "1":
                continue
            m = _VAR_RE.match(tok)
            if not m:
                raise ValueError(f"bad monomial token {tok!r}")
            j = int(m.group(1))
            if not 1 <= j <= n_vars:
                raise ValueError(f"variable x{j} out of range 1..{n_vars}")
            exps[j - 1] += int(m.group(2) or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff
    return Polynomial(n_vars, terms)


def to_text(self: Polynomial) -> str:
    """Canonical text form, terms in lattice order (exponent tuples ascending)."""
    if not self._terms:
        return "0"
    parts: list[str] = []
    for exps in sorted(self._terms):
        coeff = self._terms[exps]
        factors = [
            f"x{j + 1}" + (f"^{e}" if e > 1 else "")
            for j, e in enumerate(exps)
            if e > 0
        ]
        body = str(abs(coeff)) if not factors else " ".join([str(abs(coeff))] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)
