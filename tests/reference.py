"""Reference implementations the tests check the production routes against.

None of these is used by the package itself:

* the dense model matrix X, evaluated directly at the points, and its
  rational Gauss-Jordan inverse (production applies X and X^-1 only
  through the per-factor mode products, algebra.mode_products);
* mul_model_matrix and mul_model_inverse, X v and X^-1 v as Fractions
  through algebra.mode_products, for the tests' vector checks;
* the quadratic idempotency system theta_a = mu_a(theta), built by
  squaring the generic lattice polynomial and reducing it to standard
  form (production checks idempotency as X theta in {0, 1}^m);
* the Fraction residuals of a LinearSystem (production reads the size and
  contrast rows from X theta);
* reference_report, verify_theta_report assembled from the last two;
* reference_contrast_matrix, the contrast blocks built entry by entry as
  Fractions (production builds the int rows from the index vectors);
* read_designs, the design-list reader as it was before the canonical
  lines were parsed in bulk: every line on its own;
* join_assignments, the slice join as it was before it ran on packed
  free-cell keys: a recursion over full margin-count tuples;
* _backtrack_subsets, the slice candidates as they were found before the
  slice-and-join recursed: a backtracking search over the runs with exact
  margin counters and remaining-capacity pruning;
* image_keys and orbit_keys, the orbit closure as it was before the keys
  were summed from one-run uint64 words: a bool scatter of every image
  into a G x m array, packed into one big-endian void key per image, and
  the canonical form, orbit and stabilizer read from them.
"""

from __future__ import annotations

import itertools
import json
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
    theta_vector,
)
from orthofrac.classify import run_perm_table
from orthofrac.designs import Design, FullFactorial, all_points, margin_cells
from orthofrac.linalg import Matrix
from orthofrac.polynomials import Polynomial, _power_table


@lru_cache(maxsize=None)
def build_model_matrix(ambient: FullFactorial) -> Matrix:
    """X[i, a] = product_j level_{ij}^{a_j}; rows in run order, columns in lattice order."""
    lattice = exponent_lattice(ambient)
    rows = []
    for pt in all_points(ambient):
        powers = [[v**e for e in range(r)] for v, r in zip(pt, ambient.radices)]
        rows.append([prod(p[e] for p, e in zip(powers, a)) for a in lattice])
    return Matrix(rows)


@lru_cache(maxsize=None)
def model_matrix_inverse(ambient: FullFactorial) -> Matrix:
    """X^{-1} by rational Gauss-Jordan elimination."""
    return build_model_matrix(ambient).inverse()


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
    lhs = system.coeffs.mul_vec(theta)
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


def reference_contrast_matrix(ambient: FullFactorial) -> tuple[tuple[Matrix, ...], tuple[tuple, ...]]:
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
                    rows.append(row)
                    labels.append(("contrast", k, subset, pins + (v,)))
        blocks.append(Matrix(rows) if rows else Matrix([]))
    return tuple(blocks), tuple(labels)


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
