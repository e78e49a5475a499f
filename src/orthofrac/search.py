"""Exhaustive enumeration of orthogonal fractions of a given size and strength.

Two independent routes:

* `enumerate_orthogonal` - the production engine.  When the ambient has at
  least two factors it partitions the runs by the level of the
  highest-arity factor into slices; any fraction of strength t restricts
  to one slice per level, of equal size and strength t-1, and conversely
  slices recombine exactly when the margin counts over the remaining
  factors sum to the uniform target.  The slice candidates are the
  fractions of strength t-1 of the sub-ambient, so the engine finds them
  by the same slice-and-join, down to strength 0, where every subset of
  the slice size qualifies, or to one factor, where only the empty set
  and the whole factor are balanced.  Every output is cross-checked
  against the algebraic characterization (idempotency plus size/contrast
  system).

  The join keys a candidate by its counts on the free margin cells, those
  whose levels are all >= 1: the candidates share every lower-order
  margin, and given those the free cells fix the rest, so the key loses
  nothing.  The counts are packed mixed-radix into one int64 word, or a
  Python int when the word bound is not below 2^62, and grouped by one
  np.unique.  The first r - 2 slice levels loop in Python, level r - 1
  takes every fitting key at once, and one searchsorted finds the last.
  The join returns key ids and the exact design count.  It raises
  ProblemTooLargeError as soon as the count passes the design ceiling,
  the most designs whose B x m int64 membership matrix fits in
  _MATRIX_BUDGET bytes, before any design is built; at strength 0 the
  C(m, q) subsets meet the same ceiling before any is listed.

* `brute_force_oracle` - plain enumeration of all size-s subsets filtered
  by direct margin counting, for small ambients.  Used to validate the
  engine.

Both return designs sorted by run-index sequence, and both are
deterministic.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .algebra import _exact_dtype
from .designs import Design, FullFactorial, margin_cells
from .fastcheck import bitset_keys, get_checker, key_order, matrix_designs, runs_matrix

# At every level of its recursion the sliced enumeration refuses a result
# whose B x m int64 membership matrix would take more bytes than this: 10^6
# designs at m = 96, 2 * 10^6 on the 48-run flagship ambient.
_MATRIX_BUDGET = 768 * 10**6


class ProblemTooLargeError(ValueError):
    """The brute-force subset space, or the number of designs, exceeds its ceiling."""


class CrossCheckError(RuntimeError):
    """An enumerated design failed the algebraic cross-check: an internal fault."""


@dataclass(frozen=True)
class SearchProblem:
    """An enumeration instance plus engine options: the slicing factor of the
    top level and the subset-count ceiling of the brute-force oracle."""

    ambient: FullFactorial
    size: int
    strength: int
    slicing_factor: int | None = None  # default: last factor of maximal arity
    workers: int = 1  # inert: the benchmark's traced pass still passes workers=2
    oracle_ceiling: int = 10**8

    def __post_init__(self):
        if not 0 <= self.size <= self.ambient.run_count:
            raise ValueError("size out of range")
        if not 1 <= self.strength <= self.ambient.n_factors:
            raise ValueError("strength out of range")
        if self.slicing_factor is not None and not 0 <= self.slicing_factor < self.ambient.n_factors:
            raise ValueError("slicing factor out of range")


# ---------------------------------------------------------------------------
# Slice-and-join decomposition


def _default_slicing_factor(ambient: FullFactorial) -> int:
    radices = ambient.radices
    top = max(radices)
    return max(j for j, r in enumerate(radices) if r == top)


def _sub_ambient(ambient: FullFactorial, p: int) -> FullFactorial:
    return FullFactorial(tuple(f for j, f in enumerate(ambient.factors) if j != p))


def _embedding_tables(ambient: FullFactorial, p: int) -> list[list[int]]:
    """tables[c][sub_run] = full run index with the slicing factor at level c."""
    sub = _sub_ambient(ambient, p)
    tables = []
    for c in range(ambient.radices[p]):
        table = []
        for s in range(sub.run_count):
            iv = list(sub.decode(s))
            iv.insert(p, c)
            table.append(ambient.encode(iv))
        tables.append(table)
    return tables


def _free_cells(sub: FullFactorial, strength: int) -> np.ndarray:
    """The ids, in margin_cells(sub, strength), of the cells whose levels are all >= 1.

    Subset s numbers its cells from starts[s] on by the mixed-radix value
    of their levels, first factor most significant: row-major order.
    """
    table = margin_cells(sub, strength)
    free = [np.zeros(0, dtype=np.int64)]
    for start, subset in zip(table.starts.tolist(), table.subsets):
        levels = np.indices([sub.radices[j] for j in subset]).reshape(len(subset), -1)
        free.append(start + np.flatnonzero(np.all(levels >= 1, axis=0)))
    return np.concatenate(free)


@dataclass(frozen=True)
class _SliceKeys:
    """Slice candidates grouped by their counts on the free margin cells.

    Candidate i has key pool[i].  Key k has the free-cell counts free[k] and
    the mixed-radix word packed[k] = free[k] @ weights, strictly increasing
    in k; target holds the free cells' counts in a whole fraction.
    """

    pool: np.ndarray
    free: np.ndarray
    packed: np.ndarray
    weights: np.ndarray
    target: np.ndarray


def _slice_keys(sub: FullFactorial, candidates: np.ndarray, size: int, strength: int):
    """Key the slice candidates (one sub-ambient run tuple per row) by their
    counts on the free cells of the size-`strength` margins, or None when
    `size` is not a multiple of every margin volume.

    A cell is free when its levels are all >= 1.  Every candidate has the
    same lower-order margins, and given those the free cells fix every
    other cell, so two candidates share a key exactly when they share
    every margin count.  What the target leaves for the last slice has
    those lower-order margins too, so its free cells fix it as well.
    """
    table = margin_cells(sub, strength)
    if np.any(size % table.volumes):
        return None
    free = _free_cells(sub, strength)
    target = size // table.volumes[free]
    counts = runs_matrix(candidates, sub.run_count) @ table.incidence[:, free]
    # Digit c runs over 0 .. radix[c] - 1, which holds the key counts and
    # the target, so packing is injective on every count the join compares,
    # and each word it forms is below prod(radix) in magnitude.
    radix = np.maximum(counts.max(axis=0, initial=0), target) + 1
    dtype = _exact_dtype(prod(radix.tolist()))
    weights = np.ones(len(radix), dtype=dtype)
    for c in range(len(radix) - 2, -1, -1):
        weights[c] = weights[c + 1] * int(radix[c + 1])
    packed, first, pool = np.unique(counts.astype(dtype) @ weights, return_index=True, return_inverse=True)
    return _SliceKeys(pool, counts[first], packed, weights, target)


def _join_assignments(keys: _SliceKeys, n_levels: int, ceiling: int) -> tuple[np.ndarray, int]:
    """Every n_levels-tuple of key ids whose free-cell counts sum to the target,
    one per row in no particular order, and the exact number of designs they
    make: the sum over rows of the product of the rows' pool sizes.

    Levels 0 .. n_levels - 3 loop in Python over the keys that still fit
    under the target.  Level n_levels - 2 takes every fitting key at once,
    and the last level is the key whose word is the target's minus the
    others': one searchsorted.  The counts left for the last level lie in
    [0, target], within every digit's range, where packing is injective.

    Raises ProblemTooLargeError as soon as the count exceeds `ceiling`.
    """
    free, packed, target = keys.free, keys.packed, keys.target
    # Each row's product, and their sum, is at most len(pool)^n_levels.
    pool_sizes = np.bincount(keys.pool).astype(_exact_dtype(len(keys.pool) ** n_levels))
    goal = target @ keys.weights
    chunks: list[np.ndarray] = []
    count = 0

    def join(prefix: list[int], partial: np.ndarray, word) -> None:
        nonlocal count
        fits = np.flatnonzero(np.all(free <= target - partial, axis=1))
        if len(prefix) < n_levels - 2:
            for k in fits.tolist():
                join(prefix + [k], partial + free[k], word + packed[k])
            return
        need = goal - word - packed[fits]
        last = np.minimum(np.searchsorted(packed, need), len(packed) - 1)
        hit = packed[last] == need
        rows = np.empty((int(np.count_nonzero(hit)), n_levels), dtype=np.int64)
        rows[:, :-2] = prefix
        rows[:, -2] = fits[hit]
        rows[:, -1] = last[hit]
        count += int(pool_sizes[rows].prod(axis=1).sum())
        if count > ceiling:
            raise ProblemTooLargeError(f"more than {ceiling} designs, the design ceiling for this ambient")
        chunks.append(rows)

    join([], np.zeros_like(target), 0)
    return np.concatenate([np.zeros((0, n_levels), dtype=np.int64), *chunks]), count


def _materialize(ids: np.ndarray, pool: np.ndarray, candidates: np.ndarray, embed) -> np.ndarray:
    """The runs of every candidate combination of every key assignment, one
    design per row (unsorted), by index arithmetic over all rows at once.

    Row j of an assignment with pool sizes n_0..n_{r-1} takes, at level c,
    candidate (j // (n_{c+1} ... n_{r-1})) % n_c of the pool of its key.
    """
    pool_sizes = np.bincount(pool)
    pool_starts = np.cumsum(pool_sizes) - pool_sizes
    candidates = candidates[np.argsort(pool, kind="stable")]
    sizes = pool_sizes[ids]
    totals = sizes.prod(axis=1)
    which = np.repeat(np.arange(len(ids)), totals)
    local = np.arange(len(which)) - np.repeat(np.cumsum(totals) - totals, totals)
    parts = []
    for c in range(len(embed) - 1, -1, -1):
        n_c = sizes[which, c]
        chosen = pool_starts[ids[which, c]] + local % n_c
        local //= n_c
        parts.append(embed[c][candidates[chosen]])
    return np.concatenate(parts, axis=1)


def _enumerate_rows(
    ambient: FullFactorial, size: int, strength: int, slicing_factor: int | None = None
) -> np.ndarray:
    """The runs of every fraction of this size and strength, one design per
    row, in no particular order.

    At strength 0 every size-`size` subset qualifies.  An ambient of one
    factor has one run per level, so at strength 1 only the empty set and
    the whole factor are balanced.  Otherwise the runs are sliced on
    `slicing_factor` (default: _default_slicing_factor); the slice
    candidates, the sub-ambient's fractions of strength one less, come from
    this same function, and the slices are joined.  The design ceiling of
    the ambient bounds the subsets at strength 0 and the join's count.
    """
    m = ambient.run_count
    ceiling = _MATRIX_BUDGET // (8 * m)
    empty = np.zeros((0, size), dtype=np.int64)
    if strength == 0:
        total = comb(m, size)
        if total > ceiling:
            raise ProblemTooLargeError(
                f"C({m},{size}) = {total} subsets exceed the design ceiling {ceiling} "
                "for this ambient"
            )
        runs = itertools.chain.from_iterable(itertools.combinations(range(m), size))
        return np.fromiter(runs, dtype=np.int64, count=total * size).reshape(total, size)
    if ambient.n_factors == 1:
        return np.arange(m, dtype=np.int64)[None, :size] if size in (0, m) else empty
    p = _default_slicing_factor(ambient) if slicing_factor is None else slicing_factor
    r = ambient.radices[p]
    if size % r:
        return empty
    sub = _sub_ambient(ambient, p)
    candidates = _enumerate_rows(sub, size // r, strength - 1)
    keys = _slice_keys(sub, candidates, size, strength)
    if keys is None:
        return empty
    ids, _ = _join_assignments(keys, r, ceiling)
    if not len(ids):
        return empty
    embed = np.array(_embedding_tables(ambient, p), dtype=np.int64)
    return _materialize(ids, keys.pool, candidates, embed)


# ---------------------------------------------------------------------------
# Public entry points


def _cross_check(y: np.ndarray, problem: SearchProblem) -> None:
    """Algebraic verification (idempotency + size/contrast system) of every output."""
    if not len(y):
        return
    checker = get_checker(problem.ambient)
    ok = checker.verify(y, problem.size, problem.strength)
    if not bool(np.all(ok)):
        bad = int(np.flatnonzero(~ok)[0])
        raise CrossCheckError(
            f"internal consistency failure: design {tuple(np.flatnonzero(y[bad]).tolist())} "
            "fails the algebraic check"
        )


def enumerate_matrix(problem: SearchProblem) -> np.ndarray:
    """enumerate_orthogonal as a membership matrix: one 0/1 row per design."""
    ambient = problem.ambient
    y = runs_matrix(
        _enumerate_rows(ambient, problem.size, problem.strength, problem.slicing_factor), ambient.run_count
    )
    # All designs have one size, so descending bitset keys sort them by run tuple.
    y = y[key_order(bitset_keys(y))[::-1]]
    _cross_check(y, problem)
    return y


def enumerate_orthogonal(problem: SearchProblem) -> list[Design]:
    """All fractions of the given size and strength, sorted by run sequence.

    Output is deterministic, and every design is cross-checked against the
    algebraic characterization before being returned.
    """
    return matrix_designs(problem.ambient, enumerate_matrix(problem))


def brute_force_matrix(problem: SearchProblem) -> np.ndarray:
    """brute_force_oracle as a membership matrix: one 0/1 row per design."""
    ambient = problem.ambient
    m = ambient.run_count
    total = comb(m, problem.size)
    if total > problem.oracle_ceiling:
        raise ProblemTooLargeError(
            f"C({m},{problem.size}) = {total} exceeds the ceiling {problem.oracle_ceiling}"
        )
    table = margin_cells(ambient, problem.strength)
    if np.any(problem.size % table.volumes):
        return np.zeros((0, m), dtype=np.int64)

    out = [np.zeros((0, m), dtype=np.int64)]
    chunk_size = 65536
    combos = itertools.combinations(range(m), problem.size)
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        y = runs_matrix(np.array(chunk, dtype=np.int64).reshape(len(chunk), problem.size), m)
        balanced = table.balanced(table.count(y), problem.size)
        out.append(y[balanced.all(axis=1)])
    return np.concatenate(out)


def brute_force_oracle(problem: SearchProblem) -> list[Design]:
    """Filter all size-s subsets by direct margin counting.

    Independent of the search engine; refuses to run above the configured
    subset-count ceiling.
    """
    return matrix_designs(problem.ambient, brute_force_matrix(problem))


# ---------------------------------------------------------------------------
# Results file format: one design per line as "[i1, i2, ...]", then a
# trailing "# count: N" summary line.  Those canonical lines (", "
# separators, no leading zeros) are read in bulk; any other line that
# holds a JSON list of run indices is read on its own.


def _design_lines(lengths: list[int], flat: list[int]) -> str:
    """The canonical lines of designs with these run counts and concatenated
    runs: one %-format over all of them."""
    formats = {k: "[" + ", ".join(["%d"] * k) + "]\n" for k in set(lengths)}
    return "".join(map(formats.__getitem__, lengths)) % tuple(flat)


def write_design_matrix(y: np.ndarray, fh) -> None:
    """write_designs for the designs of a membership matrix, one per row."""
    runs = np.flatnonzero(y != 0) % y.shape[1]
    fh.write(_design_lines(np.count_nonzero(y, axis=1).tolist(), runs.tolist()))
    fh.write(f"# count: {len(y)}\n")


def write_designs(designs: list[Design], fh) -> None:
    fh.write(_design_lines([d.size for d in designs], [r for d in designs for r in d.runs]))
    fh.write(f"# count: {len(designs)}\n")


_INT_TYPE = frozenset((int,))
_CANONICAL_LINE = re.compile(r"\[(?:(?:[1-9][0-9]{0,17}|0)(?:, (?:[1-9][0-9]{0,17}|0))*)?\]")
_SEPARATORS = str.maketrans("[],\n", "    ")


def _parse_line(line: str, lineno: int, ambient: FullFactorial) -> tuple[int, ...]:
    """The runs of one stripped design line, read as JSON, or the line's error."""
    try:
        runs = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    # An exact type test: bool is a subclass of int, but true/false are not run indices.
    if type(runs) is not list or not _INT_TYPE.issuperset(map(type, runs)):
        raise ValueError(f"line {lineno}: expected a list of run indices")
    try:
        return Design.from_runs(ambient, runs).runs
    except (IndexError, ValueError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def read_design_matrix(fh, ambient: FullFactorial) -> np.ndarray:
    """read_designs as a membership matrix: one 0/1 row per design line, in file order.

    Canonical lines whose runs are in range and strictly increasing are
    parsed together by one numeric parse; every other line goes through
    _parse_line in file order, so the first bad line raises its error.
    """
    m = ambient.run_count
    lines = list(map(str.strip, fh))
    matches = map(bool, map(_CANONICAL_LINE.fullmatch, lines))
    canonical = np.fromiter(matches, dtype=bool, count=len(lines))
    bulk = np.flatnonzero(canonical)
    texts = list(map(lines.__getitem__, bulk.tolist()))
    # Runs per line: one more than its commas, except in "[]".
    commas = map(str.count, texts, itertools.repeat(","))
    lengths = np.fromiter(commas, dtype=np.int64, count=len(texts))
    lengths += np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) > 2
    flat = np.zeros(0, dtype=np.int64)
    if lengths.sum():  # np.fromstring reads an all-blank string as [0]
        flat = np.fromstring("\n".join(texts).translate(_SEPARATORS), dtype=np.int64, sep=" ")
    # A bulk line keeps its runs only where _parse_line would accept them
    # unchanged: every run in range, each above the one before it.
    ends = np.cumsum(lengths)
    first = np.zeros(len(flat), dtype=bool)
    first[(ends - lengths)[lengths > 0]] = True
    bad = flat >= m
    bad[1:] |= (flat[1:] <= flat[:-1]) & ~first[1:]
    canonical[bulk[np.searchsorted(ends, np.flatnonzero(bad), side="right")]] = False

    # The design lines left to _parse_line: all but blank and "#" lines.
    rest = [i for i in np.flatnonzero(~canonical).tolist() if lines[i] and lines[i][0] != "#"]
    is_design = canonical.copy()
    is_design[rest] = True
    row = np.cumsum(is_design) - 1
    y = np.zeros((int(is_design.sum()), m), dtype=np.int64)
    keep = canonical[bulk]
    y[np.repeat(row[bulk[keep]], lengths[keep]), flat[np.repeat(keep, lengths)]] = 1
    parsed = [_parse_line(lines[i], i + 1, ambient) for i in rest]
    rest_runs = np.fromiter(itertools.chain.from_iterable(parsed), dtype=np.int64)
    y[np.repeat(row[rest], list(map(len, parsed))), rest_runs] = 1
    return y


def read_designs(fh, ambient: FullFactorial) -> list[Design]:
    return matrix_designs(ambient, read_design_matrix(fh, ambient))
