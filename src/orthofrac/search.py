"""Exhaustive enumeration of orthogonal fractions of a given size and strength.

Two independent routes:

* `enumerate_orthogonal` - the production engine.  When the ambient has at
  least two factors it partitions the runs by the level of the
  highest-arity factor into slices; any fraction of strength t restricts
  to one slice per level, of equal size and strength t-1, and conversely
  slices recombine exactly when the margin counts over the remaining
  factors sum to the uniform target.  Slice candidates are enumerated by
  a backtracking search over the sub-ambient with exact margin counters
  and remaining-capacity pruning, then joined by grouping on margin-count
  vectors.  Every output is cross-checked against the algebraic
  characterization (idempotency plus size/contrast system).

* `brute_force_oracle` - plain enumeration of all size-s subsets filtered
  by direct margin counting, for small ambients.  Used to validate the
  engine.

Both return designs sorted by run-index sequence, and both are
deterministic for any worker count.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb
from multiprocessing import get_context

import numpy as np

from .designs import Design, FullFactorial, margin_cells
from .fastcheck import get_checker, runs_matrix

# The first _SPLIT_DEPTH include/exclude decisions of the backtracking
# search are fixed per task when it runs on several workers.
_SPLIT_DEPTH = 6


class ProblemTooLargeError(ValueError):
    """The brute-force subset space exceeds the configured ceiling."""


class CrossCheckError(RuntimeError):
    """An enumerated design failed the algebraic cross-check: an internal fault."""


@dataclass(frozen=True)
class SearchProblem:
    """An enumeration instance plus engine options."""

    ambient: FullFactorial
    size: int
    strength: int
    slicing_factor: int | None = None  # default: last factor of maximal arity
    workers: int = 1
    oracle_ceiling: int = 10**8

    def __post_init__(self):
        if not 0 <= self.size <= self.ambient.run_count:
            raise ValueError("size out of range")
        if not 1 <= self.strength <= self.ambient.n_factors:
            raise ValueError("strength out of range")
        if self.slicing_factor is not None and not 0 <= self.slicing_factor < self.ambient.n_factors:
            raise ValueError("slicing factor out of range")


# ---------------------------------------------------------------------------
# Backtracking subset search with margin-count pruning


def _backtrack_subsets(
    ambient: FullFactorial,
    size: int,
    strength: int,
    prefix: tuple[bool, ...] = (),
) -> list[tuple[int, ...]]:
    """All size-`size` run subsets balanced on every size-`strength` factor
    subset, in lexicographic order.

    `prefix` forces include/exclude decisions for the first runs (used to
    split the search across workers).  Maintains exact margin counters and
    per-cell remaining-capacity bounds; a branch is cut as soon as some
    cell's deficit exceeds what the undecided runs can still supply.
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


def _backtrack_task(args):
    level_sets, size, strength, prefix = args
    from .designs import from_level_sets

    ambient = from_level_sets(level_sets)
    return _backtrack_subsets(ambient, size, strength, prefix)


def _parallel_backtrack(
    ambient: FullFactorial, size: int, strength: int, workers: int
) -> list[tuple[int, ...]]:
    if workers <= 1:
        return _backtrack_subsets(ambient, size, strength)
    depth = min(_SPLIT_DEPTH, ambient.run_count)
    level_sets = tuple(tuple(f.levels) for f in ambient.factors)
    # Include-first prefix order matches the DFS output order, so the
    # concatenation below is exactly the single-worker order.
    tasks = [
        (level_sets, size, strength, prefix)
        for prefix in itertools.product((True, False), repeat=depth)
    ]
    with get_context("fork").Pool(workers) as pool:
        chunks = pool.map(_backtrack_task, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
    return [runs for chunk in chunks for runs in chunk]


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


def _join_assignments(keys, buckets, target, n_levels):
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


def _materialize(assignment, buckets, embed):
    """Yield run tuples for every candidate combination of one key assignment."""
    pools = [buckets[key] for key in assignment]
    for combo in itertools.product(*pools):
        runs = [embed[c][s] for c, cand in enumerate(combo) for s in cand]
        runs.sort()
        yield tuple(runs)


def _sliced_enumeration(problem: SearchProblem) -> list[tuple[int, ...]]:
    ambient = problem.ambient
    p = (
        problem.slicing_factor
        if problem.slicing_factor is not None
        else _default_slicing_factor(ambient)
    )
    r = ambient.radices[p]
    if problem.size % r:
        return []
    q = problem.size // r
    sub = _sub_ambient(ambient, p)
    candidates = _parallel_backtrack(sub, q, problem.strength - 1, problem.workers)
    if not candidates:
        return []

    # Join keys: the candidates' margin counts over the size-t subsets of
    # the sub-ambient (none when t exceeds its factor count).
    table = margin_cells(sub, problem.strength)
    if np.any(problem.size % table.volumes):
        return []
    target = tuple((problem.size // table.volumes).tolist())
    vectors = map(tuple, table.count(runs_matrix(candidates, sub.run_count)).tolist())
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for cand, vec in zip(candidates, vectors):
        buckets.setdefault(vec, []).append(cand)
    keys = sorted(buckets)
    assignments = _join_assignments(keys, buckets, target, r)
    embed = _embedding_tables(ambient, p)
    out: list[tuple[int, ...]] = []
    for assignment in assignments:
        out.extend(_materialize(assignment, buckets, embed))
    return out


# ---------------------------------------------------------------------------
# Public entry points


def _cross_check(designs: list[Design], problem: SearchProblem) -> None:
    """Algebraic verification (idempotency + size/contrast system) of every output."""
    if not designs:
        return
    checker = get_checker(problem.ambient)
    y = runs_matrix(designs, problem.ambient.run_count)
    ok = checker.verify(y, problem.size, problem.strength)
    if not bool(np.all(ok)):
        bad = int(np.flatnonzero(~ok)[0])
        raise CrossCheckError(
            f"internal consistency failure: design {designs[bad].runs} fails the algebraic check"
        )


def enumerate_orthogonal(problem: SearchProblem) -> list[Design]:
    """All fractions of the given size and strength, sorted by run sequence.

    Output is deterministic and independent of the worker count, and every
    design is cross-checked against the algebraic characterization before
    being returned.
    """
    ambient = problem.ambient
    if ambient.n_factors >= 2:
        raw = _sliced_enumeration(problem)
    else:
        raw = _parallel_backtrack(ambient, problem.size, problem.strength, problem.workers)
    raw.sort()
    designs = [Design(ambient, runs) for runs in raw]
    _cross_check(designs, problem)
    return designs


def brute_force_oracle(problem: SearchProblem) -> list[Design]:
    """Filter all size-s subsets by direct margin counting.

    Independent of the search engine; refuses to run above the configured
    subset-count ceiling.
    """
    ambient = problem.ambient
    m = ambient.run_count
    total = comb(m, problem.size)
    if total > problem.oracle_ceiling:
        raise ProblemTooLargeError(
            f"C({m},{problem.size}) = {total} exceeds the ceiling {problem.oracle_ceiling}"
        )
    table = margin_cells(ambient, problem.strength)
    if np.any(problem.size % table.volumes):
        return []

    out: list[Design] = []
    chunk_size = 65536
    combos = itertools.combinations(range(m), problem.size)
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        y = np.zeros((len(chunk), m), dtype=np.int64)
        if problem.size:
            rows = np.repeat(np.arange(len(chunk)), problem.size)
            y[rows, np.array(chunk, dtype=np.int64).ravel()] = 1
        balanced = table.balanced(table.count(y), problem.size)
        good = np.flatnonzero(balanced.all(axis=1))
        out.extend(Design(ambient, chunk[i]) for i in good)
    return out


# ---------------------------------------------------------------------------
# Results file format: one design per line as "[i1, i2, ...]", then a
# trailing "# count: N" summary line.


def write_designs(designs: list[Design], fh) -> None:
    for d in designs:
        fh.write(json.dumps(list(d.runs)) + "\n")
    fh.write(f"# count: {len(designs)}\n")


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
