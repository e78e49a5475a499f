"""Full factorial designs, fractions, margin counts, strength, class invariants.

Runs of the full factorial are indexed lexicographically in the index
vector with the last factor varying fastest; every file format and
canonical ordering in the package relies on that convention.  This module
alone derives it: FullFactorial.index_vectors lists every run's level
indices, and run_index maps index vectors back to runs.  Other modules
read those two.

Below the Fraction algebra a set of runs is always a key: key_words(m) =
ceil(m/64) uint64 words, run r at bit 63 - r % 64 of word r // 64.  One
encoder builds keys: indexed_keys shifts the bits out of an array of run
indices (run_sums and design_keys feed it rows of unequal length).  Only
this module knows that layout.  unpack_runs inverts run_sums, with the
run counts as popcounts of the words and the runs as the positions of the
set bits (key_bits), key_runs and key_designs read keys back, sort_keys
sorts them, search_keys and sorted_search_keys give the search form that
every membership test reads, which search_rows inverts and find_keys looks
up, and key_octets, octet_keys and octet_sums read them an octet at a
time, the last to sum matrix columns over their bits (octet_tables).

`margin_cells` is the one integer encoding of factor-subset margins that
the strength checks, the search, the oracle and the class invariants
count with, as octet sums of keys over its 0/1 run-by-cell columns
(count_keys).
"""

from __future__ import annotations

import csv
import itertools
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import prod
from typing import Iterable

import numpy as np


class ShapeMismatchError(ValueError):
    """Design and ambient (or operation requirement) shapes disagree."""


class ProblemTooLargeError(ValueError):
    """The brute-force subset space exceeds its ceiling, the designs' keys or
    the group table the key budget, or a level power the chunk budget."""


def default_levels(arity: int) -> tuple[Fraction, ...]:
    """Symmetric integer level sets: 2 -> (-1, 1), 3 -> (-1, 0, 1), 4 -> (-3, -1, 1, 3)."""
    if arity < 2:
        raise ValueError("factors need at least 2 levels")
    if arity % 2:
        return tuple(Fraction(v) for v in range(-(arity // 2), arity // 2 + 1))
    return tuple(Fraction(2 * i - (arity - 1)) for i in range(arity))


@dataclass(frozen=True)
class FactorSpec:
    """Ordered level set of one factor."""

    levels: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.levels) < 2:
            raise ValueError("factors need at least 2 levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError("levels must be distinct")
        if not all(isinstance(v, Fraction) for v in self.levels):
            object.__setattr__(self, "levels", tuple(Fraction(v) for v in self.levels))

    # Every lru_cache keyed by a factor or an ambient hashes it: the hash is
    # computed once per instance, while == stays field-based.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.levels)

    @property
    def arity(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class FullFactorial:
    """The ambient design: the product of its factors' level sets."""

    factors: tuple[FactorSpec, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    # Computed once per instance: the dataclass is frozen but not slotted, so
    # cached_property can store into __dict__; == stays field-based.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.factors)

    # A pickle holds the factors alone: an unpickled copy of the cached
    # index_vectors would be writeable.
    def __getstate__(self) -> dict:
        return {"factors": self.factors}

    @cached_property
    def radices(self) -> tuple[int, ...]:
        return tuple(f.arity for f in self.factors)

    @cached_property
    def run_count(self) -> int:
        return prod(self.radices)

    def decode(self, run: int) -> tuple[int, ...]:
        """Run index -> index vector: row `run` of index_vectors."""
        if not 0 <= run < self.run_count:
            raise IndexError(f"run {run} out of range")
        return tuple(self.index_vectors[operator.index(run)].tolist())

    @cached_property
    def index_vectors(self) -> np.ndarray:
        """The read-only m x n int64 level indices of every run, last factor fastest."""
        ivs = np.stack(np.unravel_index(np.arange(self.run_count), self.radices), axis=1)
        ivs.flags.writeable = False
        return ivs


def run_index(ambient: FullFactorial, digits) -> np.ndarray:
    """The run whose index vector is digits[:, ...]: the inverse of
    index_vectors, over the first axis of digits (one entry per factor,
    broadcast against each other as by np.ravel_multi_index)."""
    return np.ravel_multi_index(tuple(digits), ambient.radices)


def full_factorial(arities: Iterable[int]) -> FullFactorial:
    """Ambient with default symmetric levels, e.g. full_factorial([2, 2, 2, 2, 3]):
    one shared instance per arity tuple."""
    return _full_factorial(tuple(arities))


@lru_cache(maxsize=None)
def _full_factorial(arities: tuple[int, ...]) -> FullFactorial:
    return FullFactorial(tuple(FactorSpec(default_levels(r)) for r in arities))


def run_point(ambient: FullFactorial, run: int) -> tuple[Fraction, ...]:
    """The design point of a run index."""
    iv = ambient.decode(run)
    return tuple(f.levels[d] for f, d in zip(ambient.factors, iv))


@lru_cache(maxsize=None)
def all_points(ambient: FullFactorial) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(run_point(ambient, i) for i in range(ambient.run_count))


@dataclass(frozen=True)
class Design:
    """A fraction of the ambient factorial: a set of runs, kept sorted."""

    ambient: FullFactorial
    runs: tuple[int, ...]

    def __post_init__(self):
        m = self.ambient.run_count
        runs = self.runs
        # Valid run tuples pass in one C-level sweep; the loop names the first bad run.
        if runs and 0 <= runs[0] and runs[-1] < m and all(map(operator.lt, runs, runs[1:])):
            return
        prev = -1
        for r in runs:
            if not 0 <= r < m:
                raise IndexError(f"run {r} out of range")
            if r <= prev:
                raise ValueError("runs must be strictly increasing (no repeats)")
            prev = r

    @classmethod
    def from_runs(cls, ambient: FullFactorial, runs: Iterable[int]) -> "Design":
        runs = list(runs)
        ordered = sorted(runs)
        if len(set(ordered)) != len(runs):
            raise ValueError("repeated runs are not allowed")
        return cls(ambient, tuple(ordered))

    @property
    def size(self) -> int:
        return len(self.runs)

    def membership(self) -> list[int]:
        y = [0] * self.ambient.run_count
        for r in self.runs:
            y[r] = 1
        return y


@dataclass(frozen=True, eq=False)
class MarginCells:
    """The margin cells of every size-k factor subset of one ambient, numbered globally.

    Subsets come in itertools.combinations order, and the cells of one
    subset in lexicographic level order (last factor fastest), so subset s
    owns the cell ids starts[s] .. starts[s] + its volume - 1.
    """

    subsets: tuple[tuple[int, ...], ...]
    cells: np.ndarray  # cells[i, s]: the cell of subsets[s] that run i hits
    volumes: np.ndarray  # volumes[c]: the number of cells of c's subset
    starts: np.ndarray  # starts[s]: the first cell id of subsets[s]
    levels: np.ndarray  # levels[c]: the level indices of cell c on its subset's factors

    def count_keys(self, keys: np.ndarray, cells: np.ndarray | None = None) -> np.ndarray:
        """counts[b, k]: how many runs of the design with key row keys[b] hit
        cell cells[k] (default: every cell), summed by octet (octet_sums)
        from the 0/1 run-by-cell columns of those cells."""
        ids = None if cells is None else np.asarray(cells, dtype=np.int64).tobytes()
        return column_sums(keys, charged_tables(_cell_tables(self, ids), len(self.cells)))

    def balanced(self, counts: np.ndarray, size) -> np.ndarray:
        """balanced[b, s]: every cell of subsets[s] holds size/volume runs of row b."""
        return np.logical_and.reduceat(counts * self.volumes == size, self.starts, axis=1)


def key_words(m: int) -> int:
    """The number of uint64 words in a key of m runs: ceil(m/64)."""
    return -(-m // 64)


def key_capacity(keys: np.ndarray) -> int:
    """How many runs key rows have room for, 64 per word: more than any run of theirs."""
    return 64 * keys.shape[1]


def run_sums(lengths: np.ndarray, runs: np.ndarray, m: int) -> np.ndarray:
    """The keys (indexed_keys) of designs of m runs, each of distinct runs,
    with these run counts and concatenated runs.  Shorter rows are padded
    with run 64 W, which shifts out of every word.  A run outside [0, m)
    raises IndexError."""
    outside = (runs < 0) | (runs >= m)
    if outside.any():
        raise IndexError(f"run {runs[outside][0]} out of range")
    width = int(lengths.max(initial=0))
    if len(runs) == width * len(lengths):  # every row is `width` long
        return indexed_keys(runs.astype(np.uint64).reshape(len(lengths), width), m)
    padded = np.full((len(lengths), width), 64 * key_words(m), dtype=np.uint64)
    padded[np.arange(width) < lengths[:, None]] = runs
    return indexed_keys(padded, m)


def design_keys(designs, m: int) -> np.ndarray:
    """The key of every Design, or sequence of runs, of m runs: one row each."""
    rows = [d.runs if isinstance(d, Design) else d for d in designs]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    runs = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    return run_sums(lengths, runs, m)


def key_bits(keys: np.ndarray) -> np.ndarray:
    """The 0/1 uint8 membership row of every key, all 64 bits of every word,
    run r at column r: padding included."""
    return np.unpackbits(key_octets(keys), axis=1)


def unpack_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run counts and the concatenated sorted runs of the key rows: the
    inverse of run_sums.  The counts are popcounts of the words; the runs
    are the set bits' flat positions, less the 64 W bits of the rows before."""
    lengths = np.bitwise_count(keys).sum(axis=1, dtype=np.int64)
    capacity = key_capacity(keys)
    flat = np.flatnonzero(key_bits(keys).view(bool))
    return lengths, flat - np.repeat(np.arange(0, capacity * len(keys), capacity), lengths)


def key_runs(keys: np.ndarray) -> list[tuple[int, ...]]:
    """The sorted runs of every key row."""
    lengths, runs = unpack_runs(keys)
    ends = lengths.cumsum().tolist()
    flat = tuple(runs.tolist())
    return [flat[start:end] for start, end in zip([0, *ends], ends)]


def key_designs(ambient: FullFactorial, keys: np.ndarray) -> list[Design]:
    """One Design per key row."""
    return [Design(ambient, runs) for runs in key_runs(keys)]


def sort_keys(keys: np.ndarray) -> np.ndarray:
    """The key rows sorted lexicographically over their words: one np.sort of
    the single word for m <= 64, which forms no index, or the rows gathered
    in a lexsort, which holds at most 24 bytes per key beside them (its int64
    index and its copies of the words).  Among designs of one size, descending
    keys are ascending run tuples: the smallest run in which two designs
    differ is in the one whose tuple sorts first, and sets its bit."""
    return np.sort(keys, axis=0) if keys.shape[1] == 1 else keys[np.lexsort(keys.T[::-1])]


def search_keys(keys: np.ndarray) -> np.ndarray:
    """A 1-D array whose order and equality are those of the key rows, for
    np.searchsorted: the word itself, or the rows' big-endian bytes."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    return np.ascontiguousarray(keys.astype(">u8")).view(f"V{keys.shape[1] * 8}").ravel()


def sorted_search_keys(keys: np.ndarray) -> np.ndarray:
    """search_keys(sort_keys(keys)) with no copy beside the sorted one, which
    nothing else holds: for W >= 2 its words turn big-endian in place (on a
    big-endian machine they already are) and are read as ">u8"."""
    ordered = sort_keys(keys)
    if keys.shape[1] == 1:
        return ordered[:, 0]
    if sys.byteorder == "little":
        ordered.byteswap(inplace=True)
    return ordered.view(">u8").view(f"V{keys.shape[1] * 8}").ravel()


def search_rows(ordered: np.ndarray) -> np.ndarray:
    """The key rows of a search_keys array, its inverse: the word as a
    column, or the big-endian words as native uint64."""
    rows = ordered[:, None]
    return rows if rows.dtype == np.uint64 else rows.view(">u8").astype(np.uint64)


def find_keys(ordered: np.ndarray, needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each needle of a search_keys array, its position in a sorted,
    non-empty search_keys array of the same key width and whether it is there."""
    pos = np.minimum(np.searchsorted(ordered, needles), len(ordered) - 1)
    return pos, ordered[pos] == needles


def key_octets(keys: np.ndarray) -> np.ndarray:
    """The B x 8W uint8 octets of B key rows of W words: octet j holds runs
    8j .. 8j + 7, run 8j at its top bit."""
    return keys.astype(">u8").view(np.uint8)


def octet_keys(runs: np.ndarray, m: int) -> np.ndarray:
    """keys[v]: the key, of m runs, of the runs[i] (at most 8) whose bit is
    set in octet value v, runs[0] at the top bit as in key_octets.  An unset
    bit stands for run 64 W, which shifts out of every word (indexed_keys)."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)[:, : len(runs)]
    return indexed_keys(np.where(bits, runs, 64 * key_words(m)).astype(np.uint64), m)


# The most bytes that any chunk loop, here and in search.py, forms at once.
_CHUNK_BYTES = 1 << 20

# The key budget in bytes, read at call time: by every level of the sliced
# enumeration (search.py holds its byte model) and by classify.run_perm_table.
_MATRIX_BUDGET = 768 * 10**6


def octet_tables(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-octet sum tables of an m x C matrix of -1, 0 and 1, and the
    bias of each column, its -1 entries: tables[j, v, c] sums column c over
    the runs set in value v of octet j (key_octets), plus the column's -1
    entries in octet j, in lanes of the narrowest unsigned type that holds
    m, zero-padded to whole uint64 words.  A key's lane total, one row per
    octet added (octet_sums), lies in [0, nnz(column)] <= m: no lane
    carries into the next, and the total less the bias is the column sum.
    Raises ProblemTooLargeError when the tables would take more than
    _MATRIX_BUDGET bytes, before they are allocated."""
    m, n_columns = matrix.shape
    assert np.isin(matrix, (-1, 0, 1)).all()  # the lane bound: every lane total in [0, m]
    lane = next(t for t in (np.uint8, np.uint16, np.uint32) if m <= np.iinfo(t).max)
    width = np.dtype(lane).itemsize
    n_octets, n_lanes = -(-m // 8), -(-n_columns * width // 8) * 8 // width
    _charge_tables(n_octets * 256 * n_lanes * width, n_columns, m)
    padded = np.zeros((8 * n_octets, n_columns), dtype=np.int64)
    padded[:m] = matrix
    negative = (padded == -1).reshape(n_octets, 8, n_columns).sum(axis=1)
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int64)
    tables = np.zeros((n_octets, 256, n_lanes), dtype=lane)
    for j in range(n_octets):
        tables[j, :, :n_columns] = bits @ padded[8 * j : 8 * j + 8] + negative[j]
    bias = negative.sum(axis=0)
    tables.flags.writeable = bias.flags.writeable = False
    return tables, bias


def _charge_tables(size: int, n_columns: int, m: int) -> None:
    if size > _MATRIX_BUDGET:
        raise ProblemTooLargeError(
            f"the octet tables of {n_columns} columns on {m} runs take {size} bytes, "
            f"more than the key budget of {_MATRIX_BUDGET} bytes"
        )


def charged_tables(tables: tuple[np.ndarray, np.ndarray], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The octet_tables of a matrix on m runs, refused as octet_tables
    refuses them when they take more than _MATRIX_BUDGET bytes: cached
    tables meet the key budget on every use, as on the use that built them."""
    _charge_tables(tables[0].nbytes, len(tables[1]), m)
    return tables


def octet_sums(keys: np.ndarray, tables: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """For each key row, the sum of row (j, value of its octet j) of the J x
    256 x N uint64 tables over its first J octets (key_octets), into out
    (B x N, or new), formed a chunk of rows at a time whose words, gathers
    and octets take at most _CHUNK_BYTES."""
    out = np.empty((len(keys), tables.shape[2]), dtype=np.uint64) if out is None else out
    step = max(1, _CHUNK_BYTES // (16 * tables.shape[2] + 8 * keys.shape[1] + len(tables)))
    for start in range(0, len(keys), step):
        octets = np.ascontiguousarray(key_octets(keys[start : start + step])[:, : len(tables)].T)
        words = out[start : start + step]
        np.take(tables[0], octets[0], axis=0, out=words)
        for j in range(1, len(tables)):
            words += tables[j].take(octets[j], axis=0)
    return out


def column_sums(keys: np.ndarray, tables: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The B x C sums of the octet_tables' matrix columns over the bits of
    the key rows: int16 below 2^15 runs."""
    lanes, bias = tables
    totals = octet_sums(keys, lanes.view(np.uint64)).view(lanes.dtype)[:, : len(bias)]
    return np.subtract(totals, bias, dtype=np.int16 if 8 * len(lanes) < 2**15 else np.int64)


def indexed_keys(runs: np.ndarray, m: int) -> np.ndarray:
    """The B x key_words(m) keys of the rows of a B x s unsigned array of
    runs below m, each row's runs distinct.

    Word w of a row sums 2^63 >> (r - 64 w) over its runs r.  The unsigned
    subtraction wraps, and numpy makes a shift by 64 or more 0, so a run
    outside word w adds nothing.  The B x s uint64 terms are formed over
    chunks of rows that take at most _CHUNK_BYTES, and summed by einsum,
    which over rows this short is ~3x faster than sum(axis=1).
    """
    keys = np.empty((len(runs), key_words(m)), dtype=np.uint64)
    top = np.uint64(1 << 63)
    step = max(1, _CHUNK_BYTES // (8 * runs.shape[1] or 1))
    for start in range(0, len(runs), step):
        chunk = runs[start : start + step]
        for w in range(keys.shape[1]):
            shifts = chunk - 64 * w if w else chunk
            keys[start : start + step, w] = np.einsum("ij->i", np.right_shift(top, shifts))
    return keys


@lru_cache(maxsize=None)
def margin_cells(ambient: FullFactorial, k: int) -> MarginCells:
    """The cached margin-cell table of the size-k factor subsets (read-only arrays)."""
    m, radices, ivs = ambient.run_count, ambient.radices, ambient.index_vectors
    subsets = tuple(itertools.combinations(range(ambient.n_factors), k))
    columns, volumes, starts, levels = [], [], [], [np.zeros((0, k), dtype=np.int64)]
    for subset in subsets:
        offset = np.zeros(m, dtype=np.int64)
        for j in subset:
            offset = offset * radices[j] + ivs[:, j]
        starts.append(len(volumes))
        columns.append(starts[-1] + offset)
        volume = prod(radices[j] for j in subset)
        volumes.extend([volume] * volume)
        levels.append(np.zeros((volume, k), dtype=np.int64))
        levels[-1][offset] = ivs[:, subset]
    cells = np.array(columns, dtype=np.int64).reshape(len(subsets), m).T
    table = MarginCells(
        subsets, cells, np.array(volumes, dtype=np.int64), np.array(starts, dtype=np.int64), np.concatenate(levels)
    )
    for array in (table.cells, table.volumes, table.starts, table.levels):
        array.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _cell_tables(table: MarginCells, cells: bytes | None) -> tuple[np.ndarray, np.ndarray]:
    """The octet tables of the 0/1 run-by-cell columns of the cells whose
    ids are the int64 bytes cells, or of every cell."""
    m = len(table.cells)
    hits = np.zeros((m, len(table.volumes)), dtype=np.int64)  # hits[i, c]: run i hits cell c
    hits[np.arange(m)[:, None], table.cells] = 1
    return octet_tables(hits if cells is None else hits[:, np.frombuffer(cells, dtype=np.int64)])


def has_strength(design: Design, t: int) -> bool:
    """True iff every t-subset of factors shows all level combinations equally often.

    Balance for size-t subsets implies balance for all smaller subsets by
    marginalization, so only |J| = t is checked.
    """
    n = design.ambient.n_factors
    if not 1 <= t <= n:
        raise ValueError(f"strength must be in 1..{n}")
    table = margin_cells(design.ambient, t)
    keys = design_keys([design], design.ambient.run_count)
    return bool(table.balanced(table.count_keys(keys), design.size).all())


def supports_triple_invariant(ambient: FullFactorial) -> bool:
    """Ambient shaped as four {-1,1} factors followed by one three-level factor."""
    if ambient.n_factors != 5:
        return False
    two = {Fraction(-1), Fraction(1)}
    if any(set(f.levels) != two for f in ambient.factors[:4]):
        return False
    return ambient.factors[4].arity == 3


@lru_cache(maxsize=None)
def _sign_tables(ambient: FullFactorial) -> tuple[np.ndarray, np.ndarray]:
    """The octet tables of the J-characteristics of the four triples of
    two-level factors: at each run, the product over the triple's factors
    of +1 for a positive level value and -1 otherwise."""
    signs = np.where(np.array(all_points(ambient)) > 0, 1, -1)
    return octet_tables(np.stack([signs[:, list(t)].prod(axis=1) for t in itertools.combinations(range(4), 3)], axis=1))


def invariant_triples(
    ambient: FullFactorial, keys: np.ndarray
) -> list[tuple[int, tuple[int, int, int, int], int]]:
    """invariant_triple of the design of every key row, from the size-3 margin counts."""
    if not supports_triple_invariant(ambient):
        raise ShapeMismatchError("ambient is not 2x2x2x2x3 shaped")
    if np.any(np.bitwise_count(keys).sum(axis=1) != 24):
        raise ShapeMismatchError("invariants are defined for 24-run fractions")
    table = margin_cells(ambient, 3)
    counts = table.count_keys(keys)
    unbalanced = ~table.balanced(counts, 24)
    triples = [s for s, subset in enumerate(table.subsets) if 4 not in subset]
    mixed = [s for s, subset in enumerate(table.subsets) if 4 in subset]
    t1 = unbalanced[:, triples].sum(axis=1).tolist()
    t2 = unbalanced[:, mixed].sum(axis=1).tolist()
    signs = column_sums(keys, charged_tables(_sign_tables(ambient), ambient.run_count))
    jsets = (-np.sort(-np.abs(signs), axis=1)).tolist()
    return [(a, tuple(j), b) for a, j, b in zip(t1, jsets, t2)]


def invariant_triple(design: Design) -> tuple[int, tuple[int, int, int, int], int]:
    """Symmetry invariants of a 24-run fraction of the 2x2x2x2x3 ambient.

    Returns (T1, J, T2) where T1 is the number of unbalanced triples of
    two-level factors, J the descending absolute J-statistics of those four
    triples, and T2 the number of pairs (x_i, x_j) whose margins together
    with the three-level factor are not all equal.
    """
    return invariant_triples(design.ambient, design_keys([design], design.ambient.run_count))[0]


def load_design_csv(path, ambient: FullFactorial) -> Design:
    """Read a design file; rows may be in any order and are canonicalized.

    Duplicate rows are rejected: fractions are sets of runs.
    """
    point_index = {pt: i for i, pt in enumerate(all_points(ambient))}
    n = ambient.n_factors
    runs = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [f"x{j + 1}" for j in range(n)]:
            raise ValueError(f"expected header x1,...,x{n}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n:
                raise ValueError(f"line {lineno}: expected {n} values")
            try:
                pt = tuple(Fraction(v.strip()) for v in row)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: bad level value ({exc})") from None
            run = point_index.get(pt)
            if run is None:
                raise ValueError(f"line {lineno}: point {row} is not in the ambient design")
            runs.append(run)
    return Design.from_runs(ambient, runs)
