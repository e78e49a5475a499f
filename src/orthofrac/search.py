"""Exhaustive enumeration of orthogonal fractions of a given size and strength.

Two routes:

* `enumerate_keys` - the production engine.  When the ambient has at
  least two factors it partitions the runs by the level of the
  highest-arity factor into slices; any fraction of strength t restricts
  to one slice per level, of equal size and strength t-1, and conversely
  slices recombine exactly when the margin counts over the remaining
  factors sum to the uniform target.  The slice candidates are the
  fractions of strength t-1 of the sub-ambient, so the engine finds them
  by the same slice-and-join, down to strength 0, where every subset of
  the slice size qualifies, or to one factor, where only the empty set
  and the whole factor are balanced.  Every output is cross-checked
  against the algebraic characterization, independently of the margin
  counts, a chunk of keys at a time: [1; C] y = [s; 0] on the bits y of
  its key (fastcheck.BatchChecker).

  Every level returns keys of its ambient (designs).  The join keys a
  candidate by its counts on the free margin cells, those whose levels
  are all >= 1: the candidates share every lower-order margin, and given
  those the free cells fix the rest, so the key loses nothing.  The
  counts are octet sums of the candidates' keys over the cells' 0/1 run
  columns (MarginCells.count_keys), packed mixed-radix into one int64 word, or a
  Python int when the word bound is not below 2^62, and grouped by one
  np.unique.  One pairing step forms every slice level but the last, depth
  first from the empty assignment: a block of the assignments so far is
  paired with every key that still fits, in one compare per free cell, and
  one searchsorted finds the last level for all of a block's pairs.  No
  Python loop runs per key.  The join returns key ids and the exact
  design count.  It raises ProblemTooLargeError as soon as the designs,
  their join rows and the slice candidates pass the key budget in bytes
  (designs._MATRIX_BUDGET), before any design is built; the slice keys
  meet the same budget before they are formed, and at strength 0 the
  C(m, q) subsets before any is listed.  A design's key is the sum of its
  slices' keys, each embedded at its level once through per-octet lookup
  tables (designs.octet_keys and designs.octet_sums), summed a chunk of
  designs at a time.

* `brute_force_keys` - plain enumeration of all size-s subsets filtered
  by direct margin counting (octet sums of their keys), for small
  ambients.  Used to validate the engine.  It shares no join, slicing or
  materialising with the engine, but counts margins through the same
  MarginCells.count_keys; the tests check that count, and the oracle's
  output, against 0/1 membership rows counted cell by cell.

Both return designs sorted by run-index sequence, and both are
deterministic.  The CLI runs the *_keys stages; enumerate_orthogonal,
read_designs and write_designs are shims over them on Design lists.

The design file is rendered and read as bytes, through one renderer
(_render) of B designs of s runs each.  The reader takes a chunk of
canonical lines of one run count in bulk, as one B x s array checked by
rendering it again; any other chunk goes line by line (write_design_keys,
read_design_keys).  Keys are built, read, sorted and unpacked only
through designs, which owns their layout and the chunk budget of every
loop here (designs._CHUNK_BYTES, read at call time).
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np

from . import designs
from .algebra import _exact_dtype
from .designs import (
    Design, FullFactorial, ProblemTooLargeError, design_keys, indexed_keys, key_capacity, key_designs,
    key_runs, key_words, margin_cells, octet_keys, octet_sums, sort_keys, unpack_runs,
)
from .fastcheck import get_checker

# The key budget (designs._MATRIX_BUDGET), in bytes, of every level of the
# sliced enumeration.  On m runs, W = ceil(m/64), each design is charged
# 16 W + 8 bytes: at the sort in enumerate_keys (designs.sort_keys) its key,
# the key's sorted copy and, for W >= 2, the sort's int64 index are alive
# together (the sort's copies of the words it sorts by are gone by then);
# one word sorts with no index, in 16 bytes.  A level of r slices is also
# charged what it holds beside the designs' keys while it materialises them:
# 8 (2r + 3) bytes per join row (r key ids, r pool sizes, three int64
# offsets), 8 (r W + 2 W' + 2) bytes per slice candidate of W' words (the
# candidate, its copy in pool order, its pool id and sort index, its r
# embedded keys), and the free-cell counts and packed word of each slice
# key (_held_bytes).  These arrays never all live at once, so the sum
# bounds their peak; chunked temporaries of about _CHUNK_BYTES come on top.
# The join counts designs and rows before anything is built.  _slice_keys
# is charged before it runs, 2F + 65 bytes per slice candidate for F free
# cells: the int16 counts and the packed word while it packs (2F + 24),
# the packed word and unique's seven int64 arrays and bool mask while
# np.unique runs (65), and at most 2F + 48 while it counts the distinct
# keys again (their counts, candidates and ids, and every candidate's pool
# id and word).  768 MB admits 3.2 * 10^7 designs of one word or 1.9 *
# 10^7 of two, less what their join rows and candidates take.

# The most size-s subsets the brute-force oracle filters.
_ORACLE_CEILING = 10**8


class CrossCheckError(RuntimeError):
    """An enumerated design failed the algebraic cross-check: an internal fault."""


@dataclass(frozen=True)
class SearchProblem:
    """An enumeration instance."""

    ambient: FullFactorial
    size: int
    strength: int
    workers: int = 1  # inert: the benchmark's traced pass still passes workers=2

    def __post_init__(self):
        if not 0 <= self.size <= self.ambient.run_count:
            raise ValueError("size out of range")
        if not 1 <= self.strength <= self.ambient.n_factors:
            raise ValueError("strength out of range")


# ---------------------------------------------------------------------------
# Slice-and-join decomposition


def _default_slicing_factor(ambient: FullFactorial) -> int:
    radices = ambient.radices
    top = max(radices)
    return max(j for j, r in enumerate(radices) if r == top)


def _sub_ambient(ambient: FullFactorial, p: int) -> FullFactorial:
    return FullFactorial(tuple(f for j, f in enumerate(ambient.factors) if j != p))


def _embedding_tables(ambient: FullFactorial, p: int) -> np.ndarray:
    """tables[c, sub_run]: the ambient run with the slicing factor p at level
    c and the other factors at sub_run's levels.  The runs at level c, in
    run order, list the sub-ambient's index vectors in its run order."""
    levels = ambient.index_vectors[:, p]
    return np.array([np.flatnonzero(levels == c) for c in range(ambient.radices[p])])


@lru_cache(maxsize=None)
def _byte_tables(ambient: FullFactorial, p: int) -> np.ndarray:
    """tables[c, j, v]: the ambient key of the sub-runs that value v of octet
    j of a sub-ambient key stands for, placed at level c of the slicing
    factor p (read-only).  Octet j holds sub-runs 8j .. 8j + 7
    (designs.key_octets), so a sub-key embeds at level c as the sum of one
    table row per octet."""
    embed = _embedding_tables(ambient, p)
    octets = range(0, embed.shape[1], 8)
    tables = np.array([[octet_keys(runs[j : j + 8], ambient.run_count) for j in octets] for runs in embed])
    tables.flags.writeable = False
    return tables


def _embedded(candidates: np.ndarray, ambient: FullFactorial, p: int) -> np.ndarray:
    """embedded[c, i]: the ambient key of sub-ambient key candidates[i] placed
    at level c of the slicing factor p (designs.octet_sums: the sub-keys'
    runs are disjoint, so their sum is their union)."""
    tables = _byte_tables(ambient, p)
    embedded = np.empty((len(tables), len(candidates), tables.shape[3]), dtype=np.uint64)
    for c, level in enumerate(tables):
        octet_sums(candidates, level, out=embedded[c])
    return embedded


@lru_cache(maxsize=None)
def _free_cells(sub: FullFactorial, strength: int) -> np.ndarray:
    """The ids, in margin_cells(sub, strength), of the cells whose levels
    (MarginCells.levels) are all >= 1 (read-only)."""
    free = np.flatnonzero(np.all(margin_cells(sub, strength).levels >= 1, axis=1))
    free.flags.writeable = False
    return free


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
    """Key the slice candidates (sub-ambient keys, one per row) by their
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
    counts = table.count_keys(candidates, free)
    # Digit c runs over 0 .. radix[c] - 1, which holds the key counts and
    # the target, so packing is injective on every count the join compares,
    # and each word it forms is below prod(radix) in magnitude.
    radix = np.maximum(counts.max(axis=0, initial=0), target) + 1
    dtype = _exact_dtype(prod(radix.tolist()))
    weights = np.ones(len(radix), dtype=dtype)
    for c in range(len(radix) - 2, -1, -1):
        weights[c] = weights[c + 1] * int(radix[c + 1])
    words = np.zeros(len(counts), dtype=dtype)
    for c, weight in enumerate(weights):
        words += counts[:, c].astype(dtype) * weight
    del counts  # gone before np.unique runs; the distinct keys are counted again (see the key budget)
    packed, first, pool = np.unique(words, return_index=True, return_inverse=True)
    return _SliceKeys(pool, table.count_keys(candidates[first], free), packed, weights, target)


# Each key assignment that a join block pairs with a key is charged the
# bytes of every array it has a place in, though they are never all alive
# at once: its bool fit and the bool compare of one free cell, its int64
# flat index and packed word, the two position arrays of its searchsorted
# and its bool hit (1 + 1 + 8 + 8 + 16 + 1); 8 bytes per key id of its row;
# and its free-cell counts left, while a level follows.
_PAIR_BYTES = 35


def _join_blocks(keys: _SliceKeys, n_levels: int):
    """Blocks of join rows: the n_levels-tuples of key ids whose free-cell
    counts sum to the target, one per row.

    One pairing step forms every level but the last, depth first from the
    empty assignment: the assignments so far go in blocks, and one
    broadcast compare per free cell pairs a block with every key that still
    fits.  A block's compares and per-pair arrays take at most
    designs._CHUNK_BYTES (_PAIR_BYTES), and one block of assignments waits
    per level.  The last level is the key whose word is the target's minus
    the others': one searchsorted per block.  The counts left for it lie in
    [0, target], within every digit's range, where packing is injective, so
    only their word is formed.
    """
    free, packed = keys.free, keys.packed
    goal = keys.target @ keys.weights
    cells = np.ascontiguousarray(free.T)
    stack = [([], keys.target.astype(free.dtype)[None], np.zeros(1, dtype=packed.dtype))]
    while stack:
        heads, left, word = stack.pop()
        last = len(heads) == n_levels - 2
        pair_bytes = _PAIR_BYTES + 8 * (len(heads) + 1) + (0 if last else free.itemsize * free.shape[1])
        step = max(1, designs._CHUNK_BYTES // ((len(packed) or 1) * pair_bytes))
        if len(word) > step:
            stack.append(([head[step:] for head in heads], left[step:], word[step:]))
            heads, left, word = [head[:step] for head in heads], left[:step], word[:step]
        ok = np.ones((len(word), len(packed)), dtype=bool)
        for c, column in enumerate(cells):
            ok &= column <= left[:, c, None]
        a, b = np.divmod(np.flatnonzero(ok), len(packed))
        if not last:
            stack.append(([head[a] for head in heads] + [b], left[a] - free[b], word[a] + packed[b]))
            continue
        need = goal - word[a]
        need -= packed[b]
        k = np.minimum(np.searchsorted(packed, need), len(packed) - 1)
        hit = packed[k] == need
        a = a[hit]
        rows = np.empty((len(a), n_levels), dtype=np.int64)
        for c, head in enumerate(heads):
            rows[:, c] = head[a]
        rows[:, -2] = b[hit]
        rows[:, -1] = k[hit]
        yield rows


def _join_assignments(
    keys: _SliceKeys, n_levels: int, room: int, design_bytes: int
) -> tuple[np.ndarray, int]:
    """Every n_levels-tuple of key ids whose free-cell counts sum to the target,
    one per row (_join_blocks), and the exact number of designs they make:
    the sum over rows of the product of the rows' pool sizes.

    Raises ProblemTooLargeError as soon as the designs, at design_bytes
    each, and the rows, at 8 (2 n_levels + 3) bytes each, take more than
    `room` bytes (see the key budget).
    """
    # Each row's product, and their sum, is at most len(pool)^n_levels.
    pool_sizes = np.bincount(keys.pool).astype(_exact_dtype(len(keys.pool) ** n_levels))
    row_bytes = 8 * (2 * n_levels + 3)
    chunks = [np.zeros((0, n_levels), dtype=np.int64)]
    count = n_rows = merged = n_merged = 0
    for rows in _join_blocks(keys, n_levels):
        count += int(pool_sizes[rows].prod(axis=1).sum())
        n_rows += len(rows)
        if count * design_bytes + n_rows * row_bytes > room:
            raise ProblemTooLargeError(
                f"at least {count} designs exceed the key budget of {designs._MATRIX_BUDGET} bytes for this ambient"
            )
        chunks.append(rows)
        # The blocks' rows merge into arrays of about _CHUNK_BYTES: a few
        # large arrays, once freed, leave no heap holes scattered between
        # live allocations, which would stay resident through the sort.
        if 8 * n_levels * (n_rows - n_merged) >= designs._CHUNK_BYTES:
            chunks[merged:] = [np.concatenate(chunks[merged:])]
            merged, n_merged = len(chunks), n_rows
    return np.concatenate(chunks), count


def _held_bytes(candidates: np.ndarray, keys: _SliceKeys, r: int, words: int) -> int:
    """What a level of r slices holds beside its design keys and join rows
    while it materialises them (see the key budget): the slice candidates,
    their copy in pool order, pool ids and sort index, and r embedded keys
    of `words` words each; and the free-cell counts and packed word of
    every slice key."""
    n = len(candidates)
    return 2 * candidates.nbytes + 16 * n + 8 * r * words * n + keys.free.nbytes + keys.packed.nbytes


def _materialize(
    ids: np.ndarray, count: int, pool: np.ndarray, candidates: np.ndarray, ambient: FullFactorial, p: int
) -> np.ndarray:
    """The key of every candidate combination of every key assignment, one
    design per row (unsorted): `count` rows, built a chunk of rows at a time.

    Design j of an assignment with pool sizes n_0..n_{r-1} takes, at level
    c, candidate (j // (n_{c+1} ... n_{r-1})) % n_c of the pool of its key.
    Its key is the sum of its r candidates' keys, each embedded once per
    level (_embedded).
    """
    pool_sizes = np.bincount(pool)
    pool_starts = np.cumsum(pool_sizes) - pool_sizes
    embedded = _embedded(candidates[np.argsort(pool, kind="stable")], ambient, p)
    sizes = pool_sizes[ids]
    totals = sizes.prod(axis=1)
    ends = np.cumsum(totals)
    starts = ends - totals
    out = np.zeros((count, embedded.shape[2]), dtype=np.uint64)
    # A chunk's rows hold, besides their key words, three int64 indices each.
    step = max(1, designs._CHUNK_BYTES // (8 * (out.shape[1] + 3)))
    for start in range(0, count, step):
        stop = min(start + step, count)
        first, last = np.searchsorted(ends, [start, stop - 1], side="right")
        spans = np.minimum(ends[first : last + 1], stop) - np.maximum(starts[first : last + 1], start)
        which = np.repeat(np.arange(first, last + 1), spans)
        local = np.arange(start, stop) - starts[which]
        for c in range(len(embedded) - 1, -1, -1):
            local, digit = np.divmod(local, sizes[which, c])
            out[start:stop] += embedded[c].take(pool_starts[ids[which, c]] + digit, axis=0)
    return out


def _subset_keys(m: int, size: int):
    """The keys of the size-subsets of m runs, in itertools.combinations
    order, in chunks whose uint64 run indices take at most
    designs._CHUNK_BYTES."""
    combos = itertools.combinations(range(m), size)
    step = max(1, designs._CHUNK_BYTES // (8 * size or 1))
    while chunk := list(itertools.islice(combos, step)):
        yield indexed_keys(np.array(chunk, dtype=np.uint64).reshape(len(chunk), size), m)


def _enumerate_keys(ambient: FullFactorial, size: int, strength: int) -> np.ndarray:
    """The key of every fraction of this size and strength, one design per
    row, in no particular order.

    At strength 0 every size-`size` subset qualifies.  An ambient of one
    factor has one run per level, so at strength 1 only the empty set and
    the whole factor are balanced.  Otherwise the runs are sliced on the
    last factor of maximal arity (_default_slicing_factor); the slice
    candidates, the sub-ambient's fractions of strength one less, come from
    this same function, and the slices are joined.  The key budget
    (designs._MATRIX_BUDGET) bounds the strength-0 subsets, the slice keys
    and the join.
    """
    m = ambient.run_count
    words = key_words(m)
    design_bytes = 16 * words + 8
    empty = np.zeros((0, words), dtype=np.uint64)
    if strength == 0:
        total = comb(m, size)
        if total * design_bytes > designs._MATRIX_BUDGET:
            raise ProblemTooLargeError(
                f"C({m},{size}) = {total} subsets exceed the key budget of {designs._MATRIX_BUDGET} bytes "
                "for this ambient"
            )
        return np.concatenate([empty, *_subset_keys(m, size)])
    if ambient.n_factors == 1:
        return np.concatenate([empty, *_subset_keys(m, size)]) if size in (0, m) else empty
    p = _default_slicing_factor(ambient)
    r = ambient.radices[p]
    if size % r:
        return empty
    sub = _sub_ambient(ambient, p)
    candidates = _enumerate_keys(sub, size // r, strength - 1)
    if len(candidates) * (2 * len(_free_cells(sub, strength)) + 65) > designs._MATRIX_BUDGET:
        raise ProblemTooLargeError(
            f"{len(candidates)} slice candidates exceed the key budget of {designs._MATRIX_BUDGET} bytes "
            "for this ambient"
        )
    keys = _slice_keys(sub, candidates, size, strength)
    if keys is None:
        return empty
    room = designs._MATRIX_BUDGET - _held_bytes(candidates, keys, r, words)
    ids, count = _join_assignments(keys, r, room, design_bytes)
    if not count:
        return empty
    return _materialize(ids, count, keys.pool, candidates, ambient, p)


# ---------------------------------------------------------------------------
# Public entry points


def _cross_check(keys: np.ndarray, problem: SearchProblem) -> None:
    """Algebraic verification of every output key: [1; C] y = [s; 0] on its bits y."""
    ok = get_checker(problem.ambient).verify(keys, problem.size, problem.strength)
    if not bool(np.all(ok)):
        bad = int(np.flatnonzero(~ok)[0])
        raise CrossCheckError(
            f"internal consistency failure: design {key_runs(keys[bad : bad + 1])[0]} "
            "fails the algebraic check"
        )


def enumerate_keys(problem: SearchProblem) -> np.ndarray:
    """enumerate_orthogonal as keys (designs): one row per design."""
    m = problem.ambient.run_count
    keys = _enumerate_keys(problem.ambient, problem.size, problem.strength)
    # All designs have one size, so descending keys sort them by run tuple.
    keys = sort_keys(keys)[::-1]
    step = _chunk_rows(m)
    for start in range(0, len(keys), step):
        _cross_check(keys[start : start + step], problem)
    return keys


def enumerate_orthogonal(problem: SearchProblem) -> list[Design]:
    """All fractions of the given size and strength, sorted by run sequence.

    Output is deterministic, and every design is cross-checked against the
    algebraic characterization before being returned.
    """
    return key_designs(problem.ambient, enumerate_keys(problem))


def brute_force_keys(problem: SearchProblem) -> np.ndarray:
    """The keys (designs) of every size-s subset that direct margin counting
    finds balanced, one row per design.

    Independent of the search engine; refuses to run above _ORACLE_CEILING
    subsets.
    """
    m = problem.ambient.run_count
    total = comb(m, problem.size)
    if total > _ORACLE_CEILING:
        raise ProblemTooLargeError(f"C({m},{problem.size}) = {total} exceeds the ceiling {_ORACLE_CEILING}")
    table = margin_cells(problem.ambient, problem.strength)
    out = [np.zeros((0, key_words(m)), dtype=np.uint64)]
    if np.any(problem.size % table.volumes):
        return out[0]
    for keys in _subset_keys(m, problem.size):
        out.append(keys[table.balanced(table.count_keys(keys), problem.size).all(axis=1)])
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Results file format: one design per line as "[i1, i2, ...]", then a
# trailing "# count: N" summary line.  A canonical line is one that equals
# the writer's rendering of its runs (_render): in range, strictly
# increasing, ", " separators, no leading zeros, one "\n".  Both directions
# work in chunks, on bytes.  The writer renders a chunk of key rows at a
# time from their popcounts and set bits (designs.unpack_runs), each
# stretch of rows with equal run counts as one B x s array.  The reader
# takes byte chunks that end on a line boundary, each by one of two routes.
# When the lines that do not start with "#" all hold s runs and are
# canonical, the chunk is read in bulk: its numbers are read as one B x s
# array, none may be out of range or out of order, and one byte compare
# with that array's rendering accepts it (_canonical_lines).  Otherwise
# every line of the chunk is decoded and read on its own as JSON, in file
# order, so blank and "#" lines are skipped and the first bad line raises
# its error.  The count lines are checked once every line has read
# (read_design_keys).

# The writer renders and the cross-check checks chunks of B key rows whose
# B x m bits, or B x R word sums ([1; C_1; ...; C_t] has R <= m rows, in
# lanes of at most two bytes for m < 2^16), take at most
# designs._CHUNK_BYTES.  The reader takes chunks of
# _CHUNK_BYTES // _READ_PEAK_PER_CHAR bytes, or characters from a text
# handle, completed to the end of their line, so that a chunk's numpy
# temporaries stay within _CHUNK_BYTES: reading then faults in far fewer
# fresh pages than with chunks of _CHUNK_BYTES bytes.
# The tracemalloc peak of _read_chunk per byte on full chunks: 9.5 on the
# 2^4*3 file, 9.4 on 3^4, 9.5 on 2^6 and 9.4 on the three-digit 2^7 file.
# The chunk that holds the "# count" line is copied without it first: 10.6,
# 10.4, 10.3 and 10.2.
_READ_PEAK_PER_CHAR = 13


def _chunk_rows(m: int) -> int:
    return max(1, designs._CHUNK_BYTES // (8 * m))


@lru_cache(maxsize=None)
def _tokens(m: int) -> np.ndarray:
    """The read-only tokens of canonical lines on m runs, NUL-padded to one
    fixed width: "r, " for every run r, then "r]\n" for every run, then "["."""
    texts = [f"{r}, " for r in range(m)] + [f"{r}]\n" for r in range(m)] + ["["]
    tokens = np.array([t.encode() for t in texts])
    tokens.flags.writeable = False
    return tokens


def _render(runs: np.ndarray, m: int) -> bytes:
    """The canonical lines of the rows of a B x s array of runs, every run
    below m: one take of the tokens, then the pad bytes dropped."""
    if not runs.shape[1]:
        return b"[]\n" * len(runs)
    ids = np.empty((len(runs), runs.shape[1] + 1), dtype=np.intp)
    ids[:, 0] = 2 * m
    ids[:, 1:] = runs
    ids[:, -1] += m  # the last run closes its line
    return np.take(_tokens(m), ids).tobytes().translate(None, b"\0")


def write_design_keys(keys: np.ndarray, fh) -> None:
    """One canonical line per key row (designs), then "# count: N"."""
    m = key_capacity(keys)
    step = _chunk_rows(m)
    for start in range(0, len(keys), step):
        lengths, runs = unpack_runs(keys[start : start + step])
        lines, at = [], 0
        for rows in np.split(lengths, np.flatnonzero(np.diff(lengths)) + 1):
            size = len(rows) * int(rows[0])
            lines.append(_render(runs[at : at + size].reshape(len(rows), int(rows[0])), m))
            at += size
        fh.write(b"".join(lines).decode())
    fh.write(f"# count: {len(keys)}\n")


def write_designs(designs: list[Design], fh) -> None:
    """write_design_keys for a list of Designs."""
    m = max((d.ambient.run_count for d in designs), default=1)
    write_design_keys(design_keys(designs, m), fh)


_INT_TYPE = frozenset((int,))


def _decoded(line: bytes, lineno: int) -> str:
    """One line of a design file as text, or its UTF-8 error."""
    try:
        return line.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


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


def _hash_lines(data: bytes) -> tuple[bytes | None, list[tuple[int, int, int]]]:
    """data without its lines that start with "#", and the index, start and
    end of each of those lines; None and no lines when a "#" sits inside a
    line, as in no canonical line."""
    kept, lines, end, i = [], [], 0, 0
    while (at := data.find(b"#", end)) >= 0:
        if at and data[at - 1] != ord("\n"):
            return None, []
        i += data.count(b"\n", end, at)
        kept.append(data[end:at])
        end = data.index(b"\n", at) + 1
        lines.append((i, at, end))
        i += 1
    return b"".join(kept) + data[end:], lines


def _canonical_lines(data: bytes, m: int) -> np.ndarray | None:
    """The B x s runs of the B lines of data, which ends with a newline,
    when every line holds s runs and is canonical, else None.

    Every maximal run of digits is a number, read from its last
    len(str(m-1)) digits.  The lines are counted by their newlines; when
    the numbers split evenly into them, they are read as one B x s array.
    When each row strictly increases and ends below m, one compare of data
    with the rendering of the array decides.  That comparison is what makes
    the loose parse safe: a canonical line parses back to the runs it
    renders, and a chunk whose lines hold different run counts renders
    other bytes.
    """
    view = np.frombuffer(data, dtype=np.uint8)
    n_lines = int(np.count_nonzero(view == ord("\n")))
    width = len(str(m - 1))
    # Digit values, wrapping below "0", behind width - 1 non-digit pad bytes:
    # shifted[width - 1 - k :][i] is digits[i - k], or a pad byte for i < k.
    shifted = np.full(len(data) + width - 1, 255, dtype=np.uint8)
    digits = shifted[width - 1 :]
    np.subtract(view, np.uint8(48), out=digits)
    is_digit = digits < 10
    last = np.flatnonzero(is_digit[:-1] > is_digit[1:])  # each number's last digit
    size, extra = divmod(len(last), n_lines or 1)
    if extra:
        return None
    dtype = np.int16 if 10**width <= np.iinfo(np.int16).max else np.int32  # at most 9 digits for m <= 10^9
    value = np.take(digits, last).astype(dtype)
    in_number = np.ones(len(last), dtype=bool)
    for k in range(1, width):
        d = np.take(shifted[width - 1 - k :], last)
        in_number &= d < 10
        value += (d * in_number).astype(dtype) * dtype(10**k)
    runs = value.reshape(n_lines, size)
    # _render takes runs below m only.
    if runs.shape[1] and (np.any(runs[:, 1:] <= runs[:, :-1]) or runs[:, -1].max() >= m):
        return None
    return runs if _render(runs, m) == data else None


def _read_chunk(data: bytes, first_line: int, ambient: FullFactorial) -> tuple[np.ndarray, int, list]:
    """The keys of the design lines of data, a whole number of lines, in
    order, its line count, and the line number, N and the design lines
    before it in data of each "# count: N" line; its first line is line
    first_line + 1.  Either every line is read in bulk, or every line goes
    through _parse_line in file order."""
    m = ambient.run_count
    if not data.endswith(b"\n"):
        data += b"\n"  # the file's last line; stripped away either way
    design_lines, hashed = _hash_lines(data)
    runs = None if design_lines is None else _canonical_lines(design_lines, m)
    if runs is not None:
        # Every line but the "#" lines is a design line: line i follows k "#" lines.
        marks = []
        for k, (i, start, end) in enumerate(hashed):
            if count := _COUNT_LINE.fullmatch(_decoded(data[start:end], first_line + i + 1).strip()):
                marks.append((first_line + i + 1, int(count[1]), i - k))
        return indexed_keys(runs.astype(np.uint64), m), len(runs) + len(hashed), marks
    parsed, marks = [], []
    lines = data.split(b"\n")[:-1]
    for i, raw in enumerate(lines):
        line = _decoded(raw, first_line + i + 1).strip()
        if line and line[0] != "#":
            parsed.append(_parse_line(line, first_line + i + 1, ambient))
        elif count := _COUNT_LINE.fullmatch(line):
            marks.append((first_line + i + 1, int(count[1]), len(parsed)))
    return design_keys(parsed, m), len(lines), marks


_COUNT_LINE = re.compile(r"#\s*count:\s*(\d+)")


def read_design_keys(fh, ambient: FullFactorial) -> np.ndarray:
    """read_designs as keys (designs): one row per design line, in file order.

    Reads fh, a binary or a text handle, in chunks of
    designs._CHUNK_BYTES // _READ_PEAK_PER_CHAR bytes, or characters, each
    completed to the end of its line; a text chunk is encoded to UTF-8
    once, as it is read.  A chunk whose design lines all hold one run
    count and are canonical, but for "#" lines, is read in bulk; every line
    of any other chunk, mixed run counts included, is decoded and goes
    through _parse_line, so the first bad line raises its error, invalid
    UTF-8 too.  An input that holds neither a design line nor a "#" line,
    not even "# count: 0", raises ValueError: it is what a failed writer
    leaves behind, blank lines or not.  A "#" anywhere in an input that
    reads without error starts a "#" line, since no design line holds one.
    Once every line has read, each "# count: N" line must follow N design
    lines since the last count line or the start, and none may follow the
    last, so two written files concatenated read; an input with no count
    line is read as it is.
    """
    chunks = [np.zeros((0, key_words(ambient.run_count)), dtype=np.uint64)]
    lines, total, marked, marks = 0, 0, False, []
    while chunk := fh.read(max(1, designs._CHUNK_BYTES // _READ_PEAK_PER_CHAR)):
        if isinstance(chunk, str):
            chunk = (chunk if chunk.endswith("\n") else chunk + fh.readline()).encode()
        elif not chunk.endswith(b"\n"):
            chunk += fh.readline()
        keys, count, chunk_marks = _read_chunk(chunk, lines, ambient)
        marks += [(line, n, total + before) for line, n, before in chunk_marks]
        chunks.append(keys)
        lines += count
        total += len(keys)
        marked = marked or b"#" in chunk
    if not total and not marked:
        raise ValueError("the design list is empty: not even a '# count' line")
    counted = 0
    for line, count, before in marks:
        if (since := before - counted) != count:
            raise ValueError(f"line {line}: '# count: {count}', but {since} design lines since the last count")
        counted = before
    if marks and (since := total - counted):
        raise ValueError(f"line {line}: {since} design lines after the last count: the input was cut or joined")
    return np.concatenate(chunks)


def read_designs(fh, ambient: FullFactorial) -> list[Design]:
    return key_designs(ambient, read_design_keys(fh, ambient))
