import io
import itertools
import json
import random
import re
from math import comb

import numpy as np
import pytest

import reference
from conftest import random_ambient, sign_fraction
from orthofrac.algebra import indicator_from_design
from orthofrac.catalog import cross_check_classes
from orthofrac.classify import act, classification_report, classify, classify_keys, generate_group
from orthofrac import algebra, designs, fastcheck, search
from orthofrac.designs import (
    Design,
    default_levels,
    design_keys,
    full_factorial,
    has_strength,
    key_bits,
    key_designs,
    key_runs,
    margin_cells,
)
from orthofrac.search import (
    _embedding_tables,
    _enumerate_keys,
    _free_cells,
    _join_assignments,
    _slice_keys,
    _sub_ambient,
    CrossCheckError,
    ProblemTooLargeError,
    SearchProblem,
    brute_force_keys,
    enumerate_keys,
    enumerate_orthogonal,
    read_design_keys,
    read_designs,
    write_design_keys,
    write_designs,
)
from reference import bitset_keys, brute_force_oracle, full_design, verify_theta


def test_half_fractions_of_2cubed():
    # Frozen from the brute-force oracle: exactly the two regular halves.
    amb = full_factorial([2, 2, 2])
    result = enumerate_orthogonal(SearchProblem(amb, 4, 2))
    assert [d.runs for d in result] == [(0, 3, 5, 6), (1, 2, 4, 7)]
    assert result == brute_force_oracle(SearchProblem(amb, 4, 2))


def test_diagonal_halves_of_2x2():
    amb = full_factorial([2, 2])
    result = brute_force_oracle(SearchProblem(amb, 2, 1))
    assert [d.runs for d in result] == [(0, 3), (1, 2)]
    assert result == enumerate_orthogonal(SearchProblem(amb, 2, 1))


def test_indivisible_size_gives_no_designs():
    amb = full_factorial([2, 2])
    assert enumerate_orthogonal(SearchProblem(amb, 3, 2)) == []
    assert brute_force_oracle(SearchProblem(amb, 3, 2)) == []


def test_single_factor_ambient():
    amb = full_factorial([3])
    assert [d.runs for d in enumerate_orthogonal(SearchProblem(amb, 3, 1))] == [(0, 1, 2)]
    assert enumerate_orthogonal(SearchProblem(amb, 2, 1)) == []
    assert brute_force_oracle(SearchProblem(amb, 2, 1)) == []


def test_degenerate_sizes():
    amb = full_factorial([2, 3])
    empty = enumerate_orthogonal(SearchProblem(amb, 0, 1))
    assert [d.runs for d in empty] == [()]
    full = enumerate_orthogonal(SearchProblem(amb, 6, 2))
    assert full == [full_design(amb)]


def test_oracle_equivalence_2x2x3():
    amb = full_factorial([2, 2, 3])
    for size, strength in ((6, 1), (6, 2), (4, 1)):
        engine = enumerate_orthogonal(SearchProblem(amb, size, strength))
        oracle = brute_force_oracle(SearchProblem(amb, size, strength))
        assert engine == oracle
    # 6 runs cannot balance the 2x2 pair cells (6 % 4 != 0).
    assert enumerate_orthogonal(SearchProblem(amb, 6, 2)) == []


def test_oracle_equivalence_on_rational_levels():
    # The engine acts on index structure only; arbitrary rational level
    # sets must give the same designs as the oracle.
    amb = reference.from_level_sets([(0, "1/2"), ("-1", "1/3", 2), (1, 5)])
    for size, strength in ((6, 1), (6, 2), (4, 1)):
        engine = enumerate_orthogonal(SearchProblem(amb, size, strength))
        oracle = brute_force_oracle(SearchProblem(amb, size, strength))
        assert engine == oracle


def test_oracle_equivalence_2_to_the_4():
    amb = full_factorial([2, 2, 2, 2])
    engine = enumerate_orthogonal(SearchProblem(amb, 8, 2))
    oracle = brute_force_oracle(SearchProblem(amb, 8, 2))
    assert engine == oracle
    assert len(engine) == 10


def test_oracle_equivalence_square_grids():
    # One run per row and column: the permutations of 6, 7 and 8 symbols.
    amb = full_factorial([6, 6])
    engine = enumerate_orthogonal(SearchProblem(amb, 6, 1))
    assert engine == brute_force_oracle(SearchProblem(amb, 6, 1))
    assert len(engine) == 720
    assert len(enumerate_orthogonal(SearchProblem(full_factorial([7, 7]), 7, 1))) == 5040
    # 8 x 8: the largest ambient whose cross-check runs in int64 step by step.
    amb = full_factorial([8, 8])
    result = enumerate_orthogonal(SearchProblem(amb, 8, 1))
    assert len(result) == 40320
    for d in result:
        for j in (0, 1):
            assert sorted(amb.decode(i)[j] for i in d.runs) == list(range(8))


def test_every_output_is_sound():
    amb = full_factorial([2, 2, 3])
    result = enumerate_orthogonal(SearchProblem(amb, 6, 1))
    assert result
    for d in result:
        assert has_strength(d, 1)
        assert verify_theta(indicator_from_design(d), amb, 6, 1)


def test_enumeration_closed_under_group():
    amb = full_factorial([2, 2, 2])
    result = enumerate_orthogonal(SearchProblem(amb, 4, 2))
    found = {d.runs for d in result}
    for g in generate_group(amb):
        for d in result:
            assert act(g, d).runs in found


def test_explicit_slicing_factor_choice_is_equivalent(monkeypatch):
    # Slicing the top ambient on any factor finds the same designs; the
    # sub-ambients keep their own default factor.
    amb = full_factorial([2, 2, 3])
    default = enumerate_orthogonal(SearchProblem(amb, 6, 1))
    choose = search._default_slicing_factor
    for p in range(3):
        monkeypatch.setattr(search, "_default_slicing_factor", lambda a, p=p: p if a == amb else choose(a))
        assert enumerate_orthogonal(SearchProblem(amb, 6, 1)) == default


def test_recursive_candidates_match_backtracking():
    # Differential: the slice-and-join, recursing down to strength 0 or one
    # factor, lists the fractions the backtracking search finds, for every
    # strength 0..n and every size each margin volume divides.
    rng = random.Random(53)
    ambients = [full_factorial([4, 2, 2]), full_factorial([2, 2, 2, 2])]
    ambients += [random_ambient(rng) for _ in range(30)]
    strengths_seen, several, rational = set(), 0, 0
    for amb in ambients:
        rational += any(f.levels != default_levels(f.arity) for f in amb.factors)
        for strength in range(amb.n_factors + 1):
            volumes = margin_cells(amb, strength).volumes
            for size in range(amb.run_count + 1):
                if np.any(size % volumes):
                    continue
                keys = _enumerate_keys(amb, size, strength)
                assert keys.shape[1] == -(-amb.run_count // 64)
                found = sorted(key_runs(keys))
                assert all(len(runs) == size for runs in found)
                expected = reference._backtrack_subsets(amb, size, strength)
                assert found == expected
                strengths_seen.add(strength)
                several += len(expected) > 1
    assert strengths_seen == {0, 1, 2, 3, 4} and several >= 100 and rational >= 10


def test_strength_zero_subsets_meet_the_design_ceiling(monkeypatch):
    # At strength 0 every subset qualifies: the C(8, 4) = 70 subsets of the
    # 8-run 2^3 ambient are charged 16 W + 8 = 24 bytes each (a one-word
    # key, its sorted copy, an int64 sort index).  One byte less of budget
    # refuses them before a single subset is listed.
    taken = []
    combinations = itertools.combinations

    def counted(*args):
        for combo in combinations(*args):
            taken.append(combo)
            yield combo

    monkeypatch.setattr(itertools, "combinations", counted)
    amb = full_factorial([2, 2, 2])
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 70 * 24)
    assert len(np.unique(_enumerate_keys(amb, 4, 0), axis=0)) == len(taken) == 70
    taken.clear()
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 70 * 24 - 1)
    with pytest.raises(ProblemTooLargeError, match=r"C\(8,4\) = 70 subsets exceed the key budget of 1679 bytes "):
        _enumerate_keys(amb, 4, 0)
    assert taken == []


def test_subset_keys_chunk_by_the_budget(monkeypatch):
    # Each chunk's uint64 run indices take at most designs._CHUNK_BYTES, one
    # row at least; joined, the chunks are the key of every subset, in
    # itertools.combinations order.
    for m, size in [(5, 0), (9, 3), (70, 2), (7, 7)]:
        combos = list(itertools.combinations(range(m), size))
        y = np.zeros((len(combos), m), dtype=bool)
        for row, combo in enumerate(combos):
            y[row, list(combo)] = True
        for budget in (1, 8 * size * 5 + 3, 1 << 20):
            monkeypatch.setattr(designs, "_CHUNK_BYTES", budget)
            step = max(1, budget // (8 * size or 1))
            chunks = list(search._subset_keys(m, size))
            assert all(len(chunk) == step for chunk in chunks[:-1]) and 0 < len(chunks[-1]) <= step
            assert np.array_equal(np.concatenate(chunks), bitset_keys(y))


def test_oracle_ceiling(monkeypatch):
    amb = full_factorial([2, 2, 2, 2, 3])
    with pytest.raises(ProblemTooLargeError):
        brute_force_oracle(SearchProblem(amb, 24, 2))  # C(48,24) >> default ceiling
    # The ceiling counts subsets: C(8,4) = 70.
    problem = SearchProblem(full_factorial([2, 2, 2]), 4, 2)
    monkeypatch.setattr(search, "_ORACLE_CEILING", 70)
    assert len(brute_force_keys(problem)) == 2
    monkeypatch.setattr(search, "_ORACLE_CEILING", 69)
    with pytest.raises(ProblemTooLargeError, match=r"C\(8,4\) = 70 exceeds the ceiling 69"):
        brute_force_oracle(problem)


def _slices(amb, p, size, strength):
    """The sub-ambient, the slice candidates (one run tuple per row) and
    their keys for slicing factor p."""
    sub = _sub_ambient(amb, p)
    q = size // amb.radices[p]
    candidates = np.array(reference._backtrack_subsets(sub, q, strength - 1), dtype=np.int64)
    candidates = candidates.reshape(len(candidates), q)
    bits = reference.run_keys(sub.run_count)[candidates].sum(axis=1, dtype=np.uint64)
    return sub, candidates, _slice_keys(sub, bits, size, strength)


def test_join_matches_reference_join():
    # Differential: the packed free-cell join gives the key assignments of
    # the recursion over full margin-count tuples, for every slicing factor,
    # divisible size and strength of random ambients, and counts their designs.
    rng = random.Random(29)
    levels_seen, empty_keys_seen = set(), False
    ambients = [full_factorial([5, 3]), full_factorial([4, 2, 2])]
    ambients += [random_ambient(rng) for _ in range(40)]
    for amb in ambients:
        if amb.n_factors < 2:
            continue
        for p, r in enumerate(amb.radices):
            for size in range(0, amb.run_count + 1, r):
                for strength in range(1, amb.n_factors + 1):
                    sub, candidates, keys = _slices(amb, p, size, strength)
                    table = margin_cells(sub, strength)
                    if keys is None:
                        assert np.any(size % table.volumes)
                        continue
                    y = reference.membership_rows(candidates, sub.run_count)
                    vectors = [tuple(v) for v in reference.margin_counts(table, y).tolist()]
                    buckets = {}
                    for cand, vec in zip(candidates.tolist(), vectors):
                        buckets.setdefault(vec, []).append(cand)
                    target = tuple((size // table.volumes).tolist())
                    expected = reference.join_assignments(sorted(buckets), buckets, target, r)
                    ids, count = _join_assignments(keys, r, room=10**18, design_bytes=1)
                    full = {k: vectors[i] for i, k in enumerate(keys.pool.tolist())}
                    assert sorted(tuple(full[k] for k in row) for row in ids.tolist()) == sorted(expected)
                    assert count == sum(np.prod([len(buckets[key]) for key in a]) for a in expected)
                    levels_seen.add(r)
                    empty_keys_seen |= not len(target)
    assert levels_seen == {2, 3, 4, 5} and empty_keys_seen


def test_free_cells_are_the_cells_with_all_levels_positive():
    # Read from the cell numbering, the free cells are those a run with
    # every level >= 1 on the subset's factors falls in.
    rng = random.Random(31)
    for amb in [full_factorial([4, 3, 2])] + [random_ambient(rng) for _ in range(20)]:
        runs = np.array([amb.decode(i) for i in range(amb.run_count)])
        for strength in range(1, amb.n_factors + 2):
            table = margin_cells(amb, strength)
            expected = set()
            for s, subset in enumerate(table.subsets):
                expected.update(table.cells[np.all(runs[:, list(subset)] >= 1, axis=1), s].tolist())
            assert _free_cells(amb, strength).tolist() == sorted(expected)


def test_embedding_tables_put_each_sub_run_at_every_level():
    # tables[c, s] is the run whose index vector is sub-run s's with level c
    # of the slicing factor inserted, read through decode.
    rng = random.Random(24)
    ambients = [full_factorial([4, 3, 2])] + [random_ambient(rng) for _ in range(10)]
    for amb in [a for a in ambients if a.n_factors > 1]:
        for p in range(amb.n_factors):
            sub = _sub_ambient(amb, p)
            tables = _embedding_tables(amb, p)
            assert tables.shape == (amb.radices[p], sub.run_count)
            for c, row in enumerate(tables.tolist()):
                for s, run in enumerate(row):
                    iv = sub.decode(s)
                    assert amb.decode(run) == iv[:p] + (c,) + iv[p:]


@pytest.mark.parametrize(
    "levels, size, count",
    [((2, 2, 2, 2, 3), 24, 35200), ((3, 3, 3, 3), 18, 24696), ((2,) * 6, 16, 65100)],
)
def test_join_count_and_key_injectivity(levels, size, count):
    # The join's exact count is the number of designs, and packing only the
    # free cells of the candidates' margins loses no distinction between them.
    amb = full_factorial(levels)
    problem = SearchProblem(amb, size, 2)
    p = len(levels) - 1
    sub, candidates, keys = _slices(amb, p, size, 2)
    assert _join_assignments(keys, amb.radices[p], room=10**18, design_bytes=1)[1] == count
    assert len(enumerate_keys(problem)) == count
    vectors = reference.margin_counts(margin_cells(sub, 2), reference.membership_rows(candidates, sub.run_count))
    assert len(keys.packed) == len(np.unique(vectors, axis=0))


@pytest.mark.parametrize(
    "levels, size, r",
    [
        ((2, 2, 2, 2, 3), 24, 3),
        ((3, 3, 3, 3), 18, 3),
        ((2, 2, 2, 2, 4), 16, 4),
        ((2, 2, 2, 2, 2, 2), 16, 2),
        ((2, 2, 2, 5), 20, 5),
    ],
)
def test_join_blocks_do_not_change_the_keys(levels, size, r, monkeypatch):
    # With 4 KiB chunks (designs._CHUNK_BYTES) the top level's join pairs
    # its assignments of every depth in many small blocks; the designs are
    # the same keys as with 1 MiB blocks.  Two slices are one block at any
    # chunk size, the empty assignment paired with every key, as when
    # 2^6/16/2 joins 11,761 keys into 65,100 designs.  At (2,2,2,5)/20/2
    # the top level's 7 keys leave assignments of 2 and 3 levels in blocks
    # of 9 and 8, 44 blocks for 1,412 designs.
    problem = SearchProblem(full_factorial(levels), size, 2)
    expected = enumerate_keys(problem)
    join, join_blocks = search._join_assignments, search._join_blocks
    blocks = []

    def small_chunk_join(keys, n_levels, *args):
        with monkeypatch.context() as patched:
            patched.setattr(designs, "_CHUNK_BYTES", 1 << 12)
            return join(keys, n_levels, *args)

    def counted_blocks(keys, n_levels):
        for block in join_blocks(keys, n_levels):
            blocks.append(n_levels)
            yield block

    monkeypatch.setattr(search, "_join_assignments", small_chunk_join)
    monkeypatch.setattr(search, "_join_blocks", counted_blocks)
    assert np.array_equal(enumerate_keys(problem), expected)
    assert blocks.count(r) >= {2: 1, 5: 40}.get(r, 100)


# The key budget of the flagship's top level: 35,200 one-word designs at
# 16 W + 8 = 24 bytes, 3,109 join rows of r = 3 slices at 8 (2r + 3) = 72
# bytes, 222 one-word slice candidates at 8 (r W + 2 W' + 2) = 56 bytes, and
# 129 slice keys of 6 int16 free-cell counts and an int64 word, 20 bytes.
_FLAGSHIP_KEY_BYTES = 35200 * 24 + 3109 * 72 + 222 * 56 + 129 * 20


def test_design_ceiling(monkeypatch):
    # The budget admits exactly what it charges (see _FLAGSHIP_KEY_BYTES).
    flagship = SearchProblem(full_factorial([2, 2, 2, 2, 3]), 24, 2)
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", _FLAGSHIP_KEY_BYTES)
    assert len(enumerate_keys(flagship)) == 35200
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", _FLAGSHIP_KEY_BYTES - 1)
    message = f"at least 35200 designs exceed the key budget of {_FLAGSHIP_KEY_BYTES - 1} bytes"
    with pytest.raises(ProblemTooLargeError, match=message):
        enumerate_keys(flagship)
    # 3^4/18/2 has 24,696 two-word designs at 40 bytes, one per join row
    # of 3 slices, from 900 one-word candidates at 8 (6 + 2 + 2) = 80 bytes
    # and 900 slice keys of 12 int16 counts and a word, 32 bytes.
    two_words = SearchProblem(full_factorial([3, 3, 3, 3]), 18, 2)
    need = 24696 * 40 + 24696 * 72 + 900 * 80 + 900 * 32
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", need)
    assert len(enumerate_keys(two_words)) == 24696
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", need - 1)
    with pytest.raises(ProblemTooLargeError, match="at least 24696 designs exceed"):
        enumerate_keys(two_words)
    # Every level meets the same budget, and so does every octet table,
    # built by this call or cached.  At 2^3/4/2 the strength-0 level lists
    # the 2 one-run subsets of a 2-run factor (48 bytes), and the levels
    # above it each join 2 designs in 2 rows of 2 slices from 2 candidates
    # with 2 slice keys of one count: 2 * 24 + 2 * 56 + 2 * 48 + 2 * 10 =
    # 276 bytes.  The tables take more: 256 rows of one word each for the
    # slice keys' cell of 2 runs, and for the 7 contrast rows of 8 runs.
    problem = SearchProblem(full_factorial([2, 2, 2]), 4, 2)
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 2048)
    assert len(enumerate_keys(problem)) == 2
    tables = "the octet tables of 1 columns on 2 runs take 2048 bytes, more than the key budget of {} bytes"
    for budget in (2047, 276):
        monkeypatch.setattr(designs, "_MATRIX_BUDGET", budget)
        for cold in (False, True):
            if cold:
                designs._cell_tables.cache_clear()
                fastcheck._contrast_tables.cache_clear()
            with pytest.raises(ProblemTooLargeError, match=f"^{tables.format(budget)}$"):
                enumerate_keys(problem)
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 47)
    with pytest.raises(ProblemTooLargeError, match=re.escape("C(2,1) = 2 subsets exceed the key budget of 47 bytes")):
        enumerate_keys(problem)


def test_key_budget_refuses_before_it_allocates(monkeypatch):
    # Past the budget the join raises before any design key exists: the
    # materialise step, the only place that allocates one row per design,
    # never runs.
    problem = SearchProblem(full_factorial([2, 2, 2, 2, 3]), 24, 2)
    built = []
    materialize = search._materialize

    def counted(ids, count, *args):
        built.append(count)
        return materialize(ids, count, *args)

    monkeypatch.setattr(search, "_materialize", counted)
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", _FLAGSHIP_KEY_BYTES - 1)
    with pytest.raises(ProblemTooLargeError):
        enumerate_keys(problem)
    # The lower levels fit and built their candidates; the top level did not.
    assert built and 35200 not in built
    built.clear()
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", _FLAGSHIP_KEY_BYTES)
    enumerate_keys(problem)
    assert built[-1] == 35200


def test_key_budget_bounds_the_traced_peak(monkeypatch):
    # What the budget charges bounds what enumerate_keys allocates.  At
    # 2^7/32/3 the top level joins 92,400 two-word designs in 54,881 rows of
    # 2 slices, from 65,100 one-word candidates at 8 (2 * 2 + 2 + 2) bytes
    # with 54,881 slice keys of 20 int16 counts and a word; the levels
    # below charge less.  With 4 KiB chunks (designs._CHUNK_BYTES, which
    # every chunk loop reads) only one such chunk comes on top.
    import tracemalloc

    problem = SearchProblem(full_factorial([2] * 7), 32, 3)
    charged = 92400 * 40 + 54881 * 56 + 65100 * 64 + 54881 * 48
    monkeypatch.setattr(designs, "_CHUNK_BYTES", 1 << 12)
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", charged)
    tracemalloc.start()
    try:
        keys = enumerate_keys(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == 92400
    assert charged / 2 < peak <= charged + designs._CHUNK_BYTES


def test_key_budget_bounds_the_traced_peak_of_a_three_slice_join(monkeypatch):
    # The same bound where the top level joins r = 3 slices in blocks: the
    # flagship, charged _FLAGSHIP_KEY_BYTES, with 4 KiB chunks.
    import tracemalloc

    problem = SearchProblem(full_factorial([2, 2, 2, 2, 3]), 24, 2)
    monkeypatch.setattr(designs, "_CHUNK_BYTES", 1 << 12)
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", _FLAGSHIP_KEY_BYTES)
    tracemalloc.start()
    try:
        keys = enumerate_keys(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == 35200
    assert _FLAGSHIP_KEY_BYTES / 2 < peak <= _FLAGSHIP_KEY_BYTES + designs._CHUNK_BYTES


def test_key_budget_bounds_the_traced_peak_of_a_four_slice_join(monkeypatch):
    # The same bound where the top level joins r = 4 slices, so that one
    # block of assignments waits at each of two depths: 2^4*4/16/2 has
    # 17,292 one-word designs at 24 bytes in 4,776 rows of 4 slices at
    # 8 (2r + 3) = 88 bytes, from 52 one-word candidates at 8 (4 + 2 + 2) =
    # 64 bytes with 40 slice keys of 6 int16 counts and a word, 20 bytes.
    import tracemalloc

    problem = SearchProblem(full_factorial([2, 2, 2, 2, 4]), 16, 2)
    charged = 17292 * 24 + 4776 * 88 + 52 * 64 + 40 * 20
    monkeypatch.setattr(designs, "_CHUNK_BYTES", 1 << 12)
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", charged)
    tracemalloc.start()
    try:
        keys = enumerate_keys(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == 17292
    assert charged / 2 < peak <= charged + designs._CHUNK_BYTES


def test_key_budget_charges_the_slice_keys(monkeypatch, capsys, tmp_path):
    # _slice_keys is charged 2F + 65 bytes per slice candidate for F free
    # cells before it runs (see _MATRIX_BUDGET).  At 2^6/8/2 the top level
    # keys 320 one-word candidates on F = 10 free cells, 27,200 bytes, more
    # than the level below is charged for its 120 candidates or its join:
    # one byte less refuses the top level's slice keys before they are
    # formed, and exactly that much lets them form, so that its join, charged
    # 30,640 bytes, is what refuses next.
    from orthofrac.cli import main

    problem = SearchProblem(full_factorial([2] * 6), 8, 2)
    slice_bytes = 320 * (2 * 10 + 65)
    join, slice_keys = search._join_assignments, search._slice_keys
    joins, sliced = [], []

    def charged_join(keys, r, room, design_bytes):
        ids, count = join(keys, r, room, design_bytes)
        joins.append(designs._MATRIX_BUDGET - room + count * design_bytes + len(ids) * 8 * (2 * r + 3))
        return ids, count

    def counted_slice_keys(sub, candidates, *args):
        sliced.append(len(candidates))
        return slice_keys(sub, candidates, *args)

    monkeypatch.setattr(search, "_join_assignments", charged_join)
    monkeypatch.setattr(search, "_slice_keys", counted_slice_keys)
    assert len(enumerate_keys(problem)) == 240
    assert sliced == [120, 320] and joins == [18120, 30640]
    sliced.clear()
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", slice_bytes)
    with pytest.raises(ProblemTooLargeError, match=f"at least 240 designs exceed the key budget of {slice_bytes} bytes"):
        enumerate_keys(problem)
    assert sliced == [120, 320]
    sliced.clear()
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", slice_bytes - 1)
    message = f"320 slice candidates exceed the key budget of {slice_bytes - 1} bytes for this ambient"
    with pytest.raises(ProblemTooLargeError, match=message):
        enumerate_keys(problem)
    assert sliced == [120]  # the level below keyed its candidates; the top level did not
    path = tmp_path / "designs.txt"
    code = main(["enumerate", "--levels", "2,2,2,2,2,2", "--size", "8", "--strength", "2", "--out", str(path)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not path.exists()


def test_slice_key_charge_bounds_their_traced_peak():
    # The top level of 2^7/32/3 keys 65,100 one-word candidates on F = 20
    # free cells, charged 2F + 65 = 105 bytes each; what _slice_keys
    # allocates, its octet-sum chunks included, stays within that.
    import tracemalloc

    sub = full_factorial([2] * 6)
    candidates = _enumerate_keys(sub, 16, 2)
    charged = len(candidates) * (2 * len(_free_cells(sub, 3)) + 65)
    assert charged == 65100 * 105
    _slice_keys(sub, candidates[:1], 32, 3)  # the cached margin cells and their octet tables
    tracemalloc.start()
    try:
        keys = _slice_keys(sub, candidates, 32, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys.packed) == 54881
    assert charged / 2 < peak <= charged


def test_read_chunk_peak_stays_within_the_per_char_bound(monkeypatch):
    # _READ_PEAK_PER_CHAR sizes the text chunks so that each chunk's numpy
    # temporaries stay within _CHUNK_BYTES.  On a three-digit (m = 128)
    # file of about three chunks, every chunk's tracemalloc peak stays at
    # or below that many bytes per text byte: the last chunk too, which
    # holds the "# count" line and is copied without it first.
    import tracemalloc

    amb = full_factorial([2] * 7)
    rng = random.Random(5)
    step = designs._CHUNK_BYTES // search._READ_PEAK_PER_CHAR
    lines = []
    while sum(map(len, lines)) < 2.9 * step:
        lines.append(json.dumps(sorted(rng.sample(range(128), 32))) + "\n")
    text = "".join(lines) + f"# count: {len(lines)}\n"
    read_design_keys(io.StringIO(lines[0]), amb)  # the cached tokens
    real, peaks = search._read_chunk, []

    def traced(chunk, first_line, ambient):
        tracemalloc.start()
        try:
            out = real(chunk, first_line, ambient)
            peaks.append((len(chunk), tracemalloc.get_traced_memory()[1], b"#" in chunk))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(search, "_read_chunk", traced)
    assert len(read_design_keys(io.StringIO(text), amb)) == len(lines)
    assert len(peaks) == 3 and peaks[-1][2] and not any(has_count for *_, has_count in peaks[:-1])
    for size, peak, _ in peaks:
        assert size > 0.8 * step and peak <= search._READ_PEAK_PER_CHAR * size


def test_cross_check_rejects_with_the_real_checker():
    # No fake: the batch checker itself must name the failing key.  An
    # unbalanced design of the right size fails only the contrast rows.
    # The balanced half {000, 111} summed twice, as a repeated run would be
    # summed, has size 4 and zero contrast sums as a membership row of 2s;
    # as a key, run 0 carries out of its word and run 7 into run 6, so the
    # key is the design (6,), which fails the size row.
    problem = SearchProblem(full_factorial([2, 2, 2]), 4, 1)
    good = design_keys([(0, 3, 5, 6)], 8)[0]
    search._cross_check(np.array([good]), problem)
    unbalanced = design_keys([(0, 1, 2, 3)], 8)[0]
    doubled = reference.run_keys(8)[[0, 0, 7, 7]].sum(axis=0, dtype=np.uint64)
    for bad, runs in ((unbalanced, (0, 1, 2, 3)), (doubled, (6,))):
        with pytest.raises(CrossCheckError, match=re.escape(f"design {runs} fails the algebraic check")):
            search._cross_check(np.array([good, bad]), problem)


def test_python_int_packing_gives_the_same_designs(monkeypatch):
    # Above the int64 bound, the keys, the join and its count run on Python ints.
    problems = [SearchProblem(full_factorial(levels), size, t)
                for levels, size, t in (((3, 3, 3), 9, 2), ((2, 2, 2, 2), 8, 2), ((2, 2, 3), 6, 1))]
    expected = [enumerate_keys(problem) for problem in problems]
    monkeypatch.setattr(algebra, "_INT64_SAFE", 0)
    _, _, keys = _slices(problems[0].ambient, 2, 9, 2)
    assert keys.packed.dtype == object
    for problem, y in zip(problems, expected):
        assert np.array_equal(enumerate_keys(problem), y)


def test_engine_matches_oracle_on_random_ambients(monkeypatch):
    # Differential: engine == oracle on seeded random ambients (rational
    # level sets half the time) at proper sizes that every margin volume divides.
    rng = random.Random(47)
    compared, rational, several, complete = 0, 0, 0, 0
    while compared < 40:
        amb = random_ambient(rng)
        t = rng.randint(1, amb.n_factors)
        volumes = margin_cells(amb, t).volumes
        sizes = [s for s in range(1, amb.run_count) if not np.any(s % volumes)]
        if not sizes:
            continue
        problem = SearchProblem(amb, rng.choice(sizes), t)
        engine = enumerate_orthogonal(problem)
        oracle = brute_force_keys(problem)
        assert engine == key_designs(amb, oracle)
        # Apart from the popcounts that engine and oracle share: the oracle's
        # designs, as membership rows times the incidence matrix, are
        # balanced, and on small ambients they are every balanced subset.
        m, table = amb.run_count, margin_cells(amb, t)
        assert table.balanced(reference.margin_counts(table, key_bits(oracle)[:, :m]), problem.size).all()
        if comb(m, problem.size) <= 10**4:
            y = reference.membership_rows(list(itertools.combinations(range(m), problem.size)), m)
            balanced = table.balanced(reference.margin_counts(table, y), problem.size).all(axis=1)
            assert np.array_equal(bitset_keys(y[balanced]), oracle)
            complete += 1
        # Materialise chunks of 1 and 7 design rows: a chunk boundary falls
        # inside the designs of one join row as well as between join rows.
        with monkeypatch.context() as patched:
            for rows in (1, 7):
                patched.setattr(designs, "_CHUNK_BYTES", rows * 8 * (-(-amb.run_count // 64) + 3))
                assert enumerate_orthogonal(problem) == engine
        compared += 1
        rational += any(f.levels != default_levels(f.arity) for f in amb.factors)
        several += len(engine) > 1
    assert rational >= 10 and several >= 10 and complete >= 10


def test_flagship_strength_three_fractions():
    # The strength-3 half fractions form exactly 3 classes (orbits 2, 6, 48).
    from orthofrac.classify import classify

    amb = full_factorial([2, 2, 2, 2, 3])
    result = enumerate_orthogonal(SearchProblem(amb, 24, 3))
    assert all(has_strength(d, 3) for d in result)
    classes = classify(result)
    assert len(classes) == 3
    assert sorted(c.orbit_size for c in classes) == [2, 6, 48]


def test_regular_witnesses_present_in_flagship(flagship_designs, flagship):
    found = {d.runs for d in flagship_designs}
    for factors in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        for sign in (1, -1):
            assert sign_fraction(flagship, factors, sign).runs in found
    for sign in (1, -1):
        assert sign_fraction(flagship, (0, 1, 2, 3), sign).runs in found


def test_designs_file_round_trip(tmp_path):
    amb = full_factorial([2, 2, 2])
    designs = enumerate_orthogonal(SearchProblem(amb, 4, 2))
    path = tmp_path / "designs.txt"
    with open(path, "w") as fh:
        write_designs(designs, fh)
    text = path.read_text()
    assert text.endswith("# count: 2\n")
    with open(path) as fh:
        assert read_designs(fh, amb) == designs
    # On keys, write after read gives a canonical file back byte for byte:
    # size-0 designs, no designs, m = 64 (one full word), m = 81 (a second
    # word with 47 padding bits), and the token and digit boundaries: m = 100
    # (two-digit runs, 4-byte tokens), m = 101 (the first 5-byte token),
    # m = 128 (two full words, three-digit runs) and m = 1001 (four-digit
    # runs, 6-byte tokens).
    rng = random.Random(41)
    for levels, size in (((2, 2, 2), 4), ((2,) * 6, 8), ((4, 5, 5), 0), ((101,), 0), ((2,) * 7, 0),
                         ((7, 11, 13), 0), ((3,) * 4, 9)):
        amb = full_factorial(levels)
        m = amb.run_count
        if size:
            designs = enumerate_orthogonal(SearchProblem(amb, size, 2))[:50]
        else:
            designs = [Design.from_runs(amb, rng.sample(range(m), rng.randint(1, 40))) for _ in range(50)]
        canonical = [
            "# count: 0\n",
            "[]\n# count: 1\n",
            "[]\n[]\n# count: 2\n",
            f"[0, {m - 1}]\n[{m - 1}]\n[]\n[{', '.join(map(str, range(m)))}]\n# count: 4\n",
            _old_design_file(designs),
        ]
        for text in canonical:
            keys = read_design_keys(io.StringIO(text), amb)
            assert keys.shape == (text.count("\n") - 1, -(-m // 64))
            written = io.StringIO()
            write_design_keys(keys, written)
            assert written.getvalue() == text
    # No line at all, not even the count line, is refused.
    with pytest.raises(ValueError, match="^the design list is empty: not even a '# count' line$"):
        read_design_keys(io.StringIO(""), amb)


@pytest.mark.parametrize("text", ["\n", "\n\n", " \t\n   \n", "\r\n\r\n", "   "])
def test_blank_lines_alone_are_an_empty_design_list(text):
    # Blank or whitespace-only lines are no design line and no "#" line, so
    # the input is refused like one with no line at all.
    with pytest.raises(ValueError, match="^the design list is empty: not even a '# count' line$"):
        read_design_keys(io.StringIO(text), full_factorial([2, 2, 2]))


def test_a_count_line_alone_is_a_list_of_no_designs():
    amb = full_factorial([2, 2, 2])
    for text in ("# count: 0\n", "\n# count: 0\n\n", "  # count: 0"):
        assert read_design_keys(io.StringIO(text), amb).shape == (0, 1)


def test_designs_file_rejects_garbage():
    amb = full_factorial([2, 2])
    with pytest.raises(ValueError):
        read_designs(io.StringIO("[0, 1\n"), amb)
    with pytest.raises(ValueError):
        read_designs(io.StringIO('{"a": 1}\n'), amb)


def _random_line(rng, amb):
    """One design-file line: canonical, valid but not canonical, not a design, or bad."""
    m = amb.run_count
    runs = sorted(rng.sample(range(m), rng.randint(0, min(m, 12))))
    kind = rng.choice(("canonical",) * 6 + ("valid", "skipped", "bad"))
    if kind == "canonical":
        return json.dumps(runs)
    if kind == "valid":
        shuffled = rng.sample(runs, len(runs))
        return rng.choice([
            "[0,1]", " [ 3 , 1 ] ", json.dumps(shuffled), json.dumps(runs, separators=(",", ":")),
            "[-0]", f"\t{json.dumps(runs)}  ", "[1, 0]", "[]",
        ])
    if kind == "skipped":
        return rng.choice(["", "   ", "# comment", "# count: 3"])
    return rng.choice([
        "[0, 1", "true", "1.0", "[-1]", "[01]", f"[0, {m}]", f"[{m + rng.randint(0, 10**20)}]",
        "[1, 1]", "[2, 0, 2]", "{}", "[1.0]", "[true]", "[0, 1]]", "[, 1]", "[1,]", "null",
        '"[0]"', "[0 1]", "[[0]]", "[99999999999999999999]", "[\u0661]",
    ])


def test_read_designs_matches_per_line_reader():
    # Differential: the bulk reader returns the designs of the per-line
    # reference reader, or raises its exact error, on mixed files.  The
    # "# count: 3" lines set at random positions must count the design lines
    # before them (reference.count_line_error); once every line reads, the
    # first that does not, or design lines after the last, is the error.
    rng = random.Random(83)
    ambients = [full_factorial([2, 2, 3]), full_factorial([2, 2, 2, 2, 3])]
    ambients += [full_factorial([2] * 6), full_factorial([3] * 4)]  # m = 64 and 81
    # Token width and digit count boundaries: m = 100, 101, 128 and 1001.
    ambients += [full_factorial([4, 5, 5]), full_factorial([101]), full_factorial([2] * 7)]
    ambients += [full_factorial([7, 11, 13])]
    ambients += [random_ambient(rng) for _ in range(4)]
    outcomes = set()
    for amb in ambients:
        # An empty file, a file of no designs and size-0 designs.
        texts = ["", "# count: 0\n", "[]", "[]\n[]\n# count: 2\n"]
        for _ in range(150):
            lines = [_random_line(rng, amb) for _ in range(rng.randint(0, 12))]
            texts.append(rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n")))
        for text in texts:
            if not text.strip():  # no line but blank ones: refused, unlike the reference's empty list
                for reader in (read_designs, read_design_keys):
                    with pytest.raises(ValueError, match="empty"):
                        reader(io.StringIO(text), amb)
                continue
            try:
                expected = reference.read_designs(io.StringIO(text), amb)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    read_designs(io.StringIO(text), amb)
                assert str(got.value) == str(exc)
                outcomes.add("error")
                continue
            if (count_error := reference.count_line_error(text)) is not None:
                for reader in (read_designs, read_design_keys):
                    with pytest.raises(ValueError) as got:
                        reader(io.StringIO(text), amb)
                    assert str(got.value) == count_error
                outcomes.add("count")
                continue
            assert read_designs(io.StringIO(text), amb) == expected
            keys = read_design_keys(io.StringIO(text), amb)
            assert key_runs(keys) == [d.runs for d in expected]
            assert np.array_equal(keys, bitset_keys(reference.membership_rows(expected, amb.run_count)))
            outcomes.add("designs" if expected else "empty")
    assert outcomes == {"error", "count", "designs", "empty"}
    # Lines next to the canonical form, where a loose numeric parse could go
    # wrong: the bulk reader must give the reference's designs or error.
    for amb in ambients:
        m = amb.run_count
        digits = len(str(m - 1))
        texts = [
            f"[0, {m - 1}]\n[1]",  # a final line with no newline
            "[0]\n[]\n[1]\n[]\n# count: 4",  # "[]" between canonical lines
            "[007]\n",
            f"[0]\n[{m - 1:0{digits + 1}d}]\n",  # more digits than m - 1, in range
            f"[{1:0{digits + 2}d}, 2]\n",
            f"[0, {'9' * (digits + 1)}]\n",
            "[0, \u0661]\n",  # non-ASCII digits in an otherwise canonical line
            "[\uff11, 2]\n[0]\n",
            "[0, 1\u0662]\n",
            "[0, 1]\n[\u00b9]",
            "[0,,1]\n{0, 1]\n[0, 1}\n[0; 1]\n",  # as long as "[0, 1]", but not it
        ]
        for text in texts:
            try:
                expected = reference.read_designs(io.StringIO(text), amb)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    read_design_keys(io.StringIO(text), amb)
                assert str(got.value) == str(exc)
                continue
            keys = read_design_keys(io.StringIO(text), amb)
            assert key_runs(keys) == [d.runs for d in expected]


def test_one_changed_byte_sends_its_whole_chunk_to_the_json_route(monkeypatch):
    # A chunk of canonical lines in which one middle line differs by one byte
    # and keeps its length: the chunk's rendering differs from its text, so
    # every design line of the chunk goes through _parse_line, in file order.
    amb = full_factorial([2] * 6)
    keys = enumerate_keys(SearchProblem(amb, 16, 2))[:200]
    written = io.StringIO()
    write_design_keys(keys, written)
    lines = written.getvalue().splitlines(keepends=True)
    assert sum(map(len, lines)) < designs._CHUNK_BYTES // search._READ_PEAK_PER_CHAR  # one text chunk
    parsed = []
    real_parse = search._parse_line

    def recording_parse(line, lineno, ambient):
        parsed.append(lineno)
        return real_parse(line, lineno, ambient)

    monkeypatch.setattr(search, "_parse_line", recording_parse)
    middle = 100
    assert lines[middle].count(", ") > 1
    tabbed = lines[:middle] + [lines[middle].replace(", ", ",\t", 1)] + lines[middle + 1 :]
    assert len("".join(tabbed)) == len("".join(lines))
    assert np.array_equal(read_design_keys(io.StringIO("".join(tabbed)), amb), keys)
    assert parsed == list(range(1, len(keys) + 1))  # the "# count" line is skipped
    # The same with a byte that breaks the line: the per-line route names it.
    parsed.clear()
    broken = "".join(lines[:middle] + [lines[middle].replace("]", "}")] + lines[middle + 1 :])
    with pytest.raises(ValueError, match=f"^line {middle + 1}: "):
        read_design_keys(io.StringIO(broken), amb)
    assert parsed == list(range(1, middle + 2))
    # The untouched file sends no line to _parse_line: its count line is dropped.
    parsed.clear()
    assert np.array_equal(read_design_keys(io.StringIO("".join(lines)), amb), keys)
    assert parsed == []
    # Two design files concatenated, with a "# count" line mid-chunk, are read in bulk.
    twice = "".join(lines) * 2
    assert len(twice) < designs._CHUNK_BYTES // search._READ_PEAK_PER_CHAR
    assert np.array_equal(read_design_keys(io.StringIO(twice), amb), np.concatenate([keys, keys]))
    assert parsed == []


def test_a_chunk_of_one_run_count_is_read_in_bulk_and_mixed_counts_line_by_line(monkeypatch):
    # The bulk route reads a chunk's numbers as one B x s array.  Canonical
    # lines of two run counts take the per-line route, also when their
    # numbers split evenly into the lines (the array then renders other
    # bytes); "[]" lines alone, and "#" lines among lines of one count, stay
    # in bulk.  A binary handle and a text handle read the same keys.
    amb = full_factorial([2, 2, 2, 2, 3])
    parsed = []
    real_parse = search._parse_line

    def recording_parse(line, lineno, ambient):
        parsed.append(lineno)
        return real_parse(line, lineno, ambient)

    monkeypatch.setattr(search, "_parse_line", recording_parse)
    cases = [
        ("[0, 1, 2]\n# note\n[3, 4, 47]\n# count: 2\n", []),
        ("[]\n[]\n# count: 2\n", []),
        ("[0, 1, 2, 3]\n[4, 5]\n", [1, 2]),  # 6 numbers in 2 lines, not 3 and 3
        ("[0, 1]\n[2, 3, 4]\n[5]\n", [1, 2, 3]),
        ("[0]\n[1, 2]\n# count: 2\n", [1, 2]),
        ("[0, 1]\n[]\n", [1, 2]),
    ]
    for text, per_line in cases:
        expected = key_runs(design_keys(reference.read_designs(io.StringIO(text), amb), 48))
        for handle in (io.StringIO(text), io.BytesIO(text.encode())):
            parsed.clear()
            assert key_runs(read_design_keys(handle, amb)) == expected
            assert parsed == per_line


def test_count_lines_fail_closed(monkeypatch, capsys, tmp_path):
    # Each "# count: N" line counts the design lines since the previous one,
    # or since the start, and no design line follows the last: two written
    # files concatenated read, a wrong count or design lines after the last
    # count line are refused with the count line's number, in bulk and line
    # by line, in one chunk or across many.  A file with no count line, and
    # a lone "# count: 0", still read: a cut at a line boundary that drops
    # the count line is not caught here.
    from orthofrac.cli import main

    amb = full_factorial([2, 2, 2, 3])
    keys = enumerate_keys(SearchProblem(amb, 12, 2))
    written = io.StringIO()
    write_design_keys(keys, written)
    text = written.getvalue()
    lines, n = text.splitlines(keepends=True), len(keys)
    cases = [
        (text * 2, np.concatenate([keys, keys])),
        ("".join(lines[:-1]), keys),
        ("# count: 0\n", keys[:0]),
        ("".join(lines[:5]) + f"# count: {n}\n", f"line 6: '# count: {n}', but 5 design lines since the last count"),
        (text + "".join(lines[:1]) + "# count: 2\n", f"line {n + 3}: '# count: 2', but 1 design lines since the last count"),
        ("# count: 1\n", "line 1: '# count: 1', but 0 design lines since the last count"),
        (text + "".join(lines[:3]), f"line {n + 1}: 3 design lines after the last count: the input was cut or joined"),
    ]
    for chunk in (designs._CHUNK_BYTES, 50 * search._READ_PEAK_PER_CHAR):
        monkeypatch.setattr(designs, "_CHUNK_BYTES", chunk)
        for case, expected in cases:
            for variant in (case, case.replace("\n", "\n ")):  # the second reads line by line
                if isinstance(expected, str):
                    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                        read_design_keys(io.StringIO(variant), amb)
                else:
                    assert np.array_equal(read_design_keys(io.StringIO(variant), amb), expected)
    path = tmp_path / "designs.txt"
    path.write_text(cases[3][0])
    assert main(["classify", "--levels", "2,2,2,3", "--designs", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {cases[3][1]}\n"


@pytest.mark.parametrize("levels, size", [((2, 2, 2, 2, 3), 24), ((2,) * 6, 16), ((3,) * 4, 18)])
def test_chunk_size_does_not_change_the_design_file(levels, size, monkeypatch):
    # The codec's chunk size: 1, 2 and 7 key rows per chunk, then text
    # chunks of a few characters (_CHUNK_BYTES // _READ_PEAK_PER_CHAR: 1, 2, 7 and 97), which
    # end mid-line and are completed to the end of their line.  m = 48, 64
    # (one full word) and 81 (two words).
    amb = full_factorial(levels)
    m = amb.run_count
    keys = enumerate_keys(SearchProblem(amb, size, 2))[::151]
    keys = np.concatenate([keys, np.zeros((1, keys.shape[1]), dtype=np.uint64)])  # "[]"
    written = io.StringIO()
    write_design_keys(keys, written)
    text = written.getvalue()
    listed = io.StringIO()
    write_designs(key_designs(amb, keys), listed)
    assert listed.getvalue() == text
    # A mixed file: lines for the per-line route among canonical ones, its
    # count line counting the three added designs, and a bad line close to
    # the end, so in a later chunk than the first.
    lines = text.splitlines(keepends=True)
    mixed = lines[:3] + [" [ 3 , 1 ] \n", "\n", "[0,1]\r\n", "# note\n"] + lines[3:-1]
    mixed += [f"[{m - 1}, 0]\n", f"# count: {len(keys) + 3}\n"]
    bad = "".join(mixed[:-2] + ["[2, 2]\n"] + mixed[-2:])
    mixed = "".join(mixed)
    expected_mixed = read_design_keys(io.StringIO(mixed), amb)
    assert key_runs(expected_mixed) == [d.runs for d in reference.read_designs(io.StringIO(mixed), amb)]
    with pytest.raises(ValueError) as default_error:
        read_design_keys(io.StringIO(bad), amb)
    with pytest.raises(ValueError, match=re.escape(str(default_error.value))):
        reference.read_designs(io.StringIO(bad), amb)
    assert str(default_error.value).startswith(f"line {bad.count(chr(10)) - 2}: ")

    row_bytes = 8 * 64 * keys.shape[1]  # the writer's rows per chunk are _CHUNK_BYTES // row_bytes
    per_char = search._READ_PEAK_PER_CHAR
    for chunk in (row_bytes, 2 * row_bytes, 7 * row_bytes, per_char, 2 * per_char, 7 * per_char, 97 * per_char):
        monkeypatch.setattr(designs, "_CHUNK_BYTES", chunk)
        written = io.StringIO()
        write_design_keys(keys, written)
        assert written.getvalue() == text
        listed = io.StringIO()
        write_designs(key_designs(amb, keys), listed)
        assert listed.getvalue() == text
        assert np.array_equal(read_design_keys(io.StringIO(text), amb), keys)
        assert np.array_equal(read_design_keys(io.StringIO(mixed), amb), expected_mixed)
        with pytest.raises(ValueError) as got:
            read_design_keys(io.StringIO(bad), amb)
        assert str(got.value) == str(default_error.value)


def test_chunk_size_does_not_change_enumerate(monkeypatch):
    # The cross-check sums octets over chunks of rows (designs.octet_sums);
    # the first failing row, in a later chunk, names the same design, with a
    # checker that rejects it and with the real checker on a corrupted key.
    problem = SearchProblem(full_factorial([2, 2, 2, 3]), 12, 2)
    keys = enumerate_keys(problem)
    assert len(keys) > 7 * 2
    first_bad = key_runs(keys[5:6])[0]
    real = search.get_checker(problem.ambient)

    class RejectFromRowFive:
        def __init__(self):
            self.seen = 0

        def verify(self, keys, size, strength):
            ok = real.verify(keys, size, strength)
            ok[max(0, 5 - self.seen) :] = False
            self.seen += len(keys)
            return ok

    for rows in (1, 2, 7):
        monkeypatch.setattr(designs, "_CHUNK_BYTES", rows * 8 * problem.ambient.run_count)
        assert np.array_equal(enumerate_keys(problem), keys)
        checker = RejectFromRowFive()
        monkeypatch.setattr(search, "get_checker", lambda ambient: checker)
        with pytest.raises(CrossCheckError, match=re.escape(f"design {first_bad} fails")):
            enumerate_keys(problem)
        monkeypatch.setattr(search, "get_checker", lambda ambient: real)
        corrupted, runs = keys.copy(), key_runs(keys[-2:-1])[0][1:]  # one run dropped
        corrupted[-2] = design_keys([runs], problem.ambient.run_count)[0]
        with pytest.raises(CrossCheckError, match=re.escape(f"design {runs} fails")):
            search._cross_check(corrupted, problem)


def _old_design_file(designs) -> str:
    """The design file as written one json.dumps per design."""
    return "".join(json.dumps(list(d.runs)) + "\n" for d in designs) + f"# count: {len(designs)}\n"


@pytest.mark.parametrize(
    "levels, size, strength, oracle",
    [
        ((2, 2, 2, 2, 3), 24, 2, False),
        ((2, 2, 2, 2), 8, 2, True),
        ((2, 2), 3, 2, False),
        ((3, 3, 3, 3), 18, 2, False),
    ],
)
def test_array_route_matches_list_route(levels, size, strength, oracle, flagship_designs):
    # enumerate -> write -> read -> classify on keys gives the
    # bytes of the route through Design lists, the per-line reader and the
    # json.dumps writer: on the flagship, with the oracle, on an empty
    # result and on two-word keys with padding bits (3^4, m = 81).  The
    # list functions are shims over the key functions on design_keys.
    amb = full_factorial(levels)
    problem = SearchProblem(amb, size, strength)
    if oracle:
        keys, designs = brute_force_keys(problem), brute_force_oracle(problem)
    else:
        keys = enumerate_keys(problem)
        designs = flagship_designs if size == 24 else enumerate_orthogonal(problem)
    # Line lists, not strings: a failure then names the first differing line.
    written = io.StringIO()
    write_design_keys(keys, written)
    assert written.getvalue().split("\n") == _old_design_file(designs).split("\n")
    listed = io.StringIO()
    write_designs(designs, listed)
    assert listed.getvalue().split("\n") == written.getvalue().split("\n")

    shuffled = written.getvalue().splitlines(keepends=True)
    body = shuffled[:-1]
    random.Random(size).shuffle(body)
    text = "".join(body + shuffled[-1:])
    array_classes = classify_keys(amb, read_design_keys(io.StringIO(text), amb))
    list_classes = classify(reference.read_designs(io.StringIO(text), amb))
    assert array_classes == list_classes
    array_report = json.dumps(classification_report(array_classes), indent=2).split("\n")
    assert array_report == json.dumps(classification_report(list_classes), indent=2).split("\n")
    assert bool(array_classes) == bool(len(keys))
    if levels == (2, 2, 2, 2, 3):
        assert cross_check_classes(array_classes) == cross_check_classes(list_classes) == []
    assert np.array_equal(keys, bitset_keys(reference.membership_rows(designs, amb.run_count)))
    assert np.array_equal(design_keys(designs, amb.run_count), keys)
