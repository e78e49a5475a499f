import io
import itertools
import json
import random

import numpy as np
import pytest

import reference
from conftest import random_ambient, sign_fraction
from orthofrac.algebra import verify_theta, indicator_from_design
from orthofrac.catalog import cross_check_classes
from orthofrac.classify import act, classification_report, classify, classify_matrix, generate_group
from orthofrac import algebra, search
from orthofrac.designs import default_levels, full_design, full_factorial, has_strength, margin_cells
from orthofrac.fastcheck import runs_matrix
from orthofrac.search import (
    _enumerate_rows,
    _free_cells,
    _join_assignments,
    _slice_keys,
    _sub_ambient,
    ProblemTooLargeError,
    SearchProblem,
    brute_force_matrix,
    brute_force_oracle,
    enumerate_matrix,
    enumerate_orthogonal,
    read_design_matrix,
    read_designs,
    write_design_matrix,
    write_designs,
)


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
    from orthofrac.designs import from_level_sets

    amb = from_level_sets([(0, "1/2"), ("-1", "1/3", 2), (1, 5)])
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


def test_explicit_slicing_factor_choice_is_equivalent():
    amb = full_factorial([2, 2, 3])
    default = enumerate_orthogonal(SearchProblem(amb, 6, 1))
    for p in range(3):
        assert enumerate_orthogonal(SearchProblem(amb, 6, 1, slicing_factor=p)) == default


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
                rows = _enumerate_rows(amb, size, strength)
                assert rows.shape[1] == size
                found = sorted(tuple(sorted(row)) for row in rows.tolist())
                expected = reference._backtrack_subsets(amb, size, strength)
                assert found == expected
                strengths_seen.add(strength)
                several += len(expected) > 1
    assert strengths_seen == {0, 1, 2, 3, 4} and several >= 100 and rational >= 10


def test_strength_zero_subsets_meet_the_design_ceiling(monkeypatch):
    # At strength 0 every subset qualifies: the C(8, 4) = 70 subsets of the
    # 8-run 2^3 ambient need 70 membership rows of 8 int64 entries.  One
    # byte less of budget refuses them before a single subset is listed.
    taken = []
    combinations = itertools.combinations

    def counted(*args):
        for combo in combinations(*args):
            taken.append(combo)
            yield combo

    monkeypatch.setattr(itertools, "combinations", counted)
    amb = full_factorial([2, 2, 2])
    monkeypatch.setattr(search, "_MATRIX_BUDGET", 70 * 8 * 8)
    assert len(np.unique(_enumerate_rows(amb, 4, 0), axis=0)) == len(taken) == 70
    taken.clear()
    monkeypatch.setattr(search, "_MATRIX_BUDGET", 70 * 8 * 8 - 1)
    with pytest.raises(ProblemTooLargeError, match=r"C\(8,4\) = 70 subsets exceed the design ceiling 69 "):
        _enumerate_rows(amb, 4, 0)
    assert taken == []


def test_oracle_ceiling():
    amb = full_factorial([2, 2, 2, 2, 3])
    with pytest.raises(ProblemTooLargeError):
        brute_force_oracle(SearchProblem(amb, 24, 2))  # C(48,24) >> default ceiling
    with pytest.raises(ProblemTooLargeError):
        brute_force_oracle(SearchProblem(full_factorial([2, 2, 2]), 4, 2, oracle_ceiling=10))


def _slices(amb, p, size, strength):
    """The sub-ambient, the slice candidates and their keys for slicing factor p."""
    sub = _sub_ambient(amb, p)
    q = size // amb.radices[p]
    candidates = np.array(reference._backtrack_subsets(sub, q, strength - 1), dtype=np.int64)
    candidates = candidates.reshape(len(candidates), q)
    return sub, candidates, _slice_keys(sub, candidates, size, strength)


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
                    vectors = [tuple(v) for v in table.count(runs_matrix(candidates, sub.run_count)).tolist()]
                    buckets = {}
                    for cand, vec in zip(candidates.tolist(), vectors):
                        buckets.setdefault(vec, []).append(cand)
                    target = tuple((size // table.volumes).tolist())
                    expected = reference.join_assignments(sorted(buckets), buckets, target, r)
                    ids, count = _join_assignments(keys, r, ceiling=10**12)
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
    assert _join_assignments(keys, amb.radices[p], ceiling=10**12)[1] == count
    assert len(enumerate_matrix(problem)) == count
    vectors = margin_cells(sub, 2).count(runs_matrix(candidates, sub.run_count))
    assert len(keys.packed) == len(np.unique(vectors, axis=0))


def test_design_ceiling(monkeypatch):
    # The ceiling is the number of m-run int64 membership rows that fit the
    # budget: the flagship's 35,200 designs need 35,200 * 48 * 8 bytes.
    flagship = SearchProblem(full_factorial([2, 2, 2, 2, 3]), 24, 2)
    monkeypatch.setattr(search, "_MATRIX_BUDGET", 35200 * 48 * 8 - 1)
    with pytest.raises(ProblemTooLargeError, match="more than 35199 designs"):
        enumerate_matrix(flagship)
    problem = SearchProblem(full_factorial([2, 2, 2]), 4, 2)
    monkeypatch.setattr(search, "_MATRIX_BUDGET", 2 * 8 * 8)
    assert len(enumerate_matrix(problem)) == 2
    monkeypatch.setattr(search, "_MATRIX_BUDGET", 2 * 8 * 8 - 1)
    with pytest.raises(ProblemTooLargeError, match="more than 1 designs"):
        enumerate_matrix(problem)


def test_python_int_packing_gives_the_same_designs(monkeypatch):
    # Above the int64 bound, the keys, the join and its count run on Python ints.
    problems = [SearchProblem(full_factorial(levels), size, t)
                for levels, size, t in (((3, 3, 3), 9, 2), ((2, 2, 2, 2), 8, 2), ((2, 2, 3), 6, 1))]
    expected = [enumerate_matrix(problem) for problem in problems]
    monkeypatch.setattr(algebra, "_INT64_SAFE", 0)
    _, _, keys = _slices(problems[0].ambient, 2, 9, 2)
    assert keys.packed.dtype == object
    for problem, y in zip(problems, expected):
        assert np.array_equal(enumerate_matrix(problem), y)


def test_engine_matches_oracle_on_random_ambients():
    # Differential: engine == oracle on seeded random ambients (rational
    # level sets half the time) at proper sizes that every margin volume divides.
    rng = random.Random(47)
    compared, rational, several = 0, 0, 0
    while compared < 40:
        amb = random_ambient(rng)
        t = rng.randint(1, amb.n_factors)
        volumes = margin_cells(amb, t).volumes
        sizes = [s for s in range(1, amb.run_count) if not np.any(s % volumes)]
        if not sizes:
            continue
        problem = SearchProblem(amb, rng.choice(sizes), t)
        engine = enumerate_orthogonal(problem)
        assert engine == brute_force_oracle(problem)
        compared += 1
        rational += any(f.levels != default_levels(f.arity) for f in amb.factors)
        several += len(engine) > 1
    assert rational >= 10 and several >= 10


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
    # reference reader, or raises its exact error, on mixed files.
    rng = random.Random(83)
    ambients = [full_factorial([2, 2, 3]), full_factorial([2, 2, 2, 2, 3])]
    ambients += [random_ambient(rng) for _ in range(4)]
    outcomes = set()
    for amb in ambients:
        for _ in range(150):
            lines = [_random_line(rng, amb) for _ in range(rng.randint(0, 12))]
            text = rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))
            try:
                expected = reference.read_designs(io.StringIO(text), amb)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    read_designs(io.StringIO(text), amb)
                assert str(got.value) == str(exc)
                outcomes.add("error")
                continue
            assert read_designs(io.StringIO(text), amb) == expected
            y = read_design_matrix(io.StringIO(text), amb)
            assert y.tolist() == runs_matrix(expected, amb.run_count).tolist()
            outcomes.add("designs" if expected else "empty")
    assert outcomes == {"error", "designs", "empty"}


def _old_design_file(designs) -> str:
    """The design file as written one json.dumps per design."""
    return "".join(json.dumps(list(d.runs)) + "\n" for d in designs) + f"# count: {len(designs)}\n"


@pytest.mark.parametrize(
    "levels, size, strength, oracle",
    [((2, 2, 2, 2, 3), 24, 2, False), ((2, 2, 2, 2), 8, 2, True), ((2, 2), 3, 2, False)],
)
def test_array_route_matches_list_route(levels, size, strength, oracle, flagship_designs):
    # enumerate -> write -> read -> classify on membership matrices gives the
    # bytes of the route through Design lists, the per-line reader and the
    # json.dumps writer: on the flagship, with the oracle and on an empty result.
    amb = full_factorial(levels)
    problem = SearchProblem(amb, size, strength)
    if oracle:
        y, designs = brute_force_matrix(problem), brute_force_oracle(problem)
    else:
        y = enumerate_matrix(problem)
        designs = flagship_designs if size == 24 else enumerate_orthogonal(problem)
    # Line lists, not strings: a failure then names the first differing line.
    written = io.StringIO()
    write_design_matrix(y, written)
    assert written.getvalue().split("\n") == _old_design_file(designs).split("\n")
    listed = io.StringIO()
    write_designs(designs, listed)
    assert listed.getvalue().split("\n") == written.getvalue().split("\n")

    shuffled = written.getvalue().splitlines(keepends=True)
    body = shuffled[:-1]
    random.Random(size).shuffle(body)
    text = "".join(body + shuffled[-1:])
    array_classes = classify_matrix(amb, read_design_matrix(io.StringIO(text), amb))
    list_classes = classify(reference.read_designs(io.StringIO(text), amb))
    array_report = json.dumps(classification_report(array_classes), indent=2).split("\n")
    assert array_report == json.dumps(classification_report(list_classes), indent=2).split("\n")
    assert bool(array_classes) == bool(len(y))
    if levels == (2, 2, 2, 2, 3):
        assert cross_check_classes(array_classes) == cross_check_classes(list_classes) == []
    assert np.array_equal(y, runs_matrix(designs, amb.run_count))
