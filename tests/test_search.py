import io

import pytest

from conftest import sign_fraction
from orthofrac.algebra import verify_theta, indicator_from_design
from orthofrac.classify import generate_group, act
from orthofrac.designs import full_design, full_factorial, has_strength
from orthofrac.search import (
    ProblemTooLargeError,
    SearchProblem,
    brute_force_oracle,
    enumerate_orthogonal,
    read_designs,
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
    # 8 x 8: the values at the runs outgrow int64 and the cross-check runs on Python ints.
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


def test_worker_count_does_not_change_output():
    amb = full_factorial([2, 2, 3])
    single = enumerate_orthogonal(SearchProblem(amb, 6, 1, workers=1))
    multi = enumerate_orthogonal(SearchProblem(amb, 6, 1, workers=3))
    assert single == multi

    buf1, buf2 = io.StringIO(), io.StringIO()
    write_designs(single, buf1)
    write_designs(multi, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_explicit_slicing_factor_choice_is_equivalent():
    amb = full_factorial([2, 2, 3])
    default = enumerate_orthogonal(SearchProblem(amb, 6, 1))
    for p in range(3):
        assert enumerate_orthogonal(SearchProblem(amb, 6, 1, slicing_factor=p)) == default


def test_oracle_ceiling():
    amb = full_factorial([2, 2, 2, 2, 3])
    with pytest.raises(ProblemTooLargeError):
        brute_force_oracle(SearchProblem(amb, 24, 2))  # C(48,24) >> default ceiling
    with pytest.raises(ProblemTooLargeError):
        brute_force_oracle(SearchProblem(full_factorial([2, 2, 2]), 4, 2, oracle_ceiling=10))


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
