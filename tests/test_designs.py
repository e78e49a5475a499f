import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import RATIONAL, random_ambient, sign_fraction
from reference import (
    NonTwoLevelFactorError,
    bitset_keys,
    from_level_sets,
    full_design,
    j_statistic,
    margin_counts,
    margins,
    points,
    save_design_csv,
)
from orthofrac.catalog import flagship_ambient
from orthofrac.designs import (
    Design,
    FullFactorial,
    ShapeMismatchError,
    full_factorial,
    has_strength,
    invariant_triple,
    load_design_csv,
    margin_cells,
    run_index,
    run_point,
)


def test_ambient_equality_ignores_cached_shape():
    amb = full_factorial([2, 3])
    fresh = FullFactorial(amb.factors)
    assert (amb.radices, amb.run_count, hash(amb)) == ((2, 3), 6, hash(fresh))
    assert amb == fresh and amb is not fresh
    assert pickle.loads(pickle.dumps(amb)) == fresh
    assert amb != full_factorial([3, 2])


def test_ambients_are_shared_and_hash_their_levels_once(monkeypatch):
    # One instance per arity tuple, the catalog's included, so cache
    # lookups find it by identity; and a factor hashes its level values
    # once, however often it or its ambient is hashed.
    amb = full_factorial([2, 2, 2, 2, 3])
    assert full_factorial((2, 2, 2, 2, 3)) is amb is flagship_ambient()
    assert full_factorial([2, 2, 2, 3]) is not full_factorial([2, 2, 3, 2])
    fresh = from_level_sets([(-1, 1), (0, 1, 2)])
    hashed = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda v: hashed.append(v) or fraction_hash(v))
    assert hash(fresh) == hash(fresh) == hash(FullFactorial(fresh.factors))
    assert hashed == [-1, 1, 0, 1, 2]
    assert fresh == from_level_sets([(-1, 1), (0, 1, 2)]) != from_level_sets([(1, -1), (0, 1, 2)])


def test_run_point_lexicographic_origin():
    amb = full_factorial([2, 2])
    assert run_point(amb, 0) == (Fraction(-1), Fraction(-1))


def test_run_point_2x3_ordering():
    amb = full_factorial([2, 3])
    assert run_point(amb, 0) == (Fraction(-1), Fraction(-1))
    assert run_point(amb, 1) == (Fraction(-1), Fraction(0))
    assert run_point(amb, 5) == (Fraction(1), Fraction(1))


def test_run_point_last_run_of_flagship():
    amb = full_factorial([2, 2, 2, 2, 3])
    assert run_point(amb, 47) == (1, 1, 1, 1, 1)
    with pytest.raises(IndexError):
        run_point(amb, 48)


def test_index_vectors_own_the_run_order():
    # index_vectors lists decode(i) for every run, read-only, also in a
    # pickled copy; run_index inverts it, and each run hits, on every factor
    # subset, the margin cell whose levels are the run's levels there.
    rng = random.Random(24)
    for amb in [RATIONAL, full_factorial([4, 3, 2])] + [random_ambient(rng) for _ in range(20)]:
        m = amb.run_count
        ivs = amb.index_vectors
        assert ivs.dtype == np.int64 and ivs.shape == (m, amb.n_factors)
        assert ivs.tolist() == [list(amb.decode(i)) for i in range(m)]
        copy = pickle.loads(pickle.dumps(amb))
        for array in (ivs, copy.index_vectors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1
        assert amb.index_vectors is ivs and np.array_equal(copy.index_vectors, ivs)
        assert run_index(amb, ivs.T).tolist() == list(range(m))
        for k in range(1, amb.n_factors + 1):
            table = margin_cells(amb, k)
            assert len(table.levels) == len(table.volumes) and not table.levels.flags.writeable
            for s, subset in enumerate(table.subsets):
                assert (table.levels[table.cells[:, s]] == ivs[:, subset]).all()
                # A subset's cells come in the run order of the factorial of its factors.
                start, volume = table.starts[s], table.volumes[table.starts[s]]
                margin = FullFactorial(tuple(amb.factors[j] for j in subset))
                assert run_index(margin, table.levels[start : start + volume].T).tolist() == list(range(volume))


def test_margins_full_factorial_balanced():
    amb = full_factorial([2, 3])
    table = margins(full_design(amb), (0, 1))
    assert set(table.counts.values()) == {1}
    assert sum(table.counts.values()) == 6


def test_margins_of_regular_half_fraction():
    amb = full_factorial([2, 2, 2, 2, 3])
    frac = sign_fraction(amb, (0, 1, 2, 3), 1)
    assert frac.size == 24
    table = margins(frac, (0, 1))
    assert set(table.counts.values()) == {6}


def test_margins_empty_design():
    amb = full_factorial([2, 3])
    table = margins(Design(amb, ()), (0,))
    assert set(table.counts.values()) == {0}
    assert table.is_uniform()


def test_full_design_has_full_strength():
    amb = full_factorial([2, 2, 3])
    assert has_strength(full_design(amb), 3)


def test_four_factor_fraction_has_strength_three():
    amb = full_factorial([2, 2, 2, 2, 3])
    frac = sign_fraction(amb, (0, 1, 2, 3), 1)
    assert has_strength(frac, 3)


def test_three_factor_fraction_strength_two_not_three():
    amb = full_factorial([2, 2, 2, 2, 3])
    frac = sign_fraction(amb, (0, 1, 3), 1)
    assert has_strength(frac, 2)
    assert not has_strength(frac, 3)


def test_strength_is_monotone_on_random_fractions():
    rng = random.Random(3)
    amb = full_factorial([2, 2, 3])
    for _ in range(50):
        size = rng.randint(0, 12)
        runs = sorted(rng.sample(range(12), size))
        d = Design(amb, tuple(runs))
        results = [has_strength(d, t) for t in (1, 2, 3)]
        for lower, higher in zip(results, results[1:]):
            assert lower or not higher


@pytest.mark.parametrize("wide", [False, True])
def test_popcount_margin_counts_match_membership_counts(wide):
    # MarginCells.count_keys (octet sums of the 0/1 cell columns) equals
    # the reference's membership row @ incidence, as int16, at every strength, on
    # seeded random ambients of one word, or, wide, on ambients of more
    # than 64 runs (two or three words, some with padding bits), for the
    # empty and full designs and random subsets; also on a column subset.
    rng = random.Random(59 + wide)
    extra = [[2, 2, 2, 2, 2, 3], [3, 3, 3, 3], [2] * 7, [5, 5, 5]]
    ambients = [full_factorial(arities) for arities in extra] if wide else [random_ambient(rng) for _ in range(20)]
    for amb in ambients:
        m = amb.run_count
        assert (m > 64) == wide
        y = np.array([[0] * m, [1] * m] + [[int(rng.random() < 0.5) for _ in range(m)] for _ in range(30)])
        keys = bitset_keys(y)
        for strength in range(amb.n_factors + 1):
            table = margin_cells(amb, strength)
            counts = table.count_keys(keys)
            assert counts.dtype == np.int16
            assert np.array_equal(counts, margin_counts(table, y))
            cells = np.array(sorted(rng.sample(range(len(table.volumes)), len(table.volumes) // 2)), dtype=np.int64)
            assert np.array_equal(table.count_keys(keys, cells), margin_counts(table, y)[:, cells])


def test_j_statistic_of_regular_triple():
    amb = full_factorial([2, 2, 2, 2, 3])
    frac = sign_fraction(amb, (0, 1, 3), 1)
    assert j_statistic(frac, (0, 1, 3)) == 24


def test_j_statistic_zero_cases():
    amb = full_factorial([2, 2, 2, 2, 3])
    frac = sign_fraction(amb, (0, 1, 2, 3), 1)
    # Direct summation oracle over the 24 runs.
    direct = sum(
        int(pt[0] * pt[1] * pt[2]) for pt in points(frac)
    )
    assert direct == 0
    assert j_statistic(frac, (0, 1, 2)) == 0
    for s in itertools.combinations(range(4), 3):
        assert j_statistic(full_design(amb), s) == 0


def test_j_statistic_rejects_three_level_factor():
    amb = full_factorial([2, 2, 2, 2, 3])
    with pytest.raises(NonTwoLevelFactorError):
        j_statistic(full_design(amb), (0, 4))


def test_invariant_triple_of_regular_fractions():
    amb = full_factorial([2, 2, 2, 2, 3])
    assert invariant_triple(sign_fraction(amb, (0, 1, 2, 3), 1)) == (0, (0, 0, 0, 0), 0)
    assert invariant_triple(sign_fraction(amb, (0, 1, 3), 1)) == (1, (24, 0, 0, 0), 0)


def test_invariant_triple_of_listed_representative():
    from orthofrac.algebra import design_from_indicator
    from orthofrac.polynomials import parse_polynomial

    amb = full_factorial([2, 2, 2, 2, 3])
    poly = parse_polynomial("1/2 - 1/2 x1 x2 x4 + 1 x1 x2 x4 x5^2", 5)
    design = design_from_indicator(poly, amb)
    assert design.size == 24
    assert invariant_triple(design) == (1, (8, 0, 0, 0), 0)


def test_invariant_triple_shape_checks():
    amb = full_factorial([2, 2, 3])
    with pytest.raises(ShapeMismatchError):
        invariant_triple(full_design(amb))
    flagship = full_factorial([2, 2, 2, 2, 3])
    with pytest.raises(ShapeMismatchError):
        invariant_triple(Design(flagship, (0, 1)))


def test_design_rejects_repeats_and_out_of_range():
    amb = full_factorial([2, 2])
    with pytest.raises(ValueError):
        Design.from_runs(amb, [0, 0, 1])
    with pytest.raises(IndexError):
        Design(amb, (0, 4))


def test_csv_round_trip_canonicalizes(tmp_path):
    amb = full_factorial([2, 2, 2, 2, 3])
    frac = sign_fraction(amb, (0, 1, 2, 3), -1)
    path = tmp_path / "design.csv"
    save_design_csv(frac, path)
    assert load_design_csv(path, amb) == frac

    # Rows in any order canonicalize to the same design.
    lines = path.read_text().splitlines()
    shuffled = [lines[0]] + list(reversed(lines[1:]))
    path.write_text("\n".join(shuffled) + "\n")
    assert load_design_csv(path, amb) == frac


def test_csv_rejects_bad_input(tmp_path):
    amb = full_factorial([2, 2])
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n-1,-1\n-1,-1\n")
    with pytest.raises(ValueError):
        load_design_csv(path, amb)  # repeated run
    path.write_text("x1,x2\n-1,7\n")
    with pytest.raises(ValueError):
        load_design_csv(path, amb)  # level not in the ambient
    path.write_text("x1\n-1\n")
    with pytest.raises(ValueError):
        load_design_csv(path, amb)  # wrong header
