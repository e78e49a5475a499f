"""The integer fast path must agree with the Fraction-level reference
implementations, exhaustively on small ambients."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import RATIONAL, random_ambient
from orthofrac.algebra import (
    contrast_checks,
    contrast_sums,
    exponent_lattice,
    indicator_from_design,
    mode_products,
    value_checks,
    verify_theta_report,
)
from orthofrac import designs
from orthofrac.designs import (
    Design,
    ProblemTooLargeError,
    ShapeMismatchError,
    design_keys,
    find_keys,
    from_level_sets,
    full_factorial,
    has_strength,
    indexed_keys,
    invariant_triple,
    invariant_triples,
    key_bits,
    key_capacity,
    key_designs,
    key_octets,
    key_runs,
    key_words,
    margin_cells,
    octet_keys,
    octet_sums,
    octet_tables,
    column_sums,
    run_sums,
    search_keys,
    search_rows,
    sort_keys,
    unpack_runs,
)
from orthofrac.fastcheck import BatchChecker, get_checker
from reference import (
    bitset_keys,
    build_model_matrix,
    full_design,
    idempotency_system,
    j_statistic,
    margin_counts,
    margins,
    mat_vec,
    membership_rows,
    model_matrix_inverse,
    polynomial_from_theta,
    run_keys,
    satisfies_idempotency,
    theta_vector,
    verify_theta,
)

# Two-level factors listed as (1, -1) put the value +1 at level index 0.
FLIPPED = from_level_sets([(1, -1), (-1, 1), (1, -1), (1, -1), (-1, 0, 1)])


def _all_subsets(amb):
    m = amb.run_count
    return [tuple(i for i in range(m) if bits >> i & 1) for bits in range(2**m)]


def _reference_strength(design, t):
    """Strength t by the Fraction-labelled margins of every t-subset."""
    subsets = itertools.combinations(range(design.ambient.n_factors), t)
    return all(margins(design, s).is_uniform() for s in subsets)


def _batch_strength(amb, y, size, t):
    """Strength t of every 0/1 row of y, by the reference's incidence counts."""
    table = margin_cells(amb, t)
    return table.balanced(margin_counts(table, y), size).all(axis=1)


def _reference_invariants(design):
    """(T1, J, T2) from margins and j_statistic, subset by subset."""
    triples = list(itertools.combinations(range(4), 3))
    t1 = sum(not margins(design, t).is_uniform() for t in triples)
    jset = tuple(sorted((abs(j_statistic(design, t)) for t in triples), reverse=True))
    pairs = itertools.combinations(range(4), 2)
    t2 = sum(not margins(design, p + (4,)).is_uniform() for p in pairs)
    return t1, jset, t2


def _round_trip(amb, y):
    """(theta numerators over w, X theta numerators over x * w, w, x) by mode_products."""
    theta, w = mode_products(amb, y, inverse=True)
    values, x = mode_products(amb, theta, inverse=False)
    return theta, values, w, x


def _identities_hold(amb, y):
    """Interpolation X (X^-1 y) = y, theta_0 = |F| / m and X theta 0/1, row by row."""
    theta, values, w, x = _round_trip(amb, y)
    interpolation = np.all(values == np.multiply(y, x * w, dtype=object), axis=1)
    constant = np.multiply(theta[:, 0], amb.run_count, dtype=object) == np.multiply(
        y.sum(axis=1), w, dtype=object
    )
    idempotent = value_checks(amb, values, x * w, y.sum(axis=1), 1)[:, 0]
    return interpolation, constant, idempotent


def test_theta_scaled_matches_exact_theta():
    amb = full_factorial([2, 2, 2])
    subsets = _all_subsets(amb)
    theta, w = mode_products(amb, membership_rows(subsets, amb.run_count), inverse=True)
    for runs, row in zip(subsets, theta):
        exact = theta_vector(indicator_from_design(Design(amb, runs)), amb)
        assert [Fraction(int(v), w) for v in row] == list(exact)


# Levels this far apart put X theta beyond 2^62, so the mode products run on Python ints.
WIDE = from_level_sets([(0, 1, 10**4, -(10**5)), (1, 7**9, Fraction(-1, 3))])


def test_batch_checker_matches_exact_route():
    # Differential: theta from the batch mode products equals X^-1 y by the
    # dense Gauss-Jordan inverse, and the verdict equals the one-design report
    # at every strength, on random ambients, on int64 and Python-int paths:
    # value_checks on every row, verify on the keys of the 0/1 rows.
    rng = random.Random(71)
    paths = set()
    for amb in [random_ambient(rng) for _ in range(10)] + [WIDE]:
        m, n = amb.run_count, amb.n_factors
        rows = [full_design(amb).membership()]
        rows += membership_rows(
            [tuple(sorted(rng.sample(range(m), rng.randint(0, m)))) for _ in range(20)], m
        ).tolist()
        keys = bitset_keys(np.array(rows, dtype=bool))
        rows += [[rng.choice((-1, 0, 1, 2)) for _ in range(m)] for _ in range(20)]
        checker, y = BatchChecker(amb), np.array(rows, dtype=np.int64)
        inverse = model_matrix_inverse(amb)
        thetas = [mat_vec(inverse, row) for row in rows]
        scaled, values, w, x = _round_trip(amb, y)
        assert [[Fraction(v, w) for v in row] for row in scaled.tolist()] == [
            list(theta) for theta in thetas
        ]
        assert np.all(values == np.multiply(y, x * w, dtype=object))
        paths.add(values.dtype)
        assert values.dtype == object or amb is not WIDE
        polys = [polynomial_from_theta(theta, amb) for theta in thetas]
        sizes = y.sum(axis=1)
        # X theta = y, so the verdict read from the round trip is the one read from y.
        round_trip = value_checks(amb, values, x * w, sizes, n)
        assert np.array_equal(round_trip, value_checks(amb, y, 1, sizes, n))
        for t in range(1, n + 1):
            expected = [
                all(verify_theta_report(poly, amb, int(size), t).values())
                for poly, size in zip(polys, sizes)
            ]
            assert value_checks(amb, y, 1, sizes, t).all(axis=1).tolist() == expected
            assert checker.verify(keys, sizes[: len(keys)], t).tolist() == expected[: len(keys)]
    assert paths == {np.dtype(np.int64), np.dtype(object)}


def test_batch_verify_agrees_with_verify_theta_exhaustively():
    amb = full_factorial([2, 2, 2])
    checker = get_checker(amb)
    subsets = _all_subsets(amb)
    keys = design_keys(subsets, amb.run_count)
    for t in (1, 2, 3):
        for s in (2, 4):
            batch = checker.verify(keys, s, t)
            for runs, got in zip(subsets, batch):
                poly = indicator_from_design(Design(amb, runs))
                assert bool(got) == verify_theta(poly, amb, s, t)


def _parity_fractions(amb, q=2):
    """{runs: the level indices of the factors in S sum to c mod q}, for every S and c."""
    n, m = amb.n_factors, amb.run_count
    out = []
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            for c in range(q):
                out.append(tuple(
                    i for i in range(m) if sum(amb.decode(i)[j] for j in subset) % q == c
                ))
    return out


@pytest.mark.parametrize("levels", [None, (2,) * 6, (3,) * 4, (2,) * 7], ids=["random", "2^6", "3^4", "2^7"])
def test_key_sums_match_contrast_sums(levels):
    # Differential: the popcount sums on keys equal contrast_sums of their
    # bits, and verify equals value_checks on those bits, at every strength:
    # on random ambients, where m fills one word (2^6), leaves padding bits
    # (3^4) and fills two words (2^7).  Keys are summed from one-run keys,
    # as enumerate sums them; one summed with a repeated run has fewer bits
    # than runs and fails the size row.
    rng = random.Random(59)
    ambients = [random_ambient(rng) for _ in range(10)] if levels is None else [full_factorial(levels)]
    for amb in ambients:
        m, n = amb.run_count, amb.n_factors
        runs = [(), tuple(range(m))] + _parity_fractions(amb, max(amb.radices) if levels else 2)
        runs += [tuple(sorted(rng.sample(range(m), rng.randint(1, m)))) for _ in range(30)]
        plain = len(runs)
        runs += [r + (r[rng.randrange(len(r))],) for r in runs[1:]]
        keys = np.stack([run_keys(m)[list(r)].sum(axis=0, dtype=np.uint64) for r in runs])
        sizes = np.array([len(r) for r in runs])
        bits, checker = key_bits(keys)[:, :m], BatchChecker(amb)
        for t in range(1, n + 1):
            sums = checker.sums(keys, t)
            assert np.array_equal(sums, contrast_sums(amb, bits, t))
            ok = checker.verify(keys, sizes, t)
            assert ok.tolist() == value_checks(amb, bits, 1, sizes, t).all(axis=1).tolist()
            # The packed compare is contrast_checks on the exact sums, for
            # per-row sizes of every kind, out of the size lane's range too.
            for shifted in (sizes, sizes + 1, sizes - 1, sizes - m - 1, sizes + m + 1, m, 0):
                expected = contrast_checks(amb, sums, shifted, t).all(axis=1)
                assert checker.verify(keys, shifted, t).tolist() == expected.tolist()
            assert ok[:2].all() and not ok[plain:].any()
            assert np.all(sums[plain:, 0] < sizes[plain:])
            # The regular fractions on all n factors have strength n - 1.
            assert ok[2:plain].any() or not levels or t == n


def test_batch_strength_agrees_with_has_strength():
    amb = full_factorial([2, 3])
    subsets = _all_subsets(amb)
    y = membership_rows(subsets, amb.run_count)
    for t in (1, 2):
        batch = _batch_strength(amb, y, 3, t)
        for runs, got in zip(subsets, batch):
            design = Design(amb, runs)
            expected = _reference_strength(design, t)
            assert has_strength(design, t) == expected
            assert bool(got) == (len(runs) == 3 and expected)

    # Two-level factors listed as (1, -1), a four-level factor (k = 1..3),
    # and keys that fill one word (2^6), leave padding bits (3^4) and fill
    # two words (2^7).
    rng = random.Random(31)
    wide = [full_factorial(levels) for levels in ((2,) * 6, (3,) * 4, (2,) * 7)]
    for amb in [FLIPPED, full_factorial([2, 3, 4])] + wide:
        m = amb.run_count
        parity = _parity_fractions(amb, 3 if amb.radices == (3,) * 4 else 2)
        # The Fraction reference is slow on the wide ambients: 30 parity fractions each.
        subsets = [tuple(range(m)), ()] + (rng.sample(parity, 30) if amb in wide else parity)
        subsets += [tuple(sorted(rng.sample(range(m), rng.randrange(m + 1)))) for _ in range(40)]
        y = membership_rows(subsets, m)
        sizes = y.sum(axis=1, keepdims=True)
        for t in (1, 2, 3):
            batch = _batch_strength(amb, y, sizes, t)
            for runs, got in zip(subsets, batch):
                design = Design(amb, runs)
                expected = _reference_strength(design, t)
                assert has_strength(design, t) == expected
                assert bool(got) == expected
            if t == 1:
                assert batch[2:].any()  # some parity fraction is balanced


def test_indicator_identity_checks():
    amb = full_factorial([2, 2, 2])
    y = membership_rows(_all_subsets(amb), amb.run_count)
    assert all(bool(np.all(holds)) for holds in _identities_hold(amb, y))


def test_idempotent_ok_agrees_with_quadratic_system():
    # The quadratic system is the reference for the idempotency column of
    # value_checks (X theta in {0, 1}^m), on 0/1 rows and on integer rows
    # whose theta is not an indicator.
    rng = random.Random(37)
    for amb in (full_factorial([2, 2, 2]), full_factorial([2, 3]), RATIONAL):
        m = amb.run_count
        rows = membership_rows(_all_subsets(amb), m).tolist()
        keys = bitset_keys(np.array(rows, dtype=bool))
        # The doubled and negated full factorials are balanced but not 0/1.
        rows += [[2] * m, [-1] * m]
        rows += [[rng.choice((-1, 0, 1, 2)) for _ in range(m)] for _ in range(40)]
        checker, y = get_checker(amb), np.array(rows, dtype=np.int64)
        inverse = model_matrix_inverse(amb)
        polys = [polynomial_from_theta(mat_vec(inverse, row), amb) for row in rows]
        expected = [satisfies_idempotency(poly, amb) for poly in polys]
        sizes = y.sum(axis=1)
        checks = value_checks(amb, y, 1, sizes, 1)
        assert checks[:, 0].tolist() == expected
        assert not all(expected)
        # verify needs both halves: some non-indicators pass the linear half.
        linear = checks[:, 1:].all(axis=1)
        assert (linear & ~np.array(expected)).any()
        verdicts = [verify_theta(poly, amb, int(size), 1) for poly, size in zip(polys, sizes)]
        assert checks.all(axis=1).tolist() == verdicts
        assert checker.verify(keys, sizes[: len(keys)], 1).tolist() == verdicts[: len(keys)]


def test_idempotency_system_is_the_reduced_square():
    # mu(theta) from the quadratic forms equals X^-1 ((X theta) o (X theta)).
    rng = random.Random(41)
    for amb in (full_factorial([2, 2, 2]), full_factorial([2, 3]), RATIONAL):
        lattice = exponent_lattice(amb)
        x, inverse = build_model_matrix(amb), model_matrix_inverse(amb)
        system = idempotency_system(amb)
        for _ in range(10):
            theta = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in lattice]
            coeffs = dict(zip(lattice, theta))
            mu = {eq.target: coeffs[eq.target] - eq.residual(coeffs) for eq in system}
            values = mat_vec(x, theta)
            square = mat_vec(inverse, [v * v for v in values])
            assert [mu[a] for a in lattice] == list(square)


def test_scaling_paths_on_rational_level_ambient():
    # The fast path must still agree with the exact route when X's denominator is > 1.
    amb = RATIONAL
    checker = BatchChecker(amb)
    subsets = _all_subsets(amb)
    y = membership_rows(subsets, amb.run_count)
    scaled, _, w, x = _round_trip(amb, y)
    assert x > 1
    for runs, row in zip(subsets, scaled):
        exact = theta_vector(indicator_from_design(Design(amb, runs)), amb)
        assert [Fraction(int(v), w) for v in row] == list(exact)
    keys = bitset_keys(y)
    for t in (1, 2):
        for s in (2, 3):
            batch = checker.verify(keys, s, t)
            strength = _batch_strength(amb, y, s, t)
            for runs, got, got_s in zip(subsets, batch, strength):
                design = Design(amb, runs)
                poly = indicator_from_design(design)
                assert bool(got) == verify_theta(poly, amb, s, t)
                assert bool(got_s) == (len(runs) == s and _reference_strength(design, t))
    interpolation, const, idempotent = _identities_hold(amb, y)
    assert bool(np.all(idempotent)) and bool(np.all(interpolation))
    # theta_0 == |F|/m is a property of symmetric level codings, not a
    # theorem for arbitrary levels; here the mode products must simply
    # agree with the exact constant coefficient.
    for runs, got in zip(subsets, const):
        theta0 = indicator_from_design(Design(amb, runs)).coefficient((0, 0))
        assert bool(got) == (theta0 == Fraction(len(runs), amb.run_count))


def test_batch_invariant_triples_match_reference():
    rng = random.Random(29)
    random_designs = [tuple(sorted(rng.sample(range(48), 24))) for _ in range(20)]
    # Two-level factors listed as (1, -1): J signs follow the level values.
    for amb in (full_factorial([2, 2, 2, 2, 3]), FLIPPED):
        # The 24-run parity fractions include the regular x_i x_j x_k = +-1 (|J| = 24).
        parity = [runs for runs in _parity_fractions(amb) if len(runs) == 24]
        designs = random_designs + parity
        batch = invariant_triples(amb, design_keys(designs, 48))
        for runs, got in zip(designs, batch):
            design = Design(amb, runs)
            assert got == _reference_invariants(design)
            assert invariant_triple(design) == got
        assert any(24 in jset for _, jset, _ in batch)
    # Keys of one full word (2^6), with padding bits (3^4) and of two full
    # words (2^7): the invariants are defined on the 2x2x2x2x3 ambient only.
    for levels in ((2, 3, 4), (2,) * 6, (3,) * 4, (2,) * 7):
        amb = full_factorial(levels)
        with pytest.raises(ShapeMismatchError):
            invariant_triples(amb, design_keys([tuple(range(24))], amb.run_count))
    # A key of 23 or 25 runs is no 24-run fraction.
    for runs in (tuple(range(23)), tuple(range(25))):
        with pytest.raises(ShapeMismatchError):
            invariant_triples(full_factorial([2, 2, 2, 2, 3]), design_keys([runs], 48))


def test_membership_matrix_round_trip():
    amb = full_factorial([2, 2, 3])
    rng = random.Random(31)
    runs = [tuple(sorted(rng.sample(range(12), rng.randrange(13)))) for _ in range(40)]
    y = membership_rows(runs, 12)
    keys = bitset_keys(y)
    assert np.array_equal(design_keys(runs, 12), keys)
    assert key_runs(keys) == runs
    assert key_designs(amb, keys) == [Design(amb, r) for r in runs]
    assert np.array_equal(key_bits(keys)[:, :12], y)
    assert np.array_equal(key_bits(keys), np.pad(y, ((0, 0), (0, 52))))
    # A 2-D run array, Designs and run tuples give the same keys.
    six = [tuple(sorted(rng.sample(range(12), 6))) for _ in range(10)]
    assert np.array_equal(design_keys(np.array(six), 12), design_keys(six, 12))
    assert np.array_equal(design_keys([Design(amb, r) for r in six], 12), design_keys(six, 12))
    # Designs are built through the validated constructor: a column past
    # the ambient's last run is rejected, not turned into a Design.
    with pytest.raises(IndexError):
        key_designs(amb, design_keys([(0, 12)], 13))
    # A run outside [0, m) raises, on rows of one length and on padded rows;
    # run 64 is also the pad value that shifts out of every word.
    for rows in ([(0, 12)], [(-1, 3)], [(5, 64)], [(0, 12), (1,)], [(1,), (-1, 3)], [(), (64,)]):
        with pytest.raises(IndexError, match="out of range"):
            design_keys(rows, 12)
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        with pytest.raises(IndexError, match="out of range"):
            run_sums(lengths, np.array([i for r in rows for i in r], dtype=np.int64), 12)


@pytest.mark.parametrize(
    "m, dtype",
    [(m, np.uint8) for m in (1, 8, 63, 64, 65, 128, 129, 256)] + [(m, np.uint16) for m in (257, 324, 1001)],
)
def test_indexed_keys_match_design_keys(m, dtype, monkeypatch):
    # Rows of distinct runs in any order, in the narrowest unsigned dtype that
    # holds m - 1, as a run-permutation table's columns are gathered: the runs
    # of a word other than w wrap to shifts of 64 or more and add nothing.
    rng = np.random.default_rng(m)
    for size in sorted({0, 1, min(m, 7), m // 2, m}):
        runs = np.argsort(rng.random((11, m)), axis=1)[:, :size].astype(dtype)
        expected = bitset_keys(membership_rows(runs.astype(np.int64), m))
        assert np.array_equal(design_keys([sorted(row) for row in runs.tolist()], m), expected)
        flat = np.sort(runs, axis=1).ravel().astype(np.int64)
        assert np.array_equal(run_sums(np.full(len(runs), size), flat, m), expected)
        keys = indexed_keys(runs, m)
        assert keys.dtype == np.uint64 and keys.shape == (len(runs), key_words(m))
        assert np.array_equal(keys, expected)
        # Chunks of 1 and 4 of the 11 rows put chunk boundaries inside the batch.
        for rows in (1, 4):
            monkeypatch.setattr(designs, "_CHUNK_BYTES", 8 * size * rows)
            assert np.array_equal(indexed_keys(runs, m), expected)
        monkeypatch.undo()


@pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 120, 121, 128, 129, 255, 256])
def test_octet_sums_match_the_packbits_reference(m, monkeypatch):
    # Differential: the column sums read from the packed lanes equal the 0/1
    # rows times the matrix, for keys packed bit by bit (bitset_keys), on
    # random -1/0/1 and 0/1 matrices and one of no column; the empty and
    # the full row included.  The words octet_sums forms in chunks of 1, 4
    # and all 12 rows are those sums plus the bias, lane by lane.
    rng = np.random.default_rng(m)
    y = (rng.random((12, m)) < rng.random((12, 1))).astype(np.int64)
    y[0], y[1] = 0, 1
    keys = bitset_keys(y)
    for matrix in (rng.integers(-1, 2, (m, 11)), rng.integers(0, 2, (m, 11)), np.zeros((m, 0), dtype=np.int64)):
        lanes, bias = octet_tables(matrix)
        assert lanes.shape[:2] == (-(-m // 8), 256) and not lanes.flags.writeable
        assert lanes.dtype == (np.uint8 if m <= 255 else np.uint16) and lanes.shape[2] * lanes.itemsize % 8 == 0
        assert np.array_equal(bias, (matrix == -1).sum(axis=0))
        sums = column_sums(keys, (lanes, bias))
        assert sums.dtype == np.int16 and np.array_equal(sums, y @ matrix)
        n_words = lanes.shape[2] * lanes.itemsize // 8
        for rows in (1, 4, 12):
            monkeypatch.setattr(designs, "_CHUNK_BYTES", rows * (16 * n_words + 8 * keys.shape[1] + len(lanes)))
            words = octet_sums(keys, lanes.view(np.uint64))
            assert words.dtype == np.uint64 and words.shape == (12, n_words)
            assert np.array_equal(words.view(lanes.dtype)[:, : matrix.shape[1]], y @ matrix + bias)
            assert not words.view(lanes.dtype)[:, matrix.shape[1] :].any()
        monkeypatch.undo()


@pytest.mark.parametrize("m", [255, 256])
def test_octet_lanes_hold_their_extremes(m):
    # The all-runs key on a column of all ones sums to m, the largest lane
    # total: uint8 lanes hold 255, and m = 256 takes uint16 lanes.  On a
    # column of all -1 it sums to -m, a lane total of 0 beside a bias of m.
    # Nine columns fill more than one word of uint8 lanes, and no lane
    # carries into its neighbour, across words or within one.
    matrix = np.array([1, -1, 1, 0, -1, 1, 1, 1, -1] * m, dtype=np.int64).reshape(m, 9)
    y = np.array([[1] * m, [0] * m, [1] * (m - 1) + [0]], dtype=np.int64)
    lanes, bias = octet_tables(matrix)
    assert lanes.dtype == (np.uint8 if m == 255 else np.uint16)
    assert bias.tolist() == [0, m, 0, 0, m, 0, 0, 0, m]
    totals = octet_sums(bitset_keys(y), lanes.view(np.uint64)).view(lanes.dtype)[:, :9].tolist()
    assert totals[0] == [m, 0, m, 0, 0, m, m, m, 0]
    assert totals[1] == [0, m, 0, 0, m, 0, 0, 0, m]
    assert totals[2] == [m - 1, 1, m - 1, 0, 1, m - 1, m - 1, m - 1, 1]
    assert np.array_equal(column_sums(bitset_keys(y), (lanes, bias)), y @ matrix)


def test_octet_tables_are_sized_before_they_are_built(monkeypatch, capsys):
    # 2^8 at strength 4: 1,120 margin cells on 256 runs take 32 octets x 256
    # rows x 1,120 uint16 lanes, about 18 MB, refused by a smaller budget
    # before any is allocated; through the CLI, with exit 3 and one line.
    from orthofrac.cli import main
    from orthofrac import fastcheck

    amb = full_factorial([2] * 8)
    hits = np.zeros((256, 1120), dtype=np.int64)
    hits[np.arange(256)[:, None], margin_cells(amb, 4).cells] = 1
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 32 * 256 * 1120 * 2 - 1)
    message = f"the octet tables of 1120 columns on 256 runs take {32 * 256 * 1120 * 2} bytes"
    with pytest.raises(ProblemTooLargeError, match=message):
        octet_tables(hits)
    # At 2^2*3/6/1 the cross-check's tables, of 5 contrast rows on 12 runs,
    # take 2 octets x 256 rows x one word: one byte less refuses them.
    fastcheck._contrast_tables.cache_clear()
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 2 * 256 * 8 - 1)
    assert main(["enumerate", "--levels", "2,2,3", "--size", "6", "--strength", "1"]) == 3
    assert capsys.readouterr().err == (
        "error: the octet tables of 5 columns on 12 runs take 4096 bytes, more than the key budget of 4095 bytes\n"
    )
    fastcheck._contrast_tables.cache_clear()


@pytest.mark.parametrize("words", [1, 2])
def test_sort_keys_gathers_the_rows_in_key_order(words):
    # One word is sorted directly, with no index; several are gathered in
    # lexsort order.  Repeated rows, and rows equal in their first word, included.
    rng = np.random.default_rng(words)
    keys = rng.integers(0, 2**64, size=(300, words), dtype=np.uint64, endpoint=False)
    keys[100:150] = keys[:50]
    keys[150:200, 0] = keys[0, 0]
    keys[200:210] = 0
    assert sort_keys(keys).tolist() == sorted(keys.tolist())
    assert np.array_equal(sort_keys(keys[:0]), keys[:0])


@pytest.mark.parametrize("m", [1, 64, 65, 128, 129, 192])
def test_search_rows_inverts_search_keys(m):
    # One, two and three words, each full and one run into the next word;
    # the rows of a one-row slice, and of no row, come back too.
    keys = np.random.default_rng(m).integers(0, 2**64, size=(40, key_words(m)), dtype=np.uint64)
    ordered = search_keys(keys)
    rows = search_rows(ordered)
    assert rows.dtype == np.uint64 and np.array_equal(rows, keys)
    assert np.array_equal(search_rows(ordered[7:8]), keys[7:8])
    assert search_rows(ordered[:0]).shape == (0, key_words(m))


@pytest.mark.parametrize("m", [1, 12, 48, 63, 64, 65, 81, 128, 129, 130])
def test_word_keys_are_sums_of_run_keys_and_sort_as_run_tuples(m):
    rng = random.Random(m)
    size = min(7, m - 1)
    runs = sorted({tuple(sorted(rng.sample(range(m), size))) for _ in range(60)})
    keys = bitset_keys(membership_rows(runs, m))
    assert keys.dtype == np.uint64 and keys.shape == (len(runs), -(-m // 64)) == (len(runs), key_words(m))
    assert key_runs(keys) == runs
    assert np.array_equal(key_bits(keys)[:, :m], membership_rows(runs, m))
    singles = run_keys(m)
    assert np.array_equal(keys, np.stack([singles[list(r)].sum(axis=0) for r in runs]))
    assert np.array_equal(keys, design_keys(runs, m))
    # Descending keys are ascending run tuples among designs of one size.
    shuffled = rng.sample(range(len(runs)), len(runs))
    assert sort_keys(keys[shuffled]).tolist() == sorted(keys.tolist())
    assert key_runs(sort_keys(keys[shuffled])[::-1]) == runs
    # Binary search over the sorted keys finds every key, and no larger design.
    ordered = search_keys(sort_keys(keys))
    pos, found = find_keys(ordered, keys)
    assert found.all() and np.array_equal(ordered[pos], search_keys(keys))
    assert not find_keys(ordered, design_keys([tuple(range(size + 1))], m))[1].any()
    # Unpacking is the inverse of run_sums, and octet v of a key stands for
    # the sum of the run keys of its set bits, also on empty and full rows.
    runs += [(), tuple(range(m))]
    keys = bitset_keys(membership_rows(runs, m))
    assert np.array_equal(design_keys(runs, m), keys)
    lengths, flat = unpack_runs(keys)
    assert lengths.tolist() == [len(r) for r in runs] and flat.tolist() == [i for r in runs for i in r]
    assert np.array_equal(run_sums(lengths, flat, m), keys)
    assert key_capacity(keys) == 64 * key_words(m) and flat.max() < key_capacity(keys)
    octets = key_octets(keys)
    assert octets.dtype == np.uint8 and octets.shape == (len(runs), 8 * key_words(m))
    rebuilt = np.zeros_like(keys)
    for j in range(-(-m // 8)):
        rebuilt += octet_keys(np.arange(8 * j, min(8 * j + 8, m)), m)[octets[:, j]]
    assert np.array_equal(rebuilt, keys) and not octets[:, -(-m // 8) :].any()
    # Over any runs, bit i from the top of an octet value stands for runs[i].
    mapped = rng.sample(range(m), min(8, m))
    table = octet_keys(np.array(mapped), m)
    for v in range(256):
        chosen = [r for i, r in enumerate(mapped) if v >> (7 - i) & 1]
        assert np.array_equal(table[v], singles[chosen].sum(axis=0, dtype=np.uint64))
