import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import RATIONAL, random_ambient, sign_fraction
from orthofrac import algebra
from orthofrac.algebra import (
    InconsistentSystemError,
    LinearSystem,
    NotAnIndicatorError,
    contrast_rows,
    design_from_indicator,
    exponent_lattice,
    expected_block_size,
    indicator_from_design,
    linear_preprocess,
    mode_products,
    orthogonality_system,
    polynomial_from_values,
    reduce_to_standard_form,
    rref,
    verify_theta_report,
)
from orthofrac.designs import (
    Design,
    all_points,
    full_factorial,
    has_strength,
)
from orthofrac.classify import act_theta, classification_report, classify, generate_group
from orthofrac.polynomials import Polynomial, parse_polynomial
from orthofrac.search import SearchProblem, enumerate_orthogonal
from reference import (
    build_model_matrix,
    evaluate,
    full_design,
    identity,
    idempotency_system,
    mat_mul,
    mat_vec,
    model_matrix_inverse,
    mul_model_inverse,
    mul_model_matrix,
    polynomial_from_theta,
    product,
    reference_contrast_matrix,
    reference_report,
    satisfied_by,
    satisfies_idempotency,
    subtract,
    theta_vector,
    verify_theta,
)


FLAGSHIP = full_factorial([2, 2, 2, 2, 3])


def test_model_matrix_single_two_level_factor():
    amb = full_factorial([2])
    assert build_model_matrix(amb) == ((1, -1), (1, 1))


def test_model_matrix_single_three_level_factor():
    amb = full_factorial([3])
    assert build_model_matrix(amb) == ((1, -1, 1), (1, 0, 0), (1, 1, 1))


def test_model_matrix_is_kronecker_product():
    # Column order (last exponent fastest) mirrors run order, so the model
    # matrix of a product ambient is the Kronecker product of the factors'.
    amb = full_factorial([2, 3])
    x2 = build_model_matrix(full_factorial([2]))
    x3 = build_model_matrix(full_factorial([3]))
    kron = tuple(
        tuple(x2[i1][j1] * x3[i2][j2] for j1 in range(2) for j2 in range(3))
        for i1 in range(2)
        for i2 in range(3)
    )
    assert build_model_matrix(amb) == kron


def test_flagship_model_matrix_inverse_roundtrip():
    # Plain products, so the reference inverse is checked apart from rref.
    x = build_model_matrix(FLAGSHIP)
    assert len(x) == 48 and all(len(row) == 48 for row in x)
    inv = model_matrix_inverse(FLAGSHIP)
    assert mat_mul(x, inv) == identity(48)
    assert mat_mul(inv, x) == identity(48)


@pytest.mark.parametrize(
    "amb", [FLAGSHIP, RATIONAL, full_factorial([2, 3, 4]), full_factorial([6, 6])]
)
def test_kronecker_transforms_match_model_matrix(amb):
    # The per-factor mode products equal the dense m x m route (direct
    # evaluation, inverse by rref) exactly: on the identity rows they
    # give d times the columns of X and X^-1.
    x, inverse = build_model_matrix(amb), model_matrix_inverse(amb)
    eye = np.eye(amb.run_count, dtype=np.int64)
    for reference, inv in ((x, False), (inverse, True)):
        columns, d = mode_products(amb, eye, inverse=inv)
        assert [[Fraction(v, d) for v in row] for row in columns.T.tolist()] == [
            list(row) for row in reference
        ]
    # The orthogonality rows are [1; C_1; ...; C_t] X for every t, with C
    # built entry by entry.
    blocks, _ = reference_contrast_matrix(amb)
    products = mat_mul(((1,) * amb.run_count,) + sum(blocks, ()), x)
    for t in range(1, amb.n_factors + 1):
        n_rows = 1 + sum(expected_block_size(amb, k) for k in range(1, t + 1))
        assert orthogonality_system(amb, 3, t).coeffs == products[:n_rows]
    rng = random.Random(53)
    for _ in range(10):
        v = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(amb.run_count)]
        assert mul_model_matrix(amb, v) == mat_vec(x, v)
        assert mul_model_inverse(amb, v) == mat_vec(inverse, v)
        assert mul_model_matrix(amb, mul_model_inverse(amb, v)) == tuple(v)
    with pytest.raises(ValueError):
        mul_model_matrix(amb, [1] * (amb.run_count + 1))


def test_solve_model_matrix_for_membership_vector():
    # Solving X theta = y by rref([X | y]) agrees with the inverse-multiply route.
    frac = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    y = frac.membership()
    reduced, pivots = rref([row + (v,) for row, v in zip(build_model_matrix(FLAGSHIP), y)])
    assert pivots == tuple(range(48))
    theta = tuple(row[48] for row in reduced)
    assert theta == mat_vec(model_matrix_inverse(FLAGSHIP), y)
    assert theta == theta_vector(indicator_from_design(frac), FLAGSHIP)


def test_indicator_of_full_design_is_one():
    amb = full_factorial([2, 2, 3])
    assert indicator_from_design(full_design(amb)) == Polynomial.constant(3, 1)


def test_indicator_of_regular_fractions():
    frac4 = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    assert indicator_from_design(frac4).to_text() == "1/2 + 1/2 x1 x2 x3 x4"
    frac3 = sign_fraction(FLAGSHIP, (0, 1, 3), 1)
    assert indicator_from_design(frac3).to_text() == "1/2 + 1/2 x1 x2 x4"


def test_indicator_interpolates_all_fractions_of_2cubed():
    amb = full_factorial([2, 2, 2])
    pts = all_points(amb)
    for bits in range(256):
        runs = tuple(i for i in range(8) if bits >> i & 1)
        design = Design(amb, runs)
        poly = indicator_from_design(design)
        values = [evaluate(poly, p) for p in pts]
        assert values == [1 if i in runs else 0 for i in range(8)]
        assert design_from_indicator(poly, amb) == design
        assert poly.coefficient((0, 0, 0)) == Fraction(len(runs), 8)


def test_design_from_indicator_error_cases():
    amb = full_factorial([2, 2])
    assert design_from_indicator(Polynomial.constant(2, 1), amb) == full_design(amb)
    with pytest.raises(NotAnIndicatorError):
        design_from_indicator(Polynomial.constant(2, Fraction(1, 2)), amb)
    with pytest.raises(ValueError):
        design_from_indicator(Polynomial.monomial((2, 0)), amb)  # not standard form
    for n_vars in (1, 3):  # not a polynomial of this ambient's variables
        with pytest.raises(ValueError, match="not in standard form"):
            design_from_indicator(Polynomial.monomial((1,) * n_vars), amb)


def test_listed_representative_maps_to_strength_two_design():
    poly = parse_polynomial("1/2 - 1/2 x1 x2 x4 + 1 x1 x2 x4 x5^2", 5)
    design = design_from_indicator(poly, FLAGSHIP)
    assert design.size == 24
    assert has_strength(design, 2)


@pytest.mark.parametrize(
    "amb",
    [FLAGSHIP, RATIONAL, full_factorial([2]), full_factorial([2, 3]), full_factorial([2, 3, 4]),
     full_factorial([6, 6])] + [random_ambient(random.Random(seed)) for seed in range(5)],
)
def test_contrast_rows_match_reference(amb):
    # The int64 rows built from the index vectors and their labels equal the
    # blocks built entry by entry.
    blocks, labels = reference_contrast_matrix(amb)
    rows, row_labels = algebra._contrast_rows(amb)
    assert rows.tolist() == [[1] * amb.run_count] + [
        [int(v) for v in row] for block in blocks for row in block
    ]
    assert row_labels == labels


def test_contrast_block_sizes_flagship():
    sizes = tuple(map(len, reference_contrast_matrix(FLAGSHIP)[0]))
    starts = algebra._block_starts(FLAGSHIP)
    assert sizes == tuple(b - a for a, b in zip(starts[1:], starts[2:]))
    assert sizes[0] == expected_block_size(FLAGSHIP, 1) == 6
    assert sizes[1] == expected_block_size(FLAGSHIP, 2) == 14
    assert 1 + sizes[0] + sizes[1] == 21
    assert all(
        s == expected_block_size(FLAGSHIP, k + 1) for k, s in enumerate(sizes)
    )


def test_contrast_single_two_level_factor():
    amb = full_factorial([2])
    assert reference_contrast_matrix(amb)[0] == (((1, -1),),)
    assert contrast_rows(amb, 1).tolist() == [[1, 1], [1, -1]]


def test_contrast_entries_and_row_sums():
    rows = contrast_rows(full_factorial([2, 3]), 2)
    assert len(rows) == 6
    for row in rows[1:].tolist():
        assert set(row) <= {-1, 0, 1}
        assert sum(row) == 0


def test_stacked_contrast_is_nonsingular():
    stacked = contrast_rows(FLAGSHIP, FLAGSHIP.n_factors).tolist()
    assert len(stacked) == 48
    assert len(rref(stacked)[1]) == 48


def test_orthogonality_system_shape_and_rank():
    system = orthogonality_system(FLAGSHIP, 24, 2)
    assert system.n_rows == 21
    assert len(rref(system.coeffs)[1]) == 21


def test_orthogonality_system_on_known_thetas():
    amb = full_factorial([2, 2, 3])
    theta_full = theta_vector(Polynomial.constant(3, 1), amb)
    for t in (1, 2, 3):
        assert satisfied_by(orthogonality_system(amb, 12, t), theta_full)

    frac3 = sign_fraction(FLAGSHIP, (0, 1, 3), 1)
    theta = theta_vector(indicator_from_design(frac3), FLAGSHIP)
    assert satisfied_by(orthogonality_system(FLAGSHIP, 24, 2), theta)
    assert not satisfied_by(orthogonality_system(FLAGSHIP, 24, 3), theta)


def test_idempotency_equations_single_two_level_factor():
    amb = full_factorial([2])
    eqs = {eq.target: dict(eq.form) for eq in idempotency_system(amb)}
    # theta_0 = theta_0^2 + theta_1^2, theta_1 = 2 theta_0 theta_1
    assert eqs[(0,)] == {((0,), (0,)): 1, ((1,), (1,)): 1}
    assert eqs[(1,)] == {((0,), (1,)): 2}


def test_idempotency_satisfied_by_indicators():
    theta_full = Polynomial.constant(5, 1)
    assert satisfies_idempotency(theta_full, FLAGSHIP)
    frac = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    assert satisfies_idempotency(indicator_from_design(frac), FLAGSHIP)
    assert not satisfies_idempotency(Polynomial.constant(5, Fraction(1, 2)), FLAGSHIP)


def test_idempotency_iff_zero_one_valued():
    rng = random.Random(17)
    amb = full_factorial([2, 3])
    pts = all_points(amb)
    lattice = exponent_lattice(amb)
    seen = {True: 0, False: 0}
    for _ in range(60):
        theta = [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 4))) for _ in lattice]
        poly = polynomial_from_theta(theta, amb)
        zero_one = all(evaluate(poly, p) in (0, 1) for p in pts)
        assert satisfies_idempotency(poly, amb) == zero_one
        seen[zero_one] += 1
    assert seen[False] > 0  # the sample actually exercises both sides


def test_linear_preprocess_flagship_counts():
    pre = linear_preprocess(orthogonality_system(FLAGSHIP, 24, 2))
    assert pre.n_eliminated == 21
    assert pre.n_free == 27


def test_linear_preprocess_substitution_closes_system():
    rng = random.Random(23)
    system = orthogonality_system(FLAGSHIP, 24, 2)
    pre = linear_preprocess(system)
    values = {j: Fraction(rng.randint(-3, 3), 2) for j in pre.free_variables}
    theta = [Fraction(0)] * 48
    for j, v in values.items():
        theta[j] = v
    for pivot, expr in pre.eliminated.items():
        theta[pivot] = expr.evaluate(values)
    assert satisfied_by(system, theta)


def test_linear_preprocess_edge_cases():
    tiny = orthogonality_system(full_factorial([2]), 2, 1)
    # single-factor system: 1'X theta = s and one contrast row
    pre = linear_preprocess(tiny)
    assert pre.n_eliminated + pre.n_free == 2

    # no effective constraints: no pivots, every variable free
    trivial = LinearSystem(((0, 0, 0),), (Fraction(0),), (("size",),))
    pre = linear_preprocess(trivial)
    assert pre.n_eliminated == 0
    assert pre.free_variables == (0, 1, 2)

    system = LinearSystem(((1, 0, 0),), (Fraction(1, 2),), (("size",),))
    pre = linear_preprocess(system)
    assert pre.eliminated[0].constant == Fraction(1, 2)
    assert pre.eliminated[0].coeffs == ()
    assert pre.n_free == 2

    bad = LinearSystem(((1, 1), (1, 1)), (Fraction(0), Fraction(1)), ((), ()))
    with pytest.raises(InconsistentSystemError):
        linear_preprocess(bad)


def test_verify_theta_examples():
    word4 = parse_polynomial("1/2 + 1/2 x1 x2 x3 x4", 5)
    assert verify_theta(word4, FLAGSHIP, 24, 2)
    assert not verify_theta(word4, FLAGSHIP, 24, 4)
    assert verify_theta(Polynomial.constant(5, 1), FLAGSHIP, 48, 2)
    report = verify_theta_report(Polynomial.constant(5, Fraction(1, 2)), FLAGSHIP, 24, 2)
    assert not report["idempotency"]
    assert report["size"]


def _null_vector(rows, rng):
    """A random nonzero rational u with rows . u == 0, or None if there is none."""
    reduced, pivots = rref(rows)
    free = [j for j in range(len(rows[0])) if j not in pivots]
    if not free:
        return None
    u = [Fraction(0)] * len(rows[0])
    for j in free:
        u[j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    u[rng.choice(free)] = Fraction(1)
    for i, p in enumerate(pivots):
        u[p] = -sum(reduced[i][j] * u[j] for j in free)
    return u


def test_verify_theta_report_matches_reference():
    # Differential: the report read from X theta equals the one built from the
    # quadratic idempotency system and the Fraction residuals, key order included.
    # Inputs: true indicators; theta moved along a kernel vector of the size and
    # contrast rows (fails idempotency only, when the design has strength t);
    # theta with one coefficient moved by a random rational; every strength;
    # the right size and size +- 1.
    rng = random.Random(61)
    seen = Counter()
    for amb in [random_ambient(rng) for _ in range(10)] + [RATIONAL]:
        m, n = amb.run_count, amb.n_factors
        stacked = algebra._contrast_rows(amb)[0].tolist()
        designs = [full_design(amb)] + [
            Design(amb, tuple(sorted(rng.sample(range(m), rng.randint(0, m))))) for _ in range(5)
        ]
        for design in designs:
            y = design.membership()
            for t in range(1, n + 1):
                q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
                values = [y]
                n_rows = 1 + sum(expected_block_size(amb, k) for k in range(1, t + 1))
                u = _null_vector(stacked[:n_rows], rng)
                if u is not None:
                    values.append([a + q * b for a, b in zip(y, u)])
                thetas = [list(mul_model_inverse(amb, v)) for v in values]
                moved = list(thetas[0])
                moved[rng.randrange(m)] += q
                for theta in thetas + [moved]:
                    poly = polynomial_from_theta(theta, amb)
                    for size in (design.size - 1, design.size, design.size + 1):
                        report = verify_theta_report(poly, amb, size, t)
                        expected = reference_report(poly, amb, size, t)
                        assert list(report.items()) == list(expected.items())
                        seen[tuple(name for name, ok in report.items() if not ok)] += 1
    assert seen[()] and seen[("idempotency",)] and seen[("size",)]
    assert any(failed and all(f.startswith("contrast") for f in failed) for failed in seen)
    with pytest.raises(ValueError, match="strength out of range"):
        verify_theta_report(Polynomial.constant(2, 1), full_factorial([2, 2]), 4, 3)


def test_verify_theta_matches_combinatorial_checks_on_2cubed():
    amb = full_factorial([2, 2, 2])
    for bits in range(256):
        runs = tuple(i for i in range(8) if bits >> i & 1)
        design = Design(amb, runs)
        poly = indicator_from_design(design)
        for t in (1, 2, 3):
            assert verify_theta(poly, amb, len(runs), t) == has_strength(design, t)
        if runs:
            assert not verify_theta(poly, amb, len(runs) + 1, 1) or not has_strength(design, 1)


def test_orthogonality_row_count_formula():
    for arities in ([2, 2], [2, 3], [2, 2, 3], [3, 3]):
        amb = full_factorial(arities)
        n = len(arities)
        for t in range(1, n + 1):
            system = orthogonality_system(amb, amb.run_count, t)
            expected = 1 + sum(expected_block_size(amb, k) for k in range(1, t + 1))
            assert system.n_rows == expected


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("amb", [FLAGSHIP, RATIONAL], ids=["flagship", "rational"])
def test_mode_products_at_the_int64_boundary(amb, inverse):
    # One bound per call, max|v| times the growth (the product of the
    # factors' row-abs-sums), picks the dtype of every step: each unit row
    # scaled to the largest multiple whose bound is below 2^62 runs on
    # int64, one multiple more on Python ints, and both give the dense product.
    growth = 1
    for factor in amb.factors:
        growth *= max(sum(map(abs, row)) for row in algebra._factor_matrix(factor, inverse)[0].tolist())
    dense = model_matrix_inverse(amb) if inverse else build_model_matrix(amb)
    rng = random.Random(62)
    m = amb.run_count
    units = [
        [int(i == 0) for i in range(m)],
        [int(i == m - 1) for i in range(m)],
        [1] * m,
        [rng.choice((-1, 1)) for _ in range(m)],
        [rng.randint(-3, 3) for _ in range(m)],
    ]
    for unit in units:
        top = (algebra._INT64_SAFE - 1) // (max(map(abs, unit)) * growth)
        for scale, dtype in ((top, np.int64), (top + 1, object)):
            row = [scale * x for x in unit]
            values, d = mode_products(amb, np.array([row], dtype=np.int64), inverse)
            assert values.dtype == dtype
            assert [Fraction(v, d) for v in values[0].tolist()] == list(mat_vec(dense, row))


def test_real_traffic_stays_on_int64(monkeypatch, flagship_designs, flagship_classes):
    # Every mode product of the exact route on flagship designs, of the
    # class reports and of the linear systems of the census instances runs
    # in int64: none of them falls back to Python ints.
    real, dtypes = algebra.mode_products, Counter()

    def recording(*args, **kwargs):
        values, d = real(*args, **kwargs)
        dtypes[values.dtype] += 1
        return values, d

    monkeypatch.setattr(algebra, "mode_products", recording)
    rng = random.Random(32)
    group = generate_group(FLAGSHIP)
    m = FLAGSHIP.run_count
    samples = rng.sample(flagship_designs, 20)
    samples += [Design(FLAGSHIP, tuple(sorted(rng.sample(range(m), 24)))) for _ in range(20)]
    for design in samples:
        poly = indicator_from_design(design)
        verify_theta_report(poly, FLAGSHIP, 24, 2)
        assert design_from_indicator(act_theta(rng.choice(group), poly), FLAGSHIP).size == 24
    census = [((3, 3, 3, 3), 18, 2), ((2,) * 7, 32, 3), ((2, 2, 4, 4), 16, 2)]
    for levels, size, strength in [((2, 2, 2, 2, 3), 24, 2)] + census:
        amb = full_factorial(levels)
        if amb == FLAGSHIP:
            classes = flagship_classes
        else:
            classes = classify(enumerate_orthogonal(SearchProblem(amb, size, strength)))
        assert classification_report(classes)["class_count"] == len(classes) > 0
        # Past the cache, which an earlier test may have filled.
        orthogonality_system.__wrapped__(amb, size, strength)
    assert set(dtypes) == {np.dtype(np.int64)} and dtypes[np.dtype(np.int64)] >= 5 * len(samples) + 8


def _assert_well_formed(poly, n):
    rebuilt = Polynomial(n, dict(poly.items()))
    assert poly.n_vars == n and poly == rebuilt and hash(poly) == hash(rebuilt)
    for exps, coeff in poly.items():
        assert type(coeff) is Fraction and coeff != 0
        assert type(exps) is tuple and len(exps) == n and all(type(e) is int for e in exps)


@pytest.mark.parametrize(
    "amb", [FLAGSHIP, full_factorial([2, 3, 4]), RATIONAL], ids=["flagship", "2x3x4", "rational"]
)
def test_polynomials_built_without_validation_are_valid(amb):
    # parse_polynomial, polynomial_from_values (so indicator_from_design and
    # act_theta) and reduce_to_standard_form skip the constructor's checks;
    # what they build must pass them unchanged.
    rng = random.Random(31)
    n, m = amb.n_factors, amb.run_count
    group = generate_group(amb)
    for _ in range(6):
        poly = indicator_from_design(Design(amb, tuple(sorted(rng.sample(range(m), rng.randint(1, m - 1))))))
        text = poly.to_text()
        square = reduce_to_standard_form(product(poly, poly), amb)
        built = [
            poly,
            act_theta(rng.choice(group), poly),
            parse_polynomial(text, n),
            # Terms that cancel, and a zero coefficient.
            parse_polynomial(f"{text} + 1/2 x1^5 - 1/2 x1^5 + 0 x{n}", n),
            square,
            reduce_to_standard_form(subtract(product(poly, poly), poly), amb),
            *polynomial_from_values(
                np.array([[rng.randint(-3, 3) for _ in range(m)], [0] * m]), 6, amb
            ),
        ]
        for p in built:
            _assert_well_formed(p, n)
        assert square == poly and not built[5] and not built[-1]


@pytest.mark.parametrize(
    "amb", [FLAGSHIP, full_factorial([2, 3, 4]), RATIONAL], ids=["flagship", "2x3x4", "rational"]
)
def test_polynomial_from_values_with_repeated_numerators(amb):
    # Rows of few distinct values, so that coefficients repeat within a row:
    # one Fraction per distinct numerator gives the polynomial that one
    # Fraction per entry (the reference's X^{-1} values) gives.
    rng = random.Random(28)
    m = amb.run_count
    rows = [[rng.choice((0, 1, 1, 2, -3)) for _ in range(m)] for _ in range(5)] + [[1] * m, [0] * m, [7] * m]
    repeats = False
    for den in (1, 6):
        got = polynomial_from_values(np.array(rows), den, amb)
        expected = [polynomial_from_theta(mul_model_inverse(amb, [Fraction(x, den) for x in row]), amb) for row in rows]
        assert got == expected
        for poly in got:
            _assert_well_formed(poly, amb.n_factors)
            repeats |= max(Counter(c for _, c in poly.items()).values(), default=0) > 1
    # On the six runs of RATIONAL these rows give no repeated coefficient.
    assert repeats or amb is RATIONAL
