"""algebra.rref, the package's only exact elimination, and the inverses read
from it as the right half of rref([A | I])."""

import random
from fractions import Fraction

from orthofrac.algebra import _factor_matrix, rref
from orthofrac.designs import FactorSpec
from reference import identity, inverse_by_rref, mat_mul


def test_rref_zero_matrix():
    zero = ((0, 0), (0, 0))
    assert rref(zero) == (zero, ())


def test_rref_identity():
    reduced, pivots = rref(identity(3))
    assert reduced == identity(3)
    assert pivots == (0, 1, 2)


def test_rref_dependent_rows():
    reduced, pivots = rref([[1, 1], [1, 1]])
    assert reduced == ((1, 1), (0, 0))
    assert pivots == (0,)
    assert all(type(x) is Fraction for row in reduced for x in row)


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(4)] for _ in range(3)]
        reduced, pivots = rref(m)
        assert rref(reduced) == (reduced, pivots)


def test_inverse_2x2_closed_form():
    # V on the levels -1, 1, as _factor_matrix builds it: V^-1 = A / 2.
    inv, pivots = inverse_by_rref([[1, -1], [1, 1]])
    assert inv == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 2)))
    assert pivots == (0, 1)
    a, d, g = _factor_matrix(FactorSpec((-1, 1)), True)
    assert (a.tolist(), d, g) == ([[1, 1], [-1, 1]], 2, 2)


def test_inverse_identity():
    assert inverse_by_rref(identity(4)) == (identity(4), (0, 1, 2, 3))


def test_inverse_of_singular_raises():
    # No inverse: rref([A | I]) leaves a pivot in the right half, so the
    # pivots are not 0..n-1, and rref(A) has fewer pivots than A has columns.
    assert rref([[1, 2], [2, 4]])[1] == (0,)
    assert inverse_by_rref([[1, 2], [2, 4]])[1] == (0, 2)
    assert len(rref([[1, 2, 3], [4, 5, 6]])[1]) < 3
    rng = random.Random(13)
    for _ in range(10):
        a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in range(3)]
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        dependent = a + [[q * x + y for x, y in zip(a[0], a[1])]]
        assert len(rref(dependent)[1]) < 4
        assert inverse_by_rref(dependent)[1] != (0, 1, 2, 3)


def test_inverse_roundtrip_random():
    # Invertible A: the right half of rref([A | I]) is A^-1 on both sides.
    rng = random.Random(11)
    invertible = 0
    while invertible < 10:
        a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
        inv, pivots = inverse_by_rref(a)
        if len(rref(a)[1]) < 4:
            assert pivots != (0, 1, 2, 3)
            continue
        assert pivots == (0, 1, 2, 3)
        assert mat_mul(inv, a) == identity(4)
        assert mat_mul(a, inv) == identity(4)
        invertible += 1
