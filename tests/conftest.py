"""Shared fixtures.

The flagship enumeration and classification are expensive enough to share
across the whole session; everything downstream (acceptance criteria,
orbit properties) reuses them.
"""

from fractions import Fraction
from math import prod

import pytest

from orthofrac.catalog import flagship_ambient
from orthofrac.classify import classify
from orthofrac.designs import Design, full_factorial, run_point
from orthofrac.search import SearchProblem, enumerate_orthogonal
from reference import from_level_sets


# Levels with nontrivial denominators force x_scale > 1.
RATIONAL = from_level_sets([(0, Fraction(1, 2)), (-1, Fraction(1, 3), 2)])


def random_ambient(rng):
    """Arities 2..5 with at most 16 runs; half the time with random rational levels."""
    n = rng.randint(1, 4)
    while True:
        arities = [rng.randint(2, 5) for _ in range(n)]
        if prod(arities) <= 16:
            break
    if rng.random() < 0.5:
        return full_factorial(arities)
    pool = sorted({Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)})
    levels = [rng.sample(pool, r) for r in arities]
    return from_level_sets(levels)


def sign_fraction(ambient, factors, sign):
    """The fraction {prod of the given +-1 factors == sign} as a Design."""
    runs = [
        i
        for i in range(ambient.run_count)
        if prod(run_point(ambient, i)[j] for j in factors) == sign
    ]
    return Design.from_runs(ambient, runs)


def table_cell(table, t1, jset, t2):
    """The class count in row (T1, J) and column T2 of a report's table, 0
    outside the table."""
    for row in table["rows"]:
        if (row["t1"], tuple(row["jset"])) == (t1, tuple(jset)) and t2 in table["t2_values"]:
            return row["counts_by_t2"][table["t2_values"].index(t2)]
    return 0


@pytest.fixture(scope="session")
def flagship():
    return flagship_ambient()


@pytest.fixture(scope="session")
def flagship_result(flagship):
    """(elapsed seconds, designs) for the flagship enumeration."""
    import time

    t0 = time.time()
    designs = enumerate_orthogonal(SearchProblem(flagship, 24, 2))
    return time.time() - t0, designs


@pytest.fixture(scope="session")
def flagship_designs(flagship_result):
    return flagship_result[1]


@pytest.fixture(scope="session")
def flagship_classes(flagship_designs):
    return classify(flagship_designs)
