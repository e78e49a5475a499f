import random
import tracemalloc
from fractions import Fraction

import pytest

import reference
from conftest import RATIONAL
from orthofrac import algebra, designs, polynomials, search
from orthofrac.algebra import reduce_to_standard_form
from orthofrac.designs import FactorSpec, ProblemTooLargeError, all_points, full_factorial
from orthofrac.polynomials import Polynomial, parse_polynomial


def _levels(*vals):
    return FactorSpec(tuple(Fraction(v) for v in vals))


def test_vanishing_substitution_two_level():
    # (x-1)(x+1) = x^2 - 1, so x^2 -> 1
    assert reference.vanishing_substitution(_levels(-1, 1)) == (Fraction(1), Fraction(0))


def test_vanishing_substitution_three_level():
    # x(x^2-1) = x^3 - x, so x^3 -> x
    assert reference.vanishing_substitution(_levels(-1, 0, 1)) == (0, 1, 0)


def test_vanishing_substitution_shifted_levels():
    # x(x-2) = x^2 - 2x, so x^2 -> 2x
    assert reference.vanishing_substitution(_levels(0, 2)) == (0, 2)


def test_reduce_single_power():
    amb = full_factorial([2, 2, 2, 2, 3])
    x5_cubed = Polynomial.monomial((0, 0, 0, 0, 3))
    assert reduce_to_standard_form(x5_cubed, amb) == Polynomial.monomial((0, 0, 0, 0, 1))
    x1_sq = Polynomial.monomial((2, 0, 0, 0, 0))
    assert reduce_to_standard_form(x1_sq, amb) == Polynomial.constant(5, 1)


def test_reduce_square_of_indicator_is_itself():
    amb = full_factorial([2, 2, 2, 2, 3])
    half = Polynomial.constant(5, Fraction(1, 2))
    word = Polynomial.monomial((1, 1, 1, 1, 0), Fraction(1, 2))
    f = reference.add(half, word)
    assert reduce_to_standard_form(reference.product(f, f), amb) == f


def test_reduction_preserves_values_on_ambient():
    rng = random.Random(5)
    amb = full_factorial([2, 2, 3])
    pts = all_points(amb)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 2 * (r - 1)) for r in amb.radices)
            terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        poly = Polynomial(3, terms)
        reduced = reduce_to_standard_form(poly, amb)
        assert reduced.in_lattice(amb)
        for pt in pts:
            assert reference.evaluate(reduced, pt) == reference.evaluate(poly, pt)


@pytest.mark.parametrize(
    "amb",
    [full_factorial([2, 2, 2, 2, 3]), full_factorial([4, 3, 2]), RATIONAL, full_factorial([8, 8])],
    ids=["flagship", "4x3x2", "rational", "8x8"],
)
def test_reduction_matches_the_vanishing_substitution_reference(amb):
    # Each x_j^e reduced through factor j's V^-1 is the polynomial the
    # substitution x^r -> g(x) reaches step by step, for exponents up to 3r.
    rng = random.Random(24)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 3 * r) for r in amb.radices)
            terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        poly = Polynomial(amb.n_factors, terms)
        assert reduce_to_standard_form(poly, amb) == reference.reduce_to_standard_form(poly, amb)


def test_reducing_a_huge_power_takes_memory_independent_of_the_exponent():
    # x5^e with x5 in {-1, 0, 1} reduces to x5^2 for every even e >= 2.
    # Stepping x^3 -> x up to e = 10^5 held ~35 MB of table rows; the
    # levels' e-th powers take a few bytes each.
    amb = full_factorial([2, 2, 2, 2, 3])
    poly = Polynomial.monomial((0, 0, 0, 0, 10**5), Fraction(2, 3))
    tracemalloc.start()
    try:
        reduced = reduce_to_standard_form(poly, amb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduced == Polynomial.monomial((0, 0, 0, 0, 2), Fraction(2, 3))
    assert peak < 10**6


def test_a_level_power_past_the_chunk_budget_is_refused(monkeypatch):
    # A level power may take designs._CHUNK_BYTES: e times the bit length
    # of a level's |numerator| or denominator may reach 8 _CHUNK_BYTES.
    # Both x1's levels (-5, the largest numerator) and x3's (1/7, the
    # largest denominator) take 3 bits, so a 3-byte budget admits their
    # 8th powers and refuses their 9th before forming any power; levels
    # 0 and +-1 take any exponent.
    assert search.ProblemTooLargeError is ProblemTooLargeError
    algebra._power_row.cache_clear()
    amb = reference.from_level_sets([(-5, Fraction(1, 3), 2), (-1, 0, 1), (Fraction(1, 7), 2)])
    monkeypatch.setattr(designs, "_CHUNK_BYTES", 3)
    edge = Polynomial.monomial((8, 1, 8), Fraction(2, 3))
    assert reduce_to_standard_form(edge, amb) == reference.reduce_to_standard_form(edge, amb)
    message = "^x\\^9 on levels of up to 3 bits exceeds the 3-byte budget of a level power$"
    for past in ((9, 0, 0), (0, 0, 9)):
        with pytest.raises(ProblemTooLargeError, match=message):
            reduce_to_standard_form(Polynomial.monomial(past), amb)
    free = Polynomial.monomial((0, 10**9 + 1, 0), Fraction(2, 3))
    assert reduce_to_standard_form(free, amb) == Polynomial.monomial((0, 1, 0), Fraction(2, 3))
    monkeypatch.undo()
    flagship = full_factorial([2, 2, 2, 2, 3])
    huge = Polynomial.monomial((0, 0, 0, 0, 10**9))
    assert reduce_to_standard_form(huge, flagship) == Polynomial.monomial((0, 0, 0, 0, 2))


def test_to_text_canonical_example():
    f = Polynomial(
        5,
        {
            (0, 0, 0, 0, 0): Fraction(1, 2),
            (1, 1, 1, 1, 0): Fraction(1, 2),
        },
    )
    assert f.to_text() == "1/2 + 1/2 x1 x2 x3 x4"


def test_to_text_constants_and_signs():
    assert Polynomial.constant(3, 1).to_text() == "1"
    assert Polynomial.zero(2).to_text() == "0"
    p = Polynomial(2, {(0, 0): Fraction(-1, 2), (1, 2): Fraction(1)})
    assert p.to_text() == "-1/2 + 1 x1 x2^2"


def test_term_order_is_lattice_order():
    p = Polynomial(
        5,
        {
            (1, 1, 0, 1, 2): Fraction(1),
            (1, 1, 1, 1, 0): Fraction(1),
            (0, 0, 0, 0, 1): Fraction(1),
        },
    )
    assert p.to_text() == "1 x5 + 1 x1 x2 x4 x5^2 + 1 x1 x2 x3 x4"


def test_parse_round_trip():
    texts = [
        "1/2 + 1/2 x1 x2 x3 x4",
        "-1/2 + 1 x1 x2^2",
        "1",
        "0",
        "1/2 - 1/2 x1 x2 x4 + 1 x1 x2 x4 x5^2",
    ]
    for text in texts:
        assert parse_polynomial(text, 5).to_text() == text


def test_parse_accepts_any_term_order_and_merges():
    a = parse_polynomial("1/2 x1 + 1/4", 2)
    b = parse_polynomial("1/4 + 1/4 x1 + 1/4 x1", 2)
    assert a == b


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("1/2 + + x1", 2)
    with pytest.raises(ValueError):
        parse_polynomial("1/2 y3", 2)
    with pytest.raises(ValueError):
        parse_polynomial("x9", 2)
    with pytest.raises(ValueError):
        parse_polynomial("", 2)
    with pytest.raises(ValueError, match="'1/0'"):
        parse_polynomial("1/0 + x1", 2)


def test_polynomial_arithmetic_and_evaluation():
    # The tests' reference arithmetic, which the reduction and idempotency checks lean on.
    x = Polynomial.monomial((1, 0))
    y = Polynomial.monomial((0, 1))
    p = reference.product(reference.add(x, y), reference.subtract(x, y))
    assert p == Polynomial(2, {(2, 0): 1, (0, 2): -1})
    assert reference.evaluate(p, (3, 2)) == 5
    assert reference.subtract(p, p) == Polynomial.zero(2)


def _random_coefficient(rng) -> str:
    sign = "-" if rng.random() < 0.3 else ""
    if rng.random() < 0.4:
        return f"{sign}{rng.randint(0, 12)}"
    # Non-reduced fractions such as 2/4 come up as often as reduced ones.
    return f"{sign}{rng.randint(0, 12)}/{rng.randint(1, 8)}"


def _random_factors(rng, exps) -> list[str]:
    """Factor tokens whose exponents add up to exps, in a random order, with
    repeated variables (x1 x1), split powers, and 1 and x<j>^0 tokens."""
    tokens = []
    for j, e in enumerate(exps, 1):
        while e:
            step = rng.randint(1, e)
            tokens.append(f"x{j}" if step == 1 else f"x{j}^{step}")
            e -= step
        if rng.random() < 0.15:
            tokens.append(f"x{j}^0")
    if rng.random() < 0.15:
        tokens.append("1")
    rng.shuffle(tokens)
    return tokens


def _random_text(rng, n: int) -> str:
    # A small pool of monomials, so that terms repeat and merge.
    pool = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
    terms = []
    for _ in range(rng.randint(1, 6)):
        factors = _random_factors(rng, rng.choice(pool))
        # A term without a coefficient must open with a variable.
        if factors and factors[0].startswith("x") and rng.random() < 0.3:
            terms.append(factors)
        else:
            terms.append([_random_coefficient(rng)] + factors)
    space = lambda: rng.choice([" ", " ", "  ", "\t", " \t "])
    text = rng.choice(["", "", "-"]) + " ".join(terms[0])
    for term in terms[1:]:
        text += space() + rng.choice("+-") + space() + space().join(term)
    return rng.choice(["", " ", "\n"]) + text + rng.choice(["", "  "])


def _clear_text_caches():
    polynomials._parse_term.cache_clear()
    polynomials._term_text.cache_clear()


def test_parse_and_to_text_match_the_reference():
    # Each text once on cold caches, then again with every cache warm.
    rng = random.Random(22)
    cases = []
    for _ in range(600):
        n = rng.randint(1, 6)
        cases.append((_random_text(rng, n), n))
    for warm in (False, True):
        for text, n in cases:
            if not warm:
                _clear_text_caches()
            poly, expected = parse_polynomial(text, n), reference.parse_polynomial(text, n)
            assert poly == expected and hash(poly) == hash(expected), text
            if not warm:
                _clear_text_caches()
            rendered = poly.to_text()
            assert rendered == reference.to_text(expected), text
            assert parse_polynomial(rendered, n) == poly


def test_a_bad_factor_text_raises_whatever_the_cache_holds():
    # Valid texts over x1, x2 fill the cache; a bad token among the same
    # terms still raises, is not cached, and a valid text parses next.
    _clear_text_caches()
    for text in ("x1 x2", "1/2 x1 x2 + x1", "-3 x2^2 x1 - 1"):
        assert parse_polynomial(text, 2) == reference.parse_polynomial(text, 2)
    for bad in ("1/2 x1 x3", "x1 x2^", "x1 y2", "x1 x2 x0", "1/2 x1 x2 - 3 x1 x0"):
        for _ in range(2):
            with pytest.raises(ValueError):
                parse_polynomial(bad, 2)
        assert parse_polynomial("x1 x2 - 1/2 x1", 2) == reference.parse_polynomial("x1 x2 - 1/2 x1", 2)
    # The same term is in range for three variables, not for two.
    assert parse_polynomial("1/2 x1 x3", 3) == reference.parse_polynomial("1/2 x1 x3", 3)
    with pytest.raises(ValueError, match="out of range"):
        parse_polynomial("1/2 x1 x3", 2)
    # The seven valid signed terms, and none of the bad ones.
    assert polynomials._parse_term.cache_info().currsize == 7


def _term_tokens(rng, exps, coeff: Fraction) -> list[str]:
    """One term of coeff times the monomial exps: a coefficient token, at
    times non-reduced, or none for a coefficient of 1 before a factor; the
    factors x<j>^<e>, x<j> or repeated x<j>, in a random order."""
    factors = []
    for j, e in enumerate(exps, 1):
        if e > 1 and rng.random() < 0.3:
            factors += [f"x{j}"] * e
        elif e:
            factors.append(f"x{j}^{e}" if e > 1 else f"x{j}")
    rng.shuffle(factors)
    if coeff == 1 and factors and rng.random() < 0.5:
        return factors
    k = rng.choice([1, 1, 2, 3])
    num, den = coeff.numerator * k, coeff.denominator * k
    return [str(num) if den == 1 and rng.random() < 0.7 else f"{num}/{den}"] + factors


def _shuffled_text(rng, poly: Polynomial) -> str:
    """A text of poly with its terms shuffled, some of them split into two
    repeated terms that add up, and random whitespace around the signs."""
    signed = []
    for exps, coeff in poly.items():
        parts = [coeff]
        if rng.random() < 0.25:
            part = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            parts = [part, coeff - part]
        for part in parts:
            if part:
                signed.append(("-" if part < 0 else "+", _term_tokens(rng, exps, abs(part))))
    rng.shuffle(signed)
    space = lambda: rng.choice([" ", " ", "  ", "\t", " \n "])
    (sign, tokens), rest = signed[0], signed[1:]
    text = ("-" + rng.choice(["", " "]) if sign == "-" else "") + space().join(tokens)
    for sign, tokens in rest:
        text += space() + sign + space() + space().join(tokens)
    return rng.choice(["", " "]) + text + rng.choice(["", "\n"])


def _error(text: str, n: int, parse) -> str:
    with pytest.raises(ValueError) as info:
        parse(text, n)
    return str(info.value)


def test_shuffled_term_texts_match_the_reference_on_cold_and_warm_caches():
    rng = random.Random(36)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 5)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            exps = tuple(rng.randint(0, 3) for _ in range(n))
            terms[exps] = Fraction(rng.choice([1, 1, -1, rng.randint(-9, 9)]), rng.randint(1, 8))
        poly = Polynomial(n, terms)
        if poly:
            cases.append((poly, [_shuffled_text(rng, poly) for _ in range(3)]))
    # A bad token replaces one token of a text: a coefficient, a factor, or
    # both of one term, where the coefficient's error comes first.
    bad_coeffs = ["1//2", "/2", "1.5", "2-", "+", "y1"]
    bad_factors = ["x0", "x9", "x1^", "y1", "x1*x2", "x1^-1"]
    bad = []
    for poly, texts in cases[:100]:
        n, text = poly.n_vars, texts[0]
        tokens = text.split(" ")
        i = rng.randrange(len(tokens))
        while tokens[i] in ("+", "-", ""):
            i = rng.randrange(len(tokens))
        head = i == 0 or tokens[i - 1] in ("+", "-")
        tokens[i] = rng.choice(bad_coeffs if head and not tokens[i].startswith("x") else bad_factors)
        if head and rng.random() < 0.3:
            tokens[i] = rng.choice(bad_coeffs) + " " + rng.choice(bad_factors)
        bad.append((" ".join(tokens), n, texts))
    bad += [("-", 2, ["x1"]), ("- + x1", 2, ["x1", "-x1"]), ("1/2 x1 + -", 2, ["1/2 x1"])]
    for warm in (False, True):
        for poly, texts in cases:
            for text in texts:
                if not warm:
                    _clear_text_caches()
                expected = reference.parse_polynomial(text, poly.n_vars)
                assert expected == poly, text
                parsed = parse_polynomial(text, poly.n_vars)
                assert parsed == expected and hash(parsed) == hash(expected), text
                if not warm:
                    _clear_text_caches()
                assert parsed.to_text() == reference.to_text(expected), text
        # The same error, and the reference's, before and after the valid
        # texts the bad one was made from are cached.
        for text, n, neighbours in bad:
            if not warm:
                _clear_text_caches()
            before = _error(text, n, parse_polynomial)
            assert before == _error(text, n, reference.parse_polynomial), text
            for neighbour in neighbours:
                parse_polynomial(neighbour, n)
            assert _error(text, n, parse_polynomial) == before, text


def test_parse_and_to_text_past_the_cache_bound():
    # More distinct terms than the caches hold: the evicted ones are rebuilt
    # equal to the reference.
    _clear_text_caches()
    bound = polynomials._parse_term.cache_info().maxsize
    assert bound == polynomials._term_text.cache_info().maxsize == polynomials._TEXT_CACHE_SIZE
    texts = [f"{k}/7 x1^{k} x3 - x2^{k + 1}" for k in range(1, bound // 2 + 200)]
    for _ in range(2):
        for text in texts[:: len(texts) // 50] + texts:
            poly = parse_polynomial(text, 3)
            assert poly == reference.parse_polynomial(text, 3), text
            assert poly.to_text() == reference.to_text(poly), text
    assert polynomials._parse_term.cache_info().currsize == bound
    assert polynomials._term_text.cache_info().currsize == bound


@pytest.mark.parametrize("text", [
    "", "   ", "-", "1/2 + + x1", "1/2 y3", "x9", "x0", "X1", "x", "+ x1", "1/2 +",
    "1/2 x1 -", "1/2 - - x1", "1.5 x1", "x1 1/2", "1/2/3", "1//2", "/2", "2/",
    "1/2 x1^", "1/2 x1^-1", "x1^^2", "x1*x2", "1/2 x1 x3", "1/-2", "1/2 * x1",
])
def test_parse_rejects_malformed_text_like_the_reference(text):
    with pytest.raises(ValueError):
        reference.parse_polynomial(text, 2)
    with pytest.raises(ValueError):
        parse_polynomial(text, 2)


def test_zero_denominator_is_the_one_difference_from_the_reference():
    for text in ("1/0 + x1", "x1 - 0/0", "x2 + -3/0 x1"):
        with pytest.raises(ZeroDivisionError):
            reference.parse_polynomial(text, 2)
        with pytest.raises(ValueError, match="zero denominator"):
            parse_polynomial(text, 2)
