"""Sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients, in the indicator text format (to_text, parse_polynomial).
Its standard form on an ambient, the unique polynomial on the exponent
lattice that agrees with it at every run, is
algebra.reduce_to_standard_form; its values at the runs are
algebra.values_at_runs.  Products and evaluation at a point are the tests'
reference (tests/reference.py).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Mapping, Sequence

from .designs import FullFactorial


_ZERO = Fraction(0)


class Polynomial:
    """Immutable sparse polynomial in n variables with Fraction coefficients."""

    __slots__ = ("n_vars", "_terms")

    def __init__(self, n_vars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.n_vars = n_vars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if type(coeff) is not Fraction:
                    coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != n_vars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps}")
                clean[exps] = coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, n_vars: int, terms: dict[tuple[int, ...], Fraction]) -> "Polynomial":
        """Wrap a term dict the package built itself, without re-validating it:
        every key a tuple of n_vars non-negative ints, every value a nonzero
        Fraction.  The dict is kept, not copied."""
        poly = object.__new__(cls)
        poly.n_vars = n_vars
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls(n_vars)

    @classmethod
    def constant(cls, n_vars: int, value) -> "Polynomial":
        return cls(n_vars, {(0,) * n_vars: Fraction(value)})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=1) -> "Polynomial":
        exps = tuple(exps)
        return cls(len(exps), {exps: Fraction(coeff)})

    def items(self):
        return self._terms.items()

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exps), _ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n_vars == other.n_vars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.n_vars, frozenset(self._terms.items())))

    def in_lattice(self, ambient: FullFactorial) -> bool:
        """All exponents below the factor arities (standard form support)."""
        radices = ambient.radices
        return all(
            all(e < r for e, r in zip(exps, radices)) for exps in self._terms
        )

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    def to_text(self) -> str:
        """Canonical text form, terms in lattice order (exponent tuples ascending)."""
        terms = self._terms
        if not terms:
            return "0"
        parts = [_term_text(exps, c.numerator, c.denominator) for exps, c in sorted(terms.items())]
        first = parts[0]
        parts[0] = first[2:] if first[0] == "+" else f"-{first[2:]}"
        return " ".join(parts)


# The text caches below are keyed by term, one per direction: a process
# renders and parses many polynomials over the same few hundred terms (400
# random indicators on the paper's ambient hold about 850 distinct ones), so a
# bound well above that keeps every one while capping what unusual inputs
# can fill.
_TEXT_CACHE_SIZE = 4096


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _term_text(exps: tuple[int, ...], num: int, den: int) -> str:
    """to_text's term for the nonzero coefficient num/den (in lowest terms)
    times the monomial exps, with its sign and a space ahead: "- 3/8 x1 x3^2"."""
    # The coefficient is nonzero, so the numerator's sign is the term's.
    sign = "-" if num < 0 else "+"
    body = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
    factors = "".join(f" x{j}^{e}" if e > 1 else f" x{j}" for j, e in enumerate(exps, 1) if e)
    return f"{sign} {body}{factors}"


_SPLIT_RE = re.compile(r"\s+([+-])\s+")
_COEFF_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _parse_term(sign: str, term: str, n_vars: int) -> tuple[tuple[int, ...], Fraction]:
    """The exponent tuple and signed coefficient of a nonempty term: an
    optional coefficient token 'p' or 'p/q', then whitespace-separated
    factor tokens 'x<j>', 'x<j>^<e>' and '1', repeated variables adding up;
    sign is "+" or "-".  Raises ValueError on a bad coefficient before a bad
    factor, and lru_cache keeps no entry for it."""
    negate = sign == "-"
    tokens = term.split(None, 1)
    head = tokens[0]
    # A coefficient token never starts with "x"; a term without one opens with a factor.
    if head.startswith("x"):
        coeff, factors = Fraction(-1 if negate else 1), term
    else:
        m = _COEFF_RE.match(head)
        if not m:
            raise ValueError(f"bad token {head!r}")
        num, den = m.groups()
        den = int(den or 1)
        if not den:
            raise ValueError(f"zero denominator in coefficient {head!r}")
        num = int(num)
        coeff = Fraction(-num if negate else num, den)
        factors = tokens[1] if len(tokens) > 1 else ""
    exps = [0] * n_vars
    for tok in factors.split():
        if tok == "1":
            continue
        m = _VAR_RE.match(tok)
        if not m:
            raise ValueError(f"bad monomial token {tok!r}")
        j = int(m.group(1))
        if not 1 <= j <= n_vars:
            raise ValueError(f"variable x{j} out of range 1..{n_vars}")
        exps[j - 1] += int(m.group(2) or 1)
    return tuple(exps), coeff


def parse_polynomial(text: str, n_vars: int) -> Polynomial:
    """Parse the indicator text format; terms may appear in any order.

    Grammar: terms joined by ' + ' / ' - ', each an optional rational
    coefficient followed by space-separated factors 'x<j>' or 'x<j>^<e>'.
    Each distinct signed term is read once per process (_parse_term).
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Polynomial.zero(n_vars)
    chunks = _SPLIT_RE.split(s)
    # A leading sign belongs to the first term.  Only that term can be
    # empty: every other one opens where a split ends, at a non-space.
    sign = "+"
    if chunks[0].startswith("-"):
        sign, chunks[0] = "-", chunks[0][1:].strip()
        if not chunks[0]:
            raise ValueError(f"empty term in {text!r}")
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in map(_parse_term, [sign, *chunks[1::2]], chunks[::2], repeat(n_vars)):
        prev = terms.get(exps)
        terms[exps] = coeff if prev is None else prev + coeff
    return Polynomial._trusted(n_vars, {e: c for e, c in terms.items() if c})
