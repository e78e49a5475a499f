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
        parts: list[str] = []
        for exps in sorted(terms):
            coeff = terms[exps]
            num, den = coeff.numerator, coeff.denominator
            # Coefficients are nonzero, so the numerator's sign is the term's.
            sign = "-" if num < 0 else "+"
            body = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            parts.append(f"{sign} {body}{_factor_text(exps)}")
        first = parts[0]
        parts[0] = first[2:] if first[0] == "+" else f"-{first[2:]}"
        return " ".join(parts)


# The text caches below are keyed by monomial: a process renders and parses
# many polynomials over the same lattice monomials, at most m of them (48 on
# the paper's ambient, 128 on 2^7), so a bound far above m keeps every one
# while capping what unusual inputs can fill.
_TEXT_CACHE_SIZE = 4096


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _factor_text(exps: tuple[int, ...]) -> str:
    """The factors of to_text's term for exps, each after a space: " x1 x3 x5^2"."""
    return "".join(f" x{j}^{e}" if e > 1 else f" x{j}" for j, e in enumerate(exps, 1) if e)


_COEFF_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _exponents(factors: str, n_vars: int) -> tuple[int, ...]:
    """The exponent tuple of a term's whitespace-separated factor tokens
    'x<j>', 'x<j>^<e>' and '1'; repeated variables add up.  Raises
    ValueError on a bad token, and lru_cache keeps no entry for it."""
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
    return tuple(exps)


def _coefficient(sign: int, token: str) -> Fraction:
    """sign times a coefficient token 'p' or 'p/q', or ValueError."""
    m = _COEFF_RE.match(token)
    if not m:
        raise ValueError(f"bad token {token!r}")
    num, den = m.groups()
    den = int(den or 1)
    if not den:
        raise ValueError(f"zero denominator in coefficient {token!r}")
    return Fraction(sign * int(num), den)


def parse_polynomial(text: str, n_vars: int) -> Polynomial:
    """Parse the indicator text format; terms may appear in any order.

    Grammar: terms joined by ' + ' / ' - ', each an optional rational
    coefficient followed by space-separated factors 'x<j>' or 'x<j>^<e>'.
    Each distinct signed coefficient token is read once per text, and each
    distinct factor text once per process (_exponents).
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Polynomial.zero(n_vars)
    # Normalize a leading sign into the first term.
    chunks = re.split(r"\s+([+-])\s+", s)
    signed: list[tuple[int, str]] = []
    first = chunks[0]
    if first.startswith("-"):
        signed.append((-1, first[1:].strip()))
    else:
        signed.append((1, first))
    for op, term in zip(chunks[1::2], chunks[2::2]):
        signed.append((1 if op == "+" else -1, term))
    terms: dict[tuple[int, ...], Fraction] = {}
    coeffs: dict[tuple[int, str], Fraction] = {}
    for sign, term in signed:
        tokens = term.split(None, 1)
        if not tokens:
            raise ValueError(f"empty term in {text!r}")
        head = tokens[0]
        # A coefficient token never starts with "x"; a term without one opens with a factor.
        if head.startswith("x"):
            coeff, factors = Fraction(sign), term
        else:
            coeff = coeffs.get((sign, head))
            if coeff is None:
                coeff = coeffs[sign, head] = _coefficient(sign, head)
            factors = tokens[1] if len(tokens) > 1 else ""
        key = _exponents(factors, n_vars)
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    return Polynomial._trusted(n_vars, {e: c for e, c in terms.items() if c})
