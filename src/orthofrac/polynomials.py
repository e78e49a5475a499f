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
            for j, e in enumerate(exps, 1):
                if e:
                    body += f" x{j}^{e}" if e > 1 else f" x{j}"
            parts.append(f"{sign} {body}")
        first = parts[0]
        parts[0] = first[2:] if first[0] == "+" else f"-{first[2:]}"
        return " ".join(parts)


_COEFF_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, n_vars: int) -> Polynomial:
    """Parse the indicator text format; terms may appear in any order.

    Grammar: terms joined by ' + ' / ' - ', each an optional rational
    coefficient followed by space-separated factors 'x<j>' or 'x<j>^<e>'.
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
    # (index, exponent) of each distinct variable token met in this text.
    variables: dict[str, tuple[int, int]] = {}
    for sign, term in signed:
        tokens = term.split()
        if not tokens:
            raise ValueError(f"empty term in {text!r}")
        m = _COEFF_RE.match(tokens[0])
        if m:
            num, den = m.groups()
            den = int(den or 1)
            if not den:
                raise ValueError(f"zero denominator in coefficient {tokens[0]!r}")
            coeff = Fraction(sign * int(num), den)
            del tokens[0]
        elif not tokens[0].startswith("x"):
            raise ValueError(f"bad token {tokens[0]!r}")
        else:
            coeff = Fraction(sign)
        exps = [0] * n_vars
        for tok in tokens:
            if tok == "1":
                continue
            var = variables.get(tok)
            if var is None:
                m = _VAR_RE.match(tok)
                if not m:
                    raise ValueError(f"bad monomial token {tok!r}")
                j = int(m.group(1))
                if not 1 <= j <= n_vars:
                    raise ValueError(f"variable x{j} out of range 1..{n_vars}")
                var = variables[tok] = (j - 1, int(m.group(2) or 1))
            exps[var[0]] += var[1]
        key = tuple(exps)
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    return Polynomial._trusted(n_vars, {e: c for e, c in terms.items() if c})
