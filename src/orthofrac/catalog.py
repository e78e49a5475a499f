"""Reference catalog for the flagship instance.

The 24-run strength-2 fractions of the 2x2x2x2x3 factorial form 63
symmetry classes.  This module ships one published representative
indicator polynomial per class, together with the class invariants
(T1, J, T2) and the orbit size, and a cross-check that a freshly computed
classification agrees with the catalog.  Reports and the acceptance suite
use it as an independent yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .algebra import design_from_indicator
from .classify import in_orbit
from .designs import Design, FullFactorial, from_level_sets
from .fastcheck import bitset_keys, runs_matrix
from .polynomials import parse_polynomial

FLAGSHIP_ARITIES = (2, 2, 2, 2, 3)


def flagship_ambient() -> FullFactorial:
    return from_level_sets([(-1, 1), (-1, 1), (-1, 1), (-1, 1), (-1, 0, 1)])


@dataclass(frozen=True)
class CatalogEntry:
    t1: int
    jset: tuple[int, int, int, int]
    t2: int
    orbit_size: int
    indicator_text: str
    # Set when the published listing misprints the entry: the original text
    # (which is provably not an indicator function) is kept for reference,
    # and indicator_text carries the unique correction consistent with the
    # entry's invariants and orbit size.
    published_text: str | None = None

    @property
    def type_label(self) -> str:
        jtxt = "{" + ",".join(str(v) for v in self.jset) + "}"
        return f"{self.t1},{jtxt}-{self.t2}"


def _entries():
    j0 = (0, 0, 0, 0)
    j24 = (24, 0, 0, 0)
    j16 = (16, 0, 0, 0)
    j8 = (8, 0, 0, 0)
    j168 = (16, 8, 0, 0)
    j88 = (8, 8, 0, 0)
    j888 = (8, 8, 8, 0)
    return (
        # T1 = 0
        CatalogEntry(0, j0, 0, 2, "1/2 + 1/2 x1 x2 x3 x4"),
        CatalogEntry(
            0, j0, 0, 6,
            "1/2 - 1/2 x1 x2 x3 x4 + 1 x1 x2 x3 x4 x5^2",
            published_text="1/2 - 1/2 x1 x2 x3 x4 + 1 x1 x2 x4 x5^2",
        ),
        CatalogEntry(
            0, j0, 0, 48,
            "1/2 - 1/2 x1 x2 x4 + 1/4 x1 x2 x4 x5 + 1/4 x1 x2 x3 x4 x5"
            " + 3/4 x1 x2 x4 x5^2 - 1/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            0, j0, 1, 72,
            "1/2 + 1/2 x1 x2 x3 x4 + 1/2 x3 x4 x5 - 1/2 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            0, j0, 1, 144,
            "1/2 - 1/2 x1 x2 + 3/4 x1 x2 x5^2 + 1/4 x1 x2 x3 x5 - 1/4 x1 x2 x4 x5"
            " + 1/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            0, j0, 1, 288,
            "1/2 - 1/2 x1 x2 x4 + 1/4 x2 x4 x5 + 1/4 x2 x3 x4 x5"
            " - 1/4 x1 x2 x3 x4 x5^2 + 3/4 x1 x2 x4 x5^2",
        ),
        CatalogEntry(
            0, j0, 1, 288,
            "1/2 - 1/2 x1 x2 x3 x4 + 1/2 x1 x2 x3 x4 x5^2 - 1/4 x3 x4 x5"
            " + 1/4 x1 x3 x4 x5 - 1/4 x2 x3 x4 x5 - 1/4 x1 x2 x3 x4 x5",
        ),
        CatalogEntry(
            0, j0, 2, 576,
            "1/2 + 1/2 x1 x2 x3 x4 - 1/2 x1 x2 x3 x4 x5^2 - 1/4 x2 x3 x5"
            " + 1/4 x3 x4 x5 - 1/4 x1 x2 x3 x5 - 1/4 x1 x3 x4 x5",
        ),
        CatalogEntry(
            0, j0, 2, 1152,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " - 1/4 x1 x2 x3 x5 - 1/4 x1 x2 x3 x4 x5^2"
            " + 1/8 x1 x2 x5 + 1/8 x1 x3 x5 + 1/8 x1 x2 x4 x5 - 1/8 x1 x3 x4 x5"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2 - 3/8 x1 x2 x4 x5^2 - 3/8 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            0, j0, 3, 192,
            "1/2 - 1/2 x1 x2 x3 x4 + 1/2 x1 x2 x3 x4 x5^2 - 1/4 x1 x4 x5"
            " + 1/4 x2 x4 x5 - 1/4 x3 x4 x5 - 1/4 x1 x2 x3 x4 x5",
        ),
        CatalogEntry(
            0, j0, 3, 288,
            "1/2 + 1/2 x1 x2 - 3/4 x1 x2 x5^2 + 1/4 x2 x3 x5 - 1/4 x2 x4 x5"
            " - 1/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            0, j0, 3, 1152,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " + 1/4 x1 x4 x5 - 1/4 x1 x2 x3 x4 x5^2"
            " + 1/8 x1 x2 x5 - 1/8 x1 x3 x5 - 1/8 x1 x2 x4 x5 - 1/8 x1 x3 x4 x5"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2 - 3/8 x1 x2 x4 x5^2 - 3/8 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            0, j0, 4, 144,
            "1/2 - 1/2 x1 x2 x3 x4 + 1/2 x1 x2 x3 x4 x5^2 - 1/4 x1 x2 x5"
            " + 1/4 x1 x4 x5 - 1/4 x2 x3 x5 - 1/4 x3 x4 x5",
        ),
        CatalogEntry(
            0, j0, 5, 576,
            "1/2 - 1/4 x1 x2 + 1/4 x1 x3 - 1/4 x1 x4 - 1/4 x1 x2 x3 x4"
            " + 1/4 x2 x3 x5 - 1/4 x3 x4 x5"
            " - 1/8 x1 x2 x5 - 1/8 x1 x3 x5 - 1/8 x1 x4 x5 - 1/8 x1 x2 x3 x4 x5"
            " + 1/8 x1 x2 x3 x4 x5^2"
            " + 3/8 x1 x2 x5^2 - 3/8 x1 x3 x5^2 + 3/8 x1 x4 x5^2",
        ),
        # T1 = 1, J = {24,0,0,0}
        CatalogEntry(1, j24, 0, 8, "1/2 + 1/2 x1 x2 x4"),
        # T1 = 1, J = {16,0,0,0}
        CatalogEntry(
            1, j16, 0, 48,
            "1/2 - 1/2 x1 x2 x4 - 1/4 x1 x2 x4 x5 + 1/4 x1 x2 x3 x4 x5"
            " + 1/4 x1 x2 x4 x5^2 - 1/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j16, 1, 288,
            "1/2 - 1/2 x1 x2 x4 - 1/4 x2 x4 x5 + 1/4 x2 x3 x4 x5"
            " + 1/4 x1 x2 x4 x5^2 - 1/4 x1 x2 x3 x4 x5^2",
        ),
        # T1 = 1, J = {8,0,0,0}
        CatalogEntry(1, j8, 0, 24, "1/2 - 1/2 x1 x2 x4 + 1 x1 x2 x4 x5^2"),
        CatalogEntry(
            1, j8, 0, 48,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 - 1/2 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 0, 48,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x3 x4 x5 + 1/2 x1 x2 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 0, 144,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x2 x3 x4 x5 + 1/2 x1 x2 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 1, 144,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x3 x4 x5 + 1/2 x1 x2 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 1, 144,
            "1/2 + 1/2 x1 x2 x4 + 1/2 x2 x4 x5 - 1/2 x1 x2 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 1, 288,
            "1/2 - 1/2 x1 x2 x4 + 1/4 x1 x4 x5 + 1/4 x1 x2 x3 x4 x5"
            " - 1/4 x1 x3 x4 x5^2 + 3/4 x1 x2 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 1, 288,
            "1/2 + 1/2 x1 x2 x3 x4 - 1/4 x3 x4 x5 + 1/4 x2 x3 x4 x5"
            " - 1/4 x1 x3 x4 x5^2 - 3/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 1, 288,
            "1/2 + 1/2 x1 x2 x3 x4 + 1/4 x3 x4 x5 + 1/4 x2 x3 x4 x5"
            " - 1/4 x1 x3 x4 x5^2 - 1/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 1, 288,
            "1/2 - 1/2 x1 x2 + 3/4 x1 x2 x5^2 + 1/4 x1 x2 x4 x5"
            " + 1/4 x1 x2 x3 x4 x5 - 1/4 x1 x2 x3 x5^2",
        ),
        CatalogEntry(
            1, j8, 1, 576,
            "1/2 + 1/2 x1 x2 x4 - 1/2 x1 x2 x4 x5^2 - 1/4 x3 x4 x5"
            " + 1/4 x1 x3 x4 x5 - 1/4 x2 x3 x4 x5 - 1/4 x1 x2 x3 x4 x5",
        ),
        CatalogEntry(
            1, j8, 1, 576,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 + 1/4 x1 x4 x5"
            " + 1/4 x1 x2 x4 x5 - 1/4 x1 x3 x4 x5 + 1/4 x1 x2 x3 x4 x5",
        ),
        CatalogEntry(
            1, j8, 2, 576,
            "1/2 - 1/2 x1 x2 x4 + 1/4 x2 x4 x5 + 1/4 x3 x4 x5"
            " - 1/4 x1 x3 x4 x5^2 + 3/4 x1 x2 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 2, 576,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 - 1/4 x2 x3 x5"
            " + 1/4 x3 x4 x5 - 1/4 x1 x2 x3 x5 - 1/4 x1 x3 x4 x5",
        ),
        CatalogEntry(
            1, j8, 2, 576,
            "1/2 + 1/2 x1 x2 x4 - 1/2 x1 x2 x4 x5^2 + 1/4 x1 x2 x5"
            " + 1/4 x2 x4 x5 + 1/4 x1 x2 x3 x5 - 1/4 x2 x3 x4 x5",
        ),
        CatalogEntry(
            1, j8, 2, 576,
            "1/2 - 1/2 x1 x2 + 3/4 x1 x2 x5^2 + 1/4 x2 x4 x5"
            " + 1/4 x1 x2 x3 x5 - 1/4 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 2, 576,
            "1/2 - 1/2 x1 x2 + 3/4 x1 x2 x5^2 + 1/4 x2 x4 x5"
            " - 1/4 x2 x3 x4 x5 + 1/4 x1 x2 x3 x5^2",
        ),
        CatalogEntry(
            1, j8, 2, 1152,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 + 1/4 x2 x4 x5"
            " + 1/4 x3 x4 x5 + 1/4 x1 x2 x4 x5 - 1/4 x1 x3 x4 x5",
        ),
        CatalogEntry(
            1, j8, 2, 1152,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " + 1/4 x1 x2 x3 x4 x5 - 1/4 x1 x2 x3 x5^2"
            " - 1/8 x1 x2 x5 - 1/8 x1 x3 x5 - 1/8 x1 x2 x4 x5 + 1/8 x1 x3 x4 x5"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2 - 3/8 x1 x2 x4 x5^2 - 3/8 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 2, 2304,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " + 1/4 x1 x2 x3 x5 + 1/4 x1 x2 x3 x4 x5"
            " + 1/8 x1 x2 x5 + 1/8 x1 x3 x5 - 1/8 x1 x2 x4 x5 - 1/8 x1 x3 x4 x5"
            " - 1/8 x1 x2 x4 x5^2"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2 - 3/8 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 3, 192,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 - 1/4 x1 x3 x5"
            " + 1/4 x2 x3 x5 + 1/4 x3 x4 x5 + 1/4 x1 x2 x3 x4 x5",
        ),
        CatalogEntry(
            1, j8, 3, 576,
            "1/2 + 1/2 x1 x2 x4 - 1/2 x1 x2 x4 x5^2 - 1/4 x1 x4 x5"
            " + 1/4 x2 x4 x5 - 1/4 x3 x4 x5 - 1/4 x1 x2 x3 x4 x5",
        ),
        CatalogEntry(
            1, j8, 3, 1152,
            "1/2 - 1/4 x1 x2 + 1/4 x1 x3 - 1/4 x1 x2 x4 - 1/4 x1 x3 x4"
            " - 1/4 x2 x3 x5 - 1/4 x2 x3 x4 x5^2"
            " - 1/8 x1 x2 x5 - 1/8 x1 x3 x5 - 1/8 x1 x2 x4 x5 + 1/8 x1 x3 x4 x5"
            " + 3/8 x1 x2 x5^2 - 3/8 x1 x3 x5^2 + 3/8 x1 x2 x4 x5^2 + 3/8 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 3, 1152,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " + 1/4 x1 x4 x5 - 1/4 x1 x2 x3 x5^2"
            " - 1/8 x1 x2 x5 - 1/8 x1 x3 x5 + 1/8 x1 x2 x4 x5 - 1/8 x1 x3 x4 x5"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2 - 3/8 x1 x2 x4 x5^2 - 3/8 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 3, 2304,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " + 1/4 x1 x4 x5 + 1/4 x1 x2 x3 x4 x5"
            " + 1/8 x1 x2 x5 - 1/8 x1 x3 x5 + 1/8 x1 x2 x4 x5 - 1/8 x1 x3 x4 x5"
            " - 1/8 x1 x2 x4 x5^2"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2 - 3/8 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            1, j8, 4, 576,
            "1/2 + 1/2 x1 x2 x4 - 1/2 x1 x2 x4 x5^2 - 1/4 x1 x2 x5"
            " + 1/4 x1 x4 x5 - 1/4 x2 x3 x5 - 1/4 x3 x4 x5",
        ),
        CatalogEntry(
            1, j8, 4, 1152,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " + 1/4 x2 x4 x5 + 1/4 x3 x4 x5"
            " + 1/8 x1 x2 x5 - 1/8 x1 x3 x5 + 1/8 x1 x2 x4 x5 - 1/8 x1 x3 x4 x5"
            " - 1/8 x1 x2 x4 x5^2"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2 - 3/8 x1 x3 x4 x5^2",
        ),
        # T1 = 2, J = {16,8,0,0}
        CatalogEntry(
            2, j168, 0, 144,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 - 1/2 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            2, j168, 1, 288,
            "1/2 - 1/2 x1 x2 x4 - 1/4 x1 x4 x5 + 1/4 x1 x2 x3 x4 x5"
            " + 1/4 x1 x2 x4 x5^2 - 1/4 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            2, j168, 2, 576,
            "1/2 - 1/2 x1 x2 x4 - 1/4 x2 x4 x5 + 1/4 x3 x4 x5"
            " + 1/4 x1 x2 x4 x5^2 - 1/4 x1 x3 x4 x5^2",
        ),
        # T1 = 2, J = {8,8,0,0}
        CatalogEntry(
            2, j88, 0, 288,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 - 1/4 x1 x3 x4 x5"
            " + 1/4 x1 x2 x3 x4 x5 - 1/4 x1 x3 x4 x5^2 - 1/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            2, j88, 1, 144,
            "1/2 - 1/2 x1 x2 + 3/4 x1 x2 x5^2 + 1/4 x1 x2 x3 x5^2"
            " - 1/4 x1 x2 x4 x5^2 + 1/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            2, j88, 1, 288,
            "1/2 + 1/2 x1 x2 x3 x4 - 1/2 x1 x2 x3 x4 x5^2 - 1/4 x1 x3 x5"
            " + 1/4 x1 x2 x3 x4 x5 - 1/4 x1 x2 x3 x5^2 - 1/4 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            2, j88, 1, 576,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 - 1/4 x1 x4 x5"
            " + 1/4 x1 x2 x4 x5 - 1/4 x1 x3 x4 x5^2 - 1/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            2, j88, 1, 1152,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 - 1/4 x3 x4 x5"
            " + 1/4 x2 x3 x4 x5 - 1/4 x1 x3 x4 x5^2 - 1/4 x1 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            2, j88, 2, 576,
            "1/2 + 1/2 x1 x2 x3 x4 - 1/2 x1 x2 x3 x4 x5^2 - 1/4 x2 x3 x5"
            " + 1/4 x3 x4 x5 - 1/4 x1 x2 x3 x5^2 - 1/4 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            2, j88, 2, 1152,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " - 1/4 x1 x2 x3 x5 - 1/4 x1 x2 x3 x4 x5^2"
            " - 1/8 x1 x2 x5 - 1/8 x1 x3 x5 + 1/8 x1 x2 x4 x5 - 1/8 x1 x3 x4 x5"
            " - 1/8 x1 x2 x4 x5^2 - 1/8 x1 x3 x4 x5^2"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2",
        ),
        CatalogEntry(
            2, j88, 2, 2304,
            "1/2 - 1/4 x1 x2 + 1/4 x1 x3 - 1/4 x1 x2 x4 - 1/4 x1 x3 x4"
            " + 1/4 x1 x2 x3 x5^2 + 1/4 x1 x2 x3 x4 x5^2"
            " - 1/8 x1 x2 x5 - 1/8 x1 x3 x5 + 1/8 x1 x2 x4 x5 + 1/8 x1 x3 x4 x5"
            " + 1/8 x1 x2 x4 x5^2"
            " + 3/8 x1 x2 x5^2 - 3/8 x1 x3 x5^2 + 3/8 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            2, j88, 3, 1152,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " - 1/4 x1 x4 x5 - 1/4 x1 x2 x3 x4 x5^2"
            " - 1/8 x1 x2 x5 + 1/8 x1 x3 x5 - 1/8 x1 x2 x4 x5 - 1/8 x1 x3 x4 x5"
            " - 1/8 x1 x2 x4 x5^2 - 1/8 x1 x3 x4 x5^2"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2",
        ),
        # T1 = 3, J = {8,8,8,0}
        CatalogEntry(
            3, j888, 0, 192,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 + 1/4 x1 x3 x4 x5"
            " + 1/4 x2 x3 x4 x5 - 1/4 x1 x3 x4 x5^2 + 1/4 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            3, j888, 1, 576,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 - 1/4 x1 x3 x5"
            " + 1/4 x1 x2 x3 x4 x5 - 1/4 x1 x2 x3 x5^2 - 1/4 x1 x3 x4 x5^2",
            published_text="1/2 - 1/2 x1 x2 x4 - 1/2 x1 x2 x4 x5^2 - 1/4 x1 x3 x5"
            " + 1/4 x1 x2 x3 x4 x5 - 1/4 x1 x2 x3 x5^2 - 1/4 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            3, j888, 2, 576,
            "1/2 - 1/2 x1 x2 x4 + 1/2 x1 x2 x4 x5^2 - 1/4 x2 x3 x5"
            " + 1/4 x3 x4 x5 - 1/4 x1 x2 x3 x5^2 - 1/4 x1 x3 x4 x5^2",
        ),
        CatalogEntry(
            3, j888, 2, 576,
            "1/2 + 1/2 x1 x2 x4 - 1/2 x1 x2 x4 x5^2 + 1/4 x1 x2 x5"
            " + 1/4 x2 x4 x5 + 1/4 x1 x2 x3 x5^2 - 1/4 x2 x3 x4 x5^2",
        ),
        CatalogEntry(
            3, j888, 2, 1152,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " + 1/4 x1 x2 x3 x4 x5 - 1/4 x1 x2 x3 x5^2"
            " + 1/8 x1 x2 x5 + 1/8 x1 x3 x5 - 1/8 x1 x2 x4 x5 + 1/8 x1 x3 x4 x5"
            " - 1/8 x1 x2 x4 x5^2 - 1/8 x1 x3 x4 x5^2"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2",
        ),
        CatalogEntry(
            3, j888, 3, 384,
            "1/2 - 1/4 x1 x2 + 1/4 x1 x3 - 1/4 x1 x2 x4 - 1/4 x1 x3 x4"
            " - 1/4 x2 x3 x5 - 1/4 x2 x3 x4 x5^2"
            " + 1/8 x1 x2 x5 + 1/8 x1 x3 x5 - 1/8 x1 x2 x4 x5 + 1/8 x1 x3 x4 x5"
            " + 1/8 x1 x2 x4 x5^2 + 1/8 x1 x3 x4 x5^2"
            " + 3/8 x1 x2 x5^2 - 3/8 x1 x3 x5^2",
        ),
        CatalogEntry(
            3, j888, 3, 384,
            "1/2 + 1/4 x1 x2 - 1/4 x1 x3 + 1/4 x1 x2 x4 + 1/4 x1 x3 x4"
            " + 1/4 x1 x4 x5 - 1/4 x1 x2 x3 x5^2"
            " + 1/8 x1 x2 x5 + 1/8 x1 x3 x5 + 1/8 x1 x2 x4 x5 - 1/8 x1 x3 x4 x5"
            " - 1/8 x1 x2 x4 x5^2 - 1/8 x1 x3 x4 x5^2"
            " - 3/8 x1 x2 x5^2 + 3/8 x1 x3 x5^2",
        ),
    )


CATALOG: tuple[CatalogEntry, ...] = _entries()


@cache
def catalog_designs() -> tuple[tuple[CatalogEntry, Design], ...]:
    """Every catalog entry with its indicator parsed into a design of the
    flagship ambient, built once: a tuple of frozen pairs, so no caller can
    change the cached value."""
    ambient = flagship_ambient()
    return tuple(
        (entry, design_from_indicator(parse_polynomial(entry.indicator_text, 5), ambient))
        for entry in CATALOG
    )


def cross_check_classes(classes) -> list[str]:
    """Compare a computed flagship classification against the catalog.

    Every catalog representative must land in exactly one computed class
    whose invariants and orbit size match its entry, and every class must
    be hit exactly once.  The orbit of each catalog design is closed once,
    and a class is hit when its representative lies in that orbit, so any
    orbit member may represent a class.  Returns a list of discrepancies
    (empty = pass).
    """
    problems: list[str] = []
    classes = list(classes)
    if len(classes) != len(CATALOG):
        problems.append(f"expected {len(CATALOG)} classes, got {len(classes)}")
    m = flagship_ambient().run_count
    reps = bitset_keys(runs_matrix([c.representative for c in classes], m))

    hits: dict[int, int] = {}
    for entry, design in catalog_designs():
        found = in_orbit(design, reps).nonzero()[0]
        if not len(found):
            problems.append(f"catalog type {entry.type_label} not found in any class")
            continue
        # Of several classes in one orbit only the last is hit, so the
        # others are reported as matching no entry.
        k = int(found[-1])
        hits[k] = hits.get(k, 0) + 1
        c = classes[k]
        if c.orbit_size != entry.orbit_size:
            problems.append(
                f"type {entry.type_label}: orbit size {c.orbit_size} != {entry.orbit_size}"
            )
        if c.invariants != (entry.t1, entry.jset, entry.t2):
            problems.append(
                f"type {entry.type_label}: invariants {c.invariants} do not match"
            )
    for k, n in hits.items():
        if n != 1:
            problems.append(f"class {k} matched {n} catalog entries")
    if len(hits) != len(classes):
        problems.append("some classes matched no catalog entry")
    return problems
