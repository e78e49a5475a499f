"""Vectorized exact verification of many fractions of one ambient.

BatchChecker.verify is the algebraic cross-check of enumerated designs,
read straight from their keys: a design with membership row y passes when
[1; C] y = [s; 0].  That is the paper's system for the indicator
coefficients theta = X^-1 y, idempotency plus [1; C] X theta = [s; 0],
because X theta = y: theta is idempotent exactly when X theta is 0/1 (see
algebra's module docstring), and the bits of a key are 0/1 by
construction.  Each row of [1; C] (algebra.contrast_rows) has entries -1,
0 and 1, so its sum over a design is the popcount of the key on the row's
+1 runs minus that on its -1 runs.  The verdict on those sums is
algebra.contrast_checks, which also decides algebra.verify_theta_report.
It uses algebra's contrast rows, not the search's margin cells, so it
stays independent of the search, and it never applies X or X^-1.

The key layout, and every operation that reads keys back, lives in
designs; this module only counts their bits (designs.popcounts).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import contrast_checks, contrast_rows
from .designs import FullFactorial, mask_words, popcounts


@lru_cache(maxsize=None)
def _contrast_masks(ambient: FullFactorial, strength: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs where each row of contrast_rows(ambient, strength) is +1, and
    where it is -1, as two read-only W x R arrays: word w of every row's
    key, for W = ceil(m/64) words and R rows."""
    rows = contrast_rows(ambient, strength)
    return mask_words((rows == 1).T), mask_words((rows == -1).T)


class BatchChecker:
    """The algebraic cross-check of many keys of a fixed ambient.

    Margin counts (strength, invariants) live in designs.margin_cells.
    """

    def __init__(self, ambient: FullFactorial):
        self.ambient = ambient

    def sums(self, keys: np.ndarray, strength: int) -> np.ndarray:
        """contrast_rows(ambient, strength) applied to the bits of every key:
        a B x R array, the popcount of the key on each row's +1 runs minus
        that on its -1 runs (designs.popcounts).  Both lie in 0 .. 64 W, so
        the difference fits their dtype.
        """
        plus, minus = _contrast_masks(self.ambient, strength)
        return popcounts(keys, plus) - popcounts(keys, minus)

    def verify(self, keys: np.ndarray, size: int | np.ndarray, strength: int) -> np.ndarray:
        """The size and contrast rows of algebra.verify_theta_report on keys:
        [1; C] y = [size; 0] for the bits y of every key.  A key summed from
        a repeated run carries into another bit, or out of its word, so it
        has fewer than size bits and fails the size row."""
        return contrast_checks(self.ambient, self.sums(keys, strength), size, strength).all(axis=1)


@lru_cache(maxsize=None)
def get_checker(ambient: FullFactorial) -> BatchChecker:
    return BatchChecker(ambient)
