"""Vectorized exact verification of many fractions of one ambient.

BatchChecker.verify is the algebraic cross-check of enumerated designs,
read straight from their keys: a design with membership row y passes when
[1; C] y = [s; 0].  That is the paper's system for the indicator
coefficients theta = X^-1 y, idempotency plus [1; C] X theta = [s; 0],
because X theta = y: theta is idempotent exactly when X theta is 0/1 (see
algebra's module docstring), and the bits of a key are 0/1 by
construction.  The rows of [1; C] (algebra.contrast_rows) have entries
-1, 0 and 1; per-octet tables of them pack every row's sum over a key
into a few words (designs.octet_tables), and verify compares those words
with one packed target [s; 0], built once per call for its one size s:
the verdict of algebra.contrast_checks (which decides
algebra.verify_theta_report) on every block at once.  It uses algebra's
contrast rows, not the search's margin cells, so it stays independent of
the search, and it never applies X or X^-1.

The key layout, and every operation that reads keys back, lives in
designs; this module only sums rows over their bits (designs.octet_sums).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import contrast_rows
from .designs import FullFactorial, charged_tables, octet_sums, octet_tables


@lru_cache(maxsize=None)
def _contrast_tables(ambient: FullFactorial, strength: int) -> tuple[np.ndarray, np.ndarray]:
    """The octet tables of the rows of contrast_rows(ambient, strength)."""
    return octet_tables(contrast_rows(ambient, strength).T)


class BatchChecker:
    """The algebraic cross-check of many keys of a fixed ambient.

    Margin counts (strength, invariants) live in designs.margin_cells.
    """

    def __init__(self, ambient: FullFactorial):
        self.ambient = ambient

    def verify(self, keys: np.ndarray, size: int, strength: int) -> np.ndarray:
        """The size and contrast rows of algebra.verify_theta_report on keys:
        [1; C] y = [size; 0] for the bits y of every key, its octet sums
        against one packed target, [size; 0] plus the bias.  A key summed
        from a repeated run carries into another bit, or out of its word, so
        it has fewer than size bits and fails the size row."""
        lanes, bias = charged_tables(_contrast_tables(self.ambient, strength), self.ambient.run_count)
        if not 0 <= size <= self.ambient.run_count:  # the size row's lane holds 0 .. m
            return np.zeros(len(keys), dtype=bool)
        target = np.zeros(lanes.shape[2], dtype=lanes.dtype)
        target[: len(bias)] = bias
        target[0] = bias[0] + size
        words, goal = octet_sums(keys, lanes.view(np.uint64)), target.view(np.uint64)
        # Word by word: numpy reduces a long axis far faster than a short one.
        return np.logical_and.reduce([words[:, w] == goal[w] for w in range(len(goal))])


@lru_cache(maxsize=None)
def get_checker(ambient: FullFactorial) -> BatchChecker:
    return BatchChecker(ambient)
