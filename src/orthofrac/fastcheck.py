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

A list of designs travels between the search, the designs file and
classify as one key array: a B x ceil(m/64) uint64 array, run r at bit
63 - r % 64 of word r // 64.  designs owns that layout: bitset_keys packs
0/1 rows into keys, run_keys and design_keys sum keys from runs, and
mask_words and popcounts count a key's runs in sets of runs.  Here
key_bits unpacks keys into 0/1 rows, key_runs and key_designs read them
back as run tuples and Designs, and key_order sorts them.  Every margin
count, in the search, its oracle, the strength check and the class
invariants, is a popcount on keys too (designs.MarginCells.count_keys).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import contrast_checks, contrast_rows
# bitset_keys and run_keys are imported from here too; designs owns them.
from .designs import Design, FullFactorial, bitset_keys, mask_words, popcounts, run_keys  # noqa: F401


def key_bits(keys: np.ndarray, count: int | None = None) -> np.ndarray:
    """The 0/1 uint8 membership row of every key: its first `count` bits,
    default all 64 per word.  The inverse of bitset_keys."""
    return np.unpackbits(keys.astype(">u8").view(np.uint8), axis=1, count=count)


def key_runs(keys: np.ndarray) -> list[tuple[int, ...]]:
    """The sorted runs of every key row."""
    bits = key_bits(keys)
    ends = np.count_nonzero(bits, axis=1).cumsum().tolist()
    flat = tuple((np.flatnonzero(bits) % bits.shape[1]).tolist())
    return [flat[start:end] for start, end in zip([0, *ends], ends)]


def key_designs(ambient: FullFactorial, keys: np.ndarray) -> list[Design]:
    """One Design per key row."""
    return [Design(ambient, runs) for runs in key_runs(keys)]


def key_order(keys: np.ndarray) -> np.ndarray:
    """The argsort of keys, lexicographic over their words: one uint64 column
    for m <= 64, a lexsort otherwise.  Among designs of one size, descending
    keys are ascending run tuples: the smallest run in which two designs
    differ is in the one whose tuple sorts first, and sets its bit.

    Either holds at most 24 bytes per key beside the keys: the int64 index,
    and lexsort's copies of the words it sorts by."""
    if keys.shape[1] == 1:
        return np.argsort(keys[:, 0])
    return np.lexsort(keys.T[::-1])


def search_keys(keys: np.ndarray) -> np.ndarray:
    """A 1-D array whose order and equality are those of the key rows, for
    np.searchsorted: the word itself, or the rows' big-endian bytes."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    return np.ascontiguousarray(keys.astype(">u8")).view(f"V{keys.shape[1] * 8}").ravel()


def find_keys(ordered: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each key row, its position in a sorted, non-empty search_keys array
    and whether the key is there."""
    needles = search_keys(keys)
    pos = np.minimum(np.searchsorted(ordered, needles), len(ordered) - 1)
    return pos, ordered[pos] == needles


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
        """Batch analogue of algebra.verify_theta on keys: [1; C] y = [size; 0]
        for the bits y of every key.  A key summed from a repeated run
        carries into another bit, or out of its word, so it has fewer than
        size bits and fails the size row."""
        return contrast_checks(self.ambient, self.sums(keys, strength), size, strength).all(axis=1)


@lru_cache(maxsize=None)
def get_checker(ambient: FullFactorial) -> BatchChecker:
    return BatchChecker(ambient)
