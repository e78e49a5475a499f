"""Vectorized exact verification of many fractions of one ambient.

Every check runs in int64 arithmetic on the integer matrices of
algebra.scaled_model_matrix and algebra.scaled_contrast_rows.  Magnitude
bounds are computed exactly (in Python ints) before any int64 conversion
and asserted to fit comfortably in int64, so the numpy fast paths can never
overflow silently.  Used for whole-enumeration cross-checks where the
per-design Fraction route would be too slow.

Idempotency is checked as X theta in {0, 1}^m: the reduced square of the
indicator has coefficients mu(theta) = X^-1 ((X theta) o (X theta)), and X
is invertible, so theta == mu(theta) exactly when every entry of X theta is
0 or 1.  algebra.verify_theta_report checks one design the same way, in
Python ints; the quadratic system is only the tests' reference.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

from .algebra import build_contrast_matrix, scaled_contrast_rows, scaled_model_matrix
from .designs import Design, FullFactorial

_INT64_SAFE = 2**62


def runs_matrix(designs, run_count: int) -> np.ndarray:
    """Stack 0/1 membership rows for a sequence of designs or run tuples."""
    rows = [d.runs if isinstance(d, Design) else d for d in designs]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    y = np.zeros((len(rows), run_count), dtype=np.int64)
    y[np.repeat(np.arange(len(rows)), lengths), flat] = 1
    return y


def _check_fits(rows: np.ndarray, theta_bound: int) -> None:
    """Every row . (w_scale * theta) fits in int64 for 0/1 membership rows."""
    if max(sum(map(abs, row)) for row in rows) * theta_bound >= _INT64_SAFE:
        raise OverflowError("ambient too large for the int64 fast path")


class BatchChecker:
    """Exact integer algebraic checks on batches of fractions of a fixed ambient.

    Margin counts (strength, invariants) live in designs.margin_cells.
    """

    def __init__(self, ambient: FullFactorial):
        self.ambient = ambient
        self.m = ambient.run_count

        x, self.x_scale = scaled_model_matrix(ambient, inverse=False)
        w, self.w_scale = scaled_model_matrix(ambient, inverse=True)
        # Row-sum bound on |scaled theta|; membership vectors are 0/1.
        self.theta_bound = max(sum(map(abs, row)) for row in w)
        # X theta first: an oversized ambient fails before the m x m
        # contrast products are formed.
        _check_fits(x, self.theta_bound)
        rows = scaled_contrast_rows(ambient)
        _check_fits(rows, self.theta_bound)

        self.x_int = x.astype(np.int64)
        self.w_int = w.astype(np.int64)
        rows = rows.astype(np.int64)
        # x_scale * (1' X), then x_scale * (C_k X) for k = 1..n.
        self.ones_x = rows[0]
        sizes = build_contrast_matrix(ambient).block_sizes()
        self.cx_blocks = np.split(rows[1:], np.cumsum(sizes)[:-1])

    # -- coefficient vectors ------------------------------------------------

    def theta_scaled(self, y: np.ndarray) -> np.ndarray:
        """w_scale * theta for each membership row of y."""
        return y @ self.w_int.T

    # -- algebraic checks ----------------------------------------------------

    def idempotent_ok(self, y: np.ndarray) -> np.ndarray:
        """theta == mu(theta), i.e. X theta takes only the values 0 and 1, exactly."""
        return self._idempotent(self.theta_scaled(y))

    def orthogonal_ok(self, y: np.ndarray, size: int, strength: int) -> np.ndarray:
        """Size row and contrast blocks 1..strength, exactly."""
        return self._orthogonal(self.theta_scaled(y), size, strength)

    def verify(self, y: np.ndarray, size: int, strength: int) -> np.ndarray:
        """Batch analogue of algebra.verify_theta."""
        theta = self.theta_scaled(y)
        return self._idempotent(theta) & self._orthogonal(theta, size, strength)

    def _idempotent(self, theta: np.ndarray) -> np.ndarray:
        values = theta @ self.x_int.T
        return np.all((values == 0) | (values == self.x_scale * self.w_scale), axis=1)

    def _orthogonal(self, theta: np.ndarray, size: int, strength: int) -> np.ndarray:
        ok = (theta @ self.ones_x) == size * self.x_scale * self.w_scale
        for k in range(1, strength + 1):
            cx = self.cx_blocks[k - 1]
            if cx.size:
                ok &= np.all(theta @ cx.T == 0, axis=1)
        return ok

    # -- indicator identities -------------------------------------------------

    def interpolation_ok(self, y: np.ndarray) -> np.ndarray:
        """X theta reproduces the 0/1 membership vector exactly."""
        theta = self.theta_scaled(y)
        return np.all(theta @ self.x_int.T == self.x_scale * self.w_scale * y, axis=1)

    def constant_term_ok(self, y: np.ndarray) -> np.ndarray:
        """theta at exponent zero equals |F| / m."""
        theta0 = self.theta_scaled(y)[:, 0]
        sizes = y.sum(axis=1)
        return theta0 * self.m == self.w_scale * sizes


@lru_cache(maxsize=None)
def get_checker(ambient: FullFactorial) -> BatchChecker:
    return BatchChecker(ambient)
