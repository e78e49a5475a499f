"""Vectorized exact verification of many fractions of one ambient.

The rational matrices of the algebra module are scaled by the least
common multiple of their denominators so that every check runs in integer
arithmetic.  Magnitude bounds are computed exactly (in Python ints) when
a checker is built and asserted to fit comfortably in int64, so the numpy
fast paths can never overflow silently.  Used for whole-enumeration
cross-checks where the per-design Fraction route would be too slow.

Idempotency is checked as X theta in {0, 1}^m: the reduced square of the
indicator has coefficients mu(theta) = X^-1 ((X theta) o (X theta)), and X
is invertible, so theta == mu(theta) exactly when every entry of X theta is
0 or 1.  The quadratic system of algebra.idempotency_system stays the
Fraction route and the tests' reference.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import lcm

import numpy as np

from .algebra import (
    build_contrast_matrix,
    build_model_matrix,
    model_matrix_inverse,
)
from .designs import Design, FullFactorial
from .linalg import Matrix

_INT64_SAFE = 2**62


def runs_matrix(designs, run_count: int) -> np.ndarray:
    """Stack 0/1 membership rows for a sequence of designs or run tuples."""
    rows = [d.runs if isinstance(d, Design) else d for d in designs]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    y = np.zeros((len(rows), run_count), dtype=np.int64)
    y[np.repeat(np.arange(len(rows)), lengths), flat] = 1
    return y


def _scaled_int_matrix(matrix: Matrix) -> tuple[np.ndarray, int]:
    """(matrix * scale) as int64, where scale clears every denominator."""
    scale = 1
    for row in matrix:
        for x in row:
            scale = lcm(scale, x.denominator)
    data = [[int(x * scale) for x in row] for row in matrix]
    hi = max((abs(v) for row in data for v in row), default=0)
    if hi >= _INT64_SAFE:
        raise OverflowError("scaled matrix does not fit in int64")
    return np.array(data, dtype=np.int64), scale


class BatchChecker:
    """Exact integer algebraic checks on batches of fractions of a fixed ambient.

    Margin counts (strength, invariants) live in designs.margin_cells.
    """

    def __init__(self, ambient: FullFactorial):
        self.ambient = ambient
        m = ambient.run_count
        self.m = m

        self.x_int, self.x_scale = _scaled_int_matrix(build_model_matrix(ambient))
        self.w_int, self.w_scale = _scaled_int_matrix(model_matrix_inverse(ambient))
        # Row-sum bound on |scaled theta|; membership vectors are 0/1.
        self.theta_bound = int(np.abs(self.w_int).sum(axis=1).max())

        contrast = build_contrast_matrix(ambient)
        # Column sums of the scaled model matrix = x_scale * (1' X).
        self.ones_x = self.x_int.sum(axis=0)
        if self.m * int(np.abs(self.x_int).max(initial=0)) >= _INT64_SAFE:
            raise OverflowError("ambient too large for the int64 fast path")
        self.cx_blocks: list[np.ndarray] = []
        for k in range(1, ambient.n_factors + 1):
            block = contrast.block(k)
            if block.rows == 0:
                self.cx_blocks.append(np.zeros((0, m), dtype=np.int64))
                continue
            c_int, c_scale = _scaled_int_matrix(block)
            assert c_scale == 1  # contrast entries are -1, 0, 1
            # c_int @ x_int = x_scale * (C_k X), exactly.
            self.cx_blocks.append(c_int @ self.x_int)

        self._assert_bounds()

    def _assert_bounds(self) -> None:
        b = self.theta_bound
        worst_lin = int(np.abs(self.ones_x).sum()) * b
        for cx in self.cx_blocks:
            if cx.size:
                worst_lin = max(worst_lin, int(np.abs(cx).sum(axis=1).max()) * b)
        worst_interp = int(np.abs(self.x_int).sum(axis=1).max()) * b
        for value in (worst_lin, worst_interp):
            if value >= _INT64_SAFE:
                raise OverflowError("ambient too large for the int64 fast path")

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
