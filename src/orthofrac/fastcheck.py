"""Vectorized exact verification of many fractions of one ambient.

The rational matrices of the algebra module are scaled by the least
common multiple of their denominators so that every check runs in integer
arithmetic.  Magnitude bounds are computed exactly (in Python ints) when
a checker is built and asserted to fit comfortably in int64, so the numpy
fast paths can never overflow silently.  Used for whole-enumeration
cross-checks where the per-design Fraction route would be too slow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .algebra import (
    build_contrast_matrix,
    build_model_matrix,
    idempotency_system,
    lattice_index,
    model_matrix_inverse,
)
from .designs import Design, FullFactorial
from .linalg import Matrix

_INT64_SAFE = 2**62


def runs_matrix(designs, run_count: int) -> np.ndarray:
    """Stack 0/1 membership rows for a sequence of designs or run tuples."""
    y = np.zeros((len(designs), run_count), dtype=np.int64)
    for b, d in enumerate(designs):
        runs = d.runs if isinstance(d, Design) else d
        y[b, list(runs)] = 1
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

        # Quadratic reduction tensor with ordered-pair coefficients:
        # mu[t] = sum_{i,j} R[t,i,j] * theta_i * theta_j.
        index = lattice_index(ambient)
        r_frac: dict[tuple[int, int, int], Fraction] = {}
        r_scale = 1
        for eq in idempotency_system(ambient):
            t = index[eq.target]
            for (a1, a2), coeff in eq.form:
                i, j = index[a1], index[a2]
                c = coeff if i == j else coeff / 2
                r_scale = lcm(r_scale, c.denominator)
                r_frac[(t, i, j)] = c
                if i != j:
                    r_frac[(t, j, i)] = c
        self.r_scale = r_scale
        r = np.zeros((m, m, m), dtype=np.int64)
        for (t, i, j), c in r_frac.items():
            r[t, i, j] = int(c * r_scale)
        self.r_int = r.reshape(m, m * m)

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
        if b * b >= _INT64_SAFE:
            raise OverflowError("ambient too large for the int64 fast path")
        worst_quad = int(np.abs(self.r_int).sum(axis=1).max()) * b * b
        worst_lhs = b * self.r_scale * self.w_scale
        worst_lin = int(np.abs(self.ones_x).sum()) * b
        for cx in self.cx_blocks:
            if cx.size:
                worst_lin = max(worst_lin, int(np.abs(cx).sum(axis=1).max()) * b)
        worst_interp = int(np.abs(self.x_int).sum(axis=1).max()) * b
        for value in (worst_quad, worst_lhs, worst_lin, worst_interp):
            if value >= _INT64_SAFE:
                raise OverflowError("ambient too large for the int64 fast path")

    # -- coefficient vectors ------------------------------------------------

    def theta_scaled(self, y: np.ndarray) -> np.ndarray:
        """w_scale * theta for each membership row of y."""
        return y @ self.w_int.T

    # -- algebraic checks ----------------------------------------------------

    def idempotent_ok(self, y: np.ndarray, chunk: int = 1024) -> np.ndarray:
        """theta_a == mu_a(theta) for every lattice exponent, exactly."""
        theta = self.theta_scaled(y)
        lhs_scale = self.r_scale * self.w_scale
        out = np.empty(len(y), dtype=bool)
        for lo in range(0, len(y), chunk):
            t = theta[lo : lo + chunk]
            pairs = (t[:, :, None] * t[:, None, :]).reshape(len(t), -1)
            mu = pairs @ self.r_int.T
            out[lo : lo + chunk] = np.all(mu == t * lhs_scale, axis=1)
        return out

    def orthogonal_ok(self, y: np.ndarray, size: int, strength: int) -> np.ndarray:
        """Size row and contrast blocks 1..strength, exactly."""
        theta = self.theta_scaled(y)
        ok = (theta @ self.ones_x) == size * self.x_scale * self.w_scale
        for k in range(1, strength + 1):
            cx = self.cx_blocks[k - 1]
            if cx.size:
                ok &= np.all(theta @ cx.T == 0, axis=1)
        return ok

    def verify(self, y: np.ndarray, size: int, strength: int) -> np.ndarray:
        """Batch analogue of algebra.verify_theta."""
        return self.idempotent_ok(y) & self.orthogonal_ok(y, size, strength)

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
