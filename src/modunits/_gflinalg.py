"""Dense exact linear algebra over the prime field GF(p).

One reduced row-echelon routine, which also solves linear systems, plus a
batched elimination that decides invertibility for many small matrices at
once (the unit-enumeration hot path).
"""

from __future__ import annotations

import numpy as np


def work_dtype(p: int):
    # products of residues must not overflow before the reduction mod p
    return np.int64 if (p - 1) * (p - 1) >= 2**31 else np.int32


def inverse_table(p: int) -> np.ndarray:
    """inv[x] = x^-1 mod p for 1 <= x < p; inv[0] = 0."""
    tab = np.zeros(p, dtype=work_dtype(p))
    for x in range(1, p):
        tab[x] = pow(x, p - 2, p)
    return tab


def row_reduce(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon form of mat over GF(p): its nonzero rows and their
    pivot columns.

    The rows span the row space of mat; each has a 1 at its pivot and every
    other row a 0 there, so a vector v of the span is sum_j v[pivots[j]] * rows[j].
    """
    R = np.asarray(mat, dtype=work_dtype(p)) % p  # a fresh array, reduced in place
    pivots: list[int] = []
    row = 0
    for col in range(R.shape[1]):
        if row == R.shape[0]:
            break
        hit = np.nonzero(R[row:, col])[0]
        if hit.size == 0:
            continue
        r = row + hit[0]
        if r != row:
            R[[row, r]] = R[[r, row]]
        R[row] = (R[row] * pow(int(R[row, col]), p - 2, p)) % p
        others = np.nonzero(R[:, col])[0]
        others = others[others != row]
        if others.size:
            R[others] = (R[others] - np.outer(R[others, col], R[row])) % p
        pivots.append(col)
        row += 1
    return R[:row], np.array(pivots, dtype=np.int64)


def solve_mod_p(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """Solve mat @ x = rhs over GF(p); None if inconsistent.

    When the matrix is rank-deficient but the system is consistent, one
    solution is returned (free variables set to zero).
    """
    n = mat.shape[1]
    rows, pivots = row_reduce(np.column_stack([mat, rhs]), p)
    if pivots.size and pivots[-1] == n:  # a pivot in rhs: some row reads 0 = 1
        return None
    x = np.zeros(n, dtype=work_dtype(p))
    x[pivots] = rows[:, n]
    return x


def batch_invertible_mask(mats: np.ndarray, p: int) -> np.ndarray:
    """Invertibility over GF(p) of a stack of matrices, shape (N, n, n) -> (N,) bool."""
    N = mats.shape[0]
    if N == 0:
        return np.zeros(0, dtype=bool)
    n = mats.shape[1]
    dt = work_dtype(p)
    R = np.asarray(mats, dtype=dt) % p
    if R is mats or not R.flags.owndata:
        R = R.copy()
    inv_tab = inverse_table(p)
    alive = np.ones(N, dtype=bool)
    ar = np.arange(N)
    for col in range(n):
        nz = R[:, col:, col] != 0
        alive &= nz.any(axis=1)
        pr = col + nz.argmax(axis=1)  # first nonzero at/below the diagonal
        tmp = R[ar, pr].copy()
        R[ar, pr] = R[ar, col]
        R[ar, col] = tmp
        pinv = inv_tab[R[:, col, col]]
        R[:, col, col:] = (R[:, col, col:] * pinv[:, None]) % p
        below = R[:, col + 1:, col]
        if below.size:
            R[:, col + 1:, col:] = (R[:, col + 1:, col:]
                                    - below[:, :, None] * R[:, col, None, col:]) % p
    return alive
