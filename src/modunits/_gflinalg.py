"""Dense exact linear algebra over the prime field GF(p).

One reduced row-echelon routine, plus one batched elimination, batch_solve,
that decides invertibility for many small matrices at once (the hot path of
unit enumeration) and solves them for given right-hand sides (inverses).

Each elimination runs in the narrowest integer type that holds every value
it can form (int_dtype), after reducing its input mod p, so no entry wraps.
batch_solve keeps the batch axis last, so its Python-level work depends on
the matrix size and p alone, and is fraction-free: it swaps no rows, and
its steps, piv * R[r] - R[r, col] * R[col], stay within (p-1)^2, the bound
of work_dtype(p).  With right-hand sides it runs Gauss-Jordan and inverts
only the diagonal it leaves.
"""

from __future__ import annotations

import numpy as np

from .errors import NotIntegral


def int_dtype(bound: int):
    """The narrowest signed integer type holding every x with |x| <= bound."""
    for dt in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return dt
    raise OverflowError(f"no integer type holds {bound}")


def work_dtype(p: int):
    # an elimination step forms r - s*t with residues r, s, t: |x| <= (p-1)^2
    return int_dtype((p - 1) ** 2)


def integer_array(a) -> np.ndarray:
    """np.asarray(a); raises NotIntegral unless its dtype is integer or bool."""
    a = np.asarray(a)
    if a.dtype.kind not in "biu":
        raise NotIntegral(f"expected integers, got an array of dtype {a.dtype}")
    return a


def residues(a, p: int, dtype) -> np.ndarray:
    """A fresh C-contiguous array of dtype holding the integers a mod p, so
    that a transposed view costs one copy and is read row by row after.  An
    array with every entry in [0, p) is narrowed as it is; otherwise a is
    reduced in int64 first, or in uint64 when unsigned, where int64 would
    wrap entries of 2^63 and above.  Raises NotIntegral unless a has an
    integer or bool dtype."""
    a = integer_array(a)
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a.astype(np.uint64 if a.dtype.kind == "u" else np.int64) % p
    return a.astype(dtype, order="C")


def row_reduce(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon form of mat over GF(p): its nonzero rows and their
    pivot columns.

    The rows span the row space of mat; each has a 1 at its pivot and every
    other row a 0 there, so a vector v of the span is sum_j v[pivots[j]] * rows[j].
    """
    R = residues(mat, p, work_dtype(p))
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
    return R[:row].astype(np.int64), np.array(pivots, dtype=np.int64)


def mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place in the integer array x, which it returns.

    numpy's floor division of an integer array by a scalar is vectorised and
    its remainder is not, so x - (x // p) * p is many times faster than
    x % p.  It is exact when x // p * p fits the type: for x >= 0, and for
    |x| <= (p-1)^2 in work_dtype(p), since p(p-1) fits there too.
    """
    x -= x // p * p
    return x


def _inverses_mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise, by square-and-multiply: the inverse of each
    nonzero residue (Fermat), and 0 for 0 when p > 2."""
    acc = np.ones_like(x)
    base, k = x, p - 2
    while k:
        if k & 1:
            acc = mod_p(acc * base, p)
        k >>= 1
        if k:
            base = mod_p(base * base, p)
    return acc


def batch_invertible_mask(mats: np.ndarray, p: int) -> np.ndarray:
    """Invertibility over GF(p) of a stack of matrices, shape (N, n, n) -> (N,) bool."""
    return batch_solve(mats, p)[0]


def batch_solve(mats: np.ndarray, p: int, rhs: np.ndarray | None = None):
    """batch_invertible_mask and, for rhs broadcast to (N, n), the int64 solutions
    y of mats[k] @ y = rhs[k] where the mask holds (else None).

    R[i, j, k] is entry (i, j) of matrix k, with rhs[k] as column n: the
    batch axis is last, so each step is a few whole-array operations on
    contiguous (., N) slabs.  No rows are swapped: where R[col, col] is 0, the
    first lower row nonzero in that column is added to row col.  Each step is
    fraction-free, R[r] <- piv R[r] - R[r, col] R[col] with piv = R[col, col],
    both terms at most (p-1)^2, so it is exact in work_dtype(p).  A matrix is
    invertible exactly when every pivot is nonzero.  The mask alone eliminates
    the rows below col; with rhs every other row is eliminated over its whole
    width (Gauss-Jordan), as the rows above carry their own pivots, which
    leaves R diagonal and y = R[:, n] / diag, one inversion for all columns.
    """
    N, n = mats.shape[:2]
    dt = work_dtype(p)
    R = residues(mats.transpose(1, 2, 0), p, dt)
    if rhs is not None:
        R = np.concatenate([R, residues(np.broadcast_to(rhs, (N, n)).T, p, dt)[:, None]], 1)
    alive = np.ones(N, dtype=bool)
    for col in range(n):
        pivot_row = R[col, col:]
        for r in range(col + 1, n):  # add the first lower row nonzero in column col
            pivot_row += R[r, col:] * ((pivot_row[0] == 0) & (R[r, col] != 0))
        mod_p(pivot_row, p)
        piv = R[col, col].copy()
        alive &= piv != 0
        if rhs is None:  # the rows below, from column col on
            rows, top, at = R[col + 1:, col:], pivot_row, 0
        else:  # every row over its whole width; row col is put back after
            rows, top, at = R, R[col].copy(), col
        step = rows[:, at, None] * top
        rows *= piv
        rows -= step
        mod_p(rows, p)
        if rhs is not None:
            R[col] = top
    if rhs is None:
        return alive, None
    diag = R[np.arange(n), np.arange(n)]
    y = mod_p(R[:, n] * _inverses_mod_p(diag, p), p)
    return alive, y.T.astype(np.int64, order="C")
