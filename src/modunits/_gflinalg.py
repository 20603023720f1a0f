"""Dense exact linear algebra over the prime field GF(p).

One reduced row-echelon routine, plus one batched elimination, batch_solve,
that decides invertibility for many small matrices at once (the hot path of
unit enumeration) and solves them for given right-hand sides (inverses).

Each elimination runs in the narrowest integer type that holds every value
it can form (int_dtype), after reducing its input mod p, so no entry wraps;
back-substitution, whose sums are longer, runs in int64.
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
    """A fresh array of dtype holding the integers a mod p.  An array with
    every entry in [0, p) is narrowed as it is; otherwise a is reduced in
    int64 first, or in uint64 when unsigned, where int64 would wrap entries
    of 2^63 and above.  Raises NotIntegral unless a has an integer or bool
    dtype."""
    a = integer_array(a)
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a.astype(np.uint64 if a.dtype.kind == "u" else np.int64) % p
    return a.astype(dtype)


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
    y of mats[k] @ y = rhs[k] where the mask holds (else None): rhs is column n of
    the forward elimination; back-substitution sums to n (p-1)^2, so runs in int64."""
    N, n = mats.shape[:2]
    R = residues(mats, p, work_dtype(p))
    if rhs is not None:
        R = np.concatenate([R, residues(np.broadcast_to(rhs, (N, n)), p, R.dtype)[:, :, None]], 2)
    alive = np.ones(N, dtype=bool)
    ar = np.arange(N)
    for col in range(n):
        nz = R[:, col:, col] != 0
        alive &= nz.any(axis=1)
        pr = col + nz.argmax(axis=1)  # first nonzero at/below the diagonal
        tmp = R[ar, pr].copy()
        R[ar, pr] = R[ar, col]
        R[ar, col] = tmp
        pinv = _inverses_mod_p(R[:, col, col], p)
        R[:, col, col:] = mod_p(R[:, col, col:] * pinv[:, None], p)
        below = R[:, col + 1:, col]
        if below.size:
            R[:, col + 1:, col:] = mod_p(R[:, col + 1:, col:]
                                        - below[:, :, None] * R[:, col, None, col:], p)
    if rhs is None:
        return alive, None
    y = R[:, :, n].astype(np.int64)  # where alive, R[:, :, :n] is unit upper triangular
    for row in range(n - 2, -1, -1):
        y[:, row] = (y[:, row] - np.einsum("kj,kj->k", R[:, row, row + 1:n], y[:, row + 1:])) % p
    return alive, y
