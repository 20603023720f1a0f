"""Exact arithmetic in the group algebra of a finite group over GF(p).

An element is a dense vector of residues indexed by group-element index.
The classical involution sends a group element to its inverse; a unit is
*unitary* when its involution is its inverse.  Only prime fields are
supported.  Every product in GF(p)[G] goes through GroupAlgebra.multiply, an
exact integer kernel that accumulates in the narrowest type holding
|G|*(p-1)^2, the largest sum it forms; an algebra whose sums would not fit in
int64 is refused.  The kernel takes one of two paths by the shape of its
operands: one element on the left against up to |G| columns is one gather of
its regular matrix and one matmul; any other product is a loop over the
support of the left factor.  The unitarity test, unitary_mask, forms no
product: it reads only the coefficients of w* w that can fail, in the same
narrow type.
"""

from __future__ import annotations

import math

import numpy as np

from . import groups as gr
from ._gflinalg import int_dtype, mod_p, residues, row_reduce
from .errors import (AlgebraTooLarge, ContextMismatch, NotAUnit, NotPrime, OrderMismatch,
                     ShapeMismatch)


class GroupAlgebra:
    """Context object: the group, the characteristic, and cached index tables."""

    __slots__ = ("group", "p", "div", "_ldiv", "_one_vec", "_dtype", "_square_at",
                 "_square_one", "_core")

    def __init__(self, group: gr.FiniteGroup, p: int):
        # first, so that a huge p is refused before a primality test on it
        if group.order * (p - 1) ** 2 >= 2**63:
            raise AlgebraTooLarge(
                f"GF({p})[{group.name}]: |G|*(p-1)^2 must stay below 2^63 "
                f"for exact int64 products")
        if not gr.is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.group = group
        self.p = int(p)
        self._dtype = int_dtype(group.order * (self.p - 1) ** 2)  # the products' sums
        # div[k, h] = the g with g*h = k; column h of a regular matrix reads a[div[:, h]]
        div = group.mul[:, group.inv]
        div.setflags(write=False)
        self.div = div
        # _ldiv[g, k] = g^-1 * k, the h with g*h = k
        ldiv = np.ascontiguousarray(group.mul[group.inv])
        ldiv.setflags(write=False)
        self._ldiv = ldiv
        one = np.zeros(group.order, dtype=np.int64)
        one[group.identity] = 1
        one.setflags(write=False)
        self._one_vec = one
        # the coefficients of w*w that can fail (unitary_mask): 1 and one k of
        # each pair k != k^-1, and the involutions too for odd p
        ks = np.arange(group.order)
        kept = np.flatnonzero(ks <= group.inv if self.p > 2 else
                              (ks < group.inv) | (ks == group.identity))
        self._square_at = np.ascontiguousarray(group.mul[:, kept])  # [x, j] = x * kept[j]
        self._square_one = one[kept, None]
        self._core = None

    @property
    def dim(self) -> int:
        return self.group.order

    @property
    def is_modular(self) -> bool:
        """Whether p divides the group order (tracked, not enforced)."""
        return self.group.order % self.p == 0

    def __repr__(self):
        return f"GroupAlgebra(GF({self.p})[{self.group.name}])"

    def compatible(self, other: "GroupAlgebra") -> bool:
        return self is other or (self.group is other.group and self.p == other.p)

    def from_coeffs(self, coeffs) -> "AlgebraElement":
        vec = np.asarray(coeffs)
        if vec.shape != (self.dim,):
            raise ShapeMismatch(f"coefficient vector must have length {self.dim}")
        return AlgebraElement(self, residues(vec, self.p, np.int64))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.dim, dtype=np.int64))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self._one_vec.copy())

    def _element_indices(self, gs) -> np.ndarray:
        """gs as a flat int64 array of element indices; raises ValueError
        unless each lies in [0, |G|)."""
        gs = np.asarray(gs, dtype=np.int64).reshape(-1)
        if not ((0 <= gs) & (gs < self.dim)).all():
            raise ValueError(f"element indices {gs.tolist()} out of range")
        return gs

    def embed(self, g: int) -> "AlgebraElement":
        """The basis element for one group element."""
        vec = np.zeros(self.dim, dtype=np.int64)
        vec[self._element_indices(g)] = 1
        return AlgebraElement(self, vec)

    def hat(self, c: int) -> "AlgebraElement":
        """Sum of all powers of c; requires |c| = p.

        When c is also central this element is central with square zero,
        which is what the witness constructions rely on.  Raises ValueError
        for an index c outside [0, |G|), as embed does.
        """
        c = int(self._element_indices(c)[0])
        if gr.element_order(self.group, c) != self.p:
            raise OrderMismatch(
                f"hat needs an element of order {self.p}, "
                f"got order {gr.element_order(self.group, c)}")
        vec = np.zeros(self.dim, dtype=np.int64)
        x = self.group.identity
        for _ in range(self.p):
            vec[x] += 1
            x = int(self.group.mul[x, c])
        return AlgebraElement(self, vec % self.p)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product a*b of integer arrays whose first axis is the group, as
        int64 residues.

        Both have the same number of axes, the first of length dim, and
        their other axes broadcast: (n,) x (n,) multiplies two elements,
        (n, 1) x (n, m) one element by m, (n, m) x (n, m) m pairs; any other
        shape raises ShapeMismatch.  The inputs are reduced mod p (only when
        some entry is out of range) and narrowed.  Every coefficient of a
        product is a sum of dim terms a[g] * b[g^-1 k], so no partial sum
        exceeds dim * (p-1)^2, which the narrow type holds, and the result
        is exact on either path:

        - one element on the left and a result of at most dim columns is one
          matmul, regular_matrix(a) @ b, whose gather a[div] holds dim^2
          entries, the size of the group's own table;
        - any other product, pairs, wider, with both operands broadcast or
          one element on the right, sums a[g] * b[g^-1 k] in a loop over the
          support of a, whose temporaries are the size of the result.

        The rule is fixed.  numpy's integer matmul has no BLAS, so it costs
        more per term than the loop, which in turn pays one numpy call per
        g in the support of a.  Measured on S3, A4, D8, D10 and D4xC3 at
        p = 2 and 3, one element against m columns is faster by matmul up
        to m = dim and somewhat beyond, 1.5-5x slower at m = 1024, and
        7-15x slower at m = 16384, the unit layer's row blocks.  Pairs as
        one stacked matmul of a[div] with b measured level with the loop, at
        m = 16384 and on the benchmark's workloads, so they take the loop.
        """
        a = residues(a, self.p, self._dtype)
        b = residues(b, self.p, self._dtype)
        if not (a.ndim == b.ndim >= 1 and a.shape[0] == b.shape[0] == self.dim
                and all(x == y or 1 in (x, y) for x, y in zip(a.shape, b.shape))):
            raise ShapeMismatch(f"cannot multiply arrays of shapes {a.shape} and {b.shape} "
                                f"in {self!r}: the first axis is the group")
        n = self.dim
        shape = np.broadcast_shapes(a.shape, b.shape)
        a2, b2 = a.reshape(n, -1), b.reshape(n, -1)
        m = math.prod(shape[1:])
        if m <= n and a2.shape[1] == 1:
            out = a2[:, 0][self.div] @ b2
        else:
            out = np.zeros(shape, dtype=self._dtype)
            for g in np.flatnonzero(a2.any(axis=1)):
                out += a[g] * b[self._ldiv[g]]
        return mod_p(out, self.p).reshape(shape).astype(np.int64)

    def unitary_mask(self, cols: np.ndarray) -> np.ndarray:
        """Which columns w of the (n, k) integer array cols are unitary,
        w* w = 1, read off the coefficients of w* w that can fail.
        Augmentation is not tested.

        The coefficient of w* w at k is sum_x w(x) w(xk), which substituting
        x -> xk^-1 shows equal at k and at k^-1, so one of each inverse pair
        is read, and the identity.  At p = 2 the coefficient at an
        involution k is 0 for every w, since the terms of x and of xk != x
        are equal and cancel in pairs, so the involutions are read at odd p
        only; the identity's, aug(w) at p = 2, is read at every p.  The sums
        are those of multiply, at most dim * (p-1)^2, in the same narrow type.
        """
        w = residues(cols, self.p, self._dtype)
        at = self._square_at
        out = np.zeros((at.shape[1], w.shape[1]), dtype=self._dtype)
        for x in range(self.dim):
            out += w[x] * w[at[x]]
        return (mod_p(out, self.p) == self._square_one).all(axis=0)

    def _p_core(self) -> gr.Subgroup:
        """O_p(G), computed once per algebra."""
        if self._core is None:
            self._core = gr.p_core(self.group, self.p)
        return self._core

    def random_element(self, rng) -> "AlgebraElement":
        return AlgebraElement(self, rng.integers(0, self.p, size=self.dim).astype(np.int64))


class AlgebraElement:
    """Immutable dense element of a GroupAlgebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GroupAlgebra, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.int64)
        coeffs.setflags(write=False)
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement) or not self.algebra.compatible(other.algebra):
            raise ContextMismatch("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, (self.coeffs + other.coeffs) % self.algebra.p)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, (self.coeffs - other.coeffs) % self.algebra.p)

    def __neg__(self):
        return AlgebraElement(self.algebra, (-self.coeffs) % self.algebra.p)

    def __mul__(self, other):
        alg = self.algebra
        if isinstance(other, (int, np.integer)):
            return AlgebraElement(alg, (self.coeffs * (int(other) % alg.p)) % alg.p)
        self._check(other)
        return AlgebraElement(alg, alg.multiply(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, (int, np.integer)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            inv = self.try_inverse()
            if inv is None:
                raise NotAUnit("negative power of a non-unit")
            return inv ** (-k)
        acc = self.algebra.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra.compatible(other.algebra) and bool(
            (self.coeffs == other.coeffs).all())

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self):
        return f"<{self.to_text()} in {self.algebra!r}>"

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_one(self) -> bool:
        return bool((self.coeffs == self.algebra._one_vec).all())

    def augmentation(self) -> int:
        """Coefficient sum mod p; a ring homomorphism onto GF(p)."""
        return int(self.coeffs.sum() % self.algebra.p)

    def involution(self) -> "AlgebraElement":
        """Coefficient at g moves to g^-1."""
        return AlgebraElement(self.algebra, self.coeffs[self.algebra.group.inv])

    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.coeffs)[0])

    def regular_matrix(self) -> np.ndarray:
        """Left-multiplication matrix over GF(p): column h is self * e_h."""
        return self.coeffs[self.algebra.div]

    def try_inverse(self) -> "AlgebraElement | None":
        """Two-sided inverse, or None for a non-unit: the last column of [regular_matrix | 1]
        row-reduced over GF(p), when its pivots are 0..n-1 (x y = 1 solvable makes x a unit)."""
        alg = self.algebra
        rows, pivots = row_reduce(np.column_stack([self.regular_matrix(), alg._one_vec]), alg.p)
        if pivots.tolist() != list(range(alg.dim)):
            return None
        b = AlgebraElement(alg, np.ascontiguousarray(rows[:, -1]))
        return b if (self * b).is_one() and (b * self).is_one() else None  # defensive recheck

    def is_unitary(self) -> bool:
        """Augmentation 1 and involution * self = 1."""
        return self.augmentation() == 1 and (self.involution() * self).is_one()

    def to_text(self) -> str:
        """Canonical form: nonzero terms 'coef*label' joined with ' + '."""
        labels = self.algebra.group.labels
        terms = [f"{int(self.coeffs[i])}*{labels[i]}" for i in np.nonzero(self.coeffs)[0]]
        return " + ".join(terms) if terms else "0"
