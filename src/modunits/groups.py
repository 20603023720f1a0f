"""Finite groups as explicit Cayley tables, plus the commutator machinery built on them.

Elements are integer indices into the table.  All values are immutable after
construction, so groups and subgroups can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import NotPrime


NOT_NILPOTENT = None  # what nilpotency_class returns for a group that is not nilpotent

_PAIRS_PER_BLOCK = 1 << 16  # pairs per block of non_engel_pair, rounded to whole rows


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``mul[a, b]`` is the index of the product, ``inv[a]`` the inverse,
    ``identity`` the neutral element's index.  Labels are cosmetic only;
    element identity is the index.
    """

    __slots__ = ("name", "order", "mul", "inv", "identity", "labels")

    def __init__(
        self,
        name: str,
        mul: Sequence[Sequence[int]] | np.ndarray,
        identity: int = 0,
        labels: Sequence[str] | None = None,
    ):
        mul_arr = np.asarray(mul, dtype=np.int32)
        n = mul_arr.shape[0]
        if mul_arr.shape != (n, n):
            raise ValueError(f"multiplication table must be square, got {mul_arr.shape}")
        if n == 0:
            raise ValueError("group must be nonempty")
        if not (0 <= identity < n):
            raise ValueError(f"identity index {identity} out of range")
        ref = np.arange(n, dtype=np.int32)
        if not (np.sort(mul_arr, axis=1) == ref).all():
            raise ValueError("some row of mul is not a permutation")
        if not (np.sort(mul_arr.T, axis=1) == ref).all():
            raise ValueError("some column of mul is not a permutation")
        if not (mul_arr[identity] == ref).all() or not (mul_arr[:, identity] == ref).all():
            raise ValueError("identity is not two-sided neutral")
        inv_arr = np.argmax(mul_arr == identity, axis=1).astype(np.int32)
        if not (mul_arr[inv_arr, ref] == identity).all():
            raise ValueError("some element has no two-sided inverse")
        mul_arr.setflags(write=False)
        inv_arr.setflags(write=False)
        self.name = name
        self.order = n
        self.mul = mul_arr
        self.inv = inv_arr
        self.identity = int(identity)
        if labels is None:
            labels = [f"g{i}" for i in range(n)]
        if len(labels) != n:
            raise ValueError("labels length does not match order")
        self.labels = tuple(str(s) for s in labels)

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool((self.mul == self.mul.T).all())

    def power(self, x: int, k: int) -> int:
        """x^k for any integer k (negative exponents via the inverse)."""
        if k < 0:
            x, k = int(self.inv[x]), -k
        acc = self.identity
        base = int(x)
        while k:
            if k & 1:
                acc = int(self.mul[acc, base])
            base = int(self.mul[base, base])
            k >>= 1
        return acc

    def conjugate(self, x: int, h: int) -> int:
        """h^-1 x h."""
        m = self.mul
        return int(m[m[self.inv[h], x], h])

    def check_axioms(self) -> None:
        """Exhaustive associativity check; O(order^3), intended for order <= 64."""
        m = self.mul
        left = m[m, :]            # left[a,b,c] = (ab)c
        right = m[:, m]           # right[a,b,c] = a(bc)
        if not (left == right).all():
            raise ValueError(f"multiplication of {self.name} is not associative")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` given by its sorted member indices."""

    parent: FiniteGroup
    members: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(int(x) for x in self.members)))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return int(x) in set(self.members)

    def is_trivial(self) -> bool:
        return self.members == (self.parent.identity,)

    def is_normal(self) -> bool:
        """Conjugation-closed in the parent (exhaustive)."""
        G = self.parent
        mem = set(self.members)
        return all(G.conjugate(x, h) in mem for x in self.members for h in G.elements())

    def verify_closed(self) -> None:
        G = self.parent
        mem = set(self.members)
        if G.identity not in mem:
            raise ValueError("subgroup does not contain the identity")
        for a in self.members:
            if int(G.inv[a]) not in mem:
                raise ValueError("subgroup not closed under inverses")
            for b in self.members:
                if int(G.mul[a, b]) not in mem:
                    raise ValueError("subgroup not closed under multiplication")


GroupLike = Union[FiniteGroup, Subgroup]


def _parent_and_members(G: GroupLike) -> tuple[FiniteGroup, np.ndarray]:
    if isinstance(G, Subgroup):
        return G.parent, np.asarray(G.members, dtype=np.int32)
    return G, np.arange(G.order, dtype=np.int32)


def element_order(G: FiniteGroup, x: int) -> int:
    """Least k >= 1 with x^k = identity."""
    acc = int(x)
    k = 1
    while acc != G.identity:
        acc = int(G.mul[acc, x])
        k += 1
    return k


def commutator(G: FiniteGroup, x: int, y: int) -> int:
    """(x, y) = x^-1 y^-1 x y."""
    m = G.mul
    return int(m[m[m[G.inv[x], G.inv[y]], x], y])


def left_normed_commutator(G: FiniteGroup, x: int, y: int, n: int) -> int:
    """(x, y, n): the commutator with y iterated n times, n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = int(x)
    for _ in range(n):
        z = commutator(G, z, y)
    return z


def first_non_engel(state: np.ndarray, one: int, step: Callable) -> int:
    """Index of the first column of ``state`` whose orbit never reaches
    ``one``, or the number of columns when every orbit does.

    Row 0 of column k is z for pair k, from z = x; other rows ride along.
    ``step(k, s)`` moves the columns s of the pairs k one step, z <- (z, y).
    The orbits run together and a pair drops out at ``one``, a fixed point.
    A finite orbit that misses ``one`` cycles, so each pair keeps one z: x,
    then z after steps 1, 2, 4, ... (Brent, BIT 20, 1980).  It is non-Engel
    once z comes back to it, by step 2^(j+1) for the least 2^j that is at
    least the tail and the cycle length.  Then only the pairs before it keep
    running.
    """
    pair, saved = np.arange(state.shape[1]), state[0]
    first, steps = pair.size, 0
    while True:
        live = (state[0] != one) & (pair < first)
        if not live.any():
            return first
        pair, state, saved = pair[live], state[:, live], saved[live]
        state, steps = step(pair, state), steps + 1
        first = int(pair[state[0] == saved].min(initial=first))
        if steps & (steps - 1) == 0:
            saved = state[0]


def non_engel_pair(G: FiniteGroup) -> tuple[int, int] | None:
    """The first pair (x, y) in row-major order whose orbit z <- (z, y) from
    z = x never reaches the identity, or None when there is none: exactly
    when G is nilpotent, as a finite Engel group is nilpotent (Zorn).

    The orbits of a block of rows run through first_non_engel on the table,
    so on a nilpotent G of class c each block ends after c steps.
    """
    n, m = G.order, G.mul
    rows = max(1, _PAIRS_PER_BLOCK // n)
    for lo in range(0, n, rows):
        x, y = np.divmod(np.arange(lo * n, min(lo + rows, n) * n), n)
        k = first_non_engel(x[None], G.identity,
                            lambda k, z: m[m[m[G.inv[z], G.inv[y[k]]], z], y[k]])
        if k < x.size:
            return int(x[k]), int(y[k])
    return None


def _closure(G: FiniteGroup, seed: Iterable[int]) -> np.ndarray:
    """Smallest subset containing seed, the identity, and closed under mul/inv."""
    cur = np.unique(np.concatenate([
        np.asarray([G.identity], dtype=np.int32),
        np.asarray(list(seed), dtype=np.int32),
    ]))
    cur = np.unique(np.concatenate([cur, G.inv[cur]]))
    while True:
        prods = G.mul[np.ix_(cur, cur)].ravel()
        nxt = np.unique(np.concatenate([cur, prods]))
        if nxt.size == cur.size:
            return cur
        cur = nxt


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    gens = list(gens)
    if not gens:
        raise ValueError("generator set must be nonempty")
    return Subgroup(G, tuple(int(x) for x in _closure(G, gens)))


def _pairwise_commutators(G: FiniteGroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # blockwise to keep the (|xs|, |ys|) intermediates small
    m = G.mul
    step = max(1, 4_000_000 // max(1, ys.size))
    chunks = []
    for lo in range(0, xs.size, step):
        xb = xs[lo:lo + step]
        a = G.inv[xb][:, None]
        b = G.inv[ys][None, :]
        c = m[m[m[a, b], xb[:, None]], ys[None, :]]
        chunks.append(np.unique(c))
    return np.unique(np.concatenate(chunks))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators."""
    all_idx = np.arange(G.order, dtype=np.int32)
    gens = _pairwise_commutators(G, all_idx, all_idx)
    return Subgroup(G, tuple(int(x) for x in _closure(G, gens)))


def center(G: GroupLike) -> Subgroup:
    """All elements commuting with everything (within the given group or subgroup)."""
    parent, mem = _parent_and_members(G)
    block = parent.mul[np.ix_(mem, mem)]
    mask = (block == block.T).all(axis=1)
    return Subgroup(parent, tuple(int(x) for x in mem[mask]))


def centralizer(G: FiniteGroup, g: int) -> Subgroup:
    """All x with xg = gx."""
    mask = G.mul[:, g] == G.mul[g, :]
    return Subgroup(G, tuple(int(x) for x in np.nonzero(mask)[0]))


def central_order_p_elements(G: FiniteGroup, p: int) -> list[int]:
    """Central elements of order exactly p (may be empty)."""
    _require_prime(p)
    return [c for c in center(G).members if element_order(G, c) == p]


def lower_central_series(G: GroupLike) -> list[Subgroup]:
    """gamma_1 >= gamma_2 >= ... until the series stabilizes.

    gamma_{i+1} is generated by the commutators (x, y) with x in gamma_i and
    y in the whole group; normality of the terms is a consequence, not an
    input assumption.
    """
    parent, mem = _parent_and_members(G)
    series = [Subgroup(parent, tuple(int(x) for x in mem))]
    cur = mem
    while True:
        gens = _pairwise_commutators(parent, cur, mem)
        # commutators of members stay inside the subgroup, so closure does too
        nxt = _closure(parent, gens)
        series.append(Subgroup(parent, tuple(int(x) for x in nxt)))
        if nxt.size == cur.size or nxt.size == 1:
            return series
        cur = nxt


def nilpotency_class(G: GroupLike) -> int | None:
    """Least c with gamma_{c+1} trivial, or None (NOT_NILPOTENT) when the
    series stalls above 1."""
    series = lower_central_series(G)
    for i, term in enumerate(series):
        if term.order == 1:
            return i
    return None


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n >= 1, as gcd(n, p^b) with
    b = n.bit_length(): p^b > n, so p^b is a power of p at least that large.
    n is a power of p (1 included) exactly when p_part(n, p) == n."""
    return math.gcd(n, p ** n.bit_length())


def is_p_group(H: GroupLike, p: int) -> bool:
    """True iff the order is a power of p (order 1 counts), that is, its own
    p_part."""
    _require_prime(p)
    return p_part(H.order, p) == H.order


def p_core(G: FiniteGroup, p: int) -> Subgroup:
    """O_p(G), the largest normal p-subgroup: the elements whose normal closure is a p-group.

    The normal closure of x is a normal subgroup, so it is a p-group exactly
    when it lies in O_p(G); the qualifying elements therefore form O_p(G).
    Only x with x^q = 1, q = p_part(|G|, p), have p-power order, so the
    closure is taken of those alone.  A p-group (q = |G|) is its own O_p, so
    it takes no closure at all.
    """
    _require_prime(p)
    q = p_part(G.order, p)
    if q == G.order:
        return Subgroup(G, tuple(G.elements()))
    return Subgroup(G, tuple(x for x in G.elements() if G.power(x, q) == G.identity
                             and is_p_group(normal_closure(G, x), p)))


def normal_closure(G: FiniteGroup, x: int) -> Subgroup:
    """The least normal subgroup of G containing x: the one its conjugates generate."""
    return Subgroup(G, _closure(G, G.mul[G.mul[G.inv, x], np.arange(G.order)]))


def quotient(N: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """G/N for a normal subgroup N of G, and the coset index of each element of G.

    Cosets are numbered by their least member, so G/1 is G with the same
    indices.  Raises ValueError when N is not normal.
    """
    G = N.parent
    coset = np.full(G.order, -1, dtype=np.int32)
    reps = []
    for g in G.elements():
        if coset[g] < 0:
            coset[G.mul[g, list(N.members)]] = len(reps)
            reps.append(g)
    mul = coset[G.mul[np.ix_(reps, reps)]]
    # gN * hN = ghN for every pair, not only the representatives, iff N is normal
    if not (coset[G.mul] == mul[coset[:, None], coset[None, :]]).all():
        raise ValueError("quotient needs a normal subgroup")
    coset.setflags(write=False)
    Q = FiniteGroup(f"{G.name}/{N.order}", mul, identity=int(coset[G.identity]),
                    labels=[f"{G.labels[g]}N" for g in reps])
    return Q, coset
