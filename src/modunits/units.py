"""Brute-force construction of unit groups of a group algebra.

enumerate_units walks every augmentation-1 coefficient vector and keeps the
invertible ones; that set is the group of normalized units, the independent
oracle everything else is checked against.  Invertibility is decided in
FQ, Q = G/O_p(G), and lifted to FG through the coset-sum map.  FQ is split
by the central idempotents of the normal p'-subgroups of Q into blocks
(unit_blocks), and Gaussian elimination runs once per block on its
coordinate vectors; a candidate of FQ is a unit when each of its block
components is.  filter_unitary carves out the units fixed into inverses by
the classical involution.

lower_central_series_of_units computes the lower central series of a unit
group from a generating set, with no Cayley table.  non_engel_scan (the
lex-first pair) and find_non_engel_pair (seeded pairs) look for a non-Engel
pair with batched Engel orbits.  All of them move through U by batched
products, each checked to be a member.  as_abstract_group still turns a unit
set into a Cayley-table group, so that the machinery of ``groups`` can check
them.

Those constructors yield groups, so a UnitGroup is not checked when built;
closure is proven by the product-table loop _product_rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator

import numpy as np

from . import groups as gr
from ._gflinalg import batch_invertible_mask, row_reduce
from .algebra import AlgebraElement, GroupAlgebra
from .errors import BudgetExceeded, EngelInconclusive, NotAUnit

ENUMERATION_CAP = 2**20
ABSTRACT_GROUP_CAP = 4096
_CHUNK = 1 << 14


class UnitGroup:
    """An explicit finite set of units, stored lexicographically sorted.

    Construction checks only that the vectors are distinct and contain 1.
    Closure is proven exhaustively from the product table, by
    as_abstract_group and by verify_closure.
    """

    def __init__(self, algebra: GroupAlgebra, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.int64)
        if vectors.size and (vectors.min() < 0 or vectors.max() >= algebra.p):
            vectors = vectors % algebra.p
        self.algebra = algebra
        self.vectors = vectors[np.lexsort(vectors[:, ::-1].T)]  # a sorted copy
        self.vectors.setflags(write=False)
        n = algebra.dim
        p = algebra.p
        # mixed-radix codes (most significant first) preserve lexicographic order
        if n * np.log2(p) < 62:
            w = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
            self._weights = w
            self._codes = self.vectors @ w
            if self.vectors.shape[0] > 1 and not (np.diff(self._codes) > 0).all():
                raise ValueError("unit set contains duplicates")
        else:
            self._weights = None
            self._codes = None
            self._byte_index = {self.vectors[i].tobytes(): i
                                for i in range(self.vectors.shape[0])}
            if len(self._byte_index) != self.vectors.shape[0]:
                raise ValueError("unit set contains duplicates")
        pos = self.position_of_vector(algebra._one_vec)
        if pos < 0:
            raise ValueError("unit set does not contain 1")
        self.one_position = pos

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def element(self, i: int) -> AlgebraElement:
        return AlgebraElement(self.algebra, self.vectors[i].copy())

    def __iter__(self) -> Iterator[AlgebraElement]:
        for i in range(len(self)):
            yield self.element(i)

    def position_of_vector(self, vec: np.ndarray) -> int:
        pos = self.positions_of(np.asarray(vec, dtype=np.int64)[None, :])
        return int(pos[0])

    def index_of(self, u: AlgebraElement) -> int:
        """Position of an element, or -1 when absent."""
        return self.position_of_vector(u.coeffs)

    def __contains__(self, u: AlgebraElement) -> bool:
        return self.index_of(u) >= 0

    def positions_of(self, mat: np.ndarray) -> np.ndarray:
        """Batch lookup; -1 marks vectors that are not members.  Entries are
        reduced mod p only when some entry is out of range."""
        mat = np.asarray(mat, dtype=np.int64)
        if mat.size and (mat.min() < 0 or mat.max() >= self.algebra.p):
            mat = mat % self.algebra.p
        if len(self) == 0:
            return np.full(mat.shape[0], -1, dtype=np.int64)
        if self._weights is not None:
            codes = mat @ self._weights
            idx = np.searchsorted(self._codes, codes)
            idx[idx >= len(self)] = 0
            ok = self._codes[idx] == codes
            return np.where(ok, idx, -1)
        out = np.empty(mat.shape[0], dtype=np.int64)
        for i in range(mat.shape[0]):
            out[i] = self._byte_index.get(np.ascontiguousarray(mat[i]).tobytes(), -1)
        return out

    def verify_closure(self) -> None:
        """Raise ValueError unless the set is a group: exhaustive, one table pass."""
        for _ in _product_rows(self):
            pass


def _product_rows(U: UnitGroup) -> Iterator[np.ndarray]:
    """Row i of the Cayley table: the positions of element(i) * element(j).

    Raises ValueError when a product is not a member, or when a row lacks 1
    (element(i) has no right inverse in U).  A right inverse inside a set
    closed under products is two-sided (ab = bc = 1 gives a = abc = c), so a
    set whose rows all pass is a group.
    """
    members = np.ascontiguousarray(U.vectors.T)  # group axis first, for multiply
    for i in range(len(U)):
        pos = U.positions_of(U.algebra.multiply(members[:, i, None], members).T)
        if (pos < 0).any():
            raise ValueError("unit set not closed under multiplication")
        if not (pos == U.one_position).any():
            raise ValueError("unit set not closed under inverses")
        yield pos


# ---------------------------------------------------------------------------
# enumeration

def _candidate_vectors(p: int, n: int, identity: int, lo: int, hi: int) -> np.ndarray:
    """Aug-1 candidates lo..hi: free digits on non-identity slots, identity fixed."""
    idx = np.arange(lo, hi, dtype=np.int64)
    vec = np.zeros((hi - lo, n), dtype=np.int64)
    t = idx
    for j in range(n):
        if j == identity:
            continue
        vec[:, j] = t % p
        t = t // p
    vec[:, identity] = (1 - vec.sum(axis=1)) % p
    return vec


@dataclass(frozen=True)
class UnitBlock:
    """The block FQ*f of a group algebra FQ cut out by a central idempotent f.

    ``rows`` is the reduced row-echelon basis of FQ*f and ``pivots`` its pivot
    columns, so the coordinates of a member x are x[pivots].  ``units`` marks,
    for every coordinate vector c with index sum_j c_j p^j, whether its
    element is a unit of the block.
    """

    idempotent: np.ndarray
    rows: np.ndarray
    pivots: np.ndarray
    units: np.ndarray

    def unit_mask(self, algebra: GroupAlgebra, u: np.ndarray) -> np.ndarray:
        """Whether the component u*f of each row of u is a unit of the block."""
        # (u*f)[k] = sum_g u[g] f[g^-1 k], read at the pivots k only
        project = self.idempotent[algebra._ldiv[:, self.pivots]]
        weights = algebra.p ** np.arange(self.pivots.size, dtype=np.int64)
        return self.units[(u @ project) % algebra.p @ weights]


def unit_blocks(algebra: GroupAlgebra) -> list[UnitBlock]:
    """The blocks of FQ given by the central idempotents of its normal p'-subgroups.

    For a normal subgroup K with p not dividing |K|, e_K = |K|^-1 sum_{k in K} k
    is a central idempotent (Passman 1977).  Every normal p'-subgroup is a
    product of normal closures of single elements, so the e_K of those
    closures generate the same Boolean algebra; its atoms, the nonzero
    products of e_K or 1 - e_K, are orthogonal, central and sum to 1, and FQ
    is the direct sum of the blocks FQ*f.  A unit of FQ is a sum of units of
    the blocks, and x is a unit of FQ*f exactly when x + (1 - f) is a unit of
    FQ, which batch_invertible_mask decides on the regular matrices.
    """
    Q, p = algebra.group, algebra.p
    closures = {K.members for K in (gr.normal_closure(Q, x) for x in Q.elements())
                if K.order > 1 and K.order % p}
    atoms = [algebra._one_vec]
    for members in sorted(closures):
        e = np.zeros(Q.order, dtype=np.int64)
        e[list(members)] = pow(len(members), -1, p)
        split = [(algebra.multiply(f, e), f) for f in atoms]
        atoms = [a for fe, f in split for a in (fe, (f - fe) % p) if a.any()]
    blocks = []
    for f in atoms:
        rows, pivots = row_reduce(f[algebra._ldiv], p)  # row g of f[_ldiv] is g*f
        total = p ** pivots.size
        units = np.empty(total, dtype=bool)
        complement = (algebra._one_vec - f) % p
        for lo in range(0, total, _CHUNK):
            idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
            coords = idx[:, None] // p ** np.arange(pivots.size, dtype=np.int64) % p
            x = (coords @ rows + complement) % p
            units[lo:lo + _CHUNK] = batch_invertible_mask(x[:, algebra.div], p)
        blocks.append(UnitBlock(f, rows, pivots, units))
    return blocks


def enumerate_units(algebra: GroupAlgebra, cap: int = ENUMERATION_CAP,
                    seed: int = 0) -> UnitGroup:
    """All normalized units, by exhaustive scan of the aug-1 coefficient vectors.

    Invertibility is decided in FQ for Q = G/N, N = O_p(G): the kernel of
    FG -> FQ is the nilpotent ideal w(N)FG, so a candidate is a unit exactly
    when its coset-sum image is (Passman 1977).  FQ splits into the blocks of
    unit_blocks, and an aug-1 candidate of FQ is a unit exactly when each of
    its block components is, so the elimination runs once per block on its
    p^d coordinate vectors rather than on the p^(|Q|-1) candidates of FQ.
    Each candidate of FG, in fixed-size chunks and canonical order, is then
    kept when its image is a unit.  For N = 1 the quotient is G itself.
    Raises BudgetExceeded (carrying the required count) when p^(dim-1) > cap.
    ``seed`` is unused.
    """
    n = algebra.dim
    p = algebra.p
    required = p ** (n - 1)
    if required > cap:
        raise BudgetExceeded(
            f"enumeration needs {required} candidates, cap is {cap}", required)
    G = algebra.group
    Q, coset = gr.quotient(gr.p_core(G, p))
    m = Q.order
    q_algebra = GroupAlgebra(Q, p)
    blocks = unit_blocks(q_algebra)
    q_required = p ** (m - 1)
    q_units = np.ones(q_required, dtype=bool)
    for lo in range(0, q_required, _CHUNK):
        u = _candidate_vectors(p, m, Q.identity, lo, min(lo + _CHUNK, q_required))
        for block in blocks:
            q_units[lo:lo + _CHUNK] &= block.unit_mask(q_algebra, u)
    # an image's position among the quotient candidates: its non-identity digits
    weights = np.zeros(m, dtype=np.int64)
    weights[np.arange(m) != Q.identity] = p ** np.arange(m - 1, dtype=np.int64)
    cosets = np.argsort(coset, kind="stable").reshape(m, -1)  # row c: the members of coset c
    parts = []
    for lo in range(0, required, _CHUNK):
        vec = _candidate_vectors(p, n, G.identity, lo, min(lo + _CHUNK, required))
        parts.append(vec[q_units[vec[:, cosets].sum(axis=2) % p @ weights]])
    units = np.concatenate(parts, axis=0)
    del parts  # so the sorted copy UnitGroup makes is the only other one alive
    return UnitGroup(algebra, units)


def filter_unitary(V: UnitGroup, seed: int = 0) -> UnitGroup:
    """The members with u* u = 1, a subgroup of V.  Members of V are normalized,
    so augmentation needs no test.  Rows are tested in blocks of _CHUNK, which
    bounds the temporaries.  ``seed`` is unused."""
    alg = V.algebra
    mask = np.empty(len(V), dtype=bool)
    for lo in range(0, len(V), _CHUNK):
        block = np.ascontiguousarray(V.vectors[lo:lo + _CHUNK].T)  # group axis first
        prod = alg.multiply(block[alg.group.inv], block)
        mask[lo:lo + _CHUNK] = (prod == alg._one_vec[:, None]).all(axis=0)
    return UnitGroup(alg, V.vectors[mask])


def closure_subgroup(units: Iterable[AlgebraElement],
                     cap: int = ABSTRACT_GROUP_CAP) -> UnitGroup:
    """Multiplicative closure of the given units (inverses included)."""
    units = list(units)
    if not units:
        raise ValueError("need at least one generating unit")
    alg = units[0].algebra
    gens: list[AlgebraElement] = []
    for u in units:
        if u.augmentation() != 1:
            raise NotAUnit(f"generator {u.to_text()} is not normalized")
        inv = u.try_inverse()
        if inv is None:
            raise NotAUnit(f"generator {u.to_text()} is not a unit")
        gens.append(u)
        gens.append(inv)
    one = alg.one()
    seen = {one.coeffs.tobytes(): one}
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                key = y.coeffs.tobytes()
                if key not in seen:
                    if len(seen) >= cap:
                        raise BudgetExceeded(
                            f"closure exceeds cap {cap}", len(seen) + 1)
                    seen[key] = y
                    nxt.append(y)
        frontier = nxt
    vectors = np.stack([u.coeffs for u in seen.values()])
    return UnitGroup(alg, vectors)


def as_abstract_group(U: UnitGroup, cap: int = ABSTRACT_GROUP_CAP) -> gr.FiniteGroup:
    """Cayley-table view of a unit group; raises ValueError unless U is a group."""
    m = len(U)
    if m > cap:
        raise BudgetExceeded(f"abstract group needs {m} elements, cap is {cap}", m)
    table = np.empty((m, m), dtype=np.int32)
    for i, row in enumerate(_product_rows(U)):
        table[i] = row
    labels = [U.element(i).to_text() for i in range(m)]
    name = f"V<{U.algebra.group.name},p={U.algebra.p},{m}>"
    return gr.FiniteGroup(name, table, identity=U.one_position, labels=labels)


# ---------------------------------------------------------------------------
# the lower central series from generators

def _products(U: UnitGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Positions of the products U[a[k]] * U[b[k]] (a and b broadcast).

    Computed in row blocks of _CHUNK.  Raises ValueError when a product is
    not a member, so a fault cannot carry a computation outside U.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    out = np.empty(a.shape, dtype=np.int64)
    for lo in range(0, a.size, _CHUNK):
        prod = U.algebra.multiply(U.vectors[a[lo:lo + _CHUNK]].T,
                                  U.vectors[b[lo:lo + _CHUNK]].T)
        pos = U.positions_of(prod.T)
        if (pos < 0).any():
            raise ValueError("unit set not closed under multiplication")
        out[lo:lo + _CHUNK] = pos
    return out


def _inverses(U: UnitGroup, a: np.ndarray) -> np.ndarray:
    """Positions of the inverses, as x^(|U|-1): x^|U| = 1 by Lagrange."""
    acc = np.full(len(a), U.one_position, dtype=np.int64)
    base, k = np.asarray(a, dtype=np.int64), len(U) - 1
    while k:
        if k & 1:
            acc = _products(U, acc, base)
        k >>= 1
        if k:
            base = _products(U, base, base)
    return acc


class _Closure:
    """The subgroup of U generated by ``gens``, grown one generator at a time.

    With conjugators S = ``conj`` it is the normal closure of ``gens`` in
    <S>: the least set holding 1 that is closed under right multiplication
    by each generator and conjugation by each s in S.  That set also absorbs
    right multiplication by every conjugate of a generator (x c^s =
    (x^(s^-1) c)^s, and s^-1 is a power of s), so it is a subgroup, and
    normal.  A new generator x extends the set breadth-first from H*x, so
    each member meets each move once.
    """

    def __init__(self, U: UnitGroup, conj=(), conj_inv=()):
        self.U = U
        self.inside = np.zeros(len(U), dtype=bool)
        self.inside[U.one_position] = True
        self.members = [np.array([U.one_position], dtype=np.int64)]
        self.size = 1
        self.gens: list[int] = []
        self.conj = np.asarray(conj, dtype=np.int64)
        self.conj_inv = np.asarray(conj_inv, dtype=np.int64)

    def add(self, x: int) -> None:
        """Extend by the generator x; does nothing when x is already inside."""
        if self.inside[x]:
            return
        self.gens.append(int(x))
        U, gens = self.U, np.array(self.gens, dtype=np.int64)
        frontier = self._keep_new(_products(U, np.concatenate(self.members), x))
        while frontier.size:
            f, k = frontier.size, self.conj.size
            conjugated = _products(U, _products(U, np.tile(self.conj_inv, f),
                                                np.repeat(frontier, k)),
                                   np.tile(self.conj, f))
            moved = _products(U, np.repeat(frontier, gens.size), np.tile(gens, f))
            frontier = self._keep_new(np.concatenate([moved, conjugated]))

    def _keep_new(self, pos: np.ndarray) -> np.ndarray:
        new = np.unique(pos)
        new = new[~self.inside[new]]
        self.inside[new] = True
        self.members.append(new)
        self.size += new.size
        return new


def lower_central_series_of_units(U: UnitGroup, seed: int = 0) -> list[np.ndarray]:
    """gamma_1 >= gamma_2 >= ... of U as sorted position arrays, computed from
    generators until a term is trivial or repeats.

    S is a greedy generating set: members of U in a seeded random order, each
    kept when it lies outside the closure of those kept before, until the
    closure has |U| elements.  With gens(gamma_1) = S, gamma_(i+1) = [gamma_i, U]
    is the normal closure in U of {(t, s) : t in gens(gamma_i), s in S}
    (Robinson, A Course in the Theory of Groups, 5.1), and its generators
    are the commutators that the normal closure kept.  A normal closure of
    gens(gamma_i) suffices: modulo [gens, S] each generator is central, so
    each of its conjugates commutes with U as well.  The terms agree with
    groups.lower_central_series on the Cayley table of U.
    """
    m = len(U)
    H = _Closure(U)
    for x in np.random.default_rng(seed).permutation(m):
        if H.size == m:
            break
        H.add(x)
    S = np.array(H.gens, dtype=np.int64)
    S_inv = _inverses(U, S)
    terms = [np.arange(m, dtype=np.int64)]
    T, T_inv = S, S_inv
    while terms[-1].size > 1:
        # (t, s) = t^-1 s^-1 t s for every t in T and s in S
        k = S.size
        commutators = _products(U, _products(U, np.repeat(T_inv, k), np.tile(S_inv, T.size)),
                                _products(U, np.repeat(T, k), np.tile(S, T.size)))
        N = _Closure(U, S, S_inv)
        for c in commutators:
            N.add(c)
        terms.append(np.sort(np.concatenate(N.members)))
        if N.size == terms[-2].size:
            break
        T = np.array(N.gens, dtype=np.int64)
        T_inv = _inverses(U, T)
    return terms


# ---------------------------------------------------------------------------
# Engel machinery

@dataclass(frozen=True)
class EngelOutcome:
    """Result of iterating z <- (z, y): either z hit 1, or the orbit cycled."""

    stabilizes: bool
    steps: int

    @property
    def nontrivial(self) -> bool:
        return not self.stabilizes


def engel_orbit(x: Hashable, step: Callable[[Hashable], Hashable], one: Hashable,
                n_max: int) -> EngelOutcome | None:
    """Iterate z <- step(z) = (z, y) from z = x, for units or table indices.

    Stabilizes with the first n at which z is one; is nontrivial when a
    non-identity state repeats (the orbit is then periodic and can never
    reach one); None when n_max steps give neither.
    """
    z, n, visited = x, 0, set()
    while z != one:
        if z in visited:
            return EngelOutcome(False, n)
        if n == n_max:
            return None
        visited.add(z)
        z, n = step(z), n + 1
    return EngelOutcome(True, n)


def engel_test(x: AlgebraElement, y: AlgebraElement, n_max: int = 256) -> EngelOutcome:
    """The engel_orbit of two units; raises EngelInconclusive at n_max."""
    y_inv = y.try_inverse()
    if y_inv is None:
        raise NotAUnit("y is not a unit")

    def step(z: AlgebraElement) -> AlgebraElement:
        z_inv = z.try_inverse()
        if z_inv is None:
            raise NotAUnit("commutator chain left the unit group")
        return z_inv * y_inv * z * y

    outcome = engel_orbit(x, step, x.algebra.one(), n_max)
    if outcome is None:
        raise EngelInconclusive(f"no verdict after {n_max} steps")
    return outcome


def _first_non_engel(U: UnitGroup, x: np.ndarray, y: np.ndarray, x_inv: np.ndarray,
                     y_inv: np.ndarray, n_max: int) -> int:
    """Index of the first pair (x[k], y[k]) whose orbit z <- (z, y) from z = x
    repeats a state other than 1 within n_max steps, the pairs engel_orbit
    calls nontrivial; len(x) when there is none.

    The orbits run together.  Each carries z^-1 along, since
    (z, y)^-1 = y^-1 z^-1 y z, so a step is six products and no elimination.
    Once a pair repeats, only the pairs before it keep running.
    """
    one = U.one_position
    visited = np.zeros((x.size, len(U)), dtype=bool)
    row, z, z_inv = np.arange(x.size), x.copy(), x_inv.copy()
    first = x.size
    for n in range(n_max + 1):
        seen, moving = visited[row, z], z != one
        if (seen & moving).any():
            first = min(first, int(row[seen & moving].min()))
        live = moving & ~seen & (row < first)
        if n == n_max or not live.any():
            break
        row, z, z_inv = row[live], z[live], z_inv[live]
        visited[row, z] = True
        yr, yr_inv = y[row], y_inv[row]
        z, z_inv = (_products(U, _products(U, z_inv, yr_inv), _products(U, z, yr)),
                    _products(U, _products(U, yr_inv, z_inv), _products(U, yr, z)))
    return first


def _pair_block(U: UnitGroup) -> int:
    """Pairs per batch of _first_non_engel: bounds its visited flags at 4 MiB."""
    return max(1, (1 << 22) // len(U))


def non_engel_scan(U: UnitGroup, max_pairs: int = 200_000, n_max: int = 512
                   ) -> tuple[AlgebraElement, AlgebraElement] | None:
    """The first pair (x, y) of positions in row-major order, among the first
    max_pairs, whose orbit z <- (z, y) from z = x repeats a state other than 1
    within n_max steps: the first pair engel_orbit calls nontrivial.

    The inverses come from one table of x^(|U|-1) over U.
    """
    m = len(U)
    inv = _inverses(U, np.arange(m))
    total = min(max_pairs, m * m)
    block = min(m, _pair_block(U))  # at most a row: the first witness is usually in row 0
    for lo in range(0, total, block):
        idx = np.arange(lo, min(lo + block, total), dtype=np.int64)
        x, y = idx // m, idx % m
        k = _first_non_engel(U, x, y, inv[x], inv[y], n_max)
        if k < idx.size:
            return U.element(int(x[k])), U.element(int(y[k]))
    return None


def find_non_engel_pair(U: UnitGroup, budget: int = 400, seed: int = 0,
                        n_max: int = 256) -> tuple[AlgebraElement, AlgebraElement] | None:
    """Seeded random search for a pair witnessing non-nilpotency.

    Draws ``budget`` pairs (x, y) uniformly from U and returns the first whose
    engel_test is nontrivial; the orbits run batched through
    _first_non_engel, with inverses x^(|U|-1).  None means the search found
    nothing within its budget; it is not a proof that every pair is Engel.
    """
    rng = random.Random(seed)
    m = len(U)
    draws = np.array([rng.randrange(m) for _ in range(2 * budget)], dtype=np.int64)
    pairs = draws.reshape(-1, 2)  # drawn x, then y, for each attempt
    block = _pair_block(U)
    for lo in range(0, budget, block):
        x, y = pairs[lo:lo + block, 0], pairs[lo:lo + block, 1]
        k = _first_non_engel(U, x, y, _inverses(U, x), _inverses(U, y), n_max)
        if k < x.size:
            return U.element(int(x[k])), U.element(int(y[k]))
    return None
