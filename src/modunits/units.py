"""Construction of the unit groups of a group algebra.

enumerate_units builds the group of normalized units of FG, the oracle
everything else is checked against, without testing candidates.  Let
Q = G/O_p(G): FQ is split by the central idempotents of the normal
p'-subgroups of Q into blocks (unit_blocks), and Gaussian elimination runs
on one coordinate vector of each scalar class of a block; the units among
them and their scalar multiples are the units of the block, kept as
vectors of FQ.  V's image in FQ, the normalized units of FQ, is the sums of
one unit of each block with the augmentation of its idempotent, and
_image_units is the one place that derives it.  enumerate_units lifts it:
V(FG) is the union of the preimages of those sums under the coset-sum map,
whose kernel is nilpotent, built as sorted mixed-radix codes and decoded
once into the narrow rows a UnitGroup holds.  filter_unitary carves out
the units fixed into inverses by the classical involution.  For odd p, and
for p = 2 when O_2(G) = 1, unit_orders counts |V| and |V*| from the same
image by the block laws, without building either group.

lower_central_series_of_units computes the lower central series of a unit
group from a greedy generating set taken in position order, with no Cayley
table.  non_engel_scan (the lex-first pair) and find_non_engel_pair (seeded
pairs) run batches of Engel orbits through groups.first_non_engel, which
also runs G's own: each until it reaches 1 or, by Brent's rule, comes back
to the state it saved after steps 1, 2, 4, ..., so a pair is decided
exactly in constant state.  The verdict needs these three only when G is
nilpotent and not abelian: G is a subgroup of V* and V, so an abelian G
makes them abelian, and a non-Engel pair of G's own table proves them
non-nilpotent.  All three move through U by batched products, each checked
to be a member, with independent batches fused into one _products call;
inverses are powers, except that the series takes those of its commutators
from the same products.  closure_subgroup closes generators under products
alone (u^-1 is a power of u), one breadth-first level per multiply, with
its members kept as sorted codes; as_abstract_group turns a unit set into
a Cayley-table group, so that ``groups`` can check them.

Those constructors yield groups, so a UnitGroup is not checked when built;
closure is proven by the product-table loop _product_rows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import groups as gr
from ._gflinalg import (batch_invertible_mask, int_dtype, integer_array, mod_p, residues,
                        row_reduce, work_dtype)
from .algebra import AlgebraElement, GroupAlgebra
from .errors import (BudgetExceeded, ContextMismatch, EngelInconclusive, NotAUnit,
                     PreconditionViolated)

ENUMERATION_CAP = 2**20
ABSTRACT_GROUP_CAP = 4096
ENGEL_BUDGET = 400
_CHUNK = 1 << 14
_ENGEL_BATCH = 200  # pairs per batch of the Engel searches; ENGEL_BUDGET is two batches


class UnitGroup:
    """An explicit finite set of units, stored lexicographically sorted.

    ``vectors`` is a read-only array of residues in int_dtype(p - 1), int8
    for p <= 128, so arithmetic on it must cast first: ``V.vectors + p``
    wraps in int8 once p >= 64.  Members are looked up by their mixed-radix
    codes sum_i v_i p^(n-1-i) in one sorted code array: int64 when
    n log2 p < 62, Python ints otherwise.  Rows in strictly increasing
    order are kept as given, with no copy when already in the residue
    dtype; others are sorted by code and rebuilt from the sorted codes.
    Construction checks only that the vectors are distinct and contain 1.
    Closure is proven exhaustively from the product table, by
    as_abstract_group and by verify_closure.
    """

    def __init__(self, algebra: GroupAlgebra, vectors: np.ndarray):
        n, p = algebra.dim, algebra.p
        vectors = np.asarray(vectors)
        if vectors.dtype != int_dtype(p - 1) or (
                vectors.size and (vectors.min() < 0 or vectors.max() >= p)):
            vectors = residues(vectors, p, int_dtype(p - 1))
        self.algebra = algebra
        self._weights = _code_weights(n, p)
        codes = _codes(vectors, self._weights)
        if not (codes[1:] > codes[:-1]).all():
            codes.sort()
            if not (codes[1:] > codes[:-1]).all():
                raise ValueError("unit set contains duplicates")
            vectors = _decode(codes, n, p)
        self._codes = codes
        self.vectors = vectors
        self.vectors.setflags(write=False)
        pos = self.position_of_vector(algebra._one_vec) if codes.size else -1
        if pos < 0:
            raise ValueError("unit set does not contain 1")
        self.one_position = pos

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def element(self, i: int) -> AlgebraElement:
        """The member at position i; raises ValueError outside [0, |U|), so
        that the -1 of index_of for an absent element is not read as the
        last member."""
        if not 0 <= i < len(self):
            raise ValueError(f"position {i} out of range for {len(self)} units")
        return AlgebraElement(self.algebra, self.vectors[i].astype(np.int64))

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
        reduced mod p only when some entry is out of range.  Raises
        NotIntegral unless mat has an integer or bool dtype."""
        mat = integer_array(mat)
        if mat.size and (mat.min() < 0 or mat.max() >= self.algebra.p):
            mat = residues(mat, self.algebra.p, np.int64)
        codes = _codes(mat, self._weights)
        idx = np.searchsorted(self._codes, codes)
        idx[idx >= len(self)] = 0
        return np.where(self._codes[idx] == codes, idx, -1)

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


def _code_weights(n: int, p: int) -> np.ndarray:
    """The mixed-radix weights p^(n-1-i), most significant first, so that the
    code v @ weights preserves lexicographic order: int64 when n log2 p < 62,
    Python ints otherwise."""
    return p ** np.arange(n - 1, -1, -1, dtype=np.int64 if n * np.log2(p) < 62 else object)


def _codes(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The code of each row.  einsum widens narrow rows to the weights' type
    through a small buffer, where rows @ weights would widen all of them
    at once."""
    return np.einsum("ij,j->i", rows, weights)


def _decode(codes: np.ndarray, n: int, p: int) -> np.ndarray:
    """The rows in int_dtype(p - 1) whose codes are ``codes``: column 0 holds
    the most significant base-p digit, so the rows of [p^j, 2p^j) are the
    vectors whose first nonzero coordinate, in column n-1-j, is 1, one per
    scalar class (unit_blocks).  One digit at a time from the least
    significant, _CHUNK rows at a time; numpy vectorises floor division by
    a scalar but not the remainder, so the digit is x - (x // p) * p."""
    out = np.empty((len(codes), n), dtype=int_dtype(p - 1))
    for lo in range(0, len(codes), _CHUNK):
        x = codes[lo:lo + _CHUNK]
        for i in range(n - 1, -1, -1):
            q = x // p
            out[lo:lo + _CHUNK, i] = x - q * p
            x = q
    return out


# ---------------------------------------------------------------------------
# enumeration

@dataclass(frozen=True)
class UnitBlock:
    """The block FQ*f of a group algebra FQ cut out by a central idempotent f.

    ``rows`` is the reduced row-echelon basis of FQ*f and ``pivots`` its pivot
    columns, so the coordinates of a member x are x[pivots].  ``units`` holds
    the units of the block, distinct vectors of FQ in int_dtype(p - 1), one
    per row.
    """

    idempotent: np.ndarray
    rows: np.ndarray
    pivots: np.ndarray
    units: np.ndarray


def unit_blocks(algebra: GroupAlgebra, cap: int | None = None) -> list[UnitBlock]:
    """The blocks of FQ given by the central idempotents of its normal p'-subgroups.

    For a normal subgroup K with p not dividing |K|, e_K = |K|^-1 sum_{k in K} k
    is a central idempotent (Passman 1977).  Every normal p'-subgroup is a
    product of normal closures of single elements, so the e_K of those
    closures generate the same Boolean algebra; its atoms, the nonzero
    products of e_K or 1 - e_K, are orthogonal, central and sum to 1, and FQ
    is the direct sum of the blocks FQ*f.  A unit of FQ is a sum of units of
    the blocks, and x is a unit of FQ*f exactly when x + (1 - f) is a unit of
    FQ, which batch_invertible_mask decides on the regular matrices.

    x is a unit exactly when lambda*x is, for every lambda in F_p^*, so the
    elimination runs on one coordinate vector per scalar class: the one
    whose first nonzero coordinate is 1, decoded (_decode) from an index in
    the union over j of [p^j, 2p^j).  Each unit c @ rows among them gives
    its p - 1 multiples.
    The zero vector gives 1 - f, a zero divisor since f != 0, so never a
    unit.  Raises BudgetExceeded (carrying the required count) when
    sum_B p^dim(B) > cap, before any elimination.
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
    # row g of f[_ldiv] is g*f
    bases = [(f, *row_reduce(f[algebra._ldiv], p)) for f in atoms]
    required = sum(p ** pivots.size for _, _, pivots in bases)
    if cap is not None and required > cap:
        raise BudgetExceeded(
            f"block units need {required} coordinate vectors, cap is {cap}", required)
    return [UnitBlock(f, rows, pivots, _units_of_block(algebra, f, rows))
            for f, rows, pivots in bases]


def _units_of_block(algebra: GroupAlgebra, f: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """UnitBlock.units of the block FQ*f with basis rows, from one
    elimination per scalar class of coordinate vectors (see unit_blocks)."""
    p, d = algebra.p, rows.shape[0]
    complement = (algebra._one_vec - f) % p
    reps = np.concatenate([np.arange(p ** j, 2 * p ** j, dtype=np.int64) for j in range(d)])
    parts = []
    for lo in range(0, reps.size, _CHUNK):
        x = _decode(reps[lo:lo + _CHUNK], d, p) @ rows % p
        mats = ((x + complement) % p).astype(work_dtype(p))[:, algebra.div]
        x = x[batch_invertible_mask(mats, p)]
        parts.extend((lam * x % p).astype(int_dtype(p - 1)) for lam in range(1, p))
    return np.concatenate(parts)


def _image_units(algebra: GroupAlgebra, cap: int | None = None
                 ) -> tuple[gr.Subgroup, GroupAlgebra, np.ndarray,
                            list[tuple[np.ndarray, np.ndarray]]]:
    """V's image in FQ, Q = G/O_p(G): O_p(G), the algebra FQ, the coset of
    each element of G, and for each block B of FQ (unit_blocks, with its
    cap) the pair of its idempotent f and its units x with aug(x) = aug(f),
    as vectors of FQ.

    The normalized units of FQ are the sums of one such unit of each block:
    aug is a ring map onto F_p, so aug(f) is 0 or 1 and aug(x) =
    aug(x f) = aug(x) aug(f).  The idempotents are orthogonal and sum to 1,
    so exactly one block, the principal one, has aug(f) = 1; every unit of
    the others has augmentation 0, and the principal block's units of
    augmentation 1 are one in each scalar class, |U(B)| / (p - 1).
    """
    p = algebra.p
    core = gr.p_core(algebra.group, p)
    Q, coset = gr.quotient(core)
    QA = GroupAlgebra(Q, p)
    blocks = [(b.idempotent,
               b.units[b.units.sum(axis=1, dtype=np.int64) % p == b.idempotent.sum() % p])
              for b in unit_blocks(QA, cap=cap)]
    return core, QA, coset, blocks


def enumerate_units(algebra: GroupAlgebra, cap: int = ENUMERATION_CAP,
                    seed: int = 0) -> UnitGroup:
    """All normalized units, built from the units of the blocks of FQ.

    Let Q = G/N, N = O_p(G).  The kernel of FG -> FQ (the coset-sum map) is
    the nilpotent ideal w(N)FG, so u is a unit exactly when its image is
    (Passman 1977), and FQ is the direct sum of the blocks of unit_blocks.
    The normalized units of FQ are thus the sums I of one unit x of each
    block with aug(x) = aug(f) (_image_units).  V(FG) is the union of the
    preimages of these units: a unit is a pair (I, D) of
    an image unit and the free digits D on all but the least member r_q of
    each coset q, and that member takes I_q - S_q mod p, where S_q is the
    sum of the free digits of the coset.  So its code is code(D) +
    sum_q (I_q - S_q mod p) p^(n-1-r_q), computed in tiles of at most
    _CHUNK units, sorted, and decoded once into the rows UnitGroup keeps.
    For N = 1 the quotient is G itself.  Where only the order is wanted,
    unit_orders counts it from the same blocks.  Raises BudgetExceeded
    (carrying the required count) when p^(dim-1) > cap.  ``seed`` is unused.
    """
    n = algebra.dim
    p = algebra.p
    required = p ** (n - 1)
    if required > cap:
        raise BudgetExceeded(
            f"enumeration needs {required} candidates, cap is {cap}", required)
    _, QA, coset, blocks = _image_units(algebra)
    m = QA.dim
    reps = np.unique(coset, return_index=True)[1]  # the least member of each coset
    free = np.setdiff1d(np.arange(n), reps)
    in_coset = np.zeros((free.size, m), dtype=np.int64)
    in_coset[np.arange(free.size), coset[free]] = 1
    weights = _code_weights(n, p)
    n_image, n_free = math.prod(len(x) for _, x in blocks), p ** free.size
    codes = np.empty((n_image, n_free), dtype=weights.dtype)
    # tiles of at most _CHUNK units: a block of image units by a block of free digits
    d_step = min(n_free, _CHUNK)
    i_step = max(1, _CHUNK // d_step)
    for d_lo in range(0, n_free, d_step):
        digits = _decode(np.arange(d_lo, min(d_lo + d_step, n_free)), free.size, p)
        free_codes = digits @ weights[free]
        sums = digits @ in_coset  # S: the sum of the free digits in each coset
        for i_lo in range(0, n_image, i_step):
            idx = np.arange(i_lo, min(i_lo + i_step, n_image), dtype=np.int64)
            image = np.zeros((idx.size, 1, m), dtype=np.int64)
            for _, x in blocks:
                idx, i = np.divmod(idx, len(x))
                image[:, 0] += x[i]
            codes[i_lo:i_lo + i_step, d_lo:d_lo + d_step] = (
                free_codes + mod_p(image - sums, p) @ weights[reps])
    codes = codes.reshape(-1)
    codes.sort()
    vectors = _decode(codes, n, p)
    del codes  # UnitGroup computes its own
    return UnitGroup(algebra, vectors)


def _skew_dim(X: gr.FiniteGroup) -> int:
    """k(X) = (|X| - #{x : x^2 = 1}) / 2, the dimension over GF(p), p odd, of
    the skew elements x* = -x of FX: one g - g^-1 for each pair g != g^-1."""
    return (X.order - int(np.count_nonzero(X.inv == np.arange(X.order)))) // 2


def unit_orders(algebra: GroupAlgebra, cap: int = ENUMERATION_CAP) -> tuple[int, int]:
    """|V| and |V*| for odd p, and for p = 2 when O_2(G) = 1, counted by the
    block laws without building either group.

    Let Q = G/O_p(G) and I the kernel of FG -> FQ, the nilpotent ideal
    w(O_p(G))FG of dimension |G| - |Q|.  Units lift through I, and the
    normalized units of FQ are the sums of one unit x_B of each block B
    with aug(x_B) = aug(f_B), N_B of them (_image_units), so

        |V| = p^(|G| - |Q|) * prod_B |N_B|.

    Each block idempotent f_B is central and fixed by the involution, and
    x_B = x_B f_B, so (x_B + 1 - f_B)* (x_B + 1 - f_B) = x_B* x_B + 1 - f_B:
    sum_B x_B is unitary exactly when x_B* x_B = f_B in every block, that is
    when each x_B + 1 - f_B is unitary.  V*(FQ) is the product of the
    unitary members N*_B of the N_B.  The map is a *-map
    and, p being odd, the Cayley transform x -> (1 + x)(1 - x)^-1 puts the
    unitary units of 1 + I in bijection with the skew elements of I, of
    dimension k(G) - k(Q) (_skew_dim), and unitary units lift through I, so

        |V*| = p^(k(G) - k(Q)) * prod_B |N*_B|.

    At p = 2 the Cayley transform is not defined, but where O_2(G) = 1,
    Q = G and I = 0, so both laws hold with their powers of p equal to 1.

    N*_B is counted on the units x_B + 1 - f_B of all blocks in one pass of
    _unitary_rows.  Raises BudgetExceeded when sum_B p^dim(B) > cap,
    before any elimination, and PreconditionViolated at p = 2 when
    O_2(G) != 1, where |V*| has no such law.
    """
    G, p = algebra.group, algebra.p
    core, QA, _, blocks = _image_units(algebra, cap)
    if p == 2 and core.order > 1:
        raise PreconditionViolated("at p = 2 the unit count laws need O_2(G) = 1")
    Q = QA.group
    shifted = np.concatenate([((u + (QA._one_vec - f)) % p).astype(u.dtype) for f, u in blocks])
    block_of = np.repeat(np.arange(len(blocks)), [len(u) for _, u in blocks])
    n_unitary = np.bincount(block_of[_unitary_rows(QA, shifted)], minlength=len(blocks))
    v_order = p ** (G.order - Q.order) * math.prod(len(u) for _, u in blocks)
    vstar_order = p ** (_skew_dim(G) - _skew_dim(Q)) * math.prod(map(int, n_unitary))
    return v_order, vstar_order


def _unitary_rows(algebra: GroupAlgebra, rows: np.ndarray) -> np.ndarray:
    """algebra.unitary_mask of each row of rows, tested in blocks of _CHUNK
    rows, which bounds the temporaries."""
    mask = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), _CHUNK):
        mask[lo:lo + _CHUNK] = algebra.unitary_mask(np.ascontiguousarray(rows[lo:lo + _CHUNK].T))
    return mask


def filter_unitary(V: UnitGroup, seed: int = 0) -> UnitGroup:
    """The members with u* u = 1 (_unitary_rows), a subgroup of V.  Members of V
    are normalized, so augmentation needs no test.  ``seed`` is unused."""
    return UnitGroup(V.algebra, V.vectors[_unitary_rows(V.algebra, V.vectors)])


def closure_subgroup(units: Iterable[AlgebraElement],
                     cap: int = ABSTRACT_GROUP_CAP) -> UnitGroup:
    """The subgroup the units generate: their closure under products, which is
    a group, since a unit u of finite order k has u^-1 = u^(k-1).

    It grows one breadth-first level per multiply, the level's new members
    times every generator, and keeps its members as sorted mixed-radix codes.
    Raises BudgetExceeded (required = cap + 1) above cap members."""
    gens = list(units)
    if not gens:
        raise ValueError("need at least one generating unit")
    alg = gens[0].algebra
    for u in gens:
        if not u.algebra.compatible(alg):
            raise ContextMismatch("generators belong to different algebras")
        if u.augmentation() != 1:
            raise NotAUnit(f"generator {u.to_text()} is not normalized")
        if u.try_inverse() is None:
            raise NotAUnit(f"generator {u.to_text()} is not a unit")
    n, p = alg.dim, alg.p
    right = np.stack([u.coeffs for u in gens], axis=1)[:, None, :]  # (n, 1, generator)
    weights = _code_weights(n, p)
    seen = level = _codes(alg._one_vec[None, :], weights)
    while level.size:
        prod = alg.multiply(_decode(level, n, p).T[:, :, None], right)
        codes = np.unique(_codes(prod.reshape(n, -1).T, weights))
        at = np.minimum(np.searchsorted(seen, codes), seen.size - 1)  # seen holds 1
        level = codes[seen[at] != codes]
        if seen.size + level.size > cap:
            raise BudgetExceeded(f"closure exceeds cap {cap}", cap + 1)
        seen = np.union1d(seen, level)
    return UnitGroup(alg, _decode(seen, n, p))


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
    """Positions of the products U[a[k]] * U[b[k]] for 1-d a and b (a scalar broadcasts).

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


def _fused_products(U: UnitGroup, *pairs: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
    """The positions of U[a] * U[b] for each pair (a, b) of equally long 1-d
    position arrays, through one _products call."""
    a, b = zip(*pairs)
    out = _products(U, np.concatenate(a), np.concatenate(b))
    return np.split(out, np.cumsum([len(x) for x in a[:-1]]))


def _inverses(U: UnitGroup, a: np.ndarray) -> np.ndarray:
    """Positions of the inverses, as x^(|U|-1): x^|U| = 1 by Lagrange.
    Square-and-multiply takes one _products call per bit of |U| - 1, with
    acc * base and base * base in the same call."""
    acc = np.full(len(a), U.one_position, dtype=np.int64)
    base, k = np.asarray(a, dtype=np.int64), len(U) - 1
    while k > 1:
        if k & 1:
            acc, base = _fused_products(U, (acc, base), (base, base))
        else:
            base = _products(U, base, base)
        k >>= 1
    return _products(U, acc, base) if k else acc


class _Closure:
    """The subgroup of U generated by ``gens``, grown a batch of generators at a time.

    With conjugators S = ``conj`` it is the normal closure of ``gens`` in
    <S>: the least set holding 1 that is closed under right multiplication
    by each generator and conjugation by each s in S.  That set also absorbs
    right multiplication by every conjugate of a generator (x c^s =
    (x^(s^-1) c)^s, and s^-1 is a power of s), so it is a subgroup, and
    normal.  New generators xs extend the set breadth-first from H*xs, so
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

    def add(self, xs: np.ndarray) -> None:
        """Extend by the generators xs, a 1-d array of positions; those
        already inside are dropped, and the rest are kept as generators."""
        xs = np.unique(xs[~self.inside[xs]])
        if not xs.size:
            return
        self.gens.extend(xs.tolist())
        U, gens = self.U, np.array(self.gens, dtype=np.int64)
        members = np.concatenate(self.members)
        frontier = self._keep_new(_products(U, np.repeat(members, xs.size),
                                            np.tile(xs, members.size)))
        while frontier.size:
            f, k = frontier.size, self.conj.size
            moved, half = _fused_products(
                U, (np.repeat(frontier, gens.size), np.tile(gens, f)),
                (np.tile(self.conj_inv, f), np.repeat(frontier, k)))
            if k:
                moved = np.concatenate([moved, _products(U, half, np.tile(self.conj, f))])
            frontier = self._keep_new(moved)

    def _keep_new(self, pos: np.ndarray) -> np.ndarray:
        new = np.unique(pos)
        new = new[~self.inside[new]]
        self.inside[new] = True
        self.members.append(new)
        self.size += new.size
        return new


def lower_central_series_of_units(U: UnitGroup) -> list[np.ndarray]:
    """gamma_1 >= gamma_2 >= ... of U as sorted position arrays, computed from
    generators until a term is trivial or repeats.

    S is a greedy generating set: members of U in position order, each kept
    when it lies outside the closure of those kept before, until the closure
    has |U| elements; the terms are subgroups, so they do not depend on S.
    With gens(gamma_1) = S, gamma_(i+1) = [gamma_i, U] is the normal closure
    in U of {(t, s) : t in gens(gamma_i), s in S}
    (Robinson, A Course in the Theory of Groups, 5.1), and its generators
    are the commutators that the normal closure kept.  A normal closure of
    gens(gamma_i) suffices: modulo [gens, S] each generator is central, so
    each of its conjugates commutes with U as well.  The terms agree with
    groups.lower_central_series on the Cayley table of U.
    """
    m = len(U)
    H = _Closure(U)
    for x in range(m):
        if H.size == m:
            break
        H.add(np.array([x]))
    S = np.array(H.gens, dtype=np.int64)
    S_inv = _inverses(U, S)
    inverse = np.empty(m, dtype=np.int64)  # set at S and at each commutator formed
    inverse[S] = S_inv
    terms = [np.arange(m, dtype=np.int64)]
    T = S
    while terms[-1].size > 1:
        # (t, s) = t^-1 s^-1 t s for every t in T and s in S, and from the
        # same factors its inverse (s, t) = s^-1 t^-1 s t
        t, s = np.repeat(T, S.size), np.tile(S, T.size)
        t_inv, s_inv = inverse[t], inverse[s]
        left, right, left_inv, right_inv = _fused_products(
            U, (t_inv, s_inv), (t, s), (s_inv, t_inv), (s, t))
        commutators, inverses = _fused_products(U, (left, right), (left_inv, right_inv))
        inverse[commutators] = inverses
        N = _Closure(U, S, S_inv)
        N.add(commutators)
        terms.append(np.sort(np.concatenate(N.members)))
        if N.size == terms[-2].size:
            break
        T = np.array(N.gens, dtype=np.int64)
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


def engel_test(x: AlgebraElement, y: AlgebraElement, n_max: int = 256) -> EngelOutcome:
    """Iterate z <- (z, y) from z = x on two units.

    Stabilizes with the first n at which z is 1; is nontrivial when a state
    other than 1 repeats (the orbit is then periodic and never reaches 1).
    Raises EngelInconclusive when n_max steps give neither.
    """
    y_inv = y.try_inverse()
    if y_inv is None:
        raise NotAUnit("y is not a unit")
    z, n, visited = x, 0, set()
    while not z.is_one():
        if z in visited:
            return EngelOutcome(False, n)
        if n == n_max:
            raise EngelInconclusive(f"no verdict after {n_max} steps")
        visited.add(z)
        z_inv = z.try_inverse()
        if z_inv is None:
            raise NotAUnit("commutator chain left the unit group")
        z, n = z_inv * y_inv * z * y, n + 1
    return EngelOutcome(True, n)


def _first_non_engel(U: UnitGroup, x: np.ndarray, y: np.ndarray, x_inv: np.ndarray,
                     y_inv: np.ndarray) -> int:
    """groups.first_non_engel on the pairs (x[k], y[k]) of positions in U,
    each orbit carrying z^-1, as (z, y)^-1 = y^-1 z^-1 y z: a step is six
    products in two _products calls, the four independent ones, then two."""
    def step(k, state):
        z, z_inv = state
        yk, yk_inv = y[k], y_inv[k]
        zy_inv, zy, yz_inv, yz = _fused_products(U, (z_inv, yk_inv), (z, yk),
                                                 (yk_inv, z_inv), (yk, z))
        return np.stack(_fused_products(U, (zy_inv, zy), (yz_inv, yz)))

    return gr.first_non_engel(np.stack([x, x_inv]), U.one_position, step)


def non_engel_scan(U: UnitGroup) -> tuple[AlgebraElement, AlgebraElement] | None:
    """The first pair (x, y) of positions in row-major order whose orbit
    z <- (z, y) from z = x never reaches 1: the first pair engel_test calls
    nontrivial.

    A finite Engel group is nilpotent (Zorn), so on a non-nilpotent U the
    scan always returns a pair.  The inverses come from one table of
    x^(|U|-1) over U.
    """
    m = len(U)
    inv = _inverses(U, np.arange(m))
    for lo in range(0, m * m, _ENGEL_BATCH):
        x, y = np.divmod(np.arange(lo, min(lo + _ENGEL_BATCH, m * m)), m)
        k = _first_non_engel(U, x, y, inv[x], inv[y])
        if k < x.size:
            return U.element(int(x[k])), U.element(int(y[k]))
    return None


def find_non_engel_pair(U: UnitGroup, budget: int = ENGEL_BUDGET, seed: int = 0
                        ) -> tuple[AlgebraElement, AlgebraElement] | None:
    """Seeded random search for a pair witnessing non-nilpotency.

    Draws ``budget`` pairs (x, y) uniformly from U and returns the first whose
    Engel orbit never reaches 1, with inverses x^(|U|-1); each drawn pair is
    decided exactly.  None means that no drawn pair is non-Engel; it is not
    a proof that every pair is Engel.
    """
    rng = random.Random(seed)
    draws = np.array([rng.randrange(len(U)) for _ in range(2 * budget)], dtype=np.int64)
    pairs = draws.reshape(-1, 2)  # drawn x, then y, for each attempt
    for lo in range(0, budget, _ENGEL_BATCH):
        x, y = pairs[lo:lo + _ENGEL_BATCH].T
        x_inv, y_inv = np.split(_inverses(U, np.concatenate([x, y])), 2)
        k = _first_non_engel(U, x, y, x_inv, y_inv)
        if k < x.size:
            return U.element(int(x[k])), U.element(int(y[k]))
    return None
