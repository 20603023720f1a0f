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
whose kernel is nilpotent, built as mixed-radix codes that a UnitGroup
sorts, decodes once into narrow columns and keeps.  filter_unitary carves
out the units fixed into inverses by the classical involution.  For odd p, and
for p = 2 when O_2(G) = 1, block_units counts |V| and |V*| from the same
image by the block laws, without building either group, and gives each
block's unit group U(B) and unitary group U*(B) as the units x + 1 - f_B
of FQ.  The verdict enumerates V only for a modular nilpotent non-abelian
G, and at p = 2 when O_2(G) != 1 for its orders.  A non-modular G has
O_p(G) = 1, so FQ = FG is semisimple, and V and V* are the products of the
U(B) and U*(B); the verdict decides them from those, block by block, in
the same pass that counts the orders, and tells the non-commutative blocks
by their unit counts, which p divides exactly for those.

lower_central_series_of_units computes the lower central series of a unit
group with no Cayley table, from a greedy generating set S taken in
position order: each term is the normal closure of the commutators of the
last term's generators with S (_normal_closure).  Its closures grow one
generator at a time by right cosets, one product per new member (_Closure).
non_engel_scan (the lex-first pair) and find_non_engel_pair (seeded pairs)
share one loop (_first_non_engel_pair), which runs their batches of Engel
orbits through groups.first_non_engel, which also runs G's own: each until
it reaches 1 or, by Brent's rule, comes back to the state it saved after
steps 1, 2, 4, ..., so a pair is decided exactly in constant state.  The verdict needs these three only when G is nilpotent and
not abelian, on V and V* or on the unit groups of the blocks: G is a
subgroup of V* and V, so an abelian G makes them abelian, and a non-Engel
pair of G's own table proves them non-nilpotent.
All three move through U by batched products, each checked to be a member,
with independent batches fused into one _products call, and form their
commutators by one kernel (_commutators); inverses solve x y = 1 in
batched eliminations (_inverses): the lex scan solves every member's once,
the seeded search each batch's, and the series takes those of its
commutators from the same products.  closure_subgroup closes generators
under products alone (u^-1 is a power of u), one breadth-first level per
multiply, with its members kept as sorted codes; as_abstract_group turns a
unit set into a Cayley-table group.

Those constructors yield groups, so a UnitGroup is not checked when built;
closure is proven by the product-table loop _product_rows.

A UnitGroup keeps its members group axis first, as one read-only
C-contiguous (n, |U|) array, UnitGroup.columns, because the work on them is
columnar: _decode writes each digit into one contiguous stretch of its row;
_unitary_rows, _products and _product_rows take the columns they need
straight to unitary_mask and multiply, whose first axis is the group, and
_inverses gathers its regular matrices batch-last, as batch_solve lays them
out, with no transposed copy.  UnitGroup.vectors is the same array as rows,
the view columns.T, for callers that read one member at a time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import groups as gr
from ._gflinalg import (batch_invertible_mask, batch_solve, int_dtype, integer_array, mod_p,
                        residues, row_reduce, work_dtype)
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

    ``columns`` is a read-only, C-contiguous (n, |U|) array of residues in
    int_dtype(p - 1), int8 for p <= 128: column j is the member at position
    j, group axis first, which is the layout multiply, unitary_mask and
    _decode read and write.  ``vectors`` is the same array as (|U|, n) rows,
    the view columns.T, for callers that want one member per row.
    Arithmetic on either must cast first: ``V.vectors + p`` wraps in int8
    once p >= 64.  Members are looked up by their mixed-radix codes
    sum_i v_i p^(n-1-i) in one sorted code array: int64 when n log2 p < 62,
    Python ints otherwise.  Rows in strictly increasing order are
    transposed into columns once; others are sorted by code and decoded from
    the sorted codes.  A set built as codes takes the same step
    (_from_codes: enumerate_units, closure_subgroup), or keeps its sorted
    codes with their columns (filter_unitary), so no code is computed twice.
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
        codes = _codes(vectors, _code_weights(n, p))
        self._keep(algebra, codes, np.ascontiguousarray(vectors.T)
                   if (codes[1:] > codes[:-1]).all() else None)

    @classmethod
    def _from_codes(cls, algebra: GroupAlgebra, codes: np.ndarray,
                    columns: np.ndarray | None = None) -> "UnitGroup":
        """The unit group whose members have the mixed-radix codes ``codes``:
        strictly increasing with their C-contiguous columns ``columns``, or in
        any order."""
        U = cls.__new__(cls)
        U._keep(algebra, codes, columns)
        return U

    def _keep(self, algebra: GroupAlgebra, codes: np.ndarray, columns: np.ndarray | None
              ) -> None:
        """Keep the codes and their columns; without columns, sort the codes in
        place, refuse a repeated one and decode them."""
        if columns is None:
            codes.sort()
            if not (codes[1:] > codes[:-1]).all():
                raise ValueError("unit set contains duplicates")
            columns = _decode(codes, algebra.dim, algebra.p)
        self.algebra = algebra
        self._weights = _code_weights(algebra.dim, algebra.p)
        self._codes = codes
        columns.setflags(write=False)
        self.columns = columns
        self.vectors = columns.T
        pos = self.position_of_vector(algebra._one_vec) if codes.size else -1
        if pos < 0:
            raise ValueError("unit set does not contain 1")
        self.one_position = pos

    def __len__(self) -> int:
        return self.columns.shape[1]

    def element(self, i: int) -> AlgebraElement:
        """The member at position i; raises ValueError outside [0, |U|), so
        that the -1 of index_of for an absent element is not read as the
        last member."""
        if not 0 <= i < len(self):
            raise ValueError(f"position {i} out of range for {len(self)} units")
        return AlgebraElement(self.algebra, self.columns[:, i].astype(np.int64))

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
    members = U.columns
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
    """The C-contiguous (n, k) columns in int_dtype(p - 1) whose codes, each
    below p^n, are ``codes``: row 0 holds the most significant base-p digit,
    so the columns of [p^j, 2p^j) are the vectors whose first nonzero
    coordinate, at n-1-j, is 1, one per scalar class (unit_blocks).  One
    digit at a time from the least significant, _CHUNK codes at a time, each
    digit written into one contiguous stretch of its row; numpy vectorises
    floor division by a scalar but not the remainder, so the digit is
    x - (x // p) * p.  The digits are taken in int32 when n log2 p < 31,
    where every code fits, and in the codes' own type otherwise."""
    narrow = n * np.log2(p) < 31
    out = np.empty((n, len(codes)), dtype=int_dtype(p - 1))
    for lo in range(0, len(codes), _CHUNK):
        x = codes[lo:lo + _CHUNK].astype(np.int32) if narrow else codes[lo:lo + _CHUNK]
        for i in range(n - 1, -1, -1):
            q = x // p
            out[i, lo:lo + _CHUNK] = x - q * p
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
    the blocks, and x is a unit of FQ*f exactly when v -> x*v is invertible
    on FQ*f.  f = f*, so f[_ldiv] (row g is g*f) is symmetric, and its rows
    h*f, h in its pivots P, are a basis of FQ*f; as x*h*f = x*h, the map reads
    M[i, j] = x[P_i P_j^-1] in the coordinates v[P] (batch_invertible_mask).

    x is a unit exactly when lambda*x is, for every lambda in F_p^*, so the
    elimination runs on one coordinate vector per scalar class: the one
    whose first nonzero coordinate is 1, decoded (_decode) from an index in
    the union over j of [p^j, 2p^j).  Each unit c @ rows among them gives
    its p - 1 multiples.  Raises BudgetExceeded (carrying the required
    count) when sum_B p^dim(B) > cap, before any elimination.
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
    return [UnitBlock(f, rows, pivots, _units_of_block(algebra, rows, pivots))
            for f, rows, pivots in bases]


def _units_of_block(algebra: GroupAlgebra, rows: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """UnitBlock.units of the block with basis rows and pivots: one elimination per
    scalar class of coordinate vectors (see unit_blocks), lambda-major multiples."""
    p, d = algebra.p, rows.shape[0]
    reps = np.concatenate([np.arange(p ** j, 2 * p ** j, dtype=np.int64) for j in range(d)])
    on_block = algebra.div[np.ix_(pivots, pivots)]  # M[i, j] = x[P_i P_j^-1]
    lam = np.arange(1, p, dtype=work_dtype(p))[:, None, None]
    parts = []
    for lo in range(0, reps.size, _CHUNK):
        x = mod_p(_decode(reps[lo:lo + _CHUNK], d, p).T @ rows, p).astype(int_dtype(p - 1))
        x = x[batch_invertible_mask(x[:, on_block], p)]
        parts.append(mod_p(lam * x, p).astype(int_dtype(p - 1)).reshape(-1, x.shape[1]))
    return np.concatenate(parts)


def _image_units(algebra: GroupAlgebra, cap: int | None = None
                 ) -> tuple[GroupAlgebra, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """V's image in FQ, Q = G/O_p(G): the algebra FQ, the coset of each
    element of G, and for each block B of FQ (unit_blocks, with its
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
    Q, coset = gr.quotient(algebra._p_core())
    QA = GroupAlgebra(Q, p)
    blocks = [(b.idempotent,
               b.units[b.units.sum(axis=1, dtype=np.int64) % p == b.idempotent.sum() % p])
              for b in unit_blocks(QA, cap=cap)]
    return QA, coset, blocks


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
    _CHUNK units, and handed to UnitGroup, which sorts them, decodes them
    once and keeps both.  A tile stays in the residues' narrow type:
    -S mod p is taken once per block of free digits, coset-major, and an
    image unit's digits are summed over the blocks unreduced, so each
    I_q - S_q mod p is one mod_p of at most (blocks + 1)(p - 1) in
    int_dtype of that bound; einsum widens the digits to the weights' type
    through a small buffer as it forms the codes.
    For N = 1 the quotient is G itself.  Where only the order is wanted,
    block_units counts it from the same blocks.  Raises BudgetExceeded
    (carrying the required count) when p^(dim-1) > cap.  ``seed`` is unused.
    """
    n = algebra.dim
    p = algebra.p
    required = p ** (n - 1)
    if required > cap:
        raise BudgetExceeded(
            f"enumeration needs {required} candidates, cap is {cap}", required)
    QA, coset, blocks = _image_units(algebra)
    m = QA.dim
    reps = np.unique(coset, return_index=True)[1]  # the least member of each coset
    free = np.setdiff1d(np.arange(n), reps)
    in_coset = np.zeros((m, free.size), dtype=np.int64)
    in_coset[coset[free], np.arange(free.size)] = 1
    weights = _code_weights(n, p)
    # a digit of each block's unit plus one of -S mod p
    narrow = int_dtype((len(blocks) + 1) * (p - 1))
    n_image, n_free = math.prod(len(x) for _, x in blocks), p ** free.size
    codes = np.empty((n_image, n_free), dtype=weights.dtype)
    # tiles of at most _CHUNK units: a block of image units by a block of free digits
    d_step = min(n_free, _CHUNK)
    i_step = max(1, _CHUNK // d_step)
    for d_lo in range(0, n_free, d_step):
        digits = _decode(np.arange(d_lo, min(d_lo + d_step, n_free)), free.size, p)
        free_codes = _codes(digits.T, weights[free])
        # -S mod p, where S is the sum of the free digits in each coset, coset-major
        neg_sums = mod_p(-(in_coset @ digits), p).astype(narrow)
        for i_lo in range(0, n_image, i_step):
            idx = np.arange(i_lo, min(i_lo + i_step, n_image), dtype=np.int64)
            image = np.zeros((idx.size, m, 1), dtype=narrow)
            for _, x in blocks:
                idx, i = np.divmod(idx, len(x))
                image[:, :, 0] += x[i]
            last = mod_p(image + neg_sums, p)
            codes[i_lo:i_lo + i_step, d_lo:d_lo + d_step] = (
                free_codes + np.einsum("imd,m->id", last, weights[reps]))
    return UnitGroup._from_codes(algebra, codes.reshape(-1))


def _skew_dim(X: gr.FiniteGroup) -> int:
    """k(X) = (|X| - #{x : x^2 = 1}) / 2, the dimension over GF(p), p odd, of
    the skew elements x* = -x of FX: one g - g^-1 for each pair g != g^-1."""
    return (X.order - int(np.count_nonzero(X.inv == np.arange(X.order)))) // 2


def block_units(algebra: GroupAlgebra, cap: int = ENUMERATION_CAP
                ) -> tuple[int, int, list[tuple[np.ndarray, np.ndarray]]]:
    """|V| and |V*| for odd p, and for p = 2 when O_2(G) = 1, counted by the
    block laws without building either group, and the units of the blocks
    of FQ.

    The blocks come as pairs, one for each block B of unit_blocks in its
    order: the rows x + 1 - f_B for the units x of B with aug(x) =
    aug(f_B), as vectors of FQ in int_dtype(p - 1), and the mask of the
    unitary rows.  Outside the principal block that is every unit of B, and
    the rows, of augmentation 1, are a group isomorphic to U(B), their
    unitary ones to U*(B); the principal block has |U(B)| / (p - 1) rows.

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
    _unitary_rows.  Since x_B (1 - f_B) = 0, (x + 1 - f_B)(y + 1 - f_B) =
    xy + 1 - f_B, so the map x -> x + 1 - f_B is an isomorphism from the
    units of B onto a group of units of FQ.  Raises BudgetExceeded when
    sum_B p^dim(B) > cap, before any elimination, and PreconditionViolated
    at p = 2 when O_2(G) != 1, where |V*| has no such law.
    """
    G, p = algebra.group, algebra.p
    QA, _, blocks = _image_units(algebra, cap)
    if p == 2 and algebra._p_core().order > 1:
        raise PreconditionViolated("at p = 2 the unit count laws need O_2(G) = 1")
    Q = QA.group
    shifted = [((u + (QA._one_vec - f)) % p).astype(u.dtype) for f, u in blocks]
    unitary = np.split(_unitary_rows(QA, np.concatenate(shifted).T),
                       np.cumsum([len(u) for u in shifted[:-1]]))
    v_order = p ** (G.order - Q.order) * math.prod(len(u) for u in shifted)
    vstar_order = p ** (_skew_dim(G) - _skew_dim(Q)) * math.prod(
        int(np.count_nonzero(mask)) for mask in unitary)
    return v_order, vstar_order, list(zip(shifted, unitary))


def _unitary_rows(algebra: GroupAlgebra, columns: np.ndarray) -> np.ndarray:
    """algebra.unitary_mask of each column of the (n, k) array columns,
    tested in blocks of _CHUNK columns, which bounds the temporaries.
    unitary_mask copies each block once, into its narrow type."""
    mask = np.empty(columns.shape[1], dtype=bool)
    for lo in range(0, columns.shape[1], _CHUNK):
        mask[lo:lo + _CHUNK] = algebra.unitary_mask(columns[:, lo:lo + _CHUNK])
    return mask


def filter_unitary(V: UnitGroup, seed: int = 0) -> UnitGroup:
    """The members with u* u = 1 (_unitary_rows), a subgroup of V.  Members of V
    are normalized, so augmentation needs no test.  ``seed`` is unused."""
    mask = _unitary_rows(V.algebra, V.columns)
    # np.compress keeps the columns C-contiguous; columns[:, mask] does not
    return UnitGroup._from_codes(V.algebra, V._codes[mask],
                                 np.compress(mask, V.columns, axis=1))


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
        prod = alg.multiply(_decode(level, n, p)[:, :, None], right)
        codes = np.unique(_codes(prod.reshape(n, -1).T, weights))
        at = np.minimum(np.searchsorted(seen, codes), seen.size - 1)  # seen holds 1
        level = codes[seen[at] != codes]
        if seen.size + level.size > cap:
            raise BudgetExceeded(f"closure exceeds cap {cap}", cap + 1)
        seen = np.union1d(seen, level)
    return UnitGroup._from_codes(alg, seen)


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
        # np.take keeps the gathered columns C-contiguous; columns[:, idx] does not
        prod = U.algebra.multiply(np.take(U.columns, a[lo:lo + _CHUNK], axis=1),
                                  np.take(U.columns, b[lo:lo + _CHUNK], axis=1))
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
    """Positions of the inverses of the members at int64 positions a: x y = 1 is
    regular_matrix(x) @ y = 1, solved by batch_solve on _CHUNK // |G| members at
    a time.  Raises ValueError when a matrix is singular or y is not a member."""
    A = U.algebra
    out = np.empty(a.shape, dtype=np.int64)
    step = max(1, _CHUNK // A.dim)
    for lo in range(0, a.size, step):
        # [i, j, k] = x_k[div[i, j]]: batch_solve's own batch-last layout, as a view
        mats = np.take(U.columns, a[lo:lo + step], axis=1)[A.div].transpose(2, 0, 1)
        mask, y = batch_solve(mats, A.p, A._one_vec)
        out[lo:lo + step] = pos = U.positions_of(y)
        if not mask.all() or (pos < 0).any():
            raise ValueError("unit set not closed under inverses")
    return out


class _Closure:
    """A subgroup of U, grown one generator at a time by right cosets of the
    subgroup H closed before it (Dimino; Butler, LNCS 559, 1991): h r s lies
    in the coset of r s, so a new member costs one product h r, and only
    representatives r are moved by the generators.  One _products call
    takes the cosets and moves of at most _CHUNK // |H| candidates; those
    sharing a coset are told apart by its least position.  A generator lies
    outside H, so it at least doubles the closure."""

    def __init__(self, U: UnitGroup):
        self.U = U
        self.inside = np.zeros(len(U), dtype=bool)
        self.inside[U.one_position] = True
        self.members = [np.array([U.one_position], dtype=np.int64)]
        self.size = 1
        self.gens = np.empty(0, dtype=np.int64)

    def grow(self, xs: np.ndarray) -> None:
        """While some position in xs lies outside, the first becomes the next generator."""
        U, rest = self.U, xs[~self.inside[xs]]
        while rest.size:
            todo, self.gens = rest[:1], np.append(self.gens, rest[0])
            H = np.concatenate(self.members)
            step = max(1, _CHUNK // H.size)
            while todo.size:
                c, todo = todo[:step], todo[step:]
                cosets, moved = _fused_products(
                    U, (np.tile(H, c.size), np.repeat(c, H.size)),
                    (np.repeat(c, self.gens.size), np.tile(self.gens, c.size)))
                cosets = cosets.reshape(c.size, H.size)
                first = np.unique(cosets.min(axis=1), return_index=True)[1]
                self.inside[cosets[first]] = True
                self.members.append(cosets[first].ravel())
                self.size += first.size * H.size
                todo = np.concatenate([todo, moved.reshape(c.size, -1)[first].ravel()])
                todo = np.unique(todo[~self.inside[todo]])
            rest = rest[~self.inside[rest]]


def _commutators(U: UnitGroup, x: np.ndarray, y: np.ndarray, x_inv: np.ndarray,
                 y_inv: np.ndarray) -> list[np.ndarray]:
    """The positions of (x, y) = x^-1 y^-1 x y and of its inverse (y, x) for the
    pairs (x[k], y[k]): six products in two _products calls, four, then two."""
    xy_inv, xy, yx_inv, yx = _fused_products(U, (x_inv, y_inv), (x, y), (y_inv, x_inv), (y, x))
    return _fused_products(U, (xy_inv, xy), (yx_inv, yx))


def _normal_closure(U: UnitGroup, xs: np.ndarray, S: np.ndarray, inverse: np.ndarray
                    ) -> tuple[_Closure, np.ndarray]:
    """The normal closure N of xs in <S>, and the commutators [T, S] it forms.

    N is the subgroup generated by xs and by (g, s) for every generator g
    of N and s in S: g^s = g (g, s) lies in N, so N is normal, and (g, s)
    lies in every normal subgroup that holds g.  The commutators (g, s) are
    formed for the generators T of N in order, each against all of S, so
    they come out as those of np.repeat(T, |S|) with np.tile(S, |T|).
    ``inverse`` holds the inverses of S and xs, and takes those of the commutators."""
    N = _Closure(U)
    N.grow(xs)
    formed, done = [np.empty(0, dtype=np.int64)], 0
    while done < N.gens.size:
        g, s = np.repeat(N.gens[done:], S.size), np.tile(S, N.gens.size - done)
        done = N.gens.size
        commutators, inverse_commutators = _commutators(U, g, s, inverse[g], inverse[s])
        inverse[commutators] = inverse_commutators
        formed.append(commutators)
        N.grow(commutators)
    return N, np.concatenate(formed)


def lower_central_series_of_units(U: UnitGroup) -> list[np.ndarray]:
    """gamma_1 >= gamma_2 >= ... of U as sorted position arrays, computed from
    generators until a term is trivial or repeats.

    S is a greedy generating set, the generators of a closure grown from the
    members of U in position order (_Closure); the terms are subgroups, so
    they do not depend on S.  With T = S, the generators of gamma_1,
    gamma_(i+1) = [gamma_i, U] is the normal closure in U of {(t, s) : t in
    T, s in S} (Robinson, A Course in the Theory of Groups, 5.1), whose
    generators are the next T (_normal_closure): modulo [T, S] each t is
    central, so each of its conjugates commutes with U as well.  That
    closure forms [T, S] for its own generators, so only the first term's
    commutators are formed here.  The terms agree with
    groups.lower_central_series on the Cayley table of U.
    """
    m = len(U)
    H = _Closure(U)
    H.grow(np.arange(m, dtype=np.int64))
    S = H.gens
    inverse = np.empty(m, dtype=np.int64)  # set at S and at each commutator formed
    inverse[S] = _inverses(U, S)
    t, s = np.repeat(S, S.size), np.tile(S, S.size)
    commutators, inverse_commutators = _commutators(U, t, s, inverse[t], inverse[s])
    inverse[commutators] = inverse_commutators
    terms = [np.arange(m, dtype=np.int64)]
    while terms[-1].size > 1:
        N, commutators = _normal_closure(U, commutators, S, inverse)
        terms.append(np.sort(np.concatenate(N.members)))
        if N.size == terms[-2].size:
            break
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
    each orbit carrying z^-1, which _commutators gives as (y, z)."""
    def step(k, state):  # state: z, z^-1
        return np.stack(_commutators(U, state[0], y[k], state[1], y_inv[k]))

    return gr.first_non_engel(np.stack([x, x_inv]), U.one_position, step)


def _first_non_engel_pair(U: UnitGroup, count: int, pairs: Callable, inverse: Callable
                          ) -> tuple[AlgebraElement, AlgebraElement] | None:
    """The first of the pairs (x, y) = pairs(k), k = 0..count-1, of positions in
    U whose Engel orbit never reaches 1, or None: _first_non_engel on
    _ENGEL_BATCH pairs at a time, with their inverses' positions inverse(a)."""
    for lo in range(0, count, _ENGEL_BATCH):
        x, y = pairs(np.arange(lo, min(lo + _ENGEL_BATCH, count)))
        x_inv, y_inv = np.split(inverse(np.concatenate([x, y])), 2)
        k = _first_non_engel(U, x, y, x_inv, y_inv)
        if k < x.size:
            return U.element(int(x[k])), U.element(int(y[k]))
    return None


def non_engel_scan(U: UnitGroup) -> tuple[AlgebraElement, AlgebraElement] | None:
    """The first pair (x, y) of positions in row-major order whose orbit
    z <- (z, y) from z = x never reaches 1: the first pair engel_test calls
    nontrivial.

    A finite Engel group is nilpotent (Zorn), so on a non-nilpotent U the
    scan always returns a pair.
    """
    m = len(U)
    inv = _inverses(U, np.arange(m))
    return _first_non_engel_pair(U, m * m, lambda k: np.divmod(k, m), lambda a: inv[a])


def find_non_engel_pair(U: UnitGroup, budget: int = ENGEL_BUDGET, seed: int = 0
                        ) -> tuple[AlgebraElement, AlgebraElement] | None:
    """Seeded random search for a pair witnessing non-nilpotency.

    Draws ``budget`` pairs (x, y) uniformly from U and returns the first whose
    Engel orbit never reaches 1, with the inverses of each batch from
    _inverses; each drawn pair is decided exactly.  None means that no drawn
    pair is non-Engel; it is not a proof that every pair is Engel.
    """
    rng = random.Random(seed)
    draws = np.array([rng.randrange(len(U)) for _ in range(2 * budget)], dtype=np.int64)
    pairs = draws.reshape(-1, 2)  # drawn x, then y, for each attempt
    return _first_non_engel_pair(U, budget, lambda k: pairs[k].T, lambda a: _inverses(U, a))
