"""Group-algebra arithmetic: exact ring laws, involution, hat, invertibility."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modunits as m
from modunits import _gflinalg as _gf
from modunits.errors import (ContextMismatch, ModunitsError, NotIntegral, OrderMismatch,
                             ShapeMismatch)


def alg(spec, p):
    return m.GroupAlgebra(m.build_group(m.parse_group_spec(spec)), p)


F2C2 = alg("catalog:C,2", 2)
F3C3 = alg("catalog:C,3", 3)
F3S3 = alg("catalog:S3", 3)
F2Q8 = alg("catalog:Q8", 2)


def regular_matrix_oracle(a):
    """Definitional left-multiplication matrix: M[g*h, h] += a[g]."""
    G = a.algebra.group
    M = np.zeros((G.order, G.order), dtype=np.int64)
    for g in G.elements():
        for h in G.elements():
            M[G.mul[g, h], h] += int(a.coeffs[g])
    return M % a.algebra.p


# ---------------------------------------------------------------------------
# embed / add / mul

def test_embed_identity_is_one():
    assert F3S3.embed(F3S3.group.identity) == F3S3.one()


def test_embed_multiplicative():
    G = F3S3.group
    rng = np.random.default_rng(1)
    for _ in range(50):
        g, h = rng.integers(0, G.order, 2)
        assert F3S3.embed(int(g)) * F3S3.embed(int(h)) == F3S3.embed(int(G.mul[g, h]))


def test_unit_laws():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = F3S3.random_element(rng)
        assert a + F3S3.zero() == a
        assert a * F3S3.one() == a
        assert F3S3.one() * a == a


def test_one_plus_g_squares_to_zero_in_char_2():
    g = F2C2.embed(1)
    u = F2C2.one() + g
    assert (u * u).is_zero()


def test_mul_matches_regular_matrix_oracle():
    rng = np.random.default_rng(3)
    for algebra in (F2C2, F3C3, F3S3, F2Q8):
        for _ in range(25):
            a = algebra.random_element(rng)
            b = algebra.random_element(rng)
            expected = regular_matrix_oracle(a) @ b.coeffs % algebra.p
            assert ((a * b).coeffs == expected).all()


@pytest.mark.parametrize("spec,p", [
    ("catalog:C,2", 2), ("catalog:Q8", 2), ("catalog:S3", 3), ("catalog:S3", 5),
    ("catalog:D,4", 7),
])
def test_multiply_matches_regular_matrix_oracle_in_every_shape(spec, p):
    algebra = alg(spec, p)
    rng = np.random.default_rng(5)
    elems = [algebra.random_element(rng) for _ in range(9)]
    many = np.stack([e.coeffs for e in elems], axis=1)  # (n, 9), group axis first
    oracles = [regular_matrix_oracle(e) for e in elems]
    # element x element
    for a, M in zip(elems, oracles):
        for b in elems:
            assert (algebra.multiply(a.coeffs, b.coeffs) == M @ b.coeffs % p).all()
    # one x many: an (n, 1) element against every column
    for a, M in zip(elems, oracles):
        assert (algebra.multiply(a.coeffs[:, None], many) == M @ many % p).all()
    # pairwise row block: column j is elems[j] * elems[8 - j]
    got = algebra.multiply(many, many[:, ::-1])
    for j, M in enumerate(oracles):
        assert (got[:, j] == M @ elems[8 - j].coeffs % p).all()


@pytest.mark.parametrize("spec,p", [
    ("catalog:S3", 2), ("catalog:S3", 5), ("catalog:Q8", 3), ("catalog:A4", 7),
])
def test_multiply_matches_the_oracle_either_side_of_the_width_cap(spec, p):
    # one element on the left is one matmul up to |G| columns and the loop
    # above; pairs and one element on the right are always the loop
    algebra = alg(spec, p)
    n = algebra.dim
    rng = np.random.default_rng(n * p)
    for width in (n - 1, n, n + 1):
        a, b = rng.integers(0, p, size=(n, width)), rng.integers(0, p, size=(n, width))
        left = [regular_matrix_oracle(algebra.from_coeffs(col)) for col in a.T]
        # one element on the left: a_0 * b_j
        assert (algebra.multiply(a[:, :1], b) == left[0] @ b % p).all()
        # one element on the right: a_j * b_0
        right = np.stack([M @ b[:, 0] for M in left], axis=1) % p
        assert (algebra.multiply(a, b[:, :1]) == right).all()
        # pairs: a_j * b_j
        pairs = np.stack([M @ col for M, col in zip(left, b.T)], axis=1) % p
        assert (algebra.multiply(a, b) == pairs).all()
    # both operands broadcast: entry [:, i, j] is a_i * b_j
    a, b = rng.integers(0, p, size=(n, 2)), rng.integers(0, p, size=(n, 3))
    got = algebra.multiply(a[:, :, None], b[:, None, :])
    assert got.shape == (n, 2, 3)
    for i, col in enumerate(a.T):
        assert (got[:, i, :] == regular_matrix_oracle(algebra.from_coeffs(col)) @ b % p).all()


@pytest.mark.parametrize("p", [2, 3])
def test_pairs_above_the_gather_cap_take_the_loop_and_match_the_oracle(p):
    # |G| = 128: the regular matrices of 64 pairs hold 128^2 * 64 = 2^20
    # entries, and of 65 more; pairs take the loop at any width
    algebra = m.GroupAlgebra(m.build_group(m.parse_group_spec("catalog:C,128"), cap=128), p)
    n = algebra.dim
    rng = np.random.default_rng(p)
    for width in (64, 65):
        a, b = rng.integers(0, p, size=(n, width)), rng.integers(0, p, size=(n, width))
        pairs = np.stack([regular_matrix_oracle(algebra.from_coeffs(x)) @ y
                          for x, y in zip(a.T, b.T)], axis=1) % p
        assert (algebra.multiply(a, b) == pairs).all()


# the primes either side of each step of the kernel's integer type at |G| = 4,
# where it accumulates sums of up to 4*(p-1)^2
@pytest.mark.parametrize("p,dtype", [
    (5, np.int8), (7, np.int16), (89, np.int16), (97, np.int32),
    (23167, np.int32), (23173, np.int64),
])
def test_multiply_is_exact_at_every_integer_type_boundary(p, dtype):
    from modunits._gflinalg import int_dtype

    assert int_dtype(4 * (p - 1) ** 2) is dtype
    F = alg("catalog:C,4", p)
    top = np.full(4, p - 1, dtype=np.int64)  # every partial sum reaches the bound
    # at width 3 one element on the left takes the matmul path, at width 5
    # (above |G| = 4) the loop; pairs and one element on the right take the loop
    for width in (3, 5):
        many = np.full((4, width), p - 1, dtype=np.int64)
        shapes = [(top, top), (top[:, None], many), (many, top[:, None]), (many, many)]
        for a, b in shapes:
            got = F.multiply(a, b)
            assert got.dtype == np.int64
            assert (got == 4 * (p - 1) ** 2 % p).all()  # (p-1)^2 * |G| in each coefficient
    rng = np.random.default_rng(p)
    for width in (3, 5):
        a, b = rng.integers(0, p, size=(4, width)), rng.integers(0, p, size=(4, width))
        expected = F.multiply(a, b)
        for k in (-1, 2**7 // p + 1, 2**15 // p + 1, 2**40 // p):
            shift = k * p * rng.integers(-1, 2, size=(4, width))  # unreduced, some negative
            assert (F.multiply(a + shift, b - shift) == expected).all()
            for j in range(width):
                assert (F.multiply(a[:, j] + shift[:, j], b[:, j]) == expected[:, j]).all()


# the primes either side of the kernel's bound |G|*(p-1)^2 < 2^63 at |G| = 4
P_BELOW, P_ABOVE = 1518500213, 1518500279


def test_products_stay_exact_up_to_the_int64_bound():
    assert 4 * (P_BELOW - 1) ** 2 < 2**63 <= 4 * (P_ABOVE - 1) ** 2
    F = alg("catalog:C,4", P_BELOW)
    a = F.from_coeffs([P_BELOW - 1] * 4)  # -(1 + g + g^2 + g^3)
    assert (a * a).coeffs.tolist() == [4] * 4
    big = 2**64 + 3  # reduced mod p before it multiplies
    assert (a * big).coeffs.tolist() == [(P_BELOW - 1) * big % P_BELOW] * 4
    assert big * a == a * (big % P_BELOW)


@pytest.mark.parametrize("p", [P_ABOVE, 2147483647])
def test_algebra_refuses_primes_past_the_int64_bound(p):
    with pytest.raises(m.errors.AlgebraTooLarge, match="2\\^63"):
        alg("catalog:C,4", p)
    assert issubclass(m.errors.AlgebraTooLarge, m.errors.ModunitsError)


def test_regular_matrix_property_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = F3S3.random_element(rng)
        assert (a.regular_matrix() % 3 == regular_matrix_oracle(a)).all()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=6, max_size=6),
       st.lists(st.integers(0, 2), min_size=6, max_size=6),
       st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_ring_axioms(av, bv, cv):
    a, b, c = (F3S3.from_coeffs(v) for v in (av, bv, cv))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        F2C2.one() + F3C3.one()
    with pytest.raises(ContextMismatch):
        F3C3.one() * F3S3.one()


def test_scalar_multiplication():
    a = F3C3.embed(1)
    assert (2 * a).coeffs[1] == 2
    assert 3 * a == F3C3.zero()


# ---------------------------------------------------------------------------
# augmentation

def test_augmentation_examples():
    assert F3S3.one().augmentation() == 1
    for g in F3S3.group.elements():
        assert F3S3.embed(g).augmentation() == 1


def test_augmentation_is_ring_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = F3S3.random_element(rng)
        b = F3S3.random_element(rng)
        assert (a + b).augmentation() == (a.augmentation() + b.augmentation()) % 3
        assert (a * b).augmentation() == (a.augmentation() * b.augmentation()) % 3


def test_augmentation_of_hat_is_zero():
    assert F3C3.hat(1).augmentation() == 0
    assert F2C2.hat(1).augmentation() == 0


# ---------------------------------------------------------------------------
# involution

def test_involution_fixes_one():
    assert F3S3.one().involution() == F3S3.one()


def test_involution_laws():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = F3S3.random_element(rng)
        b = F3S3.random_element(rng)
        assert a.involution().involution() == a
        assert (a * b).involution() == b.involution() * a.involution()
        assert a.involution().augmentation() == a.augmentation()


def test_involution_moves_coefficient_to_inverse():
    G = F3S3.group
    for g in G.elements():
        assert F3S3.embed(g).involution() == F3S3.embed(int(G.inv[g]))


# ---------------------------------------------------------------------------
# hat

def test_hat_char2():
    h = F2C2.hat(1)
    assert h == F2C2.one() + F2C2.embed(1)
    assert (h * h).is_zero()


def test_hat_char3():
    h = F3C3.hat(1)
    assert (h * h).is_zero()
    assert h.support() == (0, 1, 2)


def test_hat_rejects_wrong_order():
    with pytest.raises(OrderMismatch):
        F3S3.hat(F3S3.group.identity)  # order 1
    with pytest.raises(OrderMismatch):
        alg("catalog:C,4", 2).hat(1)  # order 4 at p = 2


def test_hat_rejects_indices_outside_the_group():
    A = alg("prod:catalog:S3|catalog:C,3", 3)
    for bad in (-16, -1, A.group.order, A.group.order + 5):
        with pytest.raises(ValueError, match="out of range"):
            A.hat(bad)
    assert A.hat(2).support() == (0, 1, 2)  # -16 + |G| = 2, which stays accepted


def test_hat_central_when_element_central():
    A = alg("prod:catalog:S3|catalog:C,3", 3)
    c = m.central_order_p_elements(A.group, 3)[0]
    h = A.hat(c)
    for x in A.group.elements():
        e = A.embed(x)
        assert h * e == e * h


# ---------------------------------------------------------------------------
# invertibility

def test_try_inverse_of_one():
    assert F3S3.one().try_inverse() == F3S3.one()


def test_try_inverse_square_zero_is_none():
    u = F2C2.one() + F2C2.embed(1)
    assert u.try_inverse() is None


def test_try_inverse_recheck():
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(100):
        a = F3S3.random_element(rng)
        b = a.try_inverse()
        if b is not None:
            found += 1
            assert (a * b).is_one() and (b * a).is_one()
    assert found > 10


def exhaustive_inverse_search(a):
    """Try every coefficient vector as a right inverse."""
    algebra = a.algebra
    n = algebra.dim
    hits = []
    for combo in itertools.product(range(algebra.p), repeat=n):
        b = algebra.from_coeffs(list(combo))
        if (a * b).is_one():
            hits.append(b)
    return hits


def _span(mat, p):
    """Every combination of the rows of mat, as a set of tuples."""
    return {tuple(np.array(c) @ mat % p)
            for c in itertools.product(range(p), repeat=mat.shape[0])}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_reduce_is_a_reduced_echelon_basis_of_the_row_space(p):
    from modunits._gflinalg import row_reduce

    rng = np.random.default_rng(p)
    for shape in ((3, 5), (5, 3), (4, 4)):
        for rank in range(min(shape) + 1):
            mat = rng.integers(0, p, size=(shape[0], rank)) @ rng.integers(
                0, p, size=(rank, shape[1])) % p
            rows, pivots = row_reduce(mat, p)
            assert len(rows) == len(pivots)
            assert (np.diff(pivots) > 0).all()
            assert (rows[:, pivots] == np.eye(len(pivots), dtype=rows.dtype)).all()
            for r, col in zip(rows, pivots):
                assert not r[:col].any()
            assert _span(rows, p) == _span(mat, p)


def test_gflinalg_reduces_before_it_narrows():
    from modunits._gflinalg import batch_invertible_mask, row_reduce

    zero = np.array([[2**31 + 1]])  # 0 mod 3, but not once cast to int32
    assert batch_invertible_mask(zero[None], 3).tolist() == [False]
    assert row_reduce(zero, 3)[1].size == 0


def test_residues_keeps_an_in_range_input_narrow_and_reduces_negative_entries():
    from modunits._gflinalg import residues

    small = np.ones(1 << 20, dtype=np.int8)
    tracemalloc.start()
    try:
        out = residues(small, 3, np.int8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.int8 and (out == 1).all()
    assert peak < 2 * small.nbytes  # the narrow copy, and no int64 temporary
    got = residues(np.array([-128, -3, -1, 0, 5, 127], dtype=np.int8), 3, np.int8)
    assert got.dtype == np.int8 and got.tolist() == [1, 0, 2, 0, 2, 1]
    # a transposed view comes back in one C-contiguous copy, read row by row
    view = np.arange(12, dtype=np.int8).reshape(3, 4).T
    out = residues(view, 5, np.int16)
    assert out.flags.c_contiguous and (out == view % 5).all()


@pytest.mark.parametrize("call", [
    lambda: _gf.residues(np.array([1.5, 0.0]), 2, np.int8),
    lambda: _gf.row_reduce(np.array([[1.5, 0.0]]), 2),
    lambda: _gf.batch_invertible_mask(np.array([[[1.5]]]), 2),
    lambda: F2C2.multiply(np.array([2.5, 0.0]), np.array([1, 0])),
    lambda: F2C2.from_coeffs([1.5, 0]),
], ids=["residues", "row_reduce", "batch_invertible_mask", "multiply", "from_coeffs"])
def test_non_integer_input_is_refused(call):
    # truncating would read 1.5 as 1 and 2.5 as 2
    with pytest.raises(NotIntegral) as err:
        call()
    assert isinstance(err.value, ModunitsError) and isinstance(err.value, ValueError)


def test_unsigned_input_of_2_pow_63_and_above_is_reduced_exactly():
    top = np.array([2**64 - 1, 2**63], dtype=np.uint64)  # 0 and 2 mod 3; 1 and 0 mod 2
    assert _gf.residues(top, 3, np.int8).tolist() == [0, 2]
    assert F3C3.from_coeffs(np.array([2**64 - 1, 2**63, 1], dtype=np.uint64)).coeffs.tolist() \
        == [0, 2, 1]
    V = m.enumerate_units(F2C2)
    assert V.positions_of(top[None, :]).tolist() == [V.position_of_vector([1, 0])]


def test_from_coeffs_refuses_a_wrong_length_before_the_dtype():
    with pytest.raises(ShapeMismatch, match="must have length 2") as err:
        F2C2.from_coeffs([])
    assert isinstance(err.value, ModunitsError) and isinstance(err.value, ValueError)


_B = np.arange(6)


@pytest.mark.parametrize("a,b", [
    (np.array([2]), _B),                      # the first axis of a is not the group
    (_B, np.array([1, 2])),                   # nor that of b
    (np.array(2), _B),                        # a scalar has no group axis
    (_B, np.array(1)),
    (np.ones((6, 6), dtype=np.int64), _B),    # one more axis in a than in b
    (_B[:, None], np.ones((6, 6, 1), dtype=np.int64)),
    (np.ones((6, 2), dtype=np.int64), np.ones((6, 3), dtype=np.int64)),  # do not broadcast
], ids=["a-short", "b-short", "a-scalar", "b-scalar", "a-more-axes", "b-more-axes",
        "trailing"])
def test_multiply_refuses_a_shape_that_does_not_fit(a, b):
    # at the parent, (2,) x (6,) in GF(3)[S3] returned 2*b, and (6, 6) x (6,)
    # paired the columns of a with the group axis of b
    with pytest.raises(ShapeMismatch) as err:
        F3S3.multiply(a, b)
    assert isinstance(err.value, ModunitsError) and isinstance(err.value, ValueError)


# work_dtype moves from int8 to int16 between 11 and 13, and to int32 between 181 and 191
_WIDENING_PRIMES = [11, 13, 181, 191]


@pytest.mark.parametrize("p", [3, 101] + _WIDENING_PRIMES)
def test_gflinalg_ignores_multiples_of_p_in_its_input(p):
    from modunits._gflinalg import batch_invertible_mask, row_reduce

    rng = np.random.default_rng(p)
    for n in (4, 12):
        mats = rng.integers(0, p, size=(64, n, n))
        mats[::2, n - 1] = (mats[::2, 0] + mats[::2, 1]) % p  # half are singular
        # negative entries, and entries past int8, int16 and int32
        k = rng.choice([-(2**33 // p), -1, 2**7 // p + 1, 2**15 // p + 1, 2**31 // p + 1],
                       size=mats.shape)
        raw = mats + k * p
        mask = batch_invertible_mask(mats, p)
        assert 0 < mask.sum() < mask.size
        assert (batch_invertible_mask(raw, p) == mask).all()
        rhs = rng.integers(0, p, size=n)
        solved, y = _gf.batch_solve(mats, p, rhs)
        got_mask, got_y = _gf.batch_solve(raw, p, rhs + rng.integers(-3, 4, size=n) * p)
        assert (got_mask == solved).all() and (got_y[solved] == y[solved]).all()
        for M, R in zip(mats[:8], raw[:8]):
            for got, want in zip(row_reduce(R, p), row_reduce(M, p)):
                assert (got == want).all()


def _zero_diagonal_stacks(rng, p, n, count):
    """Stacks of count matrices with every diagonal entry 0, so no pivot is in
    place: a cyclic shift of the rows scaled by nonzero residues, which when
    invertible sends every column but the last through the pivot fix, a random derangement
    scaled the same way, and for even n the block-antidiagonal [[0, A], [B, 0]].
    The second half of each stack has a zero last row."""
    stacks = []
    scale = rng.integers(1, p, size=(count, n))
    shift = np.zeros((count, n, n), dtype=np.int64)
    shift[:, np.arange(n), (np.arange(n) + 1) % n] = scale
    stacks.append(shift)
    perm = np.array([rng.permutation(n) for _ in range(count)])
    while (bad := (perm == np.arange(n)).any(axis=1)).any():
        perm[bad] = [rng.permutation(n) for _ in range(bad.sum())]
    derange = np.zeros((count, n, n), dtype=np.int64)
    derange[np.arange(count)[:, None], np.arange(n), perm] = scale
    stacks.append(derange)
    if n % 2 == 0:
        h = n // 2
        anti = np.zeros((count, n, n), dtype=np.int64)
        anti[:, :h, h:] = rng.integers(0, p, size=(count, h, h))
        anti[:, h:, :h] = rng.integers(0, p, size=(count, h, h))
        stacks.append(anti)
    for mats in stacks:
        mats[count // 2:, -1] = 0
    return stacks


@pytest.mark.parametrize("p", [2, 3, 5, 65537] + _WIDENING_PRIMES)
def test_batch_solve_agrees_with_row_reduce(p):
    # half of each stack is singular: its last row is a combination of two others
    rng = np.random.default_rng(p)
    zero_rng = np.random.default_rng(p + 1)  # the stacks with a zero diagonal
    for n in (1, 2, 5, 9, 12):
        mats = rng.integers(0, p, size=(60, n, n))
        if n > 1:
            mats[::2, -1] = (3 * mats[::2, 0] + mats[::2, -2]) % p
        cases = [(mats, rng.integers(0, p, size=(60, n)))]
        cases += [(z, zero_rng.integers(0, p, size=(60, n)))
                  for z in (_zero_diagonal_stacks(zero_rng, p, n, 60) if n > 1 else [])]
        for mats, rhs in cases:
            mask, y = _gf.batch_solve(mats, p, rhs)
            assert mask.tolist() == [_gf.row_reduce(M, p)[1].size == n for M in mats]
            assert (_gf.batch_invertible_mask(mats, p) == mask).all()
            assert _gf.batch_solve(mats, p)[1] is None
            assert y.dtype == np.int64 and ((0 <= y) & (y < p)).all()
            solved = np.einsum("kij,kj->ki", mats.astype(object), y.astype(object)) % p
            assert (solved[mask] == rhs[mask]).all()
            assert 0 < mask.sum() < mask.size or n == 1
            for M, b, x in zip(mats[mask][:4], rhs[mask][:4], y[mask][:4]):
                # the one solution, read off the reduced form of [M | b]
                rows, pivots = _gf.row_reduce(np.concatenate([M, b[:, None]], axis=1), p)
                assert pivots.tolist() == list(range(n)) and (rows[:, n] == x).all()


@pytest.mark.parametrize("with_rhs", [False, True], ids=["mask", "solve"])
def test_batch_solve_runs_as_many_steps_for_any_stack_size(monkeypatch, with_rhs):
    # a clock-free guard: the kernel's Python-level work depends on n and p,
    # not on the number of matrices
    calls = 0
    mod_p = _gf.mod_p

    def counted(x, p):
        nonlocal calls
        calls += 1
        return mod_p(x, p)

    monkeypatch.setattr(_gf, "mod_p", counted)
    rng = np.random.default_rng(5)
    counts = []
    for N in (1, 20_000):
        calls = 0
        _gf.batch_solve(rng.integers(0, 7, size=(N, 6, 6)), 7,
                        rng.integers(0, 7, size=6) if with_rhs else None)
        counts.append(calls)
    assert counts[0] > 0 and counts[0] == counts[1]


def test_try_inverse_matches_exhaustive_search_tiny():
    for algebra in (F2C2, alg("catalog:C,2", 3), F3C3):
        n = algebra.dim
        for combo in itertools.product(range(algebra.p), repeat=n):
            a = algebra.from_coeffs(list(combo))
            hits = exhaustive_inverse_search(a)
            inv = a.try_inverse()
            if inv is None:
                assert hits == []
            else:
                assert hits == [inv]


@pytest.mark.parametrize("spec,p", [("catalog:S3", 101), ("catalog:C,6", 65521),
                                    ("catalog:Q8", 10007)])
def test_try_inverse_at_large_primes_is_two_sided_and_agrees_with_the_mask(spec, p):
    # row_reduce works in int16, int64 and int32 here; x(1 - g) is a zero divisor
    A = alg(spec, p)
    rng = np.random.default_rng(p)
    xs = [A.random_element(rng) for _ in range(24)]
    xs += [x * (A.one() - A.embed(g)) for x, g in zip(xs[:8], itertools.cycle(range(1, A.dim)))]
    mask = _gf.batch_invertible_mask(np.stack([x.regular_matrix() for x in xs]), p)
    assert 0 < mask.sum() < mask.size
    for x, is_unit in zip(xs, mask):
        inv = x.try_inverse()
        assert (inv is not None) == is_unit
        if inv is not None:
            assert (x * inv).is_one() and (inv * x).is_one()


def test_unit_group_is_closed_under_inverse_and_star():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = F2Q8.random_element(rng)
        if a.augmentation() != 1:
            continue
        inv = a.try_inverse()
        if inv is None:
            continue
        if a.is_unitary():
            assert inv == a.involution()
            assert inv.is_unitary()


# ---------------------------------------------------------------------------
# unitarity and support

def test_group_elements_are_unitary():
    for algebra in (F2C2, F3S3, F2Q8):
        for g in algebra.group.elements():
            assert algebra.embed(g).is_unitary()


def test_one_plus_hat_in_f2c2_is_unitary():
    u = F2C2.one() + F2C2.hat(1)
    # 1 + (1 + g) = g in characteristic 2
    assert u == F2C2.embed(1)
    assert (u.involution() * u).is_one()
    assert u.is_unitary()


def test_product_of_unitary_is_unitary():
    rng = np.random.default_rng(9)
    A = F2Q8
    unitaries = []
    for _ in range(200):
        a = A.random_element(rng)
        if a.augmentation() == 1 and a.try_inverse() is not None and a.is_unitary():
            unitaries.append(a)
        if len(unitaries) >= 10:
            break
    assert len(unitaries) >= 2
    for u in unitaries:
        for v in unitaries[:3]:
            assert (u * v).is_unitary()


def _mask_test_columns(A, rng):
    """Columns to test unitary_mask on: random ones of any augmentation, the
    same of augmentation 0, zero, each group element and its negative (unitary,
    of augmentation 1 and -1), and the members of V* where V is small."""
    n, p = A.dim, A.p
    cols = rng.integers(0, p, size=(n, 2048))
    aug0 = cols.copy()
    aug0[0] = (aug0[0] - aug0.sum(axis=0)) % p
    group = np.eye(n, dtype=np.int64)
    parts = [cols, aug0, np.zeros((n, 1), dtype=np.int64), group, (-group) % p]
    if p ** (n - 1) <= 2**18:
        parts.append(m.filter_unitary(m.enumerate_units(A)).vectors.T.astype(np.int64))
    return np.concatenate(parts, axis=1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("spec", ["catalog:C,1", "catalog:C,2", "catalog:C,3", "catalog:C,4",
                                  "catalog:S3", "catalog:D,4", "catalog:Q8", "catalog:A4"])
def test_unitary_mask_is_the_full_product_definition(spec, p):
    A = alg(spec, p)
    cols = _mask_test_columns(A, np.random.default_rng(11))
    definition = (A.multiply(cols[A.group.inv], cols) == A._one_vec[:, None]).all(axis=0)
    mask = A.unitary_mask(cols)
    assert mask.dtype == bool and (mask == definition).all()
    assert definition.any() and not definition.all()


def test_unitary_mask_leaves_its_input_unchanged():
    A = alg("catalog:A4", 3)
    rows = np.array(m.enumerate_units(A).vectors[:64])
    want = A.unitary_mask(np.ascontiguousarray(rows.T))
    # a transposed view, C-contiguous columns, and columns already in the product type
    for cols in (rows.T, np.ascontiguousarray(rows.T), np.ascontiguousarray(rows.T, A._dtype)):
        before = cols.copy()
        assert (A.unitary_mask(cols) == want).all()
        assert cols.dtype == before.dtype and (cols == before).all()
    assert want.any() and not want.all()


@pytest.mark.parametrize("spec,p,read", [
    ("catalog:D,10", 2, 5), ("catalog:D,8", 2, 4), ("prod:catalog:D,4|catalog:C,2", 2, 3),
    ("catalog:A4", 3, 8),
])
def test_unitary_mask_reads_one_coefficient_per_inverse_pair(spec, p, read):
    # the identity and one of each pair k != k^-1, and the involutions at odd
    # p only: at p = 2 their coefficients of w* w cancel in pairs
    A = alg(spec, p)
    assert A._square_at.shape == (A.dim, read)


def test_support():
    assert F3S3.zero().support() == ()
    assert F3S3.embed(4).support() == (4,)
    c = F3C3
    assert c.hat(1).support() == (0, 1, 2)


def test_canonical_text():
    assert F3S3.zero().to_text() == "0"
    a = F3C3.one() + 2 * F3C3.embed(1)
    assert a.to_text() == "1*e + 2*a"
    assert F3C3.from_coeffs([0, 0, 1]).to_text() == "1*a2"


def test_negative_power_inverts():
    g = F3S3.embed(3)
    assert g ** -1 == F3S3.embed(int(F3S3.group.inv[3]))
    assert g ** 0 == F3S3.one()
    with pytest.raises(m.errors.NotAUnit):
        (F2C2.one() + F2C2.embed(1)) ** -1


def test_algebra_requires_prime_characteristic():
    with pytest.raises(m.errors.NotPrime):
        m.GroupAlgebra(F3S3.group, 6)


def test_modular_flag():
    assert F2C2.is_modular
    assert F3S3.is_modular
    assert not m.GroupAlgebra(F3S3.group, 5).is_modular
