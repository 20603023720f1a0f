"""Unit enumeration oracles: counts, closure, abstract views, Engel tests,
the lower central series from generators and the batched witness scan."""

import functools
import hashlib
import itertools
import random
import sys
import tracemalloc
import types

import numpy as np
import pytest

import modunits as m
from modunits import groups as gr
from modunits import units as un
from modunits.errors import (BudgetExceeded, ContextMismatch, EngelInconclusive,
                             ModunitsError, NotAUnit, NotIntegral, PreconditionViolated)


def alg(spec, p):
    return m.GroupAlgebra(m.build_group(m.parse_group_spec(spec)), p)


def test_enumerate_f2c2():
    A = alg("catalog:C,2", 2)
    V = m.enumerate_units(A)
    assert len(V) == 2
    texts = {V.element(i).to_text() for i in range(2)}
    assert texts == {"1*e", "1*a"}


def test_enumerate_f2_klein():
    V = m.enumerate_units(alg("prod:catalog:C,2|catalog:C,2", 2))
    assert len(V) == 8


@pytest.mark.parametrize("spec,p", [
    ("catalog:C,4", 2), ("prod:catalog:C,2|catalog:C,2", 2),
    ("catalog:Q8", 2), ("catalog:C,3", 3), ("catalog:D,8", 2),
])
def test_p_group_unit_count_law(spec, p):
    A = alg(spec, p)
    V = m.enumerate_units(A)
    assert len(V) == p ** (A.dim - 1)


def test_enumerate_budget_exceeded_reports_required():
    A = alg("catalog:Q8", 2)
    with pytest.raises(BudgetExceeded) as err:
        m.enumerate_units(A, cap=16)
    assert err.value.required == 2 ** 7


def test_enumeration_deterministic_and_lex_sorted():
    A = alg("catalog:S3", 2)
    V1 = m.enumerate_units(A)
    V2 = m.enumerate_units(A)
    assert (V1.vectors == V2.vectors).all()
    keys = [tuple(row) for row in V1.vectors]
    assert keys == sorted(keys)


def test_enumeration_is_deterministic_across_runs_and_chunk_sizes(monkeypatch):
    # each case splits its quotient algebra: F2[S3] into blocks of dimension
    # 2 and 4, F2[A4/V4] = F2[C3] into 1 and 2, F3[D6/C3] = F3[C2 x C2] into 1s
    pairs = (("catalog:S3", 2), ("catalog:A4", 2), ("catalog:D,6", 3))
    first = [m.enumerate_units(alg(spec, p)).vectors for spec, p in pairs]
    again = [m.enumerate_units(alg(spec, p)).vectors for spec, p in pairs]
    monkeypatch.setattr(un, "_CHUNK", 8)  # many chunks, in the blocks and the lift
    chunked = [m.enumerate_units(alg(spec, p)).vectors for spec, p in pairs]
    for (spec, p), a, b, c in zip(pairs, first, again, chunked):
        assert a.tobytes() == b.tobytes() == c.tobytes(), (spec, p)


def _candidate_vectors(p, n, identity, lo, hi):
    """Aug-1 candidates lo..hi: free digits on non-identity slots, identity fixed."""
    vec = np.zeros((hi - lo, n), dtype=np.int64)
    idx = np.arange(lo, hi, dtype=np.int64)[:, None]
    vec[:, np.arange(n) != identity] = idx // p ** np.arange(n - 1, dtype=np.int64) % p
    vec[:, identity] = (1 - vec.sum(axis=1)) % p
    return vec


def _reference_units(A):
    """The direct oracle: elimination on the regular matrix of every aug-1 candidate of FG."""
    from modunits._gflinalg import batch_invertible_mask

    n, p = A.dim, A.p
    total = p ** (n - 1)
    parts = []
    for lo in range(0, total, un._CHUNK):
        vec = _candidate_vectors(p, n, A.group.identity, lo, min(lo + un._CHUNK, total))
        parts.append(vec[batch_invertible_mask(vec[:, A.div], p)])
    return un.UnitGroup(A, np.concatenate(parts))


@pytest.mark.parametrize("spec,p", [
    (spec, p) for _, spec in m.DEFAULT_CATALOG for p in (2, 3)
    if p ** (m.build_group(m.parse_group_spec(spec)).order - 1) <= 2**18]
    + [("catalog:D,8", 2)]
    # several blocks, with augmentations 1..p-1 in the principal block
    + [("catalog:S3", 5), ("catalog:S3", 7), ("catalog:D,4", 5), ("catalog:Q8", 5),
       ("catalog:C,6", 5),
       ("catalog:C,5", 5)])  # Q = 1
def test_quotient_lift_matches_direct_elimination(spec, p):
    A = alg(spec, p)
    assert (m.enumerate_units(A).vectors == _reference_units(A).vectors).all()


def test_quotient_lift_agrees_with_try_inverse_on_d10():
    # O_2(D10) has order 2: the elimination runs on F2[D5], not on the
    # 20x20 regular matrices of F2[D10]
    A = alg("catalog:D,10", 2)
    V = m.enumerate_units(A)
    rng = np.random.default_rng(2024)
    units = 0
    for i in rng.integers(0, 2 ** (A.dim - 1), size=200):
        vec = _candidate_vectors(2, A.dim, A.group.identity, int(i), int(i) + 1)[0]
        is_unit = A.from_coeffs(vec).try_inverse() is not None
        assert (V.position_of_vector(vec) >= 0) == is_unit, int(i)
        units += is_unit
    assert 0 < units < 200


def _quotient_blocks(spec, p):
    G = m.build_group(m.parse_group_spec(spec))
    Q, _ = gr.quotient(gr.p_core(G, p))
    QA = m.GroupAlgebra(Q, p)
    return QA, un.unit_blocks(QA)


@pytest.mark.parametrize("spec,p", [
    ("catalog:S3", 2), ("catalog:D,6", 2), ("catalog:A4", 2), ("catalog:A4", 3),
    ("catalog:D,4", 3), ("prod:catalog:S3|catalog:C,3", 2),
    # p = 5: one elimination gives the units lambda * c for lambda = 2, 3, 4
    ("catalog:S3", 5), ("catalog:D,4", 5)])
def test_block_masks_match_try_inverse(spec, p):
    QA, blocks = _quotient_blocks(spec, p)
    one, mul = QA._one_vec, QA.multiply
    fs = [b.idempotent for b in blocks]
    # central orthogonal idempotents that sum to 1
    assert (sum(fs) % p == one).all()
    for i, f in enumerate(fs):
        assert f.any()
        for g in range(QA.dim):
            e_g = np.eye(QA.dim, dtype=np.int64)[g]
            assert (mul(e_g, f) == mul(f, e_g)).all(), (i, g)
        for j, h in enumerate(fs):
            assert (mul(f, h) == (f if i == j else 0)).all(), (i, j)
    assert sum(b.pivots.size for b in blocks) == QA.dim
    for b in blocks:
        d = b.pivots.size
        assert (mul(b.rows.T, b.idempotent[:, None]).T == b.rows).all()  # rows lie in FQ*f
        assert b.units.shape[1] == QA.dim
        units = [tuple(row) for row in b.units.tolist()]
        assert len(set(units)) == len(units)  # distinct rows
        expected = []  # c @ rows for every coordinate vector c whose x is a unit
        for i in range(p ** d):
            c = np.array([i // p ** j % p for j in range(d)], dtype=np.int64)
            x = (c @ b.rows + one - b.idempotent) % p
            if QA.from_coeffs(x).try_inverse() is not None:
                expected.append(tuple((c @ b.rows % p).tolist()))
        assert sorted(units) == sorted(expected), d


@pytest.mark.parametrize("spec,p", [
    ("catalog:S3", 5), ("catalog:A4", 3), ("catalog:D,5", 2), ("catalog:Q8", 7),
    ("prod:catalog:S3|catalog:C,3", 2)])
def test_block_units_are_read_on_the_pivot_rows(spec, p):
    # unit_blocks tests x on the basis h*f, h in the pivots, of the block: f
    # is self-adjoint, so f[_ldiv] is symmetric and those rows are independent
    from modunits._gflinalg import row_reduce

    QA, blocks = _quotient_blocks(spec, p)
    for b in blocks:
        f, d = b.idempotent, b.pivots.size
        assert (f[QA.group.inv] == f).all()
        assert (f[QA._ldiv] == f[QA._ldiv].T).all()
        assert row_reduce(f[QA._ldiv][b.pivots], p)[1].size == d
        # one elimination of (p^d - 1)/(p - 1) class representatives: the
        # multiples of its units by lambda = 1..p-1, lambda-major
        assert (p ** d - 1) // (p - 1) <= un._CHUNK
        units = b.units.astype(np.int64).reshape(p - 1, -1, QA.dim)
        lam = np.arange(1, p)[:, None, None]
        assert (units == lam * units[0] % p).all()


@pytest.mark.parametrize("spec,p", [
    (spec, p) for _, spec in m.DEFAULT_CATALOG for p in (2, 3, 5)])
def test_only_the_principal_block_has_units_of_augmentation_one(spec, p):
    # aug is a ring map onto F_p, so aug(f) is 0 or 1 and aug(x) = aug(x) aug(f)
    # for x in FQ*f: V's image in FQ takes, from each block, its units x with
    # aug(x) = aug(f)
    QA, blocks = _quotient_blocks(spec, p)
    augs = [int(b.idempotent.sum() % p) for b in blocks]
    assert sorted(augs) == [0] * (len(blocks) - 1) + [1]
    for b, aug in zip(blocks, augs):
        unit_augs = b.units.sum(axis=1, dtype=np.int64) % p
        if aug == 0:
            assert not unit_augs.any()
        else:
            assert len(b.units) % (p - 1) == 0
            assert np.count_nonzero(unit_augs == 1) == len(b.units) // (p - 1)


@pytest.mark.parametrize("spec,p,dims", [
    ("catalog:C,4", 2, [1]),  # Q = 1
    ("catalog:D,8", 2, [1]),
    ("catalog:A4", 2, [1, 2]),  # Q = C3, a p'-group
    ("prod:catalog:C,2|catalog:C,2", 3, [1, 1, 1, 1]),
    # F3[C4] = F3 + F3 + F9, since x^2 + 1 is irreducible mod 3
    ("prod:catalog:C,4|catalog:C,2", 3, [1, 1, 1, 1, 2, 2]),
])
def test_block_dimensions_of_edge_cases(spec, p, dims):
    QA, blocks = _quotient_blocks(spec, p)
    # the unit sets of these algebras are checked by
    # test_quotient_lift_matches_direct_elimination
    assert sorted(b.pivots.size for b in blocks) == dims


@pytest.mark.parametrize("spec,p", [
    (spec, p) for _, spec in m.DEFAULT_CATALOG for p in (2, 3)
    if p ** (m.build_group(m.parse_group_spec(spec)).order - 1) <= un.ENUMERATION_CAP]
    + [("catalog:D,10", 2), ("catalog:D,8", 2)])
def test_block_unit_count_law(spec, p):
    # |V| = p^(|G|-|Q|) * prod_B |U(B)| / (p - 1): the kernel of FG -> FQ is
    # 1 + w(O_p(G))FG of order p^(|G|-|Q|), FQ is the direct sum of its blocks,
    # and the scalars F* split off the normalized units
    A = alg(spec, p)
    QA, blocks = _quotient_blocks(spec, p)
    count = p ** (A.dim - QA.dim)
    for b in blocks:
        count *= len(b.units)
    assert count % (p - 1) == 0
    assert len(m.enumerate_units(A)) == count // (p - 1)


def _enumerable(spec, p):
    return p ** (m.build_group(m.parse_group_spec(spec)).order - 1) <= un.ENUMERATION_CAP


# at p = 2 the laws need O_2(G) = 1: S3 and the groups of odd order
_O2_TRIVIAL = ["catalog:S3", "catalog:C,3", "prod:catalog:C,3|catalog:C,3",
               "prod:catalog:S3|catalog:C,3", "catalog:D,5", "catalog:D,7", "catalog:D,9",
               "catalog:C,5", "catalog:C,7", "catalog:C,9", "prod:catalog:C,3|catalog:C,5"]


@pytest.mark.parametrize("spec,p", [
    (spec, p) for spec in [spec for _, spec in m.DEFAULT_CATALOG]
    + ["catalog:D,5", "catalog:C,5", "catalog:C,8"] for p in (3, 5) if _enumerable(spec, p)]
    + [(spec, 2) for spec in _O2_TRIVIAL])
def test_unit_count_laws_match_enumeration(spec, p):
    A = alg(spec, p)
    V = m.enumerate_units(A)
    assert un.block_units(A)[:2] == (len(V), len(m.filter_unitary(V)))


@pytest.mark.parametrize("spec,p,orders", [
    ("prod:catalog:S3|catalog:C,3", 3, (86_093_442, 4_374)),  # 3^17 candidates
    ("catalog:D,5", 5, (1_562_500, 50)),  # 5^9 candidates
])
def test_unit_count_laws_above_the_enumeration_cap(spec, p, orders):
    A = alg(spec, p)
    with pytest.raises(BudgetExceeded):
        m.enumerate_units(A)
    assert un.block_units(A)[:2] == orders


def test_unit_count_laws_refuse_blocks_above_the_cap_before_any_mask(monkeypatch):
    # F5[A4] has a block of dimension 9: 5^9 coordinate vectors, above the cap
    def refuse(*args):
        raise AssertionError("batch_invertible_mask ran")

    monkeypatch.setattr(un, "batch_invertible_mask", refuse)
    with pytest.raises(BudgetExceeded) as err:
        un.block_units(alg("catalog:A4", 5))
    assert err.value.required == 5 ** 9 + 5 ** 2 + 5
    v = m.verify_equivalence(m.build_group(m.parse_group_spec("catalog:A4")), 5)
    assert v.v_order is None and v.vstar_order is None and not v.enumerated
    assert v.v_status.kind == v.vstar_status.kind == "non_nilpotent"


def test_unit_count_laws_need_an_odd_prime():
    # or p = 2 with O_2(G) = 1: D6 and A4 have a normal 2-subgroup, S3 has none
    for spec in ("catalog:D,6", "catalog:A4"):
        with pytest.raises(PreconditionViolated):
            un.block_units(alg(spec, 2))
    assert un.block_units(alg("catalog:S3", 2))[:2] == (12, 12)


def test_batch_invertibility_matches_per_element_inverse():
    # the enumeration hot path (batched elimination) and try_inverse must
    # classify every aug-1 candidate identically
    from modunits._gflinalg import batch_invertible_mask

    for spec, p in [("catalog:S3", 2), ("catalog:C,3", 3), ("catalog:S3", 3)]:
        A = alg(spec, p)
        n = A.dim
        total = p ** (n - 1)
        vec = _candidate_vectors(p, n, A.group.identity, 0, total)
        mask = batch_invertible_mask(vec[:, A.div], p)
        for i in range(total):
            expected = A.from_coeffs(vec[i]).try_inverse() is not None
            assert bool(mask[i]) == expected, f"{spec}@{p} candidate {i}"


def test_every_enumerated_element_is_a_unit_with_aug_one():
    A = alg("catalog:S3", 2)
    V = m.enumerate_units(A)
    assert len(V) == 12
    for u in V:
        assert u.augmentation() == 1
        assert u.try_inverse() is not None


def test_unit_group_contains_one_and_membership():
    A = alg("catalog:C,3", 3)
    V = m.enumerate_units(A)
    assert V.one_position >= 0
    assert A.one() in V
    assert A.zero() not in V
    assert V.index_of(A.embed(1)) >= 0


def test_element_refuses_positions_outside_the_unit_group():
    # -1 is the "absent" of index_of, not the last unit
    A = alg("catalog:S3", 2)
    V = m.enumerate_units(A)
    x = A.one() + A.embed(1)
    assert len(V) == 12 and V.index_of(x) == -1
    for i in (V.index_of(x), len(V), -len(V)):
        with pytest.raises(ValueError, match="out of range"):
            V.element(i)
    assert [V.index_of(V.element(i)) for i in (0, len(V) - 1)] == [0, len(V) - 1]


def test_unit_group_rejects_non_closed_set():
    A = alg("catalog:C,3", 3)
    # {1, g} misses g^2; {1, 0} is closed under products, but 0 has no inverse
    for u, message in ((A.embed(1), "multiplication"), (A.zero(), "inverses")):
        U = un.UnitGroup(A, np.stack([A.one().coeffs, u.coeffs]))
        with pytest.raises(ValueError, match=message):
            U.verify_closure()
        with pytest.raises(ValueError, match=message):
            m.as_abstract_group(U)


def test_unit_group_refuses_a_set_without_one():
    # so no unit group is empty, and positions_of needs no empty case
    A = alg("catalog:C,3", 3)
    for rows in (np.zeros((0, 3), dtype=np.int8), A.embed(1).coeffs[None, :]):
        with pytest.raises(ValueError, match="does not contain 1"):
            un.UnitGroup(A, rows)


def test_verify_closure_on_catalog_unit_groups():
    # the exhaustive table check passes on V and V* of every default-catalog
    # entry with |V| <= 1536, and on every witness_dihedral closure
    checked = closures = 0
    for _, spec in m.DEFAULT_CATALOG:
        for p in (2, 3):
            A = alg(spec, p)
            G = A.group
            involutions = [x for x in G.elements() if m.element_order(G, x) == 2]
            for c in m.central_order_p_elements(G, p) if p > 2 else ():
                for a in involutions:
                    for b in involutions:
                        ab = int(G.mul[a, b])
                        if m.commutator(G, a, b) == G.identity or m.element_order(G, ab) <= 2:
                            continue
                        w = m.witness_skew(A, ab, c)
                        m.closure_subgroup([w, A.embed(a)]).verify_closure()
                        closures += 1
            try:
                V = m.enumerate_units(A)
            except BudgetExceeded:
                continue
            if len(V) <= 1536:
                V.verify_closure()
                m.filter_unitary(V).verify_closure()
                checked += 1
    assert checked == 21 and closures > 0


def test_enumeration_holds_few_copies_of_the_unit_set():
    A = alg("catalog:D,10", 2)
    tracemalloc.start()
    try:
        V = m.enumerate_units(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(V) == 368_640
    assert peak <= 2.5 * V.vectors.nbytes


def test_enumeration_at_large_primes():
    # one coordinate vector per residue: p candidates in a block of dimension 1
    assert len(m.enumerate_units(alg("catalog:C,2", 100003))) == 100002
    V = m.enumerate_units(alg("catalog:C,1", 1000003))
    assert len(V) == 1 and V.element(0).is_one()


def _lines_run_in(fn, call):
    """How many line events call() runs in frames of fn, its comprehensions included."""
    codes = {fn.__code__} | {c for c in fn.__code__.co_consts if isinstance(c, types.CodeType)}
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return lines


def test_block_units_take_as_many_steps_at_every_prime():
    # the p - 1 multiples of a block unit come from one broadcast over lambda,
    # so the work in Python lines does not grow with p (a clock-free guard)
    counts = [_lines_run_in(un._units_of_block, lambda: un.unit_blocks(alg("catalog:C,2", p)))
              for p in (3, 101, 100003)]
    assert counts[0] > 0 and counts == [counts[0]] * 3


# SHA-256 of the int64 rows of V and of V*, and of their int64 codes
_UNIT_SET_DIGESTS = {
    ("catalog:D,10", 2): ("4434faeeed9ec4845e86d86fbd731dc77328eac148f8160b87dbb7d4861da5d2",
                          "41e975d586b338f3b4c657a750f2614961056fa949b238d682eb0bef563c8fb6",
                          "fcb806964b77ca3781aa282220786cd568df54b4ad7570ef42a84d035a2c051c",
                          "30dae2431ce295677c9f130676e55ec69550ed5a3daad6f5a0601bcedbec6b11"),
    ("catalog:A4", 3): ("8f63f3f17f129ded7c2fa69534fc6fa757b7155183b5fa1cf973d2b031b59fc5",
                        "590f89e46f453c17d1d2325a1bf5c6d3d9d1a376924ff2edbfa1d141029fd155",
                        "8ab3edd0e853e6fb8b61c2512bf2eeb4f6dff9a4a24f5398c9c9b41aec05cef7",
                        "c0e166fe9d4c601fd2b819a5dd4b305ec10c66845d5d04a02158e7b22f24d3da"),
    ("catalog:D,6", 3): ("d7a1db3cb4b15435762e1f6e4c56f5f388e5d75869507e2b93c1b50fc580743e",
                         "f3863f125742223202dafedb8e1b642b971ba985608df0660d251b2a2138982d",
                         "4b0b7091e037783d5373eface148614df8e8d4a667ca15a087caac086e3215ad",
                         "512a6e723a31f9c06e8f8ec04ea60fc2148ee10b5c148e364898176bf6ee7613"),
    ("prod:catalog:S3|catalog:C,3", 2): (
        "6554951dc3d8f4d76149a5fb64576a6495c19e7d8573ba603a34aa3aaaf4e5d2",
        "0adeff06c6bb6cb940820b159acfdf42e9dff556fc8b781b3d03f0bcc27fed55",
        "330be31711ed8d2ac812f1630783c94fd90e5dc9b69301f690c3bd0e6de7c7fc",
        "b1d4a3f7b92ccf2f8cd242a8c097c0eb05b7f38555fd8f714684d2a36d9eafb1"),
    ("catalog:D,4", 7): ("33344b679aaa8064e34cc538f6b1899ed466f5e09bafb671fc4a6846a90c8d41",
                         "919fb94dc3513ff1f75214f5552bae7e8902b2216680477138447a5e4bd45304",
                         "3c5b3299f101552e7bf12b79f6ba397e45d8284bfaa123f2bf01644ce8a9ee3b",
                         "e32e42195e1867f4b13b4e499918154b089d54b6c1546b87e222d6753a9d682d"),
    # the enumeration's tiles widen to int16 at p = 67, where 2(p - 1) > 127; at
    # p = 97 a unit of one block plus one of the other passes 127 too
    ("catalog:C,3", 97): ("e83a865987584a89727dfb634b9a27a5556ebf61d770e3a5fe38b8aeb4210575",
                          "008bfaded903b0fedc049cd945c449539f7ec1d1f416304911e648dbc2e44244",
                          "1db2f5f7a2ae09c47e79857a9c93962bb83d21bf88a17ab1cf5db6a3db85a4d4",
                          "3e4b4f6288daaeaaa2626ebda12e90c3d4015048dcf465c76a17b199faab4195"),
    # four blocks, whose units sum past 127 before the tile reduces them
    ("prod:catalog:C,2|catalog:C,2", 53): (
        "c7e304c90fc4d1a862152d6b6321b79c905d9d2b50981c57fa2820c9ba8701b9",
        "2cef434f435260957105a60efb86746b00e1d1512f747356653c697545cd8f5b",
        "8b95f850017cf0289b7aa1d75f751d9dc4acc6bc55d19fa0e91bc5c2fdbf8193",
        "a952d716a6fa22f582002d95ccd49908bd72ddabce3ab2e71b217fd669552b1b"),
    ("catalog:C,3", 67): ("52db842cfa74a0e9b5b71e27740191b855bbb9ff7752dc801a9689a5ef3c60ed",
                          "d246cdc0244f2cbcf864fcd3d0daa542cbfe869cc05f38ec67f612ec8e0af4a3",
                          "1324c0c7d6cd3f149fb51428e8554e3729fc96e5c37c95dbdaa8d9f23b5e0ef8",
                          "f54b25980c38b0d57f6ed3781f5fdaf28d962027ed92d63e9cfccce1c8379e35"),
}


@pytest.mark.parametrize("spec,p", list(_UNIT_SET_DIGESTS))
def test_unit_sets_are_pinned(spec, p):
    # _reference_units sorts through UnitGroup too, so only a pinned digest
    # catches a fault in the sort itself
    V = m.enumerate_units(alg(spec, p))
    Vs = m.filter_unitary(V)
    digests = tuple(hashlib.sha256(U.vectors.astype(np.int64).tobytes()).hexdigest()
                    for U in (V, Vs))
    digests += tuple(hashlib.sha256(U._codes.tobytes()).hexdigest() for U in (V, Vs))
    assert V._codes.dtype == Vs._codes.dtype == np.int64
    assert digests == _UNIT_SET_DIGESTS[spec, p]


@pytest.mark.parametrize("spec,p", [("catalog:D,6", 3), ("prod:catalog:S3|catalog:C,3", 2)])
def test_enumeration_with_python_int_weights_gives_the_same_units(monkeypatch, spec, p):
    # codes are Python ints once n log2 p >= 62, but no such V can be enumerated:
    # it has p^(n-1) >= 2^31 members, so the object weights are forced here
    A = alg(spec, p)
    V = m.enumerate_units(A)
    weights = un._code_weights
    monkeypatch.setattr(un, "_code_weights", lambda n, p: weights(n, p).astype(object))
    W = m.enumerate_units(A)
    assert W._codes.dtype == object and (W._codes == V._codes).all()
    assert W.vectors.dtype == V.vectors.dtype and (W.vectors == V.vectors).all()
    Ws = m.filter_unitary(W)
    assert (Ws.vectors == m.filter_unitary(V).vectors).all()


@pytest.mark.parametrize("spec,p,dtype", [
    ("catalog:S3", 2, np.int8), ("catalog:S3", 3, np.int8),
    ("catalog:C,2", 131, np.int16), ("catalog:C,2", 100003, np.int32),
])
def test_unit_sets_are_stored_in_the_residue_dtype(spec, p, dtype):
    A = alg(spec, p)
    V = m.enumerate_units(A)
    Vs = m.filter_unitary(V)
    G = m.closure_subgroup([A.embed(g) for g in A.group.elements()])
    assert V.vectors.dtype == Vs.vectors.dtype == G.vectors.dtype == dtype
    assert not V.vectors.flags.writeable
    assert (V.vectors == _reference_units(A).vectors).all()
    embedded = np.eye(A.dim, dtype=np.int64)[::-1]  # the group, in lexicographic order
    assert (G.vectors == embedded).all()
    if A.group.order == 2:
        # (a + b g)(a + b g) = 1 with a + b = 1 forces ab = 0 at odd p
        assert (Vs.vectors == embedded).all()
    else:
        assert Vs.vectors.tolist() == [V.vectors[i].tolist() for i in range(len(V))
                                       if V.element(i).is_unitary()]


@pytest.mark.parametrize("spec,p", [("catalog:D,4", 2), ("catalog:S3", 3), ("catalog:C,64", 2)])
def test_unit_group_sorts_shuffled_rows(spec, p):
    A = alg(spec, p)
    if A.dim == 64:  # n log2 p >= 62: the codes are Python ints
        U = m.closure_subgroup([A.embed(g) for g in A.group.elements()])
        assert U._codes.dtype == object
    else:
        U = m.enumerate_units(A)
    assert (U.vectors == U.vectors[np.lexsort(U.vectors[:, ::-1].T)]).all()
    order = np.random.default_rng(7).permutation(len(U))
    shuffled = U.vectors[order]
    for rows in (shuffled, shuffled.astype(np.int64)):
        again = un.UnitGroup(A, rows)
        assert again.vectors.dtype == U.vectors.dtype
        assert again.vectors.tobytes() == U.vectors.tobytes()
        assert again.positions_of(rows).tolist() == order.tolist()
    with pytest.raises(ValueError, match="contains duplicates"):
        un.UnitGroup(A, np.vstack([shuffled, shuffled[3]]))


def _unitary_by_product(A, rows):
    """The rows w with w* w = 1, from the whole product: w* reads w at g^-1."""
    cols = rows.T.astype(np.int64)
    mask = np.concatenate([
        (A.multiply(cols[A.group.inv, lo:lo + un._CHUNK], cols[:, lo:lo + un._CHUNK])
         == A._one_vec[:, None]).all(axis=0) for lo in range(0, len(rows), un._CHUNK)])
    return rows[mask]


@pytest.mark.parametrize("spec,p", [("catalog:D,10", 2), ("catalog:A4", 3), ("catalog:D,4", 7),
                                    ("prod:catalog:S3|catalog:C,3", 2)])
def test_unit_groups_keep_their_members_as_read_only_columns(spec, p):
    A = alg(spec, p)
    ref = np.asarray(_reference_units(A).vectors)
    V = m.enumerate_units(A)
    shuffled = ref[np.random.default_rng(3).permutation(len(ref))]
    groups = {  # each unit group with the rows, in lexicographic order, it must hold
        "enumerate_units": (V, ref),
        "filter_unitary": (m.filter_unitary(V), _unitary_by_product(A, ref)),
        # the group elements: the normalized units with one nonzero coefficient
        "closure_subgroup": (m.closure_subgroup([A.embed(g) for g in A.group.elements()]),
                             ref[np.count_nonzero(ref, axis=1) == 1]),
        "sorted rows": (un.UnitGroup(A, ref.copy()), ref),
        "shuffled rows": (un.UnitGroup(A, shuffled), ref),
    }
    for name, (U, rows) in groups.items():
        assert U.columns.flags.c_contiguous, name
        assert U.columns.shape == (A.dim, len(U)), name
        assert not U.columns.flags.writeable, name
        assert U.vectors.shape == U.columns.T.shape and (U.vectors == U.columns.T).all(), name
        assert np.shares_memory(U.vectors, U.columns), name
        assert U.columns.dtype == rows.dtype and (U.vectors == rows).all(), name


@pytest.mark.parametrize("p,n", [(2, 30), (2, 31), (2, 32), (3, 19), (3, 20)])
def test_decode_round_trips_codes_either_side_of_the_int32_boundary(p, n):
    # digits in int32 below n log2 p = 31, in the codes' int64 above
    top = p ** n
    rng = np.random.default_rng(n)
    codes = np.concatenate([np.array([0, 1, p - 1, p, 2**31 - 1, 2**31, top - 2, top - 1]),
                            rng.integers(0, top, 4096)])
    codes = codes[codes < top]
    columns = un._decode(codes, n, p)
    assert columns.shape == (n, codes.size) and columns.dtype == np.int8
    assert (un._codes(columns.T, un._code_weights(n, p)) == codes).all()
    digits = codes // p ** np.arange(n - 1, -1, -1, dtype=np.int64)[:, None] % p  # in int64
    assert (columns == digits).all()


@pytest.mark.parametrize("spec,p", [("catalog:D,10", 2), ("catalog:A4", 3), ("catalog:D,8", 2)])
def test_enumerated_units_keep_the_codes_of_their_rows(spec, p):
    A = alg(spec, p)
    V = m.enumerate_units(A)
    Vs = m.filter_unitary(V)
    for U in (V, Vs):
        assert U._codes.dtype == np.int64
        assert (U._codes[1:] > U._codes[:-1]).all()
        assert (U._codes == un._codes(U.vectors, U._weights)).all()


def test_unit_sets_built_from_codes_refuse_a_duplicate():
    A = alg("catalog:S3", 2)
    V = m.enumerate_units(A)
    with pytest.raises(ValueError, match="contains duplicates"):
        un.UnitGroup._from_codes(A, np.concatenate([V._codes, V._codes[3:4]]))
    with pytest.raises(ValueError, match="contains duplicates"):  # in sorted order
        un.UnitGroup(A, np.insert(V.vectors, 3, V.vectors[3], axis=0))
    with pytest.raises(ValueError, match="does not contain 1"):
        un.UnitGroup._from_codes(A, np.delete(V._codes, V.one_position))


@pytest.mark.parametrize("build", [
    lambda A: un.UnitGroup(A, [[1.0, 0.0], [0.0, 1.9]]),
    lambda A: m.enumerate_units(A).positions_of(np.array([[0.0, 1.9]])),
], ids=["UnitGroup", "positions_of"])
def test_unit_sets_refuse_non_integer_rows(build):
    # truncating would keep the group element [0, 1]
    with pytest.raises(NotIntegral) as err:
        build(alg("catalog:C,2", 2))
    assert isinstance(err.value, ModunitsError) and isinstance(err.value, ValueError)


def test_byte_keyed_lookup_in_witness_closure():
    # n log2 p = 42 log2 3 >= 62, so UnitGroup's codes are Python ints
    A = alg("prod:catalog:D,7|catalog:C,3", 3)
    G = A.group
    assert A.dim == 42 and A.dim * np.log2(3) >= 62
    involutions = [x for x in G.elements() if m.element_order(G, x) == 2]
    a, b = next((a, b) for a in involutions for b in involutions
                if m.commutator(G, a, b) != G.identity
                and m.element_order(G, int(G.mul[a, b])) > 2)
    c = m.central_order_p_elements(G, 3)[0]
    w = m.witness_skew(A, int(G.mul[a, b]), c)
    U = m.closure_subgroup([w, A.embed(a)])
    assert U._weights.dtype == object
    assert (U.vectors == U.vectors[np.lexsort(U.vectors[:, ::-1].T)]).all()
    # keyed by int64 bytes: np.vstack widens the narrow rows of the probe
    rows = {U.vectors[i].astype(np.int64).tobytes(): i for i in range(len(U))}
    outsider = A.embed(b)  # an involution outside the closure
    assert outsider.coeffs.tobytes() not in rows
    probe = np.vstack([U.vectors[::-1], outsider.coeffs])
    expected = [rows.get(row.tobytes(), -1) for row in probe]
    assert U.positions_of(probe).tolist() == expected
    assert [U.index_of(u) for u in U] == list(range(len(U)))
    assert U.index_of(outsider) == -1
    U.verify_closure()
    table = m.as_abstract_group(U)
    assert table.order == 6
    assert m.nilpotency_class(table) is m.NOT_NILPOTENT


# ---------------------------------------------------------------------------
# filter_unitary

def test_filter_unitary_f2c2_everything():
    V = m.enumerate_units(alg("catalog:C,2", 2))
    Vs = m.filter_unitary(V)
    assert len(Vs) == 2


def test_filter_unitary_contains_group_elements():
    A = alg("catalog:D,4", 2)
    V = m.enumerate_units(A)
    Vs = m.filter_unitary(V)
    for g in A.group.elements():
        assert A.embed(g) in Vs
    for u in Vs:
        assert u.is_unitary()
        assert u.involution() == u.try_inverse()


def test_filter_unitary_row_blocks_do_not_change_result(monkeypatch):
    V = m.enumerate_units(alg("catalog:Q8", 3))
    whole = m.filter_unitary(V)
    monkeypatch.setattr(un, "_CHUNK", 7)  # 384 rows in 55 blocks, the last one short
    assert (m.filter_unitary(V).vectors == whole.vectors).all()
    assert len(whole) == 192


@pytest.mark.parametrize("spec,p,orders", [("catalog:S3", 5, (1920, 24)),
                                            ("catalog:A4", 3, (101088, 144))])
def test_block_units_row_blocks_do_not_change_result(monkeypatch, spec, p, orders):
    # block_units and filter_unitary share one chunked unitarity loop
    monkeypatch.setattr(un, "_CHUNK", 7)
    assert un.block_units(alg(spec, p))[:2] == orders


def test_filter_unitary_f3s3_is_embedded_group_only():
    # S3 has no central element of order 3, so no skew witnesses exist and
    # the unitary subgroup collapses to the embedded group elements
    A = alg("catalog:S3", 3)
    assert m.central_order_p_elements(A.group, 3) == []
    Vs = m.filter_unitary(m.enumerate_units(A))
    assert len(Vs) == 6
    for u in Vs:
        assert sorted(u.coeffs) == [0, 0, 0, 0, 0, 1]


# ---------------------------------------------------------------------------
# abstract group view

def test_as_abstract_group_trivial():
    A = alg("catalog:C,1", 2)
    V = m.enumerate_units(A)
    assert len(V) == 1
    assert m.as_abstract_group(V).order == 1


def test_as_abstract_group_klein_units():
    V = m.enumerate_units(alg("prod:catalog:C,2|catalog:C,2", 2))
    G = m.as_abstract_group(V)
    assert G.order == 8
    assert G.is_abelian()
    assert m.nilpotency_class(G) == 1


def test_as_abstract_group_d4_units_nilpotent():
    V = m.enumerate_units(alg("catalog:D,4", 2))
    G = m.as_abstract_group(V)
    assert m.nilpotency_class(G) == 2


def test_as_abstract_group_cap():
    V = m.enumerate_units(alg("catalog:D,4", 2))
    with pytest.raises(BudgetExceeded):
        m.as_abstract_group(V, cap=64)


# ---------------------------------------------------------------------------
# closure_subgroup

def test_closure_of_one():
    A = alg("catalog:S3", 3)
    U = m.closure_subgroup([A.one()])
    assert len(U) == 1


def test_closure_of_embedded_element_is_cyclic():
    A = alg("catalog:Q8", 2)
    i = A.group.labels.index("i")
    U = m.closure_subgroup([A.embed(i)])
    assert len(U) == m.element_order(A.group, i) == 4


def test_closure_rejects_non_unit():
    A = alg("catalog:C,2", 2)
    with pytest.raises(NotAUnit):
        m.closure_subgroup([A.one() + A.embed(1)])


def test_closure_rejects_non_normalized():
    A = alg("catalog:C,2", 3)
    with pytest.raises(NotAUnit):
        m.closure_subgroup([2 * A.one()])  # a unit, but augmentation 2


def test_closure_budget():
    A = alg("catalog:D,4", 2)
    V = m.enumerate_units(A)
    gens = [V.element(i) for i in range(4)]
    with pytest.raises(BudgetExceeded):
        m.closure_subgroup(gens, cap=2)


def test_case3_style_closure_in_f3_s3xc3():
    A = alg("prod:catalog:S3|catalog:C,3", 3)
    G = A.group
    invs = [x for x in G.elements() if m.element_order(G, x) == 2]
    c = m.central_order_p_elements(G, 3)[0]
    a, b = invs[0], invs[1]
    ab = int(G.mul[a, b])
    w = A.one() + (A.embed(ab) - A.embed(int(G.inv[ab]))) * A.hat(c)
    U = m.closure_subgroup([w, A.embed(a)])
    assert len(U) == 6
    abstract = m.as_abstract_group(U)
    assert not abstract.is_abelian()


def _reference_closure(gens):
    """Breadth-first closure one element and one generator at a time, keyed by
    coefficient bytes: the algorithm closure_subgroup replaced."""
    one = gens[0].algebra.one()
    seen = {one.coeffs.tobytes(): one}
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.coeffs.tobytes() not in seen:
                    seen[y.coeffs.tobytes()] = y
                    nxt.append(y)
        frontier = nxt
    return un.UnitGroup(gens[0].algebra, np.stack([u.coeffs for u in seen.values()]))


def _dihedral_generators(spec, p):
    """The generators {w, a} of every closure that witness_dihedral forms on GF(p)[G]."""
    A = alg(spec, p)
    G = A.group
    involutions = [x for x in G.elements() if m.element_order(G, x) == 2]
    return [[m.witness_skew(A, int(G.mul[a, b]), c), A.embed(a)]
            for c in m.central_order_p_elements(G, p)
            for a in involutions for b in involutions
            if m.commutator(G, a, b) != G.identity and m.element_order(G, int(G.mul[a, b])) > 2]


@pytest.mark.parametrize("closures,count", [
    ([gens for _, spec in m.DEFAULT_CATALOG for gens in _dihedral_generators(spec, 3)], 12),
    (_dihedral_generators("prod:catalog:D,7|catalog:C,3", 3), 84),  # Python-int codes
], ids=["default-catalog", "D7xC3@3"])
def test_closure_matches_the_element_wise_reference(closures, count):
    assert len(closures) == count
    for gens in closures:
        got, want = m.closure_subgroup(gens), _reference_closure(gens)
        assert got.vectors.dtype == want.vectors.dtype
        assert got.vectors.tobytes() == want.vectors.tobytes()


def _embedded_generators(spec, p):
    A = alg(spec, p)
    return [A.embed(g) for g in A.group.elements()]


@pytest.mark.parametrize("gens,order", [
    (_dihedral_generators("prod:catalog:S3|catalog:C,3", 3)[0], 6),
    (_embedded_generators("prod:catalog:D,7|catalog:C,3", 3), 42),  # Python-int codes
    ([alg("catalog:C,64", 2).embed(1)], 64),
], ids=["dihedral", "D7xC3", "C64"])
def test_closure_cap_boundary(gens, order):
    assert len(m.closure_subgroup(gens, cap=order)) == order
    with pytest.raises(BudgetExceeded) as err:
        m.closure_subgroup(gens, cap=order - 1)
    assert err.value.required == order


def test_closure_rejects_generators_of_different_algebras():
    with pytest.raises(ContextMismatch):
        m.closure_subgroup([alg("catalog:C,2", 2).embed(1), alg("catalog:C,2", 3).embed(1)])


# ---------------------------------------------------------------------------
# Engel machinery

def test_engel_identity_stabilizes_at_zero():
    A = alg("catalog:S3", 2)
    out = m.engel_test(A.one(), A.embed(1))
    assert out.stabilizes and out.steps == 0


def test_engel_commuting_stabilizes_at_one():
    A = alg("catalog:C,6", 2)
    out = m.engel_test(A.embed(1), A.embed(2))
    assert out.stabilizes and out.steps == 1


def test_engel_nontrivial_pair_exists_in_f2s3():
    # oracle: exhaustive scan over all pairs of the 12 normalized units
    V = m.enumerate_units(alg("catalog:S3", 2))
    nontrivial = 0
    for i in range(len(V)):
        for j in range(len(V)):
            out = m.engel_test(V.element(i), V.element(j), n_max=64)
            if out.nontrivial:
                nontrivial += 1
    assert nontrivial > 0


def test_engel_stabilization_step_is_exact():
    # the reported step count n really is the first n with (x, y, n) = 1
    A = alg("catalog:D,4", 2)
    V = m.enumerate_units(A)
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = V.element(int(rng.integers(0, len(V))))
        y = V.element(int(rng.integers(0, len(V))))
        out = m.engel_test(x, y)
        assert out.stabilizes
        z = x
        for k in range(out.steps):
            zi = z.try_inverse()
            z = zi * y.try_inverse() * z * y
            if k < out.steps - 1:
                assert not z.is_one()
        assert z.is_one()


def test_engel_inconclusive_when_budget_tiny():
    A = alg("catalog:S3", 2)
    G = A.group
    x = A.embed(G.labels.index("(1 2)"))
    y = A.embed(G.labels.index("(1 3)"))
    with pytest.raises(EngelInconclusive):
        m.engel_test(x, y, n_max=1)


def test_find_non_engel_pair_abelian_none():
    V = m.enumerate_units(alg("prod:catalog:C,2|catalog:C,2", 2))
    assert m.find_non_engel_pair(V, budget=100, seed=0) is None


def test_find_non_engel_pair_f2s3_found():
    V = m.enumerate_units(alg("catalog:S3", 2))
    pair = m.find_non_engel_pair(V, budget=200, seed=0)
    assert pair is not None
    assert m.engel_test(pair[0], pair[1]).nontrivial


def test_find_non_engel_pair_f2d4_none():
    V = m.enumerate_units(alg("catalog:D,4", 2))
    assert m.find_non_engel_pair(V, budget=150, seed=0) is None


def _find_non_engel_pair_reference(U, budget, seed):
    """The element-at-a-time search: engel_test, with try_inverse at each step,
    on the seeded pairs in draw order.  An orbit in U reaches 1 or repeats a
    state within |U| steps, so n_max = |U| decides every pair."""
    rng = random.Random(seed)
    for _ in range(budget):
        x = U.element(rng.randrange(len(U)))
        y = U.element(rng.randrange(len(U)))
        if m.engel_test(x, y, n_max=len(U)).nontrivial:
            return x, y
    return None


SEARCHED = [("catalog:S3", 2, "V", 40), ("catalog:D,4", 2, "V", 60),
            ("catalog:D,6", 2, "V", 30), ("catalog:Q8", 3, "V*", 30),
            ("catalog:D,6", 3, "V", 4)]


# the ids are the ones pytest printed when each case also carried a step limit
# of 256, so that the ids stay stable
@pytest.mark.parametrize("spec,p,which,budget", SEARCHED,
                         ids=["-".join(map(str, case)) + "-256" for case in SEARCHED])
def test_batched_search_matches_element_search(spec, p, which, budget):
    U = _unit_group(spec, p, which)
    for seed in range(4):
        got = m.find_non_engel_pair(U, budget=budget, seed=seed)
        assert got == _find_non_engel_pair_reference(U, budget, seed)


def test_batched_search_runs_in_blocks(monkeypatch):
    U = _unit_group("catalog:D,6", 2, "V")
    monkeypatch.setattr(un, "_ENGEL_BATCH", 3)
    for seed in range(6):
        got = m.find_non_engel_pair(U, budget=20, seed=seed)
        assert got == _find_non_engel_pair_reference(U, 20, seed)
    S3 = _unit_group("catalog:S3", 2, "V")  # its first witness lies past the first batch
    assert m.non_engel_scan(S3) == _scan_non_engel(_table("catalog:S3", 2, "V"), S3)


def _inverses_by_powers(U, a):
    """Oracle for un._inverses: x^(|U|-1), since x^|U| = 1 by Lagrange, by
    square-and-multiply with one _products call per bit of |U| - 1."""
    acc = np.full(len(a), U.one_position, dtype=np.int64)
    base, k = np.asarray(a, dtype=np.int64), len(U) - 1
    while k > 1:
        if k & 1:
            acc, base = un._fused_products(U, (acc, base), (base, base))
        else:
            base = un._products(U, base, base)
        k >>= 1
    return un._products(U, acc, base) if k else acc


@pytest.mark.parametrize("spec,p", [("catalog:C,3", 3), ("catalog:D,4", 2), ("catalog:S3", 3)])
def test_inverses_are_exact_with_no_product_call(monkeypatch, spec, p):
    U = _unit_group(spec, p, "V")
    calls = []
    products = un._products
    monkeypatch.setattr(un, "_products", lambda *args: calls.append(1) or products(*args))
    inv = un._inverses(U, np.arange(len(U)))
    assert not calls
    members = U.vectors.T.astype(np.int64)  # group axis first, for multiply
    assert (U.algebra.multiply(members, members[:, inv])
            == U.algebra._one_vec[:, None]).all()


@pytest.mark.parametrize("spec,p,which", [
    (spec, p, which) for spec, p in (("catalog:D,8", 2), ("catalog:Q8", 3), ("catalog:A4", 2))
    for which in ("V", "V*")] + [("catalog:C,2", 100003, "V")])
def test_inverses_match_powers(monkeypatch, spec, p, which):
    U = _unit_group(spec, p, which)
    a = np.random.default_rng(len(U)).permutation(len(U))[:3000]
    a = np.concatenate([a, a[:50]])  # and some positions twice
    monkeypatch.setattr(un, "_CHUNK", 1024)  # several solves on every group here
    assert un._inverses(U, a).tolist() == _inverses_by_powers(U, a).tolist()
    assert un._inverses(U, np.array([], dtype=np.int64)).size == 0


@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]],   # g^2, the inverse of g, is missing
                                  [[1, 0, 0], [0, 0, 0]]],  # 0 is no unit: a singular matrix
                         ids=["missing", "singular"])
def test_inverses_refuse_a_set_not_closed_under_inverses(rows):
    U = un.UnitGroup(alg("catalog:C,3", 3), np.array(rows))
    with pytest.raises(ValueError, match="not closed under inverses"):
        un._inverses(U, np.arange(len(U)))


# positions in V of the pairs that the seeded search returns with the default
# budget at seeds 0-2; both V lie above abstract_cap
@pytest.mark.parametrize("spec,p,pins", [
    ("catalog:D,6", 3, [(25247, 49673), (8805, 37303), (3706, 6002)]),
    ("prod:catalog:S3|catalog:C,3", 2, [(12623, 24836), (4402, 18651), (1853, 3001)]),
])
def test_seeded_search_pairs_are_pinned(spec, p, pins):
    V = _unit_group(spec, p, "V")
    assert len(V) > un.ABSTRACT_GROUP_CAP
    for seed, pin in enumerate(pins):
        assert tuple(map(V.index_of, m.find_non_engel_pair(V, seed=seed))) == pin


def _table_engel_oracle(G, x, y):
    """Independent table-level Engel iteration with cycle detection; |G| steps
    always give a verdict."""
    z = x
    seen = {z}
    for _ in range(G.order):
        z = m.commutator(G, z, y)
        if z == G.identity:
            return True
        if z in seen:
            return False
        seen.add(z)
    raise AssertionError("no verdict")


def test_class_exists_iff_no_non_engel_pair():
    # cross-check on unit groups of order <= 256
    for spec, p in [("catalog:S3", 2), ("catalog:D,4", 2), ("catalog:C,6", 2)]:
        V = m.enumerate_units(alg(spec, p))
        assert len(V) <= 256
        A = m.as_abstract_group(V)
        klass = m.nilpotency_class(A)
        pair_free = all(_table_engel_oracle(A, i, j)
                        for i in range(A.order) for j in range(A.order))
        assert (klass is not m.NOT_NILPOTENT) == pair_free


# ---------------------------------------------------------------------------
# the lower central series from generators, and the batched witness scan

def _scan_non_engel(A, U, max_pairs=None):
    """Reference witness scan on the Cayley table: the first pair (i, j) in
    row-major order, among the first max_pairs, whose Engel orbit repeats a
    non-identity state."""
    pairs = itertools.islice(itertools.product(range(A.order), repeat=2), max_pairs)
    for i, j in pairs:
        if not _table_engel_oracle(A, i, j):
            return U.element(i), U.element(j)
    return None


class _PairsSpent(Exception):
    pass


def _bounded_scan(monkeypatch, U, max_pairs):
    """non_engel_scan(U) on its first max_pairs pairs, a multiple of its
    batch: each batch it runs is checked to hold the next pairs in row-major
    order, and the scan is stopped, giving None, at the first batch past
    max_pairs."""
    assert max_pairs % un._ENGEL_BATCH == 0
    run_batch, scanned = un._first_non_engel, [0]

    def bounded(U, x, y, x_inv, y_inv):
        if scanned[0] >= max_pairs:
            raise _PairsSpent
        assert (x * len(U) + y).tolist() == list(range(scanned[0], scanned[0] + len(x)))
        scanned[0] += len(x)
        return run_batch(U, x, y, x_inv, y_inv)

    monkeypatch.setattr(un, "_first_non_engel", bounded)
    try:
        return m.non_engel_scan(U)
    except _PairsSpent:
        return None


# the 21 non-abelian unit groups with a Cayley table: V and V* of the
# enumerable non-abelian catalog entries wherever |U| <= 4096, and V* of D8@2
# and Q8xC2@2
TABLED = [(spec, p, which) for spec, p, whiches in (
    ("catalog:S3", 2, "V V*"), ("catalog:S3", 3, "V V*"), ("catalog:D,4", 2, "V V*"),
    ("catalog:D,4", 3, "V V*"), ("catalog:Q8", 2, "V V*"), ("catalog:Q8", 3, "V V*"),
    ("catalog:D,6", 2, "V V*"), ("catalog:D,6", 3, "V*"), ("catalog:A4", 2, "V V*"),
    ("catalog:A4", 3, "V*"), ("prod:catalog:S3|catalog:C,3", 2, "V*"),
    ("catalog:D,8", 2, "V*"), ("prod:catalog:Q8|catalog:C,2", 2, "V*"))
    for which in whiches.split()]
TABLED_IDS = [f"{spec}@{p}:{which}" for spec, p, which in TABLED]


@functools.lru_cache(maxsize=None)
def _unit_group(spec, p, which):
    V = m.enumerate_units(alg(spec, p))
    return V if which == "V" else m.filter_unitary(V)


@functools.lru_cache(maxsize=None)
def _table(spec, p, which):
    return m.as_abstract_group(_unit_group(spec, p, which))


@pytest.mark.parametrize("spec,p,which", TABLED, ids=TABLED_IDS)
def test_series_from_generators_matches_table_series(spec, p, which):
    U = _unit_group(spec, p, which)
    assert len(TABLED) == 21 and len(U) <= 4096
    series = m.lower_central_series_of_units(U)
    reference = m.lower_central_series(_table(spec, p, which))
    assert [term.tolist() for term in series] == [list(t.members) for t in reference]


@pytest.mark.parametrize("spec,p,which", TABLED, ids=TABLED_IDS)
def test_batched_witness_matches_reference_scan(monkeypatch, spec, p, which):
    # a pair budget, because a nilpotent U has no witness and all |U|^2 pairs
    # of D8@2's V* take minutes
    U = _unit_group(spec, p, which)
    reference = _scan_non_engel(_table(spec, p, which), U, max_pairs=200_000)
    pair = _bounded_scan(monkeypatch, U, 200_000)
    if reference is None:
        assert pair is None
    else:
        assert (pair[0], pair[1]) == reference
        assert m.engel_test(*pair, n_max=len(U)).nontrivial


@pytest.mark.parametrize("spec,p,which", [("catalog:D,4", 2, "V"), ("catalog:A4", 2, "V")])
def test_series_makes_no_empty_products_and_one_inverse_call(monkeypatch, spec, p, which):
    # the generating-set closure has no conjugators, and the inverses of the
    # kept commutators come from the products that form the commutators
    U = _unit_group(spec, p, which)
    products, inverses = un._products, un._inverses
    inverse_calls = []

    def nonempty_products(U, a, b):
        assert np.size(a) > 0, "empty product batch"
        return products(U, a, b)

    monkeypatch.setattr(un, "_products", nonempty_products)
    monkeypatch.setattr(un, "_inverses",
                        lambda U, a: inverse_calls.append(len(a)) or inverses(U, a))
    series = m.lower_central_series_of_units(U)
    assert len(inverse_calls) == 1
    reference = m.lower_central_series(_table(spec, p, which))
    assert [term.tolist() for term in series] == [list(t.members) for t in reference]


def test_series_of_abelian_and_trivial_unit_groups():
    V = m.enumerate_units(alg("catalog:C,4", 2))
    assert [t.size for t in m.lower_central_series_of_units(V)] == [8, 1]
    one = m.enumerate_units(alg("catalog:C,1", 2))
    assert [t.tolist() for t in m.lower_central_series_of_units(one)] == [[0]]


@pytest.mark.parametrize("spec,p,n_conj", [("catalog:D,4", 2, 0), ("catalog:Q8", 3, 0),
                                            ("catalog:D,4", 2, 2), ("catalog:A4", 2, 1)])
def test_closure_grown_in_batches_is_the_normal_closure(spec, p, n_conj):
    # a closure grown in two batches is the subgroup of the batch members,
    # and their normal closure in <S> is, by the oracle, the subgroup of
    # their conjugates by every element of <S>
    U = _unit_group(spec, p, "V")
    rng = np.random.default_rng(2)
    for _ in range(4):
        S = rng.choice(len(U), size=n_conj, replace=False)
        batches = [rng.choice(len(U), size=k, replace=False) for k in (1, 2)]
        xs = np.concatenate(batches)
        H = un._Closure(U)
        for batch in batches:
            H.grow(batch)
        inverse = np.empty(len(U), dtype=np.int64)
        inverse[S], inverse[xs] = un._inverses(U, S), un._inverses(U, xs)
        N, formed = un._normal_closure(U, xs, S, inverse)
        # it returns the commutators (g, s) of its generators g with S, g-major
        g, s = np.repeat(N.gens, S.size), np.tile(S, N.gens.size)
        expected = [U.index_of(U.element(int(a)).try_inverse() * U.element(int(b)).try_inverse()
                               * U.element(int(a)) * U.element(int(b))) for a, b in zip(g, s)]
        assert formed.tolist() == expected
        members = [U.element(int(x)) for x in xs]
        conjugators = [U.element(U.one_position)]
        if n_conj:
            conjugators = list(m.closure_subgroup([U.element(int(s)) for s in S]))
        conjugates = [s.try_inverse() * x * s for s in conjugators for x in members]
        for closure, generators in ((H, members), (N, conjugates)):
            expected = U.positions_of(m.closure_subgroup(generators, cap=len(U)).vectors)
            assert np.sort(np.concatenate(closure.members)).tolist() == np.sort(expected).tolist()
            assert closure.size == expected.size
            # each kept generator lies outside the closure before it, so doubles it
            assert 2 ** closure.gens.size <= closure.size


def test_series_grows_its_closures_by_cosets(monkeypatch):
    # a new member of a closure costs one product, and only coset
    # representatives are moved: breadth-first growth, every member times
    # every generator, took 32,768 pairs for the generating set of D8@2's V*
    # and 39,152 for the whole series
    U = _unit_group("catalog:D,8", 2, "V*")
    products, inverses = un._products, un._inverses
    pairs, before_inverses = [], []

    def counting(U, a, b):
        pairs.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
        return products(U, a, b)

    def marking(U, a):  # the series inverts S once, after its generating set
        before_inverses.append(sum(pairs))
        return inverses(U, a)

    monkeypatch.setattr(un, "_products", counting)
    monkeypatch.setattr(un, "_inverses", marking)
    series = m.lower_central_series_of_units(U)
    assert [t.size for t in series] == [4096, 128, 8, 1]
    assert len(before_inverses) == 1 and before_inverses[0] <= 2 * len(U)
    assert sum(pairs) <= 4 * len(U)


@pytest.mark.parametrize("spec,which,per_unit,after", [("catalog:A4", "V", 2, 1206),
                                                        ("catalog:D,8", "V*", 0.5, 979)])
def test_series_terms_cost_few_products_after_the_generating_set(monkeypatch, spec, which,
                                                                 per_unit, after):
    # each term is the normal closure of commutators of generators, grown one
    # generator at a time by cosets; a conjugator mode that added every
    # commutator at once, so that H = 1, took 15,840 pairs after the series'
    # inverse call on A4@2 V and 6,492 on D8@2 V*.  Each term's commutators
    # [T, S] are the ones its normal closure formed for its generators:
    # forming them again took 1,416 and 1,411 pairs
    U = _unit_group(spec, 2, which)
    products, inverses = un._products, un._inverses
    pairs, before_inverses = [], []

    def counting(U, a, b):
        pairs.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
        return products(U, a, b)

    def marking(U, a):
        before_inverses.append(sum(pairs))
        return inverses(U, a)

    monkeypatch.setattr(un, "_products", counting)
    monkeypatch.setattr(un, "_inverses", marking)
    series = m.lower_central_series_of_units(U)
    reference = m.lower_central_series(_table(spec, 2, which))
    assert [t.tolist() for t in series] == [list(t.members) for t in reference]
    assert len(before_inverses) == 1
    assert sum(pairs) - before_inverses[0] <= per_unit * len(U)
    assert sum(pairs) - before_inverses[0] == after


@pytest.mark.parametrize("chunk", [7, 1])
def test_closures_in_narrow_coset_batches(monkeypatch, chunk):
    # _CHUNK // |H| candidates per call: at 7 a call takes several small
    # cosets or one coset spans several chunks, and at 1 a call takes one
    groups = [("catalog:D,4", 2), ("catalog:Q8", 3), ("catalog:A4", 2)]
    for spec, p in groups:
        _table(spec, p, "V")  # built at the full chunk
    monkeypatch.setattr(un, "_CHUNK", chunk)
    for spec, p in groups:
        test_series_from_generators_matches_table_series(spec, p, "V")
    for spec, p, n_conj in [("catalog:D,4", 2, 0), ("catalog:Q8", 3, 0),
                            ("catalog:D,4", 2, 2), ("catalog:A4", 2, 1)]:
        test_closure_grown_in_batches_is_the_normal_closure(spec, p, n_conj)


def test_series_raises_when_a_product_leaves_the_unit_set():
    A = alg("catalog:C,3", 3)
    U = un.UnitGroup(A, np.stack([A.one().coeffs, A.embed(1).coeffs]))  # misses g^2
    with pytest.raises(ValueError, match="not closed"):
        m.lower_central_series_of_units(U)


def test_positions_of_resolves_unreduced_and_negative_input():
    V = m.enumerate_units(alg("catalog:S3", 3))
    p, rows = 3, np.arange(len(V))
    assert V.positions_of(V.vectors).tolist() == rows.tolist()
    assert V.positions_of(V.vectors + p).tolist() == rows.tolist()
    assert V.positions_of(V.vectors - 2 * p).tolist() == rows.tolist()
    at_p = np.where(V.vectors == 0, p, V.vectors)  # largest entry exactly p
    assert V.positions_of(at_p).tolist() == rows.tolist()
    mixed = V.vectors.copy()
    mixed[::2] -= p
    assert V.positions_of(mixed).tolist() == rows.tolist()
    assert V.positions_of(np.zeros((1, 6), dtype=np.int64) - p).tolist() == [-1]
