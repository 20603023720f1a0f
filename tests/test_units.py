"""Unit enumeration oracles: counts, closure, abstract views, Engel tests,
the lower central series from generators and the batched witness scan."""

import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import modunits as m
from modunits import groups as gr
from modunits import units as un
from modunits.errors import BudgetExceeded, EngelInconclusive, NotAUnit


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
    monkeypatch.setattr(un, "_CHUNK", 8)  # many chunks, in the masks and the lift
    chunked = [m.enumerate_units(alg(spec, p)).vectors for spec, p in pairs]
    for (spec, p), a, b, c in zip(pairs, first, again, chunked):
        assert a.tobytes() == b.tobytes() == c.tobytes(), (spec, p)


def _reference_units(A):
    """The direct oracle: elimination on the regular matrix of every aug-1 candidate of FG."""
    from modunits._gflinalg import batch_invertible_mask

    n, p = A.dim, A.p
    total = p ** (n - 1)
    parts = []
    for lo in range(0, total, un._CHUNK):
        vec = un._candidate_vectors(p, n, A.group.identity, lo, min(lo + un._CHUNK, total))
        parts.append(vec[batch_invertible_mask(vec[:, A.div], p)])
    return un.UnitGroup(A, np.concatenate(parts))


@pytest.mark.parametrize("spec,p", [
    (spec, p) for _, spec in m.DEFAULT_CATALOG for p in (2, 3)
    if p ** (m.build_group(m.parse_group_spec(spec)).order - 1) <= 2**18]
    + [("catalog:D,8", 2)])
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
        vec = un._candidate_vectors(2, A.dim, A.group.identity, int(i), int(i) + 1)[0]
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
    ("catalog:D,4", 3), ("prod:catalog:S3|catalog:C,3", 2)])
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
        assert b.units.shape == (p ** d,)
        assert (mul(b.rows.T, b.idempotent[:, None]).T == b.rows).all()  # rows lie in FQ*f
        for i in range(p ** d):
            c = np.array([i // p ** j % p for j in range(d)], dtype=np.int64)
            x = (c @ b.rows + one - b.idempotent) % p
            assert b.units[i] == (QA.from_coeffs(x).try_inverse() is not None), (d, i)


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
        count *= int(np.count_nonzero(b.units))
    assert count % (p - 1) == 0
    assert len(m.enumerate_units(A)) == count // (p - 1)


def test_batch_invertibility_matches_per_element_inverse():
    # the enumeration hot path (batched elimination) and try_inverse must
    # classify every aug-1 candidate identically
    from modunits._gflinalg import batch_invertible_mask
    from modunits.units import _candidate_vectors

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


def test_unit_group_rejects_non_closed_set():
    A = alg("catalog:C,3", 3)
    # {1, g} misses g^2; {1, 0} is closed under products, but 0 has no inverse
    for u, message in ((A.embed(1), "multiplication"), (A.zero(), "inverses")):
        U = un.UnitGroup(A, np.stack([A.one().coeffs, u.coeffs]))
        with pytest.raises(ValueError, match=message):
            U.verify_closure()
        with pytest.raises(ValueError, match=message):
            m.as_abstract_group(U)


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


def test_byte_keyed_lookup_in_witness_closure():
    # n log2 p = 42 log2 3 >= 62, so UnitGroup keys its rows by their bytes
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
    assert U._weights is None
    rows = {U.vectors[i].tobytes(): i for i in range(len(U))}
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


def _find_non_engel_pair_reference(U, budget, seed, n_max):
    """The element-at-a-time search: engel_test, with try_inverse at each step,
    on the seeded pairs in draw order."""
    rng = random.Random(seed)
    for _ in range(budget):
        x = U.element(rng.randrange(len(U)))
        y = U.element(rng.randrange(len(U)))
        try:
            if m.engel_test(x, y, n_max=n_max).nontrivial:
                return x, y
        except EngelInconclusive:
            continue
    return None


@pytest.mark.parametrize("spec,p,which,budget,n_max", [
    ("catalog:S3", 2, "V", 40, 256), ("catalog:S3", 2, "V", 40, 1),
    ("catalog:D,4", 2, "V", 60, 256), ("catalog:D,6", 2, "V", 30, 256),
    ("catalog:A4", 2, "V*", 30, 3), ("catalog:Q8", 3, "V*", 30, 256),
    ("catalog:D,6", 3, "V", 4, 256),
])
def test_batched_search_matches_element_search(spec, p, which, budget, n_max):
    U = _unit_group(spec, p, which)
    for seed in range(4):
        got = m.find_non_engel_pair(U, budget=budget, seed=seed, n_max=n_max)
        assert got == _find_non_engel_pair_reference(U, budget, seed, n_max)


def test_batched_search_runs_in_blocks(monkeypatch):
    U = _unit_group("catalog:D,6", 2, "V")
    monkeypatch.setattr(un, "_pair_block", lambda U: 3)
    for seed in range(6):
        got = m.find_non_engel_pair(U, budget=20, seed=seed, n_max=4)
        assert got == _find_non_engel_pair_reference(U, 20, seed, 4)


def _table_engel_oracle(G, x, y, n_max=128):
    """Independent table-level Engel iteration with cycle detection."""
    z = x
    seen = {z}
    for _ in range(n_max):
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

def _scan_non_engel(A, U, step_budget=200_000):
    """Reference witness scan on the Cayley table: the first pair (i, j) in
    row-major order whose Engel orbit repeats a non-identity state."""
    pairs = itertools.islice(itertools.product(range(A.order), repeat=2), step_budget)
    for i, j in pairs:
        outcome = un.engel_orbit(i, lambda z: m.commutator(A, z, j), A.identity, 512)
        if outcome is not None and outcome.nontrivial:
            return U.element(i), U.element(j)
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
    series = m.lower_central_series_of_units(U, seed=3)
    reference = m.lower_central_series(_table(spec, p, which))
    assert [term.tolist() for term in series] == [list(t.members) for t in reference]


@pytest.mark.parametrize("spec,p,which", TABLED, ids=TABLED_IDS)
def test_batched_witness_matches_reference_scan(spec, p, which):
    U = _unit_group(spec, p, which)
    reference = _scan_non_engel(_table(spec, p, which), U)
    pair = m.non_engel_scan(U)
    if reference is None:
        assert pair is None
    else:
        assert (pair[0], pair[1]) == reference
        assert m.engel_test(*pair, n_max=512).nontrivial


def test_non_engel_scan_honours_its_pair_budget():
    U = _unit_group("catalog:S3", 2, "V")
    x, y = _scan_non_engel(_table("catalog:S3", 2, "V"), U)
    k = U.index_of(x) * len(U) + U.index_of(y)  # row-major index of the first witness
    assert m.non_engel_scan(U, max_pairs=k) is None
    assert m.non_engel_scan(U, max_pairs=k + 1) == (x, y)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_series_does_not_depend_on_the_generating_set(seed):
    U = _unit_group("catalog:D,6", 2, "V")
    assert [t.size for t in m.lower_central_series_of_units(U, seed=seed)] == [768, 24, 12, 12]


def test_series_of_abelian_and_trivial_unit_groups():
    V = m.enumerate_units(alg("catalog:C,4", 2))
    assert [t.size for t in m.lower_central_series_of_units(V)] == [8, 1]
    one = m.enumerate_units(alg("catalog:C,1", 2))
    assert [t.tolist() for t in m.lower_central_series_of_units(one)] == [[0]]


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
