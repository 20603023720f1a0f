"""Criterion, witness constructions, expansion identity, equivalence verdicts."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import modunits as m
from modunits.errors import (
    NotCentral,
    NotUnitary,
    OrderMismatch,
    PreconditionViolated,
    PredicateNotSatisfied,
)
from modunits import theorem as th
from modunits.theorem import Budgets, VStatus


def group(spec):
    return m.build_group(m.parse_group_spec(spec))


def alg(spec, p):
    return m.GroupAlgebra(group(spec), p)


S3xC3 = group("prod:catalog:S3|catalog:C,3")
F3_S3xC3 = m.GroupAlgebra(S3xC3, 3)
INVOLUTIONS = [x for x in S3xC3.elements() if m.element_order(S3xC3, x) == 2]
CENTRALS = m.central_order_p_elements(S3xC3, 3)


# ---------------------------------------------------------------------------
# the criterion

def test_criterion_abelian_always_true():
    for spec in ("catalog:C,6", "prod:catalog:C,3|catalog:C,3"):
        G = group(spec)
        assert m.group_criterion(G, 2)
        assert m.group_criterion(G, 3)


def test_criterion_s3():
    G = group("catalog:S3")
    assert not m.group_criterion(G, 3)  # not nilpotent
    assert not m.group_criterion(G, 2)  # derived subgroup C3 is not a 2-group


def test_criterion_d4_vs_p():
    G = group("catalog:D,4")
    assert m.group_criterion(G, 2)
    assert not m.group_criterion(G, 3)


def test_criterion_a4():
    G = group("catalog:A4")
    # derived subgroup is the Klein four-group, a 2-group, yet A4 is not nilpotent
    D = m.derived_subgroup(G)
    assert D.order == 4 and m.is_p_group(D, 2)
    assert not m.group_criterion(G, 2)


# ---------------------------------------------------------------------------
# skew witness

def test_witness_skew_degenerates_for_involutions():
    c = CENTRALS[0]
    for g in INVOLUTIONS:
        assert m.witness_skew(F3_S3xC3, g, c).is_one()
    assert m.witness_skew(F3_S3xC3, S3xC3.identity, c).is_one()


def test_witness_skew_nontrivial_and_unitary():
    c = CENTRALS[0]
    z = S3xC3.labels.index("((1 2 3),e)")
    w = m.witness_skew(F3_S3xC3, z, c)
    assert not w.is_one()
    assert (w.involution() * w).is_one()
    assert w.is_unitary()


def test_witness_skew_all_pairs_unitary():
    for g in S3xC3.elements():
        for c in CENTRALS:
            assert m.witness_skew(F3_S3xC3, g, c).is_unitary()


def test_witness_skew_rejects_non_central():
    z = S3xC3.labels.index("((1 2 3),e)")  # order 3 but not central
    with pytest.raises(NotCentral):
        m.witness_skew(F3_S3xC3, INVOLUTIONS[0], z)


def test_witness_skew_rejects_wrong_order():
    A = alg("catalog:C,6", 3)
    with pytest.raises(OrderMismatch):
        m.witness_skew(A, 1, 3)  # a^3 is central but has order 2


# ---------------------------------------------------------------------------
# characteristic-2 witness

def test_witness_char2_identity_input():
    A = alg("catalog:C,2", 2)
    w = m.witness_char2(A, A.group.identity, 1)
    assert w == A.one() + A.hat(1)
    assert w.is_unitary()


def test_witness_char2_c4():
    A = alg("catalog:C,4", 2)
    g = 1            # generator, order 4
    c = int(A.group.mul[g, g])  # g^2
    w = m.witness_char2(A, g, c)
    assert w.is_unitary()


def test_witness_constructions_raise_typed_error_when_not_unitary(monkeypatch):
    # a typed error, not an assert that `python -O` would strip
    monkeypatch.setattr(m.GroupAlgebra, "unitary_mask",
                        lambda self, cols: np.zeros(cols.shape[1], dtype=bool))
    with pytest.raises(NotUnitary):
        m.witness_skew(F3_S3xC3, 0, CENTRALS[0])
    with pytest.raises(NotUnitary):
        m.witness_char2(alg("catalog:C,2", 2), 0, 1)


def test_a_witness_family_holds_a_few_group_sized_arrays():
    # the skew family of GF(2)[C256] is 256 columns; its unitarity product
    # takes the loop, since one gather for all pairs would hold 256^3 int16
    # entries, 32 MiB, where a (256, 256) int64 array is 0.5 MiB
    G = m.build_group(m.parse_group_spec("catalog:C,256"), cap=256)
    ctx = m.GroupAlgebra(G, 2)
    (c,) = m.central_order_p_elements(G, 2)
    tracemalloc.start()
    try:
        w = th.skew_witnesses(ctx, G.elements(), c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.shape == (256, 256)
    assert peak < 8 * w.nbytes


def test_witness_char2_guards():
    A = alg("prod:catalog:C,4|catalog:C,2", 2)
    G = A.group
    c = G.labels.index("(e,a)")
    g = G.labels.index("(a,e)")  # g^2 = (a2,e) not in <c>
    with pytest.raises(PreconditionViolated, match="g\\^2"):
        m.witness_char2(A, g, c)
    with pytest.raises(PreconditionViolated, match="p must be 2"):
        m.witness_char2(alg("catalog:C,2", 3), 1, 1)
    with pytest.raises(PreconditionViolated, match="central"):
        A2 = alg("catalog:D,4", 2)
        m.witness_char2(A2, 0, A2.group.labels.index("r"))


# ---------------------------------------------------------------------------
# dihedral witness

def test_witness_dihedral_s3xc3():
    rec = m.witness_dihedral(F3_S3xC3, INVOLUTIONS[0], INVOLUTIONS[1], CENTRALS[0])
    assert rec.passed
    assert rec.checks == {"subgroup_is_D2p": True}
    assert rec.case == 3


def test_witness_dihedral_guards():
    a = INVOLUTIONS[0]
    with pytest.raises(PreconditionViolated, match="commute"):
        m.witness_dihedral(F3_S3xC3, a, a, CENTRALS[0])
    with pytest.raises(PreconditionViolated, match="odd"):
        A2 = alg("catalog:D,4", 2)
        G2 = A2.group
        m.witness_dihedral(A2, G2.labels.index("s"), G2.labels.index("rs"),
                           G2.labels.index("r2"))
    z = S3xC3.labels.index("((1 2 3),e)")
    with pytest.raises(PreconditionViolated, match="order 2"):
        m.witness_dihedral(F3_S3xC3, z, INVOLUTIONS[0], CENTRALS[0])


def _dihedral_triples(G, p):
    """The (a, b, c) the catalog pass hands witness_dihedral."""
    involutions = [x for x in G.elements() if m.element_order(G, x) == 2]
    return [(a, b, c) for c in m.central_order_p_elements(G, p)
            for a in involutions for b in involutions
            if m.commutator(G, a, b) != G.identity
            and m.element_order(G, int(G.mul[a, b])) > 2]


def _dihedral_oracle(ctx, w, a):
    """The facts that witness_dihedral's one check stands for, on the closure
    of {w, a} and its Cayley table."""
    sub = m.closure_subgroup([w, ctx.embed(a)])
    abstract = m.as_abstract_group(sub)
    return {
        "subgroup_order_even": len(sub) % 2 == 0,
        "subgroup_order_2p_with_p_gt_1": len(sub) == 2 * ctx.p,
        "subgroup_non_abelian": not abstract.is_abelian(),
        "subgroup_non_nilpotent": m.nilpotency_class(abstract) is m.NOT_NILPOTENT,
    }


@pytest.mark.parametrize("specs,p,count", [
    ([spec for _, spec in m.DEFAULT_CATALOG], 3, 12),
    (["prod:catalog:D,7|catalog:C,3"], 3, 84),
    (["prod:catalog:D,5|catalog:C,5"], 5, 80),
], ids=["default-catalog", "D7xC3", "D5xC5"])
def test_witness_dihedral_relations_match_the_closure(specs, p, count):
    checked = 0
    for spec in specs:
        A = alg(spec, p)
        for a, b, c in _dihedral_triples(A.group, p):
            rec = m.witness_dihedral(A, a, b, c)
            w = m.witness_skew(A, int(A.group.mul[a, b]), c)
            assert list(rec.checks) == ["subgroup_is_D2p"]
            facts = _dihedral_oracle(A, w, a)
            assert len(facts) == 4
            for fact, held in facts.items():
                assert held == rec.checks["subgroup_is_D2p"], (spec, a, b, c, fact)
            assert rec.passed
            checked += 1
    assert checked == count


@pytest.mark.parametrize("corrupt", [
    lambda w, c: w.algebra.one(),  # relations hold, but <1, a> has order 2
    lambda w, c: w * w.algebra.embed(c),  # of order p, but (a w c)^2 = c^2
    lambda w, c: w.algebra.embed(c),  # central, so <c, a> is abelian
    lambda w, c: w + w.algebra.one(),  # not a unit
    lambda w, c: w + w.algebra.embed(1) - w.algebra.embed(2),  # one unit moved off w
], ids=["one", "times-c", "central", "non-unit", "perturbed"])
def test_witness_dihedral_fails_on_a_corrupted_w(monkeypatch, corrupt):
    a, b = INVOLUTIONS[0], INVOLUTIONS[1]
    c = CENTRALS[0]
    witness_skew = th.witness_skew
    corrupted = corrupt(witness_skew(F3_S3xC3, int(S3xC3.mul[a, b]), c), c)
    monkeypatch.setattr(th, "witness_skew", lambda *args: corrupted)
    rec = m.witness_dihedral(F3_S3xC3, a, b, c)
    assert rec.units == (corrupted.to_text(),)
    assert not rec.passed
    if corrupted.augmentation() == 1 and corrupted.try_inverse() is not None:
        assert not all(_dihedral_oracle(F3_S3xC3, corrupted, a).values())


def test_witness_indices_out_of_range_raise_value_error():
    A2 = alg("catalog:D,4", 2)
    g, h = INVOLUTIONS[0], INVOLUTIONS[1]
    c = CENTRALS[0]
    for bad in (-17, -1, S3xC3.order, S3xC3.order + 5):
        with pytest.raises(ValueError, match="out of range"):
            m.witness_skew(F3_S3xC3, 1, bad)
        with pytest.raises(ValueError, match="out of range"):
            th.skew_witnesses(F3_S3xC3, [1, 2], bad)
        with pytest.raises(ValueError, match="out of range"):
            m.witness_skew(F3_S3xC3, bad, c)
        for args in ((bad, h, c), (g, bad, c), (g, h, bad)):
            with pytest.raises(ValueError, match="out of range"):
                m.witness_dihedral(F3_S3xC3, *args)
        for args in ((bad, h, c), (g, bad, c), (g, h, bad)):
            with pytest.raises(ValueError, match="out of range"):
                m.verify_engel_expansion(F3_S3xC3, *args, n=3)
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            m.witness_char2(A2, 0, bad)
        with pytest.raises(ValueError, match="out of range"):
            th.char2_witnesses(A2, [0, 1], bad)
        with pytest.raises(ValueError, match="out of range"):
            m.witness_char2(A2, bad, A2.group.labels.index("r2"))


# ---------------------------------------------------------------------------
# expansion identity

def test_engel_expansion_commuting_telescopes():
    A = alg("catalog:C,6", 3)
    c = m.central_order_p_elements(A.group, 3)[0]
    for g in A.group.elements():
        for h in A.group.elements():
            assert m.verify_engel_expansion(A, g, h, c, n=4)


def test_engel_expansion_noncommuting():
    g, h = INVOLUTIONS[0], INVOLUTIONS[1]
    assert m.verify_engel_expansion(F3_S3xC3, g, h, CENTRALS[0], n=9)


def test_engel_expansion_char2():
    A = alg("prod:catalog:D,4|catalog:C,2", 2)
    cents = m.central_order_p_elements(A.group, 2)
    assert len(cents) == 3
    G = A.group
    g = G.labels.index("(r,e)")
    h = G.labels.index("(s,e)")
    assert m.verify_engel_expansion(A, g, h, cents[0], n=8)


def test_engel_expansion_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = int(rng.integers(0, S3xC3.order))
        h = int(rng.integers(0, S3xC3.order))
        c = CENTRALS[int(rng.integers(0, len(CENTRALS)))]
        assert m.verify_engel_expansion(F3_S3xC3, g, h, c, n=6)


@pytest.mark.parametrize("spec,p", [("prod:catalog:S3|catalog:C,3", 3), ("catalog:D,4", 2),
                                     ("catalog:Q8", 2), ("catalog:C,6", 3)])
def test_engel_expansion_solves_no_linear_system(monkeypatch, spec, p):
    """Every state z of the orbit is unitary, so z^-1 = z*."""
    def refuse(self):
        raise AssertionError("try_inverse called")
    A = alg(spec, p)
    cents = m.central_order_p_elements(A.group, p)
    rng = np.random.default_rng(5)
    monkeypatch.setattr(m.AlgebraElement, "try_inverse", refuse)
    for _ in range(8):
        g, h = (int(x) for x in rng.integers(0, A.group.order, size=2))
        c = cents[int(rng.integers(0, len(cents)))]
        assert m.verify_engel_expansion(A, g, h, c, n=5)


@pytest.mark.parametrize("spec,p", [("prod:catalog:S3|catalog:C,3", 3),
                                     ("prod:catalog:D,4|catalog:C,2", 2), ("catalog:C,6", 3),
                                     ("catalog:D,4", 2), ("catalog:Q8", 2)])
def test_engel_expansion_holds_at_every_orbit_length(spec, p):
    # at n = 70, C(70, 35) is past int64, so each binomial must be reduced
    # mod p before it enters an array
    A = alg(spec, p)
    cents = m.central_order_p_elements(A.group, p)
    rng = np.random.default_rng(17)
    for _ in range(3):
        g, h = (int(x) for x in rng.integers(0, A.group.order, size=2))
        c = cents[int(rng.integers(0, len(cents)))]
        for n in (1, 16, 70):
            assert m.verify_engel_expansion(A, g, h, c, n) is True, (g, h, c, n)


@pytest.mark.parametrize("n", [0, -1])
def test_engel_expansion_refuses_n_below_one_before_any_product(n, monkeypatch):
    # n = 0 would compare no orbit state and pass vacuously, n = -1 would
    # reach numpy as a negative array dimension
    def refuse(*args):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(m.GroupAlgebra, "multiply", refuse)
    c = CENTRALS[0]
    with pytest.raises(PreconditionViolated, match="n must be >= 1"):
        m.verify_engel_expansion(F3_S3xC3, 1, 2, c, n)


@pytest.mark.parametrize("spec,p", [("prod:catalog:A4|catalog:C,2", 2),
                                     ("prod:catalog:A4|catalog:C,3", 3)])
def test_engel_expansion_tells_conjugation_by_h_from_h_inverse(spec, p):
    # S3xC3, D4, Q8 and C6 have inner automorphisms of order <= 2 on every
    # g - g^-1, so only a 3-cycle h of A4 can tell an orbit conjugated the
    # wrong way round
    A = alg(spec, p)
    G = A.group
    c = m.central_order_p_elements(G, p)[0]
    differ = 0
    for g in G.elements():
        for h in G.elements():
            gh, gh_inv = (int(G.mul[G.mul[G.inv[x], g], x]) for x in (h, G.inv[h]))
            if gh == gh_inv or m.element_order(G, g) <= 2:
                continue
            assert m.verify_engel_expansion(A, g, h, c, n=4), (g, h)
            differ += 1
    assert differ > 0


@pytest.mark.parametrize("bad_step", [0, 4, 8])
def test_engel_expansion_fails_on_a_corrupted_orbit_state(monkeypatch, bad_step):
    g = S3xC3.labels.index("((1 2 3),a)")
    h = S3xC3.labels.index("((1 2),a)")  # not an involution, so h^-1 != h
    assert m.verify_engel_expansion(F3_S3xC3, g, h, CENTRALS[0], n=9)
    multiply = m.GroupAlgebra.multiply
    steps = 0  # each orbit step is the one product of two single elements, z* (h^-1 z h)

    def corrupting(self, a, b):
        nonlocal steps
        out = multiply(self, a, b)
        if np.ndim(a) == 1:
            steps += 1
            if steps == bad_step + 1:
                return (out + self._one_vec) % self.p
        return out

    monkeypatch.setattr(m.GroupAlgebra, "multiply", corrupting)
    assert not m.verify_engel_expansion(F3_S3xC3, g, h, CENTRALS[0], n=9)
    assert steps > bad_step  # the corrupted state was formed


# ---------------------------------------------------------------------------
# centralizer powers

def _is_p_power(k, p):
    while k % p == 0:
        k //= p
    return k == 1


def _reference_centralizer_power_property(G, p):
    """The definition, pair by pair: some h^(p^s), s <= log_p|G|, centralizes
    g, and (g, h) has p-power order, for every non-commuting g, h."""
    if not m.group_criterion(G, p):
        raise PredicateNotSatisfied(f"criterion fails for ({G.name}, p={p})")
    s_max = 0
    while p ** (s_max + 1) <= G.order:
        s_max += 1
    centralizers = [frozenset(m.centralizer(G, g).members) for g in G.elements()]
    for g in G.elements():
        for h in G.elements():
            k = m.commutator(G, g, h)
            if k == G.identity:
                continue
            if not _is_p_power(m.element_order(G, k), p):
                return False
            t = h
            for _ in range(s_max + 1):
                if t in centralizers[g]:
                    break
                t = G.power(t, p)
            else:
                return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("spec", [
    "catalog:C,6", "catalog:D,4", "catalog:Q8", "catalog:D,8", "prod:catalog:D,4|catalog:C,2",
    "prod:catalog:Q8|catalog:C,2", "prod:catalog:C,4|catalog:C,2", "catalog:D,16",
    "catalog:S4", "catalog:A4", "prod:catalog:S3|catalog:C,3", "prod:catalog:D,4|catalog:C,3"])
def test_centralizer_power_property_matches_the_pairwise_definition(spec, p):
    G = group(spec)
    try:
        expected = _reference_centralizer_power_property(G, p)
    except PredicateNotSatisfied:
        with pytest.raises(PredicateNotSatisfied):
            m.centralizer_power_property(G, p)
    else:
        assert m.centralizer_power_property(G, p) is expected

def test_centralizer_power_property_abelian():
    assert m.centralizer_power_property(group("catalog:C,6"), 2)


def test_centralizer_power_property_q8_with_s_at_most_1():
    Q8 = group("catalog:Q8")
    assert m.centralizer_power_property(Q8, 2)
    # sharper: h^2 already centralizes everything (h^2 in {1, -1} = center)
    for g in Q8.elements():
        for h in Q8.elements():
            if m.commutator(Q8, g, h) != Q8.identity:
                assert Q8.power(h, 2) in m.center(Q8)


def test_centralizer_power_property_d4():
    assert m.centralizer_power_property(group("catalog:D,4"), 2)


def test_centralizer_power_property_requires_criterion():
    with pytest.raises(PredicateNotSatisfied):
        m.centralizer_power_property(group("catalog:S3"), 2)


def _subgroup_criterion(G, H, p):
    """The criterion evaluated on a subgroup via its own commutators."""
    if m.nilpotency_class(H) is m.NOT_NILPOTENT:
        return False
    comms = {m.commutator(G, x, y) for x in H.members for y in H.members}
    return m.is_p_group(m.subgroup_generated(G, comms), p)


def test_criterion_monotone_on_subgroups():
    # criterion true for G forces it for subgroups of G
    for spec, p in [("catalog:D,4", 2), ("catalog:Q8", 2),
                    ("prod:catalog:C,4|catalog:C,2", 2), ("catalog:C,6", 3)]:
        G = group(spec)
        assert m.group_criterion(G, p)
        subgroups = [m.subgroup_generated(G, [x]) for x in G.elements()]
        subgroups += [m.derived_subgroup(G), m.center(G)]
        subgroups += [m.subgroup_generated(G, [x, y])
                      for x in range(0, G.order, 3) for y in range(0, G.order, 2)]
        for H in subgroups:
            assert _subgroup_criterion(G, H, p), f"{spec}@{p}: {H.members}"


# ---------------------------------------------------------------------------
# verdicts

def test_verify_equivalence_klein():
    v = m.verify_equivalence(group("prod:catalog:C,2|catalog:C,2"), 2,
                             Budgets(), "prod:catalog:C,2|catalog:C,2")
    assert v.criterion and v.modular
    assert v.v_status.kind == "nilpotent" and v.v_order == 8
    assert v.vstar_status.kind == "nilpotent"
    assert v.consistent


def test_verify_equivalence_s3_both_primes_witnessed():
    G = group("catalog:S3")
    for p in (2, 3):
        v = m.verify_equivalence(G, p, Budgets())
        assert v.modular and not v.criterion
        assert v.v_status.kind == "non_nilpotent"
        assert v.vstar_status.kind == "non_nilpotent"
        assert v.consistent
        for status in (v.v_status, v.vstar_status):
            x, y = status.witness
            assert m.engel_test(x, y).nontrivial


def test_verify_equivalence_skips_over_budget():
    G = group("catalog:Q8")
    v = m.verify_equivalence(G, 2, Budgets(enumeration_cap=16))
    assert v.v_status.skipped and v.vstar_status.skipped
    assert "budget" in v.v_status.reason
    assert v.consistent  # skipped statuses never break consistency


def test_verify_equivalence_honest_skip_when_class_path_unavailable():
    # tiny abstract cap: V(F2D4) is nilpotent, so falsification finds nothing
    # and the status degrades to an explicit skip instead of a wrong verdict
    G = group("catalog:D,4")
    v = m.verify_equivalence(G, 2, Budgets(abstract_cap=16, engel_budget=50))
    assert v.criterion
    assert v.v_status.skipped
    assert v.v_status.reason == ("order p^k above abstract_cap: a p-group, "
                                 "so nilpotent; class not computed")
    assert v.consistent


def test_verify_equivalence_skips_explicitly_over_the_enumeration_cap():
    v = m.verify_equivalence(group("catalog:D,4"), 2, Budgets(enumeration_cap=64))
    reason = "enumeration budget exceeded (needs 128)"
    assert v.v_status == v.vstar_status == VStatus("skipped", reason=reason)
    assert v.v_order is None and v.consistent


@pytest.mark.parametrize("spec,orders", [
    ("catalog:D,8", (2_211_840, 1_024)),
    ("prod:catalog:D,4|catalog:C,2", (294_912, 8_192)),
    ("prod:catalog:Q8|catalog:C,2", (294_912, 73_728)),
    ("prod:catalog:D,4|catalog:C,3", (16_529_940_864, 419_904)),
    ("prod:catalog:Q8|catalog:C,3", (16_529_940_864, 1_259_712)),
], ids=["D8", "D4xC2", "Q8xC2", "D4xC3", "Q8xC3"])
def test_skipped_unit_groups_take_their_orders_from_the_laws(spec, orders):
    # G is nilpotent and not abelian, and 3^(|G|-1) candidates are above
    # enumeration_cap: both statuses stay skipped, and the block laws count
    # |V| and |V*| without enumerating either
    v = m.verify_equivalence(group(spec), 3)
    assert (v.v_order, v.vstar_order) == orders and not v.enumerated
    assert v.v_status.skipped and v.vstar_status.skipped
    assert v.v_status.reason.startswith("enumeration budget exceeded")
    assert v.consistent


@pytest.mark.parametrize("spec,v_class,vstar_class", [
    ("catalog:D,8", 4, 3),
    ("prod:catalog:D,4|catalog:C,2", 2, 2),
    ("prod:catalog:Q8|catalog:C,2", 2, 2),
])
def test_series_decides_unit_groups_beyond_the_default_cap(spec, v_class, vstar_class):
    # V has 2^15 elements; at the default abstract_cap only the Engel search
    # runs on it, and that cannot prove nilpotency
    G = group(spec)
    v = m.verify_equivalence(G, 2, Budgets(abstract_cap=2**15))
    assert v.v_order == 2**15 and m.group_criterion(G, 2)
    assert v.v_status == VStatus("nilpotent", nilpotency_class=v_class)
    assert v.vstar_status == VStatus("nilpotent", nilpotency_class=vstar_class)
    assert v.consistent


@pytest.mark.parametrize("p,budgets,v_order", [
    (3, Budgets(abstract_cap=64), 384), (5, Budgets(), 30720),
], ids=["D4@3-cap64", "D4@5"])
def test_seeded_search_decides_v_above_abstract_cap(monkeypatch, p, budgets, v_order):
    # D4 is nilpotent and not abelian, so only the unit groups decide; V is
    # above abstract_cap, and the seeded search draws a non-Engel pair of it
    searched = []

    def spy(U, **kwargs):
        searched.append(len(U))
        return m.find_non_engel_pair(U, **kwargs)

    monkeypatch.setattr(th, "find_non_engel_pair", spy)
    v = m.verify_equivalence(group("catalog:D,4"), p, budgets)
    assert searched == [v_order] and v.v_order == v_order
    assert v.v_status.kind == "non_nilpotent" and v.v_status.nilpotency_class is None
    assert m.engel_test(*v.v_status.witness, n_max=v_order).nontrivial
    assert v.vstar_status == VStatus("nilpotent", nilpotency_class=2)
    assert not v.modular and not v.criterion and v.consistent


@pytest.mark.parametrize("spec,budgets", [
    ("catalog:D,8", Budgets()),
    ("prod:catalog:D,4|catalog:C,2", Budgets()),
    ("catalog:D,4", Budgets(abstract_cap=16)),
], ids=["D8@2", "D4xC2@2", "D4@2-cap16"])
def test_no_seeded_search_on_a_unit_group_of_prime_power_order(monkeypatch, spec, budgets):
    # V and V* of a 2-group over F2 are 2-groups, so nilpotent and without a
    # non-Engel pair: one above abstract_cap is skipped, and never searched
    def refuse(U, **kwargs):
        raise AssertionError(f"searched a unit group of order {len(U)}")

    monkeypatch.setattr(th, "find_non_engel_pair", refuse)
    v = m.verify_equivalence(group(spec), 2, budgets)
    reason = "order p^k above abstract_cap: a p-group, so nilpotent; class not computed"
    above = [status for status, order in ((v.v_status, v.v_order),
                                          (v.vstar_status, v.vstar_order))
             if order > budgets.abstract_cap]
    assert above and all(status == VStatus("skipped", reason=reason) for status in above)
    assert all(m.groups.p_part(order, 2) == order for order in (v.v_order, v.vstar_order))
    assert v.modular and v.criterion and v.consistent


def test_nilpotency_status_builds_no_cayley_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Cayley table was built")

    monkeypatch.setattr(th, "as_abstract_group", refuse)
    monkeypatch.setattr(m.units, "_product_rows", refuse)
    for spec, p in (("catalog:D,4", 2), ("catalog:D,6", 2), ("catalog:A4", 2)):
        v = m.verify_equivalence(group(spec), p)
        assert v.consistent and not v.v_status.skipped and not v.vstar_status.skipped


# With both witness searches blind, S3@2 is still decided, from G's own
# non-Engel pair before the series runs; D4@3 (G nilpotent, V not) is the
# case where the series proves V non-nilpotent, with no witness
@pytest.mark.parametrize("spec,p,vstar", [
    ("catalog:S3", 2, VStatus("non_nilpotent")),
    ("catalog:D,4", 3, VStatus("nilpotent", nilpotency_class=2)),
], ids=["S3@2", "D4@3"])
def test_series_proves_non_nilpotency_without_a_witness(monkeypatch, spec, p, vstar):
    monkeypatch.setattr(th, "non_engel_scan", lambda U: None)
    monkeypatch.setattr(th, "find_non_engel_pair", lambda U, **kwargs: None)
    v = m.verify_equivalence(group(spec), p)
    pair = m.non_engel_pair(group(spec))
    g_witness = None if pair is None else _embedded_texts(spec, p, pair)
    for status, want in ((v.v_status, VStatus("non_nilpotent")), (v.vstar_status, vstar)):
        assert dataclasses.replace(status, witness=None) == want
        if want.kind == "non_nilpotent":
            texts = None if status.witness is None else [u.to_text() for u in status.witness]
            assert texts == g_witness
    assert v.consistent


class SeriesRan(Exception):
    pass


def _embedded_texts(spec, p, pair):
    A = alg(spec, p)  # each verdict builds its own algebra, so compare texts
    return [A.embed(x).to_text() for x in pair]


def test_non_nilpotent_g_decides_its_unit_groups_without_the_series(monkeypatch):
    # G <= V* <= V, so a non-nilpotent G makes both unit groups non-nilpotent,
    # and G's first non-Engel pair, embedded in FG, is the witness of both
    def refuse(U, **kwargs):
        raise SeriesRan(len(U))

    for name in ("lower_central_series_of_units", "non_engel_scan", "find_non_engel_pair"):
        monkeypatch.setattr(th, name, refuse)
    for spec, p in (("catalog:S3", 2), ("catalog:S3", 3), ("catalog:D,6", 2),
                    ("catalog:A4", 2)):
        pair = m.non_engel_pair(group(spec))
        v = m.verify_equivalence(group(spec), p)
        for status in (v.v_status, v.vstar_status):
            assert status.kind == "non_nilpotent" and status.nilpotency_class is None
            assert [u.to_text() for u in status.witness] == _embedded_texts(spec, p, pair)
            assert m.engel_test(*status.witness).nontrivial
        assert v.consistent
    # D4 is nilpotent, so V(F3 D4), which is not, still needs the series
    with pytest.raises(SeriesRan, match="384"):
        m.verify_equivalence(group("catalog:D,4"), 3)


@pytest.mark.parametrize("budget", [0, 400])
def test_non_nilpotent_g_decides_above_abstract_cap(budget):
    # V(F3 D6) has 52,488 units, above abstract_cap; G = D6 is not nilpotent,
    # so V is not, and G's own pair witnesses it whatever the seeded search draws
    v = m.verify_equivalence(group("catalog:D,6"), 3, Budgets(engel_budget=budget))
    assert v.v_order == 52488
    texts = _embedded_texts("catalog:D,6", 3, m.non_engel_pair(group("catalog:D,6")))
    for status in (v.v_status, v.vstar_status):
        assert status.kind == "non_nilpotent"
        assert [u.to_text() for u in status.witness] == texts
        assert m.engel_test(*status.witness).nontrivial
    assert v.consistent


@pytest.mark.parametrize("spec,v_order,klass", [("catalog:C,16", 2**15, 1),
                                                  ("catalog:C,1", 1, 0)])
def test_abelian_unit_groups_are_decided_from_g(spec, v_order, klass):
    # V(F2 C16) exceeds abstract_cap, and is abelian because C16 is
    v = m.verify_equivalence(group(spec), 2)
    assert v.v_order == v_order
    assert v.v_status == v.vstar_status == VStatus("nilpotent", nilpotency_class=klass)
    assert v.criterion and v.consistent


def _status_key(status):
    witness = status.witness and tuple(u.to_text() for u in status.witness)
    return status.kind, status.nilpotency_class, witness, status.reason


# the 14 abelian and 8 non-nilpotent-G entries of the default catalog
G_DECIDED = [(spec, p) for _, spec in m.DEFAULT_CATALOG for p in (2, 3)
             if group(spec).is_abelian() or m.non_engel_pair(group(spec))]


@pytest.mark.parametrize("spec,p", G_DECIDED, ids=[f"{s}@{p}" for s, p in G_DECIDED])
def test_statuses_decided_from_g_do_not_depend_on_the_budgets(spec, p):
    assert len(G_DECIDED) == 22
    keys = set()
    for enumeration_cap in (16, Budgets().enumeration_cap):
        for abstract_cap in (16, Budgets().abstract_cap):
            for engel_budget in (0, 400):
                for seed in (0, 5):
                    v = m.verify_equivalence(group(spec), p, Budgets(
                        enumeration_cap, abstract_cap, engel_budget, seed))
                    assert v.consistent
                    keys.add((_status_key(v.v_status), _status_key(v.vstar_status)))
    assert len(keys) == 1
    (v_key, vstar_key), = keys
    assert v_key == vstar_key and v_key[0] in ("nilpotent", "non_nilpotent")


def test_every_non_nilpotent_catalog_status_has_a_verified_witness():
    statuses = [status for v in m.run_catalog(m.RunConfig()).verdicts
                for status in (v.v_status, v.vstar_status)]
    assert not any(status.skipped for status in statuses)
    non_nilpotent = [s for s in statuses if s.kind == "non_nilpotent"]
    assert len(non_nilpotent) == 19  # 16 from G, then V of D4@3 and V, V* of Q8@3
    for status in non_nilpotent:
        assert m.engel_test(*status.witness, n_max=10**6).nontrivial


def test_order_60_perfect_group_machinery():
    A5 = m.build_group(m.parse_group_spec("perm:(1 2 3 4 5);(1 2 3)"), cap=64)
    assert A5.order == 60
    A5.check_axioms()
    assert m.nilpotency_class(A5) is m.NOT_NILPOTENT
    assert m.derived_subgroup(A5).order == 60  # perfect
    assert not m.group_criterion(A5, 2)
    assert m.center(A5).is_trivial()


def test_verify_equivalence_nonmodular_negative_case():
    # GF(3)[D4] is non-modular: the unitary subgroup is genuinely nilpotent
    # while the criterion is false, so the equivalence needs the hypothesis
    v = m.verify_equivalence(group("catalog:D,4"), 3, Budgets())
    assert not v.modular
    assert not v.criterion
    assert v.v_status.kind == "non_nilpotent"
    assert v.vstar_status.kind == "nilpotent"
    assert v.vstar_order == 64 and v.vstar_status.nilpotency_class == 2
    assert v.consistent  # outside the theorem's hypotheses


def test_consistency_compares_v_with_the_criterion_on_non_modular_entries(monkeypatch):
    # D4@3 is non-modular and its V is not nilpotent, as the criterion says
    # (Khripta); a V forced nilpotent makes the verdict inconsistent, while
    # V*, which is nilpotent against the criterion, is compared only when modular
    assert m.verify_equivalence(group("catalog:D,4"), 3).consistent
    monkeypatch.setattr(th, "_nilpotency_status",
                        lambda U, budgets: VStatus("nilpotent", nilpotency_class=2))
    v = m.verify_equivalence(group("catalog:D,4"), 3)
    assert not v.modular and not v.criterion and v.v_status.kind == "nilpotent"
    assert not v.consistent
