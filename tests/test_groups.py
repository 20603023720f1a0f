"""Group-core tests: Cayley tables, commutators, series, subgroup machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modunits as m
from modunits.errors import NotPrime
from modunits import groups as gr
from modunits.groups import NOT_NILPOTENT


def catalog_groups():
    return {name: m.build_group(m.parse_group_spec(text))
            for name, text in m.DEFAULT_CATALOG}


GROUPS = catalog_groups()


def find_label(G, label):
    return G.labels.index(label)


# ---------------------------------------------------------------------------
# axioms

@pytest.mark.parametrize("name", sorted(GROUPS))
def test_catalog_axioms(name):
    G = GROUPS[name]
    G.check_axioms()  # raises on failure
    for a in G.elements():
        assert G.mul[a, G.inv[a]] == G.identity
        assert G.mul[G.inv[a], a] == G.identity


def test_rejects_non_group_table():
    with pytest.raises(ValueError):
        m.FiniteGroup("bad", [[0, 0], [1, 1]])
    # permutation rows but broken associativity: identity not neutral
    with pytest.raises(ValueError):
        m.FiniteGroup("bad", [[1, 0], [0, 1]], identity=0)


@pytest.mark.parametrize("table,kwargs,message", [
    ([[0, 1]], {}, "must be square"),
    (np.zeros((0, 0), dtype=int), {}, "must be nonempty"),
    ([[0]], {"identity": 1}, "identity index 1 out of range"),
    ([[0, 1], [0, 1]], {}, "some column of mul is not a permutation"),
    ([[0]], {"labels": ["a", "b"]}, "labels length does not match order"),
])
def test_rejects_a_table_that_is_not_a_group_table(table, kwargs, message):
    with pytest.raises(ValueError, match=message):
        m.FiniteGroup("bad", table, **kwargs)


def test_check_axioms_rejects_a_loop():
    # a Latin square with a two-sided identity and inverses, but (1*1)*2 = 2
    # and 1*(1*2) = 1*3 = 4
    loop = m.FiniteGroup("L5", [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                                [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    with pytest.raises(ValueError, match="not associative"):
        loop.check_axioms()


# ---------------------------------------------------------------------------
# element order

def test_element_order_identity():
    for G in GROUPS.values():
        assert m.element_order(G, G.identity) == 1


def test_element_order_transposition():
    S3 = GROUPS["S3"]
    t = find_label(S3, "(1 2)")
    assert m.element_order(S3, t) == 2


def test_element_order_c6_generator():
    C6 = GROUPS["C6"]
    g = find_label(C6, "a")
    # oracle: repeated multiplication
    x, k = g, 1
    while x != C6.identity:
        x = int(C6.mul[x, g])
        k += 1
    assert k == 6
    assert m.element_order(C6, g) == 6


def test_element_order_divides_group_order():
    for G in GROUPS.values():
        for x in G.elements():
            assert G.order % m.element_order(G, x) == 0


# ---------------------------------------------------------------------------
# commutators

def test_commutator_abelian_trivial():
    C6 = GROUPS["C6"]
    for x in C6.elements():
        for y in C6.elements():
            assert m.commutator(C6, x, y) == C6.identity


def test_left_normed_commutator_s3_is_3_cycle():
    S3 = GROUPS["S3"]
    x = find_label(S3, "(1 2)")
    y = find_label(S3, "(1 3)")
    z = m.left_normed_commutator(S3, x, y, 1)
    assert m.element_order(S3, z) == 3


def test_left_normed_commutator_d4_class2():
    D4 = GROUPS["D4"]
    for x in D4.elements():
        for y in D4.elements():
            assert m.left_normed_commutator(D4, x, y, 2) == D4.identity


def _lnc_recursive(G, x, y, n):
    if n == 1:
        return m.commutator(G, x, y)
    return m.commutator(G, _lnc_recursive(G, x, y, n - 1), y)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GROUPS)), st.data())
def test_left_normed_commutator_matches_recursive(name, data):
    G = GROUPS[name]
    x = data.draw(st.integers(0, G.order - 1))
    y = data.draw(st.integers(0, G.order - 1))
    n = data.draw(st.integers(1, 6))
    assert m.left_normed_commutator(G, x, y, n) == _lnc_recursive(G, x, y, n)


# ---------------------------------------------------------------------------
# subgroups

def test_subgroup_generated_trivial():
    S3 = GROUPS["S3"]
    H = m.subgroup_generated(S3, [S3.identity])
    assert H.members == (S3.identity,)


def test_subgroup_generated_s3_three_cycle():
    S3 = GROUPS["S3"]
    z = find_label(S3, "(1 2 3)")
    assert m.subgroup_generated(S3, [z]).order == 3


def test_subgroup_generated_q8_i_j():
    Q8 = GROUPS["Q8"]
    i = find_label(Q8, "i")
    j = find_label(Q8, "j")
    assert m.subgroup_generated(Q8, [i, j]).order == 8


def test_generated_subgroups_are_closed():
    for name in ("S3", "D4", "Q8", "A4"):
        G = GROUPS[name]
        for x in G.elements():
            m.subgroup_generated(G, [x, 1 % G.order]).verify_closed()
    S3 = GROUPS["S3"]
    z = find_label(S3, "(1 2 3)")
    with pytest.raises(ValueError):
        m.Subgroup(S3, (S3.identity, z)).verify_closed()  # missing z^2


def test_derived_subgroup():
    assert m.derived_subgroup(GROUPS["C6"]).is_trivial()
    assert m.derived_subgroup(GROUPS["S3"]).order == 3
    assert m.derived_subgroup(GROUPS["D4"]).order == 2


def test_derived_subgroup_normal_and_in_gamma2():
    for G in GROUPS.values():
        D = m.derived_subgroup(G)
        assert D.is_normal()
        gamma2 = m.lower_central_series(G)[1]
        assert set(D.members) <= set(gamma2.members)


def test_center():
    assert m.center(GROUPS["C6"]).order == 6
    assert m.center(GROUPS["S3"]).is_trivial()
    assert m.center(GROUPS["Q8"]).order == 2


def test_centralizer():
    S3 = GROUPS["S3"]
    assert m.centralizer(S3, S3.identity).order == 6
    z = find_label(S3, "(1 2 3)")
    assert m.centralizer(S3, z).order == 3
    Q8 = GROUPS["Q8"]
    i = find_label(Q8, "i")
    C = m.centralizer(Q8, i)
    assert C.order == 4
    assert set(C.members) == set(m.subgroup_generated(Q8, [i]).members)


# ---------------------------------------------------------------------------
# nilpotency

def test_nilpotency_class_trivial_group():
    assert m.nilpotency_class(m.cyclic(1)) == 0


def test_nilpotency_class_abelian_is_at_most_one():
    for name in ("C2", "C3", "C4", "C6", "C2xC2", "C3xC3", "C4xC2"):
        assert m.nilpotency_class(GROUPS[name]) <= 1


def test_nilpotency_class_d4():
    D4 = GROUPS["D4"]
    series = m.lower_central_series(D4)
    # oracle: gamma_2 must be the subgroup generated by all commutators
    comms = {m.commutator(D4, x, y) for x in D4.elements() for y in D4.elements()}
    r2 = find_label(D4, "r2")
    assert comms == {D4.identity, r2}
    assert set(series[1].members) == comms
    assert m.nilpotency_class(D4) == 2


def test_nilpotency_class_s3_not_nilpotent():
    S3 = GROUPS["S3"]
    series = m.lower_central_series(S3)
    assert m.nilpotency_class(S3) is NOT_NILPOTENT
    assert series[-1].order == 3  # stabilizes at the order-3 subgroup


def test_not_nilpotent_is_falsy_singleton():
    assert not NOT_NILPOTENT
    assert m.nilpotency_class(GROUPS["A4"]) is NOT_NILPOTENT


def _non_engel_pair_reference(G):
    """The first pair in row-major order with (x, y, |G|) != 1: an orbit that
    reaches 1 does so within |G| - 1 steps and then stays there."""
    for x in G.elements():
        for y in G.elements():
            if m.left_normed_commutator(G, x, y, G.order) != G.identity:
                return x, y
    return None


@pytest.mark.parametrize("spec", [
    "catalog:C,1", "prod:catalog:C,4|catalog:C,2", "catalog:D,4", "catalog:Q8",
    "catalog:D,8", "prod:catalog:D,4|catalog:C,2", "catalog:S3", "catalog:S4",
    "catalog:A4", "catalog:D,6", "prod:catalog:S3|catalog:C,3",
    "perm:(1 2 3 4 5);(1 2 3)"])
def test_non_engel_pair_matches_brute_force(spec):
    G = m.build_group(m.parse_group_spec(spec), cap=64)
    pair = m.non_engel_pair(G)
    assert pair == _non_engel_pair_reference(G)
    assert (pair is None) == (m.nilpotency_class(G) is not NOT_NILPOTENT)


def test_non_engel_pair_runs_in_row_blocks(monkeypatch):
    # one row per block: A4's first hit lies in row 1, after a block whose
    # orbits all reach 1, and C4xC2 and D4 run every row to the end
    monkeypatch.setattr(gr, "_PAIRS_PER_BLOCK", 1)
    for name in ("A4", "S3", "D6", "D4", "C4xC2"):
        G = GROUPS[name]
        assert m.non_engel_pair(G) == _non_engel_pair_reference(G)
    assert m.non_engel_pair(GROUPS["A4"])[0] == 1


def _first_non_engel_reference(maps, starts):
    """The first pair k whose orbit under maps[k] from starts[k] never
    reaches 0, by a set of the states visited; len(starts) when none."""
    for k, z in enumerate(starts):
        seen = set()
        while z != 0 and z not in seen:
            seen.add(z)
            z = maps[k][z]
        if z != 0:
            return k
    return len(starts)


def _run_first_non_engel(maps, starts):
    """gr.first_non_engel with the step z <- maps[k][z], carrying a copy of
    z in a second row that the step checks is moved along with it."""
    maps = np.asarray(maps)

    def step(k, state):
        assert (state[0] == state[1]).all()
        return maps[k, state]

    return gr.first_non_engel(np.array([starts, starts]), 0, step)


def _orbit(tail, cycle, n=16):
    """A map of range(n) that fixes 0, and a start whose orbit passes `tail`
    states and then cycles through `cycle` others; with cycle 0 it reaches 0
    after the tail."""
    f = np.zeros(n, dtype=np.int64)
    path = np.arange(1, tail + cycle + 1)
    f[path[:-1]] = path[1:]
    if cycle:
        f[path[-1]] = path[tail]
    return f, (1 if path.size else 0)


@pytest.mark.parametrize("orbits,first", [
    ([(5, 2)], 0),                      # tail longer than the cycle
    ([(1, 6)], 0),                      # cycle longer than the tail
    ([(3, 0), (0, 1)], 1),              # a fixed point other than 1
    ([(2, 0), (4, 1)], 1),              # a fixed point after a tail
    ([(0, 0), (2, 0)], 2),              # an orbit that starts at 1, and none non-Engel
    ([(7, 5), (0, 1)], 0),              # pair 1 is detected first, pair 0 is returned
    ([(9, 0), (0, 1), (3, 4)], 1),      # pair 0 reaches 1 only after pair 1 is detected
], ids=["tail>cycle", "cycle>tail", "fixed", "fixed-after-tail", "starts-at-1",
        "later-detected-first", "earlier-reaches-1-late"])
def test_first_non_engel_on_chosen_orbits(orbits, first):
    maps, starts = zip(*(_orbit(tail, cycle) for tail, cycle in orbits))
    assert _first_non_engel_reference(maps, starts) == first
    assert _run_first_non_engel(maps, list(starts)) == first


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_non_engel_on_random_maps(data):
    n = data.draw(st.integers(1, 10))
    k = data.draw(st.integers(1, 6))
    maps = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    for f in maps:
        f[0] = 0  # 0 plays the identity, a fixed point of every orbit
    starts = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    assert _run_first_non_engel(maps, starts) == _first_non_engel_reference(maps, starts)


# ---------------------------------------------------------------------------
# p-groups

def test_is_p_group():
    S3 = GROUPS["S3"]
    D = m.derived_subgroup(S3)
    assert m.is_p_group(D, 3)
    assert not m.is_p_group(D, 2)
    assert m.is_p_group(m.subgroup_generated(S3, [S3.identity]), 5)


def test_p_part_agrees_with_the_division_loop():
    for p in (2, 3, 5, 7, 11):
        for n in range(1, 5001):
            k, part = n, 1
            while k % p == 0:
                k, part = k // p, part * p
            assert gr.p_part(n, p) == part, (n, p)
            assert (gr.p_part(n, p) == n) == (k == 1), (n, p)


def test_is_p_group_rejects_composite():
    with pytest.raises(NotPrime):
        m.is_p_group(GROUPS["C4"], 4)


def test_p_group_center_nontrivial():
    for name, p in (("C2", 2), ("C4", 2), ("C2xC2", 2), ("C4xC2", 2),
                    ("D4", 2), ("Q8", 2), ("C3", 3), ("C3xC3", 3)):
        G = GROUPS[name]
        assert m.is_p_group(G, p)
        assert m.center(G).order > 1


def test_central_order_p_elements():
    C2 = GROUPS["C2"]
    assert m.central_order_p_elements(C2, 2) == [1]
    assert m.central_order_p_elements(GROUPS["S3"], 3) == []
    Q8 = GROUPS["Q8"]
    cents = m.central_order_p_elements(Q8, 2)
    assert cents == [find_label(Q8, "-1")]


def test_lower_central_series_terms_are_normal():
    for name in ("S3", "D4", "Q8", "A4", "D6"):
        for term in m.lower_central_series(GROUPS[name]):
            assert term.is_normal()


def test_power():
    C6 = GROUPS["C6"]
    g = find_label(C6, "a")
    assert C6.power(g, 0) == C6.identity
    assert C6.power(g, 7) == g
    assert C6.power(g, -1) == int(C6.inv[g])
    Q8 = GROUPS["Q8"]
    i = find_label(Q8, "i")
    assert Q8.power(i, 2) == find_label(Q8, "-1")
    assert Q8.power(i, 4) == Q8.identity


# ---------------------------------------------------------------------------
# O_p(G) and quotients

V4_LABELS = {"()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"}


@pytest.mark.parametrize("spec,p,labels", [
    ("catalog:S4", 2, V4_LABELS),
    ("catalog:S4", 3, {"()"}),
    ("catalog:A4", 2, V4_LABELS),
    ("catalog:A4", 3, {"()"}),
    ("catalog:D,6", 3, {"e", "r2", "r4"}),
])
def test_p_core_known_groups(spec, p, labels):
    G = m.build_group(m.parse_group_spec(spec))
    N = gr.p_core(G, p)
    assert {G.labels[x] for x in N.members} == labels
    assert N.is_normal()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_core_matches_per_element_definition(p):
    # p_core skips the elements whose order is not a power of p
    for G in GROUPS.values():
        members = tuple(x for x in G.elements() if gr.is_p_group(gr.normal_closure(G, x), p))
        assert gr.p_core(G, p).members == members, G.name


LARGER_2_GROUPS = [m.build_group(m.parse_group_spec(text))
                   for text in ("catalog:D,8", "prod:catalog:D,4|catalog:C,2")]


@pytest.mark.parametrize("G", LARGER_2_GROUPS, ids=lambda G: G.name)
def test_p_core_of_larger_2_groups_matches_per_element_definition(G):
    members = tuple(x for x in G.elements() if gr.is_p_group(gr.normal_closure(G, x), 2))
    assert gr.p_core(G, 2).members == members == tuple(G.elements())


def test_p_core_of_a_p_group_takes_no_normal_closure(monkeypatch):
    def refuse(G, x):
        raise AssertionError(f"normal closure of {x} in {G.name}")

    p_groups = [(G, p) for G in [*GROUPS.values(), *LARGER_2_GROUPS] for p in (2, 3, 5)
                if gr.is_p_group(G, p)]
    assert len(p_groups) == 10  # C2, C3, C4, C2xC2, C3xC3, D4, Q8, C4xC2, D8, D4xC2
    monkeypatch.setattr(gr, "normal_closure", refuse)
    for G, p in p_groups:
        assert gr.p_core(G, p).members == tuple(G.elements()), G.name


def test_p_core_of_d10_at_2_is_its_center():
    G = m.build_group(m.parse_group_spec("catalog:D,10"))
    N = gr.p_core(G, 2)
    assert N == m.center(G)
    assert {G.labels[x] for x in N.members} == {"e", "r5"}


@pytest.mark.parametrize("name,p", [("C2", 2), ("C4", 2), ("C2xC2", 2), ("C4xC2", 2),
                                    ("D4", 2), ("Q8", 2), ("C3", 3), ("C3xC3", 3)])
def test_p_core_of_p_group_is_whole_group(name, p):
    G = GROUPS[name]
    assert gr.p_core(G, p).order == G.order


@pytest.mark.parametrize("name,p", [("C3", 2), ("C4", 3), ("S3", 5), ("A4", 5),
                                    ("C3xC3", 2), ("D4", 3)])
def test_p_core_trivial_when_p_does_not_divide_order(name, p):
    G = GROUPS[name]
    assert G.order % p
    assert gr.p_core(G, p).is_trivial()


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("p", [2, 3])
def test_coset_map_is_homomorphism_onto_quotient(name, p):
    G = GROUPS[name]
    N = gr.p_core(G, p)
    Q, coset = gr.quotient(N)
    assert Q.order * N.order == G.order
    assert sorted(set(coset.tolist())) == list(range(Q.order))  # onto
    assert (coset[G.mul] == Q.mul[coset[:, None], coset[None, :]]).all()
    assert coset[G.identity] == Q.identity
    assert [int(x) for x in np.nonzero(coset == Q.identity)[0]] == list(N.members)
    Q.check_axioms()


def test_quotient_by_trivial_subgroup_keeps_table():
    G = GROUPS["S3"]
    Q, coset = gr.quotient(m.subgroup_generated(G, [G.identity]))
    assert (Q.mul == G.mul).all()
    assert (coset == np.arange(G.order)).all()


def test_quotient_rejects_non_normal_subgroup():
    G = GROUPS["S3"]
    H = m.subgroup_generated(G, [find_label(G, "(1 2)")])
    assert not H.is_normal()
    with pytest.raises(ValueError, match="normal"):
        gr.quotient(H)
