"""Spec-grammar tests: parsing, canonical printing, construction caps."""

import itertools

import pytest

import modunits as m
from modunits.catalog import _perm_table_group, perm_closure, spec_to_text
from modunits.errors import ClosureExceedsCap, InvalidSpec


def build(text, cap=64):
    return m.build_group(m.parse_group_spec(text), cap=cap)


def test_catalog_c2():
    assert build("catalog:C2").order == 2
    assert build("catalog:C,2").order == 2


def test_catalog_dihedral_order():
    assert build("catalog:D,4").order == 8
    assert build("catalog:D6").order == 12


def test_fixed_names():
    assert build("catalog:Q8").order == 8
    assert build("catalog:S3").order == 6
    assert build("catalog:S4").order == 24
    assert build("catalog:A4").order == 12


def test_perm_spec_s3():
    G = build("perm:(1 2);(1 2 3)")
    assert G.order == 6
    assert m.nilpotency_class(G) is m.NOT_NILPOTENT


def test_perm_spec_multi_cycle_generator():
    G = build("perm:(1 2)(3 4);(1 3)(2 4)")
    assert G.order == 4  # Klein four-group
    assert G.is_abelian()


def test_product_spec():
    G = build("prod:catalog:S3|catalog:C,3")
    assert G.order == 18
    H = build("prod:catalog:C,3|catalog:C,3")
    assert H.order == 9
    assert H.is_abelian()


def test_nested_product():
    G = build("prod:prod:catalog:C,2|catalog:C,2|catalog:C,2")
    assert G.order == 8
    assert G.is_abelian()


def test_round_trip_through_canonical_printer():
    texts = ["catalog:C,2", "catalog:C2", "catalog:D,6", "catalog:Q8",
             "perm:(1 2);(1 2 3)", "perm:(1 2)(3 4)",
             "prod:catalog:S3|catalog:C,3",
             "prod:prod:catalog:C,2|catalog:C,2|catalog:C,3"]
    for text in texts:
        spec = m.parse_group_spec(text)
        printed = spec_to_text(spec)
        assert m.parse_group_spec(printed) == spec


@pytest.mark.parametrize("bad", [
    "",
    "foo",
    "catalog:",
    "catalog:X9",
    "catalog:C,x",
    "catalog:C,0",
    "catalog:Q8,3",
    "perm:",
    "perm:(1 2",
    "perm:(0 1)",
    "perm:(1 1 2)",
    "perm:(1 4097)",
    "perm:(1 2 ²)",
    pytest.param("perm:(1 " + "9" * 5000 + ")", id="perm:(1 <5000 digits>)"),
    "prod:catalog:C,2",
])
def test_invalid_specs(bad):
    with pytest.raises(InvalidSpec) as err:
        m.parse_group_spec(bad)
    assert err.value.position >= 0


def test_invalid_spec_reports_position():
    with pytest.raises(InvalidSpec) as err:
        m.parse_group_spec("perm:(1 2);(3 x)")
    assert err.value.position >= 11


def test_perm_point_bound_is_checked_before_building_the_permutation():
    with pytest.raises(InvalidSpec, match="above 4096") as err:
        m.parse_group_spec("perm:(1 2);(1 100000000)")  # would be a 10^8-entry list
    assert err.value.position == 11
    assert len(m.parse_group_spec("perm:(1 4096)").generators[0]) == 4096


def test_order_cap_enforced():
    with pytest.raises(ClosureExceedsCap):
        build("catalog:C,65")
    with pytest.raises(ClosureExceedsCap):
        build("prod:catalog:S4|catalog:C,3")  # order 72
    build("prod:catalog:S4|catalog:C,3", cap=128)


def test_perm_closure_cap():
    # S5 from these generators has order 120 > 64
    spec = m.parse_group_spec("perm:(1 2);(1 2 3 4 5)")
    with pytest.raises(ClosureExceedsCap):
        m.build_group(spec, cap=64)
    G = m.build_group(spec, cap=120)
    assert G.order == 120


def _parity(perm):
    seen, parity = set(), 0
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = perm[x], length + 1
        parity ^= max(length - 1, 0) & 1
    return parity


@pytest.mark.parametrize("n", range(6))
def test_symmetric_and_alternating_match_the_enumerated_permutations(n):
    # reference: every permutation of n points, or every even one, in one table
    perms = list(itertools.permutations(range(n)))
    for built, ref in ((m.symmetric(n), _perm_table_group(f"S{n}", perms)),
                       (m.alternating(n), _perm_table_group(
                           f"A{n}", [q for q in perms if _parity(q) == 0]))):
        assert (built.name, built.labels, built.identity) == (ref.name, ref.labels, ref.identity)
        assert (built.mul == ref.mul).all()


def test_perm_closure_direct():
    gens = (tuple([1, 0, 2]), tuple([0, 2, 1]))
    G = perm_closure(gens, cap=10)
    assert G.order == 6


def test_direct_product_structure():
    A = m.cyclic(2)
    B = m.symmetric(3)
    G = m.direct_product(A, B)
    assert G.order == 12
    assert G.labels[G.identity] == "(e,())"
    # factor orders multiply elementwise
    for a in range(2):
        for b in range(6):
            idx = a * 6 + b
            oa = m.element_order(A, a)
            ob = m.element_order(B, b)
            lcm = oa * ob // __import__("math").gcd(oa, ob)
            assert m.element_order(G, idx) == lcm


def test_default_catalog_builds():
    for name, text in m.DEFAULT_CATALOG:
        G = build(text)
        assert G.name == name
