"""Spec-grammar tests: parsing, canonical printing, construction caps."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modunits as m
from modunits import catalog as cat
from modunits.catalog import GroupSpec, _perm_table_group, perm_closure, spec_to_text
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


def test_order_cap_covers_a_product_with_a_perm_factor():
    # S3 x C3 has 18 elements; only the product node can tell
    with pytest.raises(ClosureExceedsCap, match="has order 18 > cap 16"):
        build("prod:perm:(1 2 3);(1 2)|catalog:C,3", cap=16)
    with pytest.raises(ClosureExceedsCap, match="has order 300 > cap 64"):
        build("prod:perm:(1 2 3 4 5);(1 2 3)|catalog:C,5")  # A5 x C5
    assert build("prod:perm:(1 2 3);(1 2)|catalog:C,3", cap=18).order == 18


def test_hand_built_unknown_catalog_name_is_an_invalid_spec():
    with pytest.raises(InvalidSpec, match="unknown catalog name 'X'"):
        m.build_group(GroupSpec("catalog", name="X"))


_C2 = GroupSpec("catalog", name="C", param=2)


@pytest.mark.parametrize("spec", [
    GroupSpec("catalog", name="C"),
    GroupSpec("catalog", name="D", param=-2),
    GroupSpec("catalog", name="C", param=0),
    GroupSpec("catalog", name="C", param=2.5),
    GroupSpec("catalog", name="C", param=True),
    GroupSpec("catalog", name="Q8", param=3),
    GroupSpec("prod", factors=(_C2,)),
    GroupSpec("prod", factors=(_C2, _C2, _C2)),
    GroupSpec("prod", factors=(_C2, "catalog:C,2")),
    GroupSpec("perm"),
    GroupSpec("perm", generators=((1, 0), (0, 1, 2))),
    GroupSpec("perm", generators=((0, 0),)),  # looped forever in _perm_to_cycles
    GroupSpec("perm", generators=((1.0, 0.0),)),
], ids=["C-no-param", "D-negative", "C-zero", "C-float", "C-bool", "Q8-param", "prod-one",
        "prod-three", "prod-text-factor", "perm-none", "perm-unequal-degrees",
        "perm-not-bijective", "perm-float-points"])
def test_hand_built_spec_with_a_bad_field_is_an_invalid_spec(spec, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cat, "FiniteGroup", no_table)
    with pytest.raises(InvalidSpec):
        m.build_group(spec)
    if spec.kind == "perm":
        with pytest.raises(InvalidSpec):
            perm_closure(spec.generators, cap=64)
        with pytest.raises(InvalidSpec):
            spec_to_text(spec)


def test_hand_built_spec_takes_numpy_integers():
    assert m.build_group(GroupSpec("catalog", name="D", param=np.int64(3))).order == 6
    assert m.build_group(GroupSpec("perm", generators=(tuple(np.array([1, 2, 0])),))).order == 3
    with pytest.raises(ClosureExceedsCap):  # 2 * n wraps in int64
        m.build_group(GroupSpec("catalog", name="D", param=np.int64(2**62)))


def test_a_permutation_group_is_built_on_its_moved_points():
    # the closure runs on the 64 moved points, not on tuples of 4096 points
    low = build("perm:(" + " ".join(map(str, range(1, 65))) + ")")
    high = build("perm:(" + " ".join(map(str, range(4033, 4097))) + ")")
    assert (low.mul == high.mul).all() and low.identity == high.identity
    shifted = [re.sub(r"\d+", lambda pt: str(int(pt.group()) + 4032), label)
               for label in low.labels]
    assert list(high.labels) == shifted and high.labels != low.labels


_CATALOG_TEXTS = (st.sampled_from(["Q8", "S3", "S4", "A4"])
                  | st.builds("{}{}{}".format, st.sampled_from("CD"), st.sampled_from([",", ""]),
                              st.integers(1, 40))).map("catalog:{}".format)
_CYCLE = st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True).map(
    lambda pts: "(" + " ".join(map(str, pts)) + ")")
_PERM_TEXTS = st.lists(st.lists(_CYCLE, min_size=1, max_size=2).map("".join),
                       min_size=1, max_size=3).map(lambda gens: "perm:" + ";".join(gens))
_SPEC_TEXTS = st.recursive(_CATALOG_TEXTS | _PERM_TEXTS,
                           lambda inner: st.tuples(inner, inner).map("prod:{0[0]}|{0[1]}".format),
                           max_leaves=4)


def _order(spec):
    """The order of the group a spec describes, by its leaves, with no cap."""
    if spec.kind == "prod":
        return _order(spec.factors[0]) * _order(spec.factors[1])
    return m.build_group(spec, cap=120).order  # at most S5 or D40


@settings(max_examples=150, deadline=None)
@given(_SPEC_TEXTS, st.integers(1, 64))
def test_build_group_keeps_every_accepted_spec_under_its_cap(text, cap):
    spec = m.parse_group_spec(text)
    order = _order(spec)
    if order > cap:
        with pytest.raises(ClosureExceedsCap):
            m.build_group(spec, cap)
    else:
        assert m.build_group(spec, cap).order == order


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
