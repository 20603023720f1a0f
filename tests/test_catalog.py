"""Spec-grammar tests: parsing, canonical printing, construction caps."""

import itertools
import os
import pickle
import re
import subprocess
import sys
import time

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


@pytest.mark.parametrize("spec", [
    GroupSpec("group"),
    GroupSpec("prod", factors=(_C2,)),
    GroupSpec("prod", factors=(_C2, "catalog:C,2")),
    GroupSpec("catalog", name="Z", param=9),
    GroupSpec("catalog", name="C"),
    GroupSpec("catalog", name="D", param=-2),
    GroupSpec("catalog", name="Q8", param=3),
], ids=["unknown-kind", "prod-one", "prod-text-factor", "unknown-name", "C-no-param",
        "D-negative", "Q8-param"])
def test_spec_to_text_refuses_what_build_group_refuses(spec):
    # printed, each would be text that parse_group_spec refuses, or no text
    with pytest.raises(InvalidSpec):
        m.build_group(spec)
    with pytest.raises(InvalidSpec):
        spec_to_text(spec)
    with pytest.raises(InvalidSpec):  # nested in a product too
        spec_to_text(GroupSpec("prod", factors=(_C2, spec)))


def test_hand_built_spec_takes_numpy_integers():
    assert m.build_group(GroupSpec("catalog", name="D", param=np.int64(3))).order == 6
    assert m.build_group(GroupSpec("perm", generators=(tuple(np.array([1, 2, 0])),))).order == 3
    with pytest.raises(InvalidSpec, match="above 4096"):  # 2 * n would wrap in int64
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


@pytest.mark.parametrize("bad", [
    "catalog:C,²",  # passes str.isdigit, refused by int()
    pytest.param("catalog:C," + "9" * 5000, id="catalog:C,<5000 digits>"),
    pytest.param("catalog:C" + "9" * 5000, id="catalog:C<5000 digits>"),
    "catalog:D,٣",  # an Arabic-Indic 3, as perm:(1 ٣) is refused
    "catalog:C٣",
    "catalog:C,5000",  # above MAX_PERM_POINT, like a cycle point
    "catalog:C 6",
])
def test_spec_integers_are_ascii_digits_up_to_the_point_bound(bad):
    with pytest.raises(InvalidSpec):
        m.parse_group_spec(bad)


def test_catalog_parameters_read_like_cycle_points():
    assert m.parse_group_spec("catalog:C,4096") == GroupSpec("catalog", name="C", param=4096)
    assert m.parse_group_spec(" catalog: D, 007 ") == GroupSpec("catalog", name="D", param=7)
    assert m.parse_group_spec("catalog:D0012") == GroupSpec("catalog", name="D", param=12)
    with pytest.raises(InvalidSpec, match="parameter above 4096"):
        m.parse_group_spec("catalog:C,4097")


@pytest.mark.parametrize("name", ["C", "D"])
def test_hand_built_catalog_parameters_share_the_parsers_bound(name):
    # parse_group_spec refuses catalog:C,5000, so build_group and spec_to_text do too
    big = GroupSpec("catalog", name=name, param=5000)
    for refuse in (lambda: m.build_group(big, cap=6000), lambda: spec_to_text(big),
                   lambda: spec_to_text(GroupSpec("prod", factors=(_C2, big)))):
        with pytest.raises(InvalidSpec, match="parameter above 4096"):
            refuse()
    top = GroupSpec("catalog", name=name, param=cat.MAX_PERM_POINT)
    assert m.parse_group_spec(spec_to_text(top)) == top


def _left_nested(depth, leaf="catalog:C,1"):
    return "prod:" * depth + leaf + ("|" + leaf) * depth


def test_parse_reads_each_leaf_once(monkeypatch):
    # the failing leaf is the last of 41; a parser that tries every '|' as the
    # split of each product makes on the order of 3^40 leaf parses here
    calls = []
    parse_leaf = cat._parse_leaf

    def counted(body, offset):
        calls.append(offset)
        return parse_leaf(body, offset)

    monkeypatch.setattr(cat, "_parse_leaf", counted)
    with pytest.raises(InvalidSpec, match="must start with") as err:
        m.parse_group_spec("prod:" * 40 + "catalog:C,2|" * 40 + "x")
    assert err.value.position == 40 * len("prod:catalog:C,2|")
    assert len(calls) == 41


@pytest.mark.parametrize("nest", [
    _left_nested,
    lambda depth: "prod:catalog:C,1|" * depth + "catalog:C,1",
], ids=["left", "right"])
def test_products_nest_at_most_max_prod_depth(nest):
    assert cat.MAX_PROD_DEPTH == 64
    spec = m.parse_group_spec(nest(64))
    assert m.build_group(spec).order == 1
    with pytest.raises(InvalidSpec, match="nest more than 64 deep") as err:
        m.parse_group_spec(nest(65))
    assert err.value.position == 64 * nest(65).index("prod:", 1)


def test_build_group_refuses_a_hand_built_product_past_max_prod_depth(monkeypatch):
    spec = GroupSpec("catalog", name="C", param=1)
    for _ in range(65):
        spec = GroupSpec("prod", factors=(spec, GroupSpec("catalog", name="C", param=1)))

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    with monkeypatch.context() as patch:
        patch.setattr(cat, "FiniteGroup", no_table)
        with pytest.raises(InvalidSpec, match="nest more than 64 deep"):
            m.build_group(spec)
    assert m.build_group(spec.factors[0]).order == 1  # 64 deep


def _c1():
    return GroupSpec("catalog", name="C", param=1)


def test_build_group_builds_each_shared_product_once(monkeypatch):
    # s = prod(s, s) forty times over is a tree of 2^40 leaves, but only 41 objects
    built = []
    direct_product = cat.direct_product

    def counted(A, B):
        built.append((A.order, B.order))
        # fail fast: rebuilding the tree takes 2^40 products, and spelled-out
        # names and labels double with each level
        assert len(built) <= 40 and len(A.name + B.name + A.labels[0] + B.labels[0]) < 1000
        return direct_product(A, B)

    monkeypatch.setattr(cat, "direct_product", counted)
    spec = _c1()
    for _ in range(40):
        spec = GroupSpec("prod", factors=(spec, spec))
    G = m.build_group(spec)
    assert G.order == 1 and len(built) == 40
    # a factor reached again is named by its order, so names grow with the levels only
    assert G.name == "C1xC1" + "xprod<1>" * 39
    assert G.labels == ("(" * 40 + "e,e)" + ",g0)" * 39,)


def test_a_shared_product_counts_its_depth_on_every_path():
    shared = _c1()
    for _ in range(60):
        shared = GroupSpec("prod", factors=(shared, _c1()))
    for wraps, fits in ((3, True), (4, False)):
        deeper = shared  # reached at depth 1 + wraps, 60 products deep itself
        for _ in range(wraps):
            deeper = GroupSpec("prod", factors=(_c1(), deeper))
        spec = GroupSpec("prod", factors=(shared, deeper))
        if fits:
            assert m.build_group(spec).order == 1
        else:
            with pytest.raises(InvalidSpec, match="nest more than 64 deep"):
                m.build_group(spec)


def test_spec_to_text_refuses_a_hand_built_product_past_max_prod_depth():
    spec = _c1()
    for depth in range(1, 2001):
        spec = GroupSpec("prod", factors=(spec, _c1()))
        if depth == 64:
            assert m.parse_group_spec(spec_to_text(spec)) == spec
        if depth in (65, 2000):
            with pytest.raises(InvalidSpec, match="nest more than 64 deep"):
                spec_to_text(spec)


def _shared(levels):
    """s = prod(s, s) over C,1, levels times: 2^levels leaves, levels + 1 objects."""
    spec = _c1()
    for _ in range(levels):
        spec = GroupSpec("prod", factors=(spec, spec))
    return spec


def test_a_shared_spec_names_its_repeated_products_in_the_cap_message():
    # spelled out in full, the message held 2^k leaves: 18 MB at k = 20, and
    # more than memory holds at k = 40, so the small case goes first
    c8, c16 = GroupSpec("catalog", name="C", param=8), GroupSpec("catalog", name="C", param=16)
    for levels in (20, 40):
        spec = GroupSpec("prod", factors=(GroupSpec("prod", factors=(_shared(levels), c8)), c16))
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ClosureExceedsCap, match="has order 128 > cap 64") as err:
                m.build_group(spec)
            elapsed.append(time.perf_counter() - start)
        message = str(err.value)
        assert len(message) < 10_000 and min(elapsed) < 0.01
        assert message.startswith("prod:" * (levels + 2) + "catalog:C,1|catalog:C,1|prod<1>|")
    # a tree keeps its text in full, as spec_to_text prints it
    text = "prod:prod:catalog:Q8|prod:catalog:C,2|catalog:C,2|catalog:C,3"
    with pytest.raises(ClosureExceedsCap, match=re.escape(f"{text} has order 96 > cap 64")):
        build(text)


def test_spec_hash_and_equality_recurse_nowhere():
    deep, twin = _c1(), _c1()
    for _ in range(2000):
        deep = GroupSpec("prod", factors=(deep, _c1()))
        twin = GroupSpec("prod", factors=(twin, _c1()))
    assert hash(deep) == hash(twin) and deep == twin
    assert deep != GroupSpec("prod", factors=(deep.factors[0], GroupSpec("catalog", name="C", param=2)))
    # shared: one hash step per node, and each pair of nodes compared once;
    # walking every path took about 2 s at 22 levels, so that case goes first
    for levels in (22, 60):
        start = time.perf_counter()
        assert hash(_shared(levels)) == hash(_shared(levels))
        assert _shared(levels) == _shared(levels) and _shared(levels) != _shared(levels - 1)
        assert time.perf_counter() - start < 0.1
    assert len({m.parse_group_spec(text) for text in ("catalog:C,2", "catalog:C2", " catalog: C, 02")}) == 1
    unhashable = GroupSpec("perm", generators=[[1, 0]])
    with pytest.raises(TypeError):
        hash(unhashable)
    assert unhashable == GroupSpec("perm", generators=[[1, 0]])
    with pytest.raises(InvalidSpec):
        m.build_group(unhashable)


def test_a_pickled_spec_takes_the_hash_of_the_process_that_loads_it():
    # string hashes differ between processes, so a cached hash carried along
    # would make the loaded spec unequal to the same spec parsed there
    text = "prod:catalog:S3|perm:(1 2 3)"
    code = ("import pickle, sys, modunits as m; s = pickle.loads(sys.stdin.buffer.read()); "
            f"t = m.parse_group_spec({text!r}); print(s == t, hash(s) == hash(t))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for seed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(m.parse_group_spec(text)),
                              capture_output=True, env={**env, "PYTHONHASHSEED": seed}, check=True)
        assert done.stdout.split() == [b"True", b"True"]
