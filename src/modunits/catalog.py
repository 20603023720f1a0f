"""Group construction from textual specs.

Grammar (used by the CLI and config files):

    catalog:<NAME>[,<param>]     e.g. catalog:C,6  catalog:D,4  catalog:Q8  catalog:S3
    perm:<cycles>;<cycles>;...   e.g. perm:(1 2);(1 2 3)
    prod:<spec>|<spec>           e.g. prod:catalog:S3|catalog:C,3

Catalog names: C,n (cyclic), D,n (dihedral of order 2n), Q8, S3, S4, A4.
Fused forms like catalog:C2 or catalog:D6 are accepted and normalize to the
comma form.  Every integer, a cycle point or a parameter, is ASCII digits
from 1 to 4096, and products nest at most 64 deep.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ClosureExceedsCap, InvalidSpec
from .groups import FiniteGroup

DEFAULT_ORDER_CAP = 64
MAX_PERM_POINT = 4096  # the largest spec integer; a cycle point is read before it is built
MAX_PROD_DEPTH = 64  # the deepest nesting of products, so recursion stays shallow


@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of a group-spec string."""

    kind: str  # "catalog" | "perm" | "prod"
    name: str = ""
    param: int | None = None
    generators: tuple[tuple[int, ...], ...] = field(default=())
    factors: tuple["GroupSpec", ...] = field(default=())

    # A hand-built spec may nest far deeper than a parsed one, and may reach
    # one node by many paths (s = prod(s, s)), so hashing and == recurse
    # nowhere: each node's hash is cached from its factors' cached hashes.

    def __post_init__(self):
        try:
            key = hash((self.kind, self.name, self.param, self.generators,
                        tuple(hash(f) for f in self.factors)))
        except TypeError:  # an unhashable field: hash() raises, as a dataclass's would
            key = None
        object.__setattr__(self, "_hash", key)

    def __hash__(self) -> int:
        if self._hash is None:
            raise TypeError("unhashable field in GroupSpec")
        return self._hash

    def __eq__(self, other) -> bool:
        """Field by field, as a dataclass compares, from a stack of node pairs,
        each pair compared once."""
        if not isinstance(other, GroupSpec):
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if not (isinstance(a, GroupSpec) and isinstance(b, GroupSpec)):
                if a != b:
                    return False
                continue
            if a._hash != b._hash or (a.kind, a.name, a.param, a.generators) != (
                    b.kind, b.name, b.param, b.generators):
                return False
            fa, fb = a.factors, b.factors
            if isinstance(fa, tuple) and isinstance(fb, tuple) and len(fa) == len(fb):
                stack.extend(zip(fa, fb))
            elif fa != fb:
                return False
        return True

    def __reduce__(self):
        # rebuilt through __init__, so the cached hash is this process's
        return GroupSpec, (self.kind, self.name, self.param, self.generators, self.factors)


# ---------------------------------------------------------------------------
# parsing

def _read_int(text: str, position: int, what: str) -> int:
    """text as an integer from 1 to MAX_PERM_POINT; raises InvalidSpec at position
    unless text is ASCII digits in that range."""
    if not (text.isascii() and text.isdigit()):
        raise InvalidSpec(f"bad {what} {text!r}", position)
    digits = text.lstrip("0")  # length first: int() refuses 4300+ digits
    if not digits:
        raise InvalidSpec(f"{what} must be >= 1", position)
    if len(digits) > len(str(MAX_PERM_POINT)) or int(digits) > MAX_PERM_POINT:
        raise InvalidSpec(f"{what} above {MAX_PERM_POINT}", position)
    return int(digits)


def _parse_cycles(text: str, offset: int) -> tuple[int, ...]:
    """One generator: a product of cycles like (1 2)(3 4), applied left to right."""
    cycles: list[list[int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise InvalidSpec(f"expected '(' in permutation, found {ch!r}", offset + i)
        j = text.find(")", i)
        if j < 0:
            raise InvalidSpec("unclosed cycle", offset + i)
        body = text[i + 1:j].strip()
        points = [_read_int(tok, offset + i, "cycle point") - 1
                  for tok in re.split(r"[,\s]+", body)] if body else []
        if len(set(points)) != len(points):
            raise InvalidSpec("repeated point in cycle", offset + i)
        cycles.append(points)
        i = j + 1
    if not cycles:
        raise InvalidSpec("empty permutation", offset)
    deg = max((max(c) + 1 for c in cycles if c), default=1)
    perm = list(range(deg))
    for cyc in cycles:
        mapping = {cyc[k]: cyc[(k + 1) % len(cyc)] for k in range(len(cyc))}
        perm = [mapping.get(x, x) for x in perm]
    return tuple(perm)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string in one left-to-right pass; raises InvalidSpec with
    position and reason.

    prod: takes exactly two operands and no leaf holds a '|', so a leaf runs
    to the next '|' or the end, the parse is unique, and each leaf is parsed
    once (_parse_leaf).  A prod: nested in MAX_PROD_DEPTH others is refused.
    """
    spec, end = _parse_node(text, 0, 0)
    if end < len(text):
        raise InvalidSpec("'|' outside a product", end)
    return spec


def _parse_node(text: str, pos: int, depth: int) -> tuple[GroupSpec, int]:
    """The spec at pos, inside depth products, and the position after it."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if not text.startswith("prod:", pos):
        end = text.find("|", pos)
        end = len(text) if end < 0 else end
        return _parse_leaf(text[pos:end], pos), end
    if depth == MAX_PROD_DEPTH:
        raise InvalidSpec(f"products nest more than {MAX_PROD_DEPTH} deep", pos)
    left, pos = _parse_node(text, pos + 5, depth + 1)
    if pos == len(text):
        raise InvalidSpec("product needs '|' between two specs", pos)
    right, pos = _parse_node(text, pos + 1, depth + 1)
    return GroupSpec("prod", factors=(left, right)), pos


def _parse_leaf(body: str, offset: int) -> GroupSpec:
    """A catalog: or perm: spec, body, which starts at offset and holds no '|'."""
    if body.startswith("catalog:"):
        name, comma, param = body[len("catalog:"):].partition(",")
        name, param = name.strip(), param.strip()
        if not comma and name not in _CATALOG and name[:1] in _CATALOG:  # fused, as C6
            name, param = name[:1], name[1:]
        if name not in _CATALOG:
            raise InvalidSpec(f"unknown catalog name {name!r}", offset + 8)
        if _CATALOG[name][0]:
            return GroupSpec("catalog", name=name, param=_read_int(param, offset + 8, "parameter"))
        if comma:
            raise InvalidSpec(f"catalog family {name!r} takes no parameter", offset + 8)
        return GroupSpec("catalog", name=name)
    if body.startswith("perm:"):
        rest = body[len("perm:"):]
        if not rest.strip():
            raise InvalidSpec("missing generators", offset + 5)
        gens, pos = [], offset + 5
        for part in rest.split(";"):
            gens.append(_parse_cycles(part, pos))
            pos += len(part) + 1
        deg = max(len(g) for g in gens)
        return GroupSpec("perm", generators=tuple(g + tuple(range(len(g), deg)) for g in gens))
    raise InvalidSpec("spec must start with catalog:, perm: or prod:", offset)


def spec_to_text(spec: GroupSpec) -> str:
    """Canonical printer; parse_group_spec round-trips through it.  A spec
    field or product depth that build_group refuses raises InvalidSpec."""
    return _spec_text(spec, 0)


def _spec_text(spec: GroupSpec, depth: int) -> str:
    """spec_to_text of spec, which is nested in depth products."""
    _check_node(spec)
    if spec.kind == "catalog":
        if spec.param is not None:
            return f"catalog:{spec.name},{spec.param}"
        return f"catalog:{spec.name}"
    if spec.kind == "perm":
        _check_permutations(spec.generators)
        return "perm:" + ";".join(_perm_to_cycles(g) for g in spec.generators)
    if depth == MAX_PROD_DEPTH:
        raise InvalidSpec(f"products nest more than {MAX_PROD_DEPTH} deep")
    left, right = spec.factors
    return f"prod:{_spec_text(left, depth + 1)}|{_spec_text(right, depth + 1)}"


def _perm_to_cycles(perm: tuple[int, ...], points=None) -> str:
    """perm in cycle notation, point i printed as points[i] + 1 (default i + 1)."""
    points = range(len(perm)) if points is None else points
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(points[x] + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# constructors

def cyclic(n: int) -> FiniteGroup:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    return FiniteGroup(f"C{n}", mul, identity=0, labels=labels)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: index k + n*f stands for r^k s^f."""
    order = 2 * n
    mul = np.empty((order, order), dtype=np.int32)
    for k1 in range(n):
        for f1 in range(2):
            for k2 in range(n):
                for f2 in range(2):
                    k = (k1 + (k2 if f1 == 0 else -k2)) % n
                    mul[k1 + n * f1, k2 + n * f2] = k + n * ((f1 + f2) % 2)
    labels = []
    for f in range(2):
        for k in range(n):
            rot = "" if k == 0 else ("r" if k == 1 else f"r{k}")
            if f == 0:
                labels.append(rot or "e")
            else:
                labels.append((rot + "s") if rot else "s")
    return FiniteGroup(f"D{n}", mul, identity=0, labels=labels)


def quaternion8() -> FiniteGroup:
    """The quaternion group {+-1, +-i, +-j, +-k}; index 2u+s, s the sign bit."""
    sym = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
    }
    mul = np.empty((8, 8), dtype=np.int32)
    for u in range(4):
        for s1 in range(2):
            for v in range(4):
                for s2 in range(2):
                    sgn, w = sym[(u, v)]
                    mul[2 * u + s1, 2 * v + s2] = 2 * w + ((s1 + s2 + sgn) % 2)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup("Q8", mul, identity=0, labels=labels)


def _compose(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x[y[i]] for i in range(len(x)))


def _perm_table_group(name: str, perms: list[tuple[int, ...]], points=None) -> FiniteGroup:
    """The table of perms, the identity first and the rest in sorted order;
    labels name point i as points[i] (_perm_to_cycles)."""
    deg = len(perms[0])
    ident = tuple(range(deg))
    ordered = [ident] + sorted(p for p in perms if p != ident)
    index = {p: i for i, p in enumerate(ordered)}
    n = len(ordered)
    mul = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            mul[i, j] = index[_compose(a, b)]
    labels = [_perm_to_cycles(p, points) for p in ordered]
    return FiniteGroup(name, mul, identity=0, labels=labels)


def symmetric(n: int) -> FiniteGroup:
    """S_n, generated by the n-cycle (1 2 ... n) and the transposition (1 2)."""
    cycle = tuple(range(1, n)) + (0,) if n else ()
    swap = (1, 0) + tuple(range(2, n)) if n > 1 else tuple(range(n))
    return perm_closure((cycle, swap), math.factorial(n), f"S{n}")


def alternating(n: int) -> FiniteGroup:
    """A_n, generated by the 3-cycles (1 2 k) for k = 3..n; A_n = 1 for n < 3."""
    gens = tuple((1, k) + tuple(range(2, k)) + (0,) + tuple(range(k + 1, n))
                 for k in range(2, n)) or (tuple(range(n)),)
    return perm_closure(gens, max(1, math.factorial(n) // 2), f"A{n}")


def _is_int(x) -> bool:
    """Whether x is an int or a numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_permutations(generators: tuple[tuple[int, ...], ...]) -> None:
    """Raises InvalidSpec unless generators are one or more tuples of integers,
    each a permutation of 0..deg-1 for one common deg."""
    if not generators:
        raise InvalidSpec("a permutation group needs at least one generator")
    for g in generators:
        if not (isinstance(g, tuple) and all(_is_int(i) for i in g)
                and sorted(g) == list(range(len(generators[0])))):
            raise InvalidSpec(f"generators must be permutations of one degree, got {g!r}")


def perm_closure(generators: tuple[tuple[int, ...], ...], cap: int, name: str = "") -> FiniteGroup:
    """Breadth-first closure of permutation generators, on the points they move.

    Every element fixes the other points, so the sorted order of the full
    permutations is that of their restrictions to the moved points, and the
    table is the same; the labels print the original point numbers.  Raises
    InvalidSpec, before any closure, unless the generators are permutations
    of one common degree (_check_permutations), and ClosureExceedsCap once
    the closure passes cap elements.
    """
    _check_permutations(generators)
    moved = [i for i in range(len(generators[0])) if any(g[i] != i for g in generators)]
    local = {pt: k for k, pt in enumerate(moved)}
    gens = [tuple(local[g[pt]] for pt in moved) for g in generators]
    ident = tuple(range(len(moved)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise ClosureExceedsCap(
                            f"generated order exceeds cap {cap}")
                    nxt.append(y)
        frontier = nxt
    return _perm_table_group(name or f"perm<{len(seen)}>", list(seen), moved)


def direct_product(A: FiniteGroup, B: FiniteGroup, name: str = "") -> FiniteGroup:
    """Direct product with element indices a*|B| + b."""
    na, nb = A.order, B.order
    ia = np.repeat(np.arange(na), nb)
    ib = np.tile(np.arange(nb), na)
    mul = (A.mul[np.ix_(ia, ia)] * nb + B.mul[np.ix_(ib, ib)]).astype(np.int32)
    labels = [f"({A.labels[a]},{B.labels[b]})" for a in range(na) for b in range(nb)]
    ident = A.identity * nb + B.identity
    return FiniteGroup(name or f"{A.name}x{B.name}", mul, identity=ident, labels=labels)


# catalog name -> (whether it takes a parameter n, order(n), constructor(n));
# parse_group_spec and build_group both read it, and build_group checks
# order(n) against its cap before it calls the constructor
_CATALOG = {
    "C": (True, int, cyclic),
    "D": (True, lambda n: 2 * int(n), dihedral),  # int(n): a numpy 2 * n could wrap
    "Q8": (False, lambda n: 8, lambda n: quaternion8()),
    "S3": (False, lambda n: 6, lambda n: symmetric(3)),
    "S4": (False, lambda n: 24, lambda n: symmetric(4)),
    "A4": (False, lambda n: 12, lambda n: alternating(4)),
}


def build_group(spec: GroupSpec, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Materialize the Cayley-table group a spec describes.

    Each node of the spec is checked against cap once, before its table is
    built: a permutation group during its closure, a catalog group by its
    known order, and a product by the orders of its two built factors.  So
    every group it builds, each factor of a product included, has order at
    most cap; raises ClosureExceedsCap otherwise.  A hand-built spec is
    checked in the fields its kind reads, before any table: InvalidSpec for
    an unknown spec kind or catalog name, a C or D parameter that is not an
    integer from 1 to MAX_PERM_POINT, the bound parse_group_spec reads (a
    bool is refused), a parameter on a fixed name, a product
    without exactly two GroupSpec factors, and generators that are not
    permutations of one common degree (perm_closure).  A product nested in
    MAX_PROD_DEPTH others raises InvalidSpec before it builds a factor.

    A parsed spec is a tree, but a hand-built one may reach one product
    object by several paths, as s = prod(s, s) does.  Each such product is
    built once; where it is reached again it is reused as prod<n>, with
    labels g0, g1, ..., since its name and labels spelled out in full would
    double with each level that shares it; a cap message writes it so too.
    """
    return _build(spec, cap, 0, {})[0]


def _build(spec: GroupSpec, cap: int, depth: int,
           built: dict[int, tuple[FiniteGroup, int]]) -> tuple[FiniteGroup, int]:
    """build_group of spec, which is nested in depth products, and how deep
    products nest in spec itself.  built maps the id of each product built
    so far in this build_group call to its group and that nesting."""
    _check_node(spec)
    if spec.kind == "perm":
        return perm_closure(spec.generators, cap), 0
    if spec.kind == "catalog":
        n = spec.param
        _, order_of, construct_of = _CATALOG[spec.name]
        order, construct, height = order_of(n), lambda: construct_of(n), 0
    else:
        group, height = built.get(id(spec), (None, 1))  # not built yet: at least 1 deep
        if depth + height > MAX_PROD_DEPTH:
            raise InvalidSpec(f"products nest more than {MAX_PROD_DEPTH} deep")
        if group is not None:
            return FiniteGroup(f"prod<{group.order}>", group.mul, group.identity), height
        (left, left_height), (right, right_height) = (
            _build(factor, cap, depth + 1, built) for factor in spec.factors)
        order, construct = left.order * right.order, lambda: direct_product(left, right)
        height = 1 + max(left_height, right_height)
    if order > cap:
        raise ClosureExceedsCap(f"{_cap_text(spec, built, set())} has order {order} > cap {cap}")
    group = construct()
    if spec.kind == "prod":
        built[id(spec)] = group, height
    return group, height


def _check_node(spec: GroupSpec) -> None:
    """Raises InvalidSpec unless spec's kind is known and its catalog or product
    fields are as build_group requires; generators are checked where read."""
    if spec.kind == "catalog":
        n = spec.param
        if spec.name not in _CATALOG:
            raise InvalidSpec(f"unknown catalog name {spec.name!r}")
        takes_param = _CATALOG[spec.name][0]
        if takes_param and not (_is_int(n) and n >= 1):
            raise InvalidSpec(f"catalog family {spec.name!r} takes an integer >= 1, got {n!r}")
        if takes_param and n > MAX_PERM_POINT:  # the bound parse_group_spec reads
            raise InvalidSpec(f"parameter above {MAX_PERM_POINT}")
        if not takes_param and n is not None:
            raise InvalidSpec(f"catalog family {spec.name!r} takes no parameter")
    elif spec.kind == "prod":
        if len(spec.factors) != 2 or not all(isinstance(f, GroupSpec) for f in spec.factors):
            raise InvalidSpec(f"a product takes two GroupSpec factors, got {spec.factors!r}")
    elif spec.kind != "perm":
        raise InvalidSpec(f"unknown spec kind {spec.kind!r}")


def _cap_text(spec: GroupSpec, built: dict[int, tuple[FiniteGroup, int]], shown: set[int]) -> str:
    """spec_to_text of spec for a cap message.  shown holds the ids of the
    products printed so far, and one met again is written prod<n>, as _build
    names it, from its group in built (every product under spec is built).
    So a tree prints as spec_to_text prints it, and a shared spec grows with
    its distinct nodes, not with its paths."""
    if spec.kind != "prod":
        return spec_to_text(spec)
    if id(spec) in shown:
        return f"prod<{built[id(spec)][0].order}>"
    shown.add(id(spec))
    return "prod:" + "|".join(_cap_text(f, built, shown) for f in spec.factors)


# display name -> spec text; chosen to exercise every branch of the theorem check
DEFAULT_CATALOG: tuple[tuple[str, str], ...] = (
    ("C2", "catalog:C,2"),
    ("C3", "catalog:C,3"),
    ("C4", "catalog:C,4"),
    ("C6", "catalog:C,6"),
    ("C2xC2", "prod:catalog:C,2|catalog:C,2"),
    ("C3xC3", "prod:catalog:C,3|catalog:C,3"),
    ("S3", "catalog:S3"),
    ("D4", "catalog:D,4"),
    ("Q8", "catalog:Q8"),
    ("D6", "catalog:D,6"),
    ("A4", "catalog:A4"),
    ("S3xC3", "prod:catalog:S3|catalog:C,3"),
    ("C4xC2", "prod:catalog:C,4|catalog:C,2"),
)
