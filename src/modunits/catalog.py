"""Group construction from textual specs.

Grammar (used by the CLI and config files):

    catalog:<NAME>[,<param>]     e.g. catalog:C,6  catalog:D,4  catalog:Q8  catalog:S3
    perm:<cycles>;<cycles>;...   e.g. perm:(1 2);(1 2 3)    points 1..4096
    prod:<spec>|<spec>           e.g. prod:catalog:S3|catalog:C,3

Catalog names: C,n (cyclic), D,n (dihedral of order 2n), Q8, S3, S4, A4.
Fused forms like catalog:C2 or catalog:D6 are accepted and normalize to the
comma form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ClosureExceedsCap, InvalidSpec
from .groups import FiniteGroup

DEFAULT_ORDER_CAP = 64
MAX_PERM_POINT = 4096  # checked before a permutation of that degree is built

_FIXED_CATALOG = {"Q8": 8, "S3": 6, "S4": 24, "A4": 12}


@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of a group-spec string."""

    kind: str  # "catalog" | "perm" | "prod"
    name: str = ""
    param: int | None = None
    generators: tuple[tuple[int, ...], ...] = field(default=())
    factors: tuple["GroupSpec", ...] = field(default=())


# ---------------------------------------------------------------------------
# parsing

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
        points = []
        if body:
            for tok in re.split(r"[,\s]+", body):
                if not (tok.isascii() and tok.isdigit()):
                    raise InvalidSpec(f"bad cycle point {tok!r}", offset + i)
                digits = tok.lstrip("0") or "0"  # length first: int() refuses 4300+ digits
                if len(digits) > len(str(MAX_PERM_POINT)) or int(digits) > MAX_PERM_POINT:
                    raise InvalidSpec(f"cycle point above {MAX_PERM_POINT}", offset + i)
                pt = int(digits)
                if pt < 1:
                    raise InvalidSpec("cycle points are 1-based", offset + i)
                points.append(pt - 1)
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


def _pad(perm: tuple[int, ...], deg: int) -> tuple[int, ...]:
    return perm + tuple(range(len(perm), deg))


def parse_group_spec(text: str, _offset: int = 0) -> GroupSpec:
    """Parse a spec string; raises InvalidSpec with position and reason."""
    body = text.strip()
    offset = _offset + (len(text) - len(text.lstrip()))
    if body.startswith("catalog:"):
        rest = body[len("catalog:"):]
        if not rest:
            raise InvalidSpec("missing catalog name", offset + 8)
        if "," in rest:
            name, _, param_text = rest.partition(",")
            name = name.strip()
            if name not in ("C", "D"):
                raise InvalidSpec(f"catalog family {name!r} takes no parameter"
                                  if name in _FIXED_CATALOG else f"unknown catalog name {name!r}",
                                  offset + 8)
            if not param_text.strip().isdigit():
                raise InvalidSpec(f"bad parameter {param_text.strip()!r}", offset + 9 + len(name))
            param = int(param_text)
            if param < 1:
                raise InvalidSpec("parameter must be >= 1", offset + 9 + len(name))
            return GroupSpec("catalog", name=name, param=param)
        name = rest.strip()
        if name in _FIXED_CATALOG:
            return GroupSpec("catalog", name=name)
        m = re.fullmatch(r"([CD])(\d+)", name)
        if m:
            param = int(m.group(2))
            if param < 1:
                raise InvalidSpec("parameter must be >= 1", offset + 9)
            return GroupSpec("catalog", name=m.group(1), param=param)
        raise InvalidSpec(f"unknown catalog name {name!r}", offset + 8)
    if body.startswith("perm:"):
        rest = body[len("perm:"):]
        if not rest.strip():
            raise InvalidSpec("missing generators", offset + 5)
        gens = []
        pos = offset + 5
        for part in rest.split(";"):
            gens.append(_parse_cycles(part, pos))
            pos += len(part) + 1
        deg = max(len(g) for g in gens)
        return GroupSpec("perm", generators=tuple(_pad(g, deg) for g in gens))
    if body.startswith("prod:"):
        rest = body[len("prod:"):]
        base = offset + 5
        errors = []
        for i, ch in enumerate(rest):
            if ch != "|":
                continue
            try:
                left = parse_group_spec(rest[:i], base)
                right = parse_group_spec(rest[i + 1:], base + i + 1)
                return GroupSpec("prod", factors=(left, right))
            except InvalidSpec as e:
                errors.append(e)
        if errors:
            raise errors[-1]
        raise InvalidSpec("product needs '|' between two specs", base)
    raise InvalidSpec("spec must start with catalog:, perm: or prod:", offset)


def spec_to_text(spec: GroupSpec) -> str:
    """Canonical printer; parse_group_spec round-trips through it."""
    if spec.kind == "catalog":
        if spec.param is not None:
            return f"catalog:{spec.name},{spec.param}"
        return f"catalog:{spec.name}"
    if spec.kind == "perm":
        return "perm:" + ";".join(_perm_to_cycles(g) for g in spec.generators)
    if spec.kind == "prod":
        return "prod:" + spec_to_text(spec.factors[0]) + "|" + spec_to_text(spec.factors[1])
    raise ValueError(f"unknown spec kind {spec.kind!r}")


def _perm_to_cycles(perm: tuple[int, ...]) -> str:
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
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
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


def _perm_table_group(name: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
    deg = len(perms[0])
    ident = tuple(range(deg))
    ordered = [ident] + sorted(p for p in perms if p != ident)
    index = {p: i for i, p in enumerate(ordered)}
    n = len(ordered)
    mul = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            mul[i, j] = index[_compose(a, b)]
    labels = [_perm_to_cycles(p) for p in ordered]
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


def perm_closure(generators: tuple[tuple[int, ...], ...], cap: int, name: str = "") -> FiniteGroup:
    """Breadth-first closure of permutation generators."""
    deg = len(generators[0])
    ident = tuple(range(deg))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise ClosureExceedsCap(
                            f"generated order exceeds cap {cap}")
                    nxt.append(y)
        frontier = nxt
    return _perm_table_group(name or f"perm<{len(seen)}>", list(seen))


def direct_product(A: FiniteGroup, B: FiniteGroup, name: str = "") -> FiniteGroup:
    """Direct product with element indices a*|B| + b."""
    na, nb = A.order, B.order
    ia = np.repeat(np.arange(na), nb)
    ib = np.tile(np.arange(nb), na)
    mul = (A.mul[np.ix_(ia, ia)] * nb + B.mul[np.ix_(ib, ib)]).astype(np.int32)
    labels = [f"({A.labels[a]},{B.labels[b]})" for a in range(na) for b in range(nb)]
    ident = A.identity * nb + B.identity
    return FiniteGroup(name or f"{A.name}x{B.name}", mul, identity=ident, labels=labels)


def _spec_order_bound(spec: GroupSpec) -> int | None:
    """Exact order when it is known without generating."""
    if spec.kind == "catalog":
        if spec.name == "C":
            return spec.param
        if spec.name == "D":
            return 2 * spec.param
        return _FIXED_CATALOG[spec.name]
    if spec.kind == "prod":
        lo = _spec_order_bound(spec.factors[0])
        hi = _spec_order_bound(spec.factors[1])
        if lo is not None and hi is not None:
            return lo * hi
    return None


def build_group(spec: GroupSpec, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Materialize the Cayley-table group a spec describes; order must stay <= cap."""
    known = _spec_order_bound(spec)
    if known is not None and known > cap:
        raise ClosureExceedsCap(f"{spec_to_text(spec)} has order {known} > cap {cap}")
    if spec.kind == "catalog":
        if spec.name == "C":
            return cyclic(spec.param)
        if spec.name == "D":
            return dihedral(spec.param)
        if spec.name == "Q8":
            return quaternion8()
        if spec.name == "S3":
            return symmetric(3)
        if spec.name == "S4":
            return symmetric(4)
        if spec.name == "A4":
            return alternating(4)
        raise InvalidSpec(f"unknown catalog name {spec.name!r}")
    if spec.kind == "perm":
        return perm_closure(spec.generators, cap)
    if spec.kind == "prod":
        left = build_group(spec.factors[0], cap)
        right = build_group(spec.factors[1], cap)
        return direct_product(left, right)
    raise InvalidSpec(f"unknown spec kind {spec.kind!r}")


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
