"""The fast group criterion, the unitary witness constructions, and the
equivalence verdict that pits the criterion against brute force.

The criterion: the group is nilpotent and its derived subgroup is a p-group.
The verdict machinery checks it, on each instance, against the nilpotency of
the normalized unit group and of its unitary subgroup, enumerated or, for a
non-modular group algebra, taken block by block.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import groups as gr
from .algebra import AlgebraElement, GroupAlgebra
from .errors import (BudgetExceeded, NotCentral, NotUnitary, PreconditionViolated,
                     PredicateNotSatisfied)
from .units import (
    ABSTRACT_GROUP_CAP,
    ENGEL_BUDGET,
    ENUMERATION_CAP,
    UnitGroup,
    block_units,
    enumerate_units,
    filter_unitary,
    find_non_engel_pair,
    lower_central_series_of_units,
    non_engel_scan,
)
# unused here: bound so that tracing wrappers, which look them up on this module, resolve
from .units import as_abstract_group, closure_subgroup  # noqa: F401


@dataclass(frozen=True)
class Budgets:
    """Resource limits for one equivalence verdict."""

    enumeration_cap: int = ENUMERATION_CAP
    abstract_cap: int = ABSTRACT_GROUP_CAP
    engel_budget: int = ENGEL_BUDGET
    seed: int = 0


@dataclass(frozen=True)
class VStatus:
    """Nilpotency status of one unit group.

    A ``non_nilpotent`` status has a witness, a pair of units whose Engel
    orbit z <- (z, y) from z = x never reaches 1, unless it is the V of a
    non-modular entry whose seeded search drew none (_block_statuses).
    """

    kind: str  # "nilpotent" | "non_nilpotent" | "skipped"
    nilpotency_class: int | None = None
    witness: tuple[AlgebraElement, AlgebraElement] | None = None
    reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.kind == "skipped"


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Fast criterion vs. brute force for one (group, prime) pair.

    ``modular`` records whether p divides the group order.  ``consistent``
    compares every decided status of V with the criterion, on every entry:
    U(FG) is nilpotent exactly when G is nilpotent and G' is a p-group,
    also when p does not divide |G| (Khripta 1972), where G' must then be 1,
    since a non-commutative semisimple block holds a GL_n(F_q) with n >= 2.
    V* is compared only on modular entries: GF(3)[D4] has a nilpotent
    unitary subgroup even though the criterion fails.

    ``enumerated`` is True when the orders were counted on the enumerated V
    and V*: for a modular nilpotent non-abelian G within enumeration_cap,
    and at p = 2 when O_2(G) != 1.  It is False when they come from the block
    laws (block_units) or are unknown.  A non-modular nilpotent non-abelian G
    is never enumerated: its statuses come from the unit groups of the
    blocks of the semisimple FG, whose products V and V* are, exactly.
    """

    group_name: str
    spec_text: str
    p: int
    modular: bool
    criterion: bool
    v_status: VStatus
    vstar_status: VStatus
    v_order: int | None
    vstar_order: int | None
    consistent: bool
    enumerated: bool = False


@dataclass(frozen=True)
class WitnessRecord:
    """One witness construction and the checks it went through.

    ``checks`` holds only facts computed at run time that can come out
    False: a dihedral record has its one subgroup_is_D2p, and a skew or
    char-2 record none, since its constructor raises NotUnitary unless the
    unit is unitary.  ``passed`` is True when every check is.
    """

    case: int  # CLI-facing case id: 1, 2 or 3
    group_name: str
    p: int
    inputs: dict[str, str]
    units: tuple[str, ...]
    checks: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.checks.values())


# ---------------------------------------------------------------------------
# the fast predicate

def group_criterion(G: gr.FiniteGroup, p: int) -> bool:
    """True iff G is nilpotent and its derived subgroup is a p-group.

    Both come from one lower central series: G is nilpotent when it ends at
    1, and its second term, which it always has, is G' = gamma_2.
    """
    series = gr.lower_central_series(G)
    return series[-1].order == 1 and gr.is_p_group(series[1], p)


# ---------------------------------------------------------------------------
# witness constructions

def _element_index(ctx: GroupAlgebra, g) -> int:
    return int(ctx._element_indices(g)[0])


def _require_central_of_order_p(ctx: GroupAlgebra, c: int) -> int:
    G = ctx.group
    c = _element_index(ctx, c)
    if gr.centralizer(G, c).order != G.order:
        raise NotCentral(f"{G.labels[c]} is not central in {G.name}")
    return c


def _unitary_family(ctx: GroupAlgebra, x: np.ndarray, c: int, kind: str) -> np.ndarray:
    """The columns 1 + x_j * hat(c) of an (n, k) array, by one product
    against hat(c) and one pairwise unitarity product; raises NotUnitary,
    naming the first, unless every column is unitary of augmentation 1."""
    h = ctx.hat(c)  # raises OrderMismatch unless |c| = p; central, so x * h = h * x
    w = (ctx._one_vec[:, None] + ctx.multiply(h.coeffs[:, None], x)) % ctx.p
    bad = np.flatnonzero(~(ctx.unitary_mask(w) & (w.sum(axis=0) % ctx.p == 1)))
    if bad.size:
        text = AlgebraElement(ctx, w[:, bad[0]]).to_text()
        raise NotUnitary(f"{kind} witness {text} is not unitary")
    return w


def skew_witnesses(ctx: GroupAlgebra, gs, c: int) -> np.ndarray:
    """The unitary units 1 + (g - g^-1) * hat(c) for the g in gs, as the
    columns of an (n, len(gs)) array, for central c of order p.

    A column degenerates to 1 where g is its own inverse.
    """
    c = _require_central_of_order_p(ctx, c)
    e = np.eye(ctx.dim, dtype=np.int64)[:, ctx._element_indices(gs)]
    return _unitary_family(ctx, e - e[ctx.group.inv], c, "skew")


def witness_skew(ctx: GroupAlgebra, g: int, c: int) -> AlgebraElement:
    """The unitary unit 1 + (g - g^-1) * hat(c): one column of skew_witnesses."""
    return AlgebraElement(ctx, skew_witnesses(ctx, [g], c)[:, 0])


def char2_witnesses(ctx: GroupAlgebra, gs, c: int) -> np.ndarray:
    """The unitary units 1 + g * hat(c) in characteristic 2 for the g in gs,
    as the columns of an (n, len(gs)) array.

    Requires p = 2, c central of order 2, and g^2 in <c> for every g.
    """
    G = ctx.group
    if ctx.p != 2:
        raise PreconditionViolated("p must be 2")
    c = _element_index(ctx, c)
    if gr.centralizer(G, c).order != G.order:
        raise PreconditionViolated("c must be central")
    if gr.element_order(G, c) != 2:
        raise PreconditionViolated("c must have order 2")
    gs = ctx._element_indices(gs)
    if not np.isin(G.mul[gs, gs], (G.identity, c)).all():
        raise PreconditionViolated("g^2 must lie in <c>")
    return _unitary_family(ctx, np.eye(ctx.dim, dtype=np.int64)[:, gs], c, "char-2")


def witness_char2(ctx: GroupAlgebra, g: int, c: int) -> AlgebraElement:
    """The unitary unit 1 + g * hat(c): one column of char2_witnesses."""
    return AlgebraElement(ctx, char2_witnesses(ctx, [g], c)[:, 0])


def witness_dihedral(ctx: GroupAlgebra, a: int, b: int, c: int) -> WitnessRecord:
    """A non-nilpotent unitary subgroup from two non-commuting involutions.

    Builds w = 1 + ((ab) - (ab)^-1) * hat(c).  For involutions a and b,
    (ab)^2 = 1 exactly when ab = b^-1 a^-1 = ba, so a and b that do not
    commute give ab of order > 2 with no check of its own: ab != (ab)^-1.
    It checks the defining relations of D_2p = <r, s | r^p, s^2, (sr)^2>
    on r = w, s = a: w^p = 1 and (a w)^2 = 1, with a^2 = 1 given.  So
    <w, a> is a quotient of D_2p.
    For odd p the normal subgroups of D_2p are 1, C_p and D_2p, and w != 1
    rules out the last two, so <w, a> is D_2p: of order 2p, non-abelian and
    not nilpotent.  The record's one check, subgroup_is_D2p, is True exactly
    when w != 1 and the relations hold, which takes p products and no
    closure.  It checks no unitarity: witness_skew raises NotUnitary unless
    w is unitary.
    """
    G = ctx.group
    p = ctx.p
    if p <= 2:
        raise PreconditionViolated("p must be odd")
    a, b, c = (int(x) for x in ctx._element_indices([a, b, c]))
    if gr.element_order(G, a) != 2:
        raise PreconditionViolated("a must have order 2")
    if gr.element_order(G, b) != 2:
        raise PreconditionViolated("b must have order 2")
    if gr.commutator(G, a, b) == G.identity:
        raise PreconditionViolated("a and b must not commute")
    ab = int(G.mul[a, b])
    w = witness_skew(ctx, ab, c)  # checks centrality and |c| = p
    w_p = w.coeffs
    for _ in range(p - 1):
        w_p = ctx.multiply(w_p, w.coeffs)
    aw = w.coeffs[G.mul[a]]  # (a w)[k] = w[a^-1 k], and a^-1 = a
    one = ctx._one_vec
    dihedral = bool((w.coeffs != one).any() and (w_p == one).all()
                    and (ctx.multiply(aw, aw) == one).all())
    return WitnessRecord(
        case=3,
        group_name=G.name,
        p=p,
        inputs={"a": G.labels[a], "b": G.labels[b], "c": G.labels[c]},
        units=(w.to_text(),),
        checks={"subgroup_is_D2p": dihedral},
    )


# ---------------------------------------------------------------------------
# the commutator expansion identity

def verify_engel_expansion(ctx: GroupAlgebra, g: int, h: int, c: int, n: int) -> bool:
    """Check the closed form of the iterated commutator of 1+(g-g^-1)hat(c) with h.

    For every 1 <= k <= n the left-normed commutator, computed by direct
    algebra multiplication, must equal

        1 + hat(c) * sum_i (-1)^i C(k,i) (g^(h^(k-i)) - g^(-h^(k-i)))

    and at p-power k the binomials vanish mod p, collapsing the sum to
    1 + hat(c) * ((g^(h^k) - g) - (g^(-h^k) - g^(-1))).  witness_skew has
    checked that w is unitary, and h is, so every z = (z, h) of the orbit
    is a commutator of unitary units and unitary itself: its inverse is
    z^-1 = z*, and no step solves a linear system.  A step is
    z <- z* (h^-1 z h), one product: z* and the conjugate are coefficient
    permutations, (h^-1 z h)[k] = z[h k h^-1].  The sums of both forms are
    integer columns from G's table, each binomial reduced mod p, and all
    meet hat(c) in one product.
    """
    G = ctx.group
    p = ctx.p
    if n < 1:
        raise PreconditionViolated(f"n must be >= 1, got {n}")
    h = _element_index(ctx, h)
    z = witness_skew(ctx, g, c).coeffs
    conj = G.mul[G.mul[h], G.inv[h]]  # conj[k] = h k h^-1
    orbit = np.empty((G.order, n), dtype=np.int64)  # column i: the state after i + 1 steps
    for i in range(n):
        z = ctx.multiply(z[G.inv], z[conj])
        orbit[:, i] = z

    # column j of d is g^(h^j) - g^(-h^j), j = 0..n; row k-1 of binomials holds
    # (-1)^(k-j) C(k, j) mod p, which math.comb makes 0 for j > k
    m = G.mul
    hj = np.array([G.power(h, j) for j in range(n + 1)], dtype=np.int64)
    basis = np.eye(G.order, dtype=np.int64)
    d = basis[:, m[m[G.inv[hj], g], hj]] - basis[:, m[m[G.inv[hj], G.inv[g]], hj]]
    binomials = np.array([[(-1) ** (k + j) * math.comb(k, j) % p for j in range(n + 1)]
                          for k in range(1, n + 1)], dtype=np.int64).reshape(n, n + 1)
    ks = [k for k in range(1, n + 1) if gr.p_part(k, p) == k]
    sums = np.hstack([d @ binomials.T, d[:, ks] - d[:, :1]])  # general, then collapsed
    steps = list(range(n)) + [k - 1 for k in ks]
    forms = (ctx.one().coeffs[:, None] + ctx.multiply(ctx.hat(c).coeffs[:, None], sums)) % p
    return bool((orbit[:, steps] == forms).all())


# ---------------------------------------------------------------------------
# centralizer-power property

def centralizer_power_property(G: gr.FiniteGroup, p: int) -> bool:
    """For all non-commuting g, h: some h^(p^s), s <= log_p|G|, centralizes g.

    Requires the group criterion to hold (raises PredicateNotSatisfied
    otherwise); the s bound is lossless at finite scale.  All pairs are
    checked at once on G's tables.  The paper's property also asks every
    commutator to have p-power order; under the criterion every commutator
    lies in G', a p-group, so that clause cannot fail and is not checked.
    """
    if not group_criterion(G, p):
        raise PredicateNotSatisfied(f"criterion fails for ({G.name}, p={p})")
    s_max = 0
    while p ** (s_max + 1) <= G.order:
        s_max += 1
    m = G.mul
    commute = m == m.T  # commute[g, h]: gh = hg
    reached = commute.copy()  # reached[g, h]: some h^(p^s) so far centralizes g
    power = np.arange(G.order)  # h^(p^s) for every h
    for _ in range(s_max):
        step = power
        for _ in range(p - 1):
            step = m[step, power]
        power = step
        reached |= commute[:, power]
    return bool(reached.all())


# ---------------------------------------------------------------------------
# the equivalence verdict

def _status_from_group(algebra: GroupAlgebra) -> VStatus | None:
    """The status that G alone gives V and V*, or None when it gives none.

    Since G <= V* <= V, both are abelian when G is (of class 0 when G is
    trivial, since V(FG) is then 1).  A finite group is nilpotent exactly
    when it has no non-Engel pair (Zorn), so a non-Engel pair of G, embedded
    in FG, witnesses that neither is nilpotent.  Only a nilpotent
    non-abelian G gives none.
    """
    G = algebra.group
    if G.is_abelian():
        return VStatus("nilpotent", nilpotency_class=1 if G.order > 1 else 0)
    pair = gr.non_engel_pair(G)
    if pair is None:
        return None
    return VStatus("non_nilpotent", witness=(algebra.embed(pair[0]), algebra.embed(pair[1])))


def _witness(U: UnitGroup, budgets: Budgets) -> tuple[AlgebraElement, AlgebraElement] | None:
    """A non-Engel pair of U: up to abstract_cap elements the first of the
    lex scan, which a non-nilpotent U always has (Zorn); above it the
    seeded search's, which may draw none."""
    if len(U) <= budgets.abstract_cap:
        return non_engel_scan(U)
    return find_non_engel_pair(U, budget=budgets.engel_budget, seed=budgets.seed)


def _nilpotency_status(U: UnitGroup, budgets: Budgets) -> VStatus:
    """Status of U, which is V or V* of a nilpotent non-abelian G, or the
    U*(B) of a non-commutative block B of a non-modular one.

    Up to abstract_cap elements the series, computed from generators,
    decides U, and a non-nilpotent U gets its _witness.  A larger U of
    p-power order is a finite p-group, so nilpotent, and no search could
    draw a pair from it; it is skipped, with that reason, since its class is
    not computed.  Any other larger U gets only the seeded search, which can
    prove non-nilpotency but never nilpotency; it skips U when it draws no
    pair.
    """
    by_series = len(U) <= budgets.abstract_cap
    if by_series:
        series = lower_central_series_of_units(U)
        if series[-1].size == 1:
            return VStatus("nilpotent", nilpotency_class=len(series) - 1)
    elif gr.p_part(len(U), U.algebra.p) == len(U):
        return VStatus("skipped", reason="order p^k above abstract_cap: a p-group, "
                                         "so nilpotent; class not computed")
    witness = _witness(U, budgets)
    if witness is None and not by_series:  # nothing proves U non-nilpotent
        return VStatus("skipped", reason="falsification inconclusive")
    return VStatus("non_nilpotent", witness=witness)


def _block_statuses(algebra: GroupAlgebra, blocks: list[tuple[np.ndarray, np.ndarray]],
                    budgets: Budgets) -> tuple[VStatus, VStatus]:
    """The statuses of V and V* of a non-modular nilpotent non-abelian G,
    from the units of its blocks (block_units), with V never enumerated.

    FG is semisimple and the direct sum of its blocks B, and each f_B is
    fixed by the involution, so U = prod_B U(B) and U* = prod_B U*(B)
    (Khripta 1972; Passman 1977); the rows of block_units are U(B) and
    U*(B) in FG, of augmentation 1, so V and V* are their products too.  B
    is a sum of components M_n(F_q) (Wedderburn), and |GL_n(F_q)| =
    q^(n(n-1)/2) prod_{k<=n} (q^k - 1), so p divides the row count of B (1
    for the principal block F*e_G) exactly when B is not commutative.  G is
    not abelian, so some block is not, and its GL_n(F_q), n >= 2, is not
    nilpotent: so V is not.  V* is nilpotent exactly when every U*(B) is, of
    the largest class among them.  _nilpotency_status runs on the U*(B) of
    the non-commutative blocks, smallest first, up to the first
    non-nilpotent one, whose witness V and V* share; otherwise V* is skipped
    with the reason of the smallest skipped U*(B), or nilpotent, and V takes
    the _witness of the smallest non-commutative U(B), None if above
    abstract_cap the search draws no pair.
    """
    blocks = [(units, unitary) for units, unitary in blocks if len(units) % algebra.p == 0]
    vstar = VStatus("nilpotent", nilpotency_class=0)
    for units, unitary in sorted(blocks, key=lambda block: np.count_nonzero(block[1])):
        status = _nilpotency_status(UnitGroup(algebra, units[unitary]), budgets)
        if status.kind == "non_nilpotent":
            vstar = status
            break
        if vstar.kind == "nilpotent" and (status.skipped or status.nilpotency_class
                                          > vstar.nilpotency_class):
            vstar = status
    witness = vstar.witness or _witness(  # V is not nilpotent: only its witness is searched
        UnitGroup(algebra, min((units for units, _ in blocks), key=len)), budgets)
    return VStatus("non_nilpotent", witness=witness), vstar


def verify_equivalence(G: gr.FiniteGroup, p: int, budgets: Budgets = Budgets(),
                       spec_text: str = "") -> EquivalenceVerdict:
    """Pit the fast criterion against brute force on one (group, prime) pair.

    An abelian or non-nilpotent G decides both statuses from its own table
    (_status_from_group), whatever the budgets.  Each entry then takes one
    leg.  V and V* are enumerated when a nilpotent non-abelian G is modular,
    for the series to decide them, and at p = 2 when O_2(G) != 1, for their
    orders, since |V*| has no law there.  Every other entry takes its orders
    from the block laws (block_units), and a non-modular nilpotent
    non-abelian G its statuses too, block by block (_block_statuses): FG is
    then semisimple, and V and V* are the products of the unit groups of
    its blocks.  A leg that needs more than enumeration_cap candidates,
    p^(|G|-1) or sum_B p^dim(B), skips the statuses it would decide; an
    enumeration over the cap still takes the orders from the block laws,
    where they apply and fit under it.  A skipped status never makes the
    verdict inconsistent.
    """
    algebra = GroupAlgebra(G, p)
    criterion = group_criterion(G, p)
    v_status = vstar_status = _status_from_group(algebra)
    v_order = vstar_order = None
    has_law = p > 2 or algebra._p_core().order == 1  # where block_units counts both
    enumerated = not has_law or (v_status is None and algebra.is_modular)
    cap = budgets.enumeration_cap
    try:
        if enumerated:
            V = enumerate_units(algebra, cap=cap)
            Vstar = filter_unitary(V)
            v_order, vstar_order = len(V), len(Vstar)
            if v_status is None:
                v_status = _nilpotency_status(V, budgets)
                vstar_status = _nilpotency_status(Vstar, budgets)
        else:
            v_order, vstar_order, blocks = block_units(algebra, cap=cap)
            if v_status is None:
                v_status, vstar_status = _block_statuses(algebra, blocks, budgets)
    except BudgetExceeded as e:
        if v_status is None:
            v_status = vstar_status = VStatus(
                "skipped", reason=f"enumeration budget exceeded (needs {e.required})")
        if enumerated and has_law:
            with suppress(BudgetExceeded):  # over the cap too, the orders stay unknown
                v_order, vstar_order, _ = block_units(algebra, cap=cap)
        enumerated = False

    compared = (v_status, vstar_status) if algebra.is_modular else (v_status,)
    consistent = all(status.skipped or (status.kind == "nilpotent") == criterion
                     for status in compared)
    return EquivalenceVerdict(
        group_name=G.name,
        spec_text=spec_text,
        p=p,
        modular=algebra.is_modular,
        criterion=criterion,
        v_status=v_status,
        vstar_status=vstar_status,
        v_order=v_order,
        vstar_order=vstar_order,
        consistent=consistent,
        enumerated=enumerated,
    )
