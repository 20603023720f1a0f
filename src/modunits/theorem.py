"""The fast group criterion, the unitary witness constructions, and the
equivalence verdict that pits the criterion against brute-force enumeration.

The criterion: the group is nilpotent and its derived subgroup is a p-group.
The verdict machinery checks it, on each instance, against the nilpotency of
the enumerated normalized unit group and of its unitary subgroup.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import groups as gr
from .algebra import AlgebraElement, GroupAlgebra
from .errors import (BudgetExceeded, NotCentral, NotUnitary, PreconditionViolated,
                     PredicateNotSatisfied)
from .units import (
    UnitGroup,
    as_abstract_group,
    closure_subgroup,
    enumerate_units,
    filter_unitary,
    find_non_engel_pair,
    lower_central_series_of_units,
    non_engel_scan,
)


@dataclass(frozen=True)
class Budgets:
    """Resource limits for one equivalence verdict."""

    enumeration_cap: int = 2**20
    abstract_cap: int = 4096
    engel_budget: int = 400
    engel_n_max: int = 256
    seed: int = 0
    deadline: float | None = None  # absolute time.perf_counter() cutoff

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.perf_counter() > self.deadline


@dataclass(frozen=True)
class VStatus:
    """Nilpotency status of one unit group."""

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

    ``modular`` records whether p divides the group order.  The equivalence
    is only asserted for modular algebras; on non-modular instances the
    statuses are reported as observed but cannot contradict anything, so
    ``consistent`` stays true there (the catalog keeps such entries as
    negative tests: GF(3)[D4] has a nilpotent unitary subgroup even though
    the criterion fails).
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


@dataclass(frozen=True)
class WitnessRecord:
    """One witness construction and the checks it went through."""

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
    """True iff G is nilpotent and its derived subgroup is a p-group."""
    if gr.nilpotency_class(G) is gr.NOT_NILPOTENT:
        return False
    return gr.is_p_group(gr.derived_subgroup(G), p)


# ---------------------------------------------------------------------------
# witness constructions

def _require_central_of_order_p(ctx: GroupAlgebra, c: int) -> None:
    G = ctx.group
    if gr.centralizer(G, c).order != G.order:
        raise NotCentral(f"{G.labels[c]} is not central in {G.name}")


def witness_skew(ctx: GroupAlgebra, g: int, c: int) -> AlgebraElement:
    """The unitary unit 1 + (g - g^-1) * hat(c), for central c of order p.

    Degenerates to 1 when g is its own inverse.
    """
    _require_central_of_order_p(ctx, c)
    h = ctx.hat(c)  # raises OrderMismatch unless |c| = p
    G = ctx.group
    w = ctx.one() + (ctx.embed(g) - ctx.embed(int(G.inv[g]))) * h
    if not w.is_unitary():
        raise NotUnitary(f"skew witness {w.to_text()} is not unitary")
    return w


def witness_char2(ctx: GroupAlgebra, g: int, c: int) -> AlgebraElement:
    """The unitary unit 1 + g * hat(c) in characteristic 2.

    Requires p = 2, c central of order 2, and g^2 in <c>.
    """
    G = ctx.group
    if ctx.p != 2:
        raise PreconditionViolated("p must be 2")
    if gr.centralizer(G, c).order != G.order:
        raise PreconditionViolated("c must be central")
    if gr.element_order(G, c) != 2:
        raise PreconditionViolated("c must have order 2")
    gsq = int(G.mul[g, g])
    if gsq not in (G.identity, c):
        raise PreconditionViolated("g^2 must lie in <c>")
    w = ctx.one() + ctx.embed(g) * ctx.hat(c)
    if not w.is_unitary():
        raise NotUnitary(f"char-2 witness {w.to_text()} is not unitary")
    return w


def witness_dihedral(ctx: GroupAlgebra, a: int, b: int, c: int,
                     cap: int = 4096) -> WitnessRecord:
    """A non-nilpotent unitary subgroup from two non-commuting involutions.

    Builds w = 1 + ((ab) - (ab)^-1) * hat(c) and closes {w, a}; for odd p the
    result is the non-abelian group of order 2p, which is not nilpotent.
    """
    G = ctx.group
    if ctx.p <= 2:
        raise PreconditionViolated("p must be odd")
    if gr.element_order(G, a) != 2:
        raise PreconditionViolated("a must have order 2")
    if gr.element_order(G, b) != 2:
        raise PreconditionViolated("b must have order 2")
    if gr.commutator(G, a, b) == G.identity:
        raise PreconditionViolated("a and b must not commute")
    ab = int(G.mul[a, b])
    if gr.element_order(G, ab) <= 2:
        raise PreconditionViolated("ab must have order > 2")
    w = witness_skew(ctx, ab, c)  # checks centrality and |c| = p
    sub = closure_subgroup([w, ctx.embed(a)], cap=cap)
    abstract = as_abstract_group(sub, cap=cap)
    order = len(sub)
    klass = gr.nilpotency_class(abstract)
    checks = {
        "witness_unitary": w.is_unitary(),
        "subgroup_order_even": order % 2 == 0,
        "subgroup_order_2p_with_p_gt_1": order % 2 == 0 and order // 2 > 1,
        "subgroup_non_abelian": not abstract.is_abelian(),
        "subgroup_non_nilpotent": klass is gr.NOT_NILPOTENT,
    }
    return WitnessRecord(
        case=3,
        group_name=G.name,
        p=ctx.p,
        inputs={"a": G.labels[a], "b": G.labels[b], "c": G.labels[c]},
        units=(w.to_text(),),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# the commutator expansion identity

def _is_p_power(k: int, p: int) -> bool:
    while k % p == 0:
        k //= p
    return k == 1


def verify_engel_expansion(ctx: GroupAlgebra, g: int, h: int, c: int, n: int) -> bool:
    """Check the closed form of the iterated commutator of 1+(g-g^-1)hat(c) with h.

    For every 1 <= k <= n the left-normed commutator, computed by direct
    algebra multiplication, must equal

        1 + hat(c) * sum_i (-1)^i C(k,i) (g^(h^(k-i)) - g^(-h^(k-i)))

    and at p-power k the binomials vanish mod p, collapsing the sum to
    1 + hat(c) * ((g^(h^k) - g) - (g^(-h^k) - g^(-1))).
    """
    G = ctx.group
    p = ctx.p
    w = witness_skew(ctx, g, c)
    hat_c = ctx.hat(c)
    h_bar = ctx.embed(h)
    h_inv_bar = ctx.embed(int(G.inv[h]))
    g_inv = int(G.inv[g])
    one = ctx.one()

    z = w
    for k in range(1, n + 1):
        z_inv = z.try_inverse()
        if z_inv is None:
            return False
        z = z_inv * h_inv_bar * z * h_bar

        total = ctx.zero()
        for i in range(0, k + 1):
            coef = ((-1) ** i) * math.comb(k, i)
            hj = G.power(h, k - i)
            term = ctx.embed(G.conjugate(g, hj)) - ctx.embed(G.conjugate(g_inv, hj))
            total = total + coef * term
        rhs = one + hat_c * total
        if z != rhs:
            return False

        if _is_p_power(k, p):
            hk = G.power(h, k)
            collapsed = one + hat_c * (
                ctx.embed(G.conjugate(g, hk)) - ctx.embed(g)
                - ctx.embed(G.conjugate(g_inv, hk)) + ctx.embed(g_inv))
            if z != collapsed:
                return False
    return True


# ---------------------------------------------------------------------------
# centralizer-power property

def centralizer_power_property(G: gr.FiniteGroup, p: int) -> bool:
    """For all non-commuting g, h: some h^(p^s), s <= log_p|G|, centralizes g,
    and every commutator has p-power order.

    Requires the group criterion to hold (raises PredicateNotSatisfied
    otherwise); the s bound is lossless at finite scale.
    """
    if not group_criterion(G, p):
        raise PredicateNotSatisfied(f"criterion fails for ({G.name}, p={p})")
    s_max = 0
    while p ** (s_max + 1) <= G.order:
        s_max += 1
    centralizers = [frozenset(gr.centralizer(G, g).members) for g in G.elements()]
    for g in G.elements():
        cg = centralizers[g]
        for h in G.elements():
            k = gr.commutator(G, g, h)
            if k == G.identity:
                continue
            if not _is_p_power(gr.element_order(G, k), p):
                return False
            t = h
            found = False
            for _ in range(0, s_max + 1):
                if t in cg:
                    found = True
                    break
                t = G.power(t, p)
            if not found:
                return False
    return True


# ---------------------------------------------------------------------------
# the equivalence verdict

def _nilpotency_status(U: UnitGroup, budgets: Budgets) -> VStatus:
    """Status of U, which is V or V*.  Since G <= V* <= V, U is abelian exactly
    when G is, and then it has class 1 (class 0 when trivial).

    Up to abstract_cap elements the lower central series, computed from
    generators, decides U; a non-nilpotent U gets the first non-Engel pair of
    the lex scan, or else one from the seeded search.  A larger U gets only
    the seeded search, which can prove non-nilpotency but never nilpotency.
    """
    m = len(U)
    if U.algebra.group.is_abelian():
        return VStatus("nilpotent", nilpotency_class=1 if m > 1 else 0)
    if budgets.out_of_time():
        return VStatus("skipped", reason="time budget exceeded")
    if m <= budgets.abstract_cap:
        series = lower_central_series_of_units(U, seed=budgets.seed)
        if series[-1].size == 1:
            return VStatus("nilpotent", nilpotency_class=len(series) - 1)
        pair = non_engel_scan(U) or find_non_engel_pair(
            U, budget=budgets.engel_budget, seed=budgets.seed, n_max=budgets.engel_n_max)
        return VStatus("non_nilpotent", witness=pair)
    pair = find_non_engel_pair(U, budget=budgets.engel_budget,
                               seed=budgets.seed, n_max=budgets.engel_n_max)
    if pair is None:
        return VStatus("skipped", reason="falsification inconclusive")
    return VStatus("non_nilpotent", witness=pair)


def verify_equivalence(G: gr.FiniteGroup, p: int, budgets: Budgets = Budgets(),
                       spec_text: str = "") -> EquivalenceVerdict:
    """Pit the fast criterion against brute force on one (group, prime) pair.

    All failure modes land in skipped statuses; a skipped status never makes
    the verdict inconsistent.
    """
    algebra = GroupAlgebra(G, p)
    criterion = group_criterion(G, p)
    v_status = vstar_status = None
    v_order = vstar_order = None
    try:
        V = enumerate_units(algebra, cap=budgets.enumeration_cap)
    except BudgetExceeded as e:
        reason = f"enumeration budget exceeded (needs {e.required})"
        v_status = vstar_status = VStatus("skipped", reason=reason)
    else:
        v_order = len(V)
        v_status = _nilpotency_status(V, budgets)
        if budgets.out_of_time():
            vstar_status = VStatus("skipped", reason="time budget exceeded")
        else:
            Vstar = filter_unitary(V)
            vstar_order = len(Vstar)
            vstar_status = _nilpotency_status(Vstar, budgets)

    consistent = True
    if algebra.is_modular:
        for status in (v_status, vstar_status):
            if status.skipped:
                continue
            if (status.kind == "nilpotent") != criterion:
                consistent = False
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
    )
