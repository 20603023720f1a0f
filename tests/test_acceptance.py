"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is exact; there
are no tolerances anywhere.
"""

import hashlib
import time

import numpy as np
import pytest

import modunits as m
from modunits.report import RunConfig, emit_report, run_catalog
from modunits.theorem import Budgets

PRIMES = (2, 3)


def build(text):
    return m.build_group(m.parse_group_spec(text))


CATALOG = [(name, build(text)) for name, text in m.DEFAULT_CATALOG]
GROUPS = dict(CATALOG)


def _line(num, ok, desc):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")


@pytest.fixture(scope="module")
def catalog_report():
    t0 = time.perf_counter()
    report = run_catalog(RunConfig())
    elapsed = time.perf_counter() - t0
    return report, elapsed


# ---------------------------------------------------------------------------

def test_1_theorem_equivalence_suite(catalog_report):
    report, elapsed = catalog_report
    by_key = {(v.group_name, v.p): v for v in report.verdicts}
    problems = []

    for v in report.verdicts:
        if not v.modular:
            continue
        for status in (v.v_status, v.vstar_status):
            if status.skipped:
                continue
            if (status.kind == "nilpotent") != v.criterion:
                problems.append(f"{v.group_name}@{v.p}: {status.kind} vs "
                                f"criterion={v.criterion}")
        if not v.consistent:
            problems.append(f"{v.group_name}@{v.p}: inconsistent")

    for key in (("S3", 2), ("S3", 3)):
        v = by_key[key]
        if v.criterion or v.v_status.kind != "non_nilpotent" \
                or v.vstar_status.kind != "non_nilpotent" \
                or v.v_status.witness is None or v.vstar_status.witness is None:
            problems.append(f"{key}: expected false-and-witnessed")

    a4 = by_key[("A4", 2)]
    A4 = GROUPS["A4"]
    if a4.criterion or not m.is_p_group(m.derived_subgroup(A4), 2) \
            or m.nilpotency_class(A4) is not m.NOT_NILPOTENT \
            or a4.v_status.kind != "non_nilpotent":
        problems.append("A4@2: expected false via non-nilpotent G with 2-group G'")

    for key in (("D4", 2), ("Q8", 2), ("C2xC2", 2), ("C3xC3", 3)):
        v = by_key[key]
        if not (v.criterion and v.v_status.kind == "nilpotent"
                and v.vstar_status.kind == "nilpotent"):
            problems.append(f"{key}: expected true-and-nilpotent")

    ok = not problems and elapsed < 300
    _line(1, ok, f"theorem equivalence suite over default catalog x {PRIMES} "
                 f"({len(report.verdicts)} entries, {elapsed:.1f}s)")
    assert not problems, problems
    assert elapsed < 300, f"catalog run took {elapsed:.1f}s"


def test_2_unit_count_law():
    cases = [("C2", 2), ("C4", 2), ("C2xC2", 2), ("C4xC2", 2), ("D4", 2),
             ("Q8", 2), ("C3", 3), ("C3xC3", 3)]
    failures = []
    for name, p in cases:
        G = GROUPS[name]
        V = m.enumerate_units(m.GroupAlgebra(G, p))
        if len(V) != p ** (G.order - 1):
            failures.append(f"{name}@{p}: |V|={len(V)} != {p ** (G.order - 1)}")
    ok = not failures
    _line(2, ok, f"|V(GF(p)G)| = p^(|G|-1) on {len(cases)} catalog p-groups")
    assert not failures, failures


def test_3_witness_unitarity():
    skew_checked = skew_passed = 0
    char2_checked = char2_passed = 0
    for name, G in CATALOG:
        for p in PRIMES:
            centrals = m.central_order_p_elements(G, p)
            if not centrals:
                continue
            ctx = m.GroupAlgebra(G, p)
            for c in centrals:
                for g in G.elements():
                    w = m.witness_skew(ctx, g, c)
                    skew_checked += 1
                    skew_passed += (w.involution() * w).is_one() and \
                        w.augmentation() == 1
            if p == 2:
                for c in centrals:
                    for g in G.elements():
                        if int(G.mul[g, g]) not in (G.identity, c):
                            continue
                        w = m.witness_char2(ctx, g, c)
                        char2_checked += 1
                        char2_passed += w.is_unitary()
    ok = (skew_checked > 0 and skew_passed == skew_checked
          and char2_checked > 0 and char2_passed == char2_checked)
    _line(3, ok, f"witness unitarity: skew {skew_passed}/{skew_checked}, "
                 f"char-2 {char2_passed}/{char2_checked}")
    assert skew_passed == skew_checked > 0
    assert char2_passed == char2_checked > 0


def test_4_case3_construction():
    G = GROUPS["S3xC3"]
    ctx = m.GroupAlgebra(G, 3)
    involutions = [x for x in G.elements() if m.element_order(G, x) == 2]
    centrals = m.central_order_p_elements(G, 3)
    assert involutions and centrals
    checked = 0
    for a in involutions:
        for b in involutions:
            if a == b:
                continue
            for c in centrals:
                ab = int(G.mul[a, b])
                w = ctx.one() + (ctx.embed(ab) - ctx.embed(int(G.inv[ab]))) * ctx.hat(c)
                sub = m.closure_subgroup([w, ctx.embed(a)])
                abstract = m.as_abstract_group(sub)
                assert len(sub) == 6
                assert not abstract.is_abelian()
                assert m.nilpotency_class(abstract) is m.NOT_NILPOTENT
                rec = m.witness_dihedral(ctx, a, b, c)
                assert rec.passed
                checked += 1
    _line(4, True, f"GF(3)[S3xC3] dihedral witness: {checked} constructions, "
                   "order 6, non-abelian, not nilpotent")


def test_5_engel_expansion_identity():
    rng = np.random.default_rng(55)
    setups = [(m.GroupAlgebra(GROUPS["S3xC3"], 3), 3),
              (m.GroupAlgebra(build("prod:catalog:D,4|catalog:C,2"), 2), 2)]
    checked = 0
    for ctx, p in setups:
        G = ctx.group
        centrals = m.central_order_p_elements(G, p)
        assert centrals
        # n = 16 covers every k <= 16, including the collapse at k = p and p^2
        assert p ** 2 <= 16
        for _ in range(50):
            g = int(rng.integers(0, G.order))
            h = int(rng.integers(0, G.order))
            c = centrals[int(rng.integers(0, len(centrals)))]
            assert m.verify_engel_expansion(ctx, g, h, c, n=16), \
                f"expansion failed: {G.name} g={g} h={h} c={c}"
            checked += 1
    ok = checked >= 100
    _line(5, ok, f"commutator expansion identity on {checked} seeded instances, "
                 "k <= 16 with p-power collapse")
    assert checked >= 100


def test_6_centralizer_power_property():
    checked = []
    for name, G in CATALOG:
        for p in PRIMES:
            if not m.group_criterion(G, p):
                continue
            assert m.centralizer_power_property(G, p), f"failed on {name}@{p}"
            checked.append(f"{name}@{p}")
    ok = len(checked) >= 10
    _line(6, ok, f"centralizer-power property on {len(checked)} criterion-true "
                 "catalog entries (incl. p-power commutator orders)")
    assert ok, checked


def test_7_algebra_law_suite():
    rng = np.random.default_rng(77)
    contexts = [m.GroupAlgebra(G, p) for _, G in CATALOG for p in PRIMES]
    counts = {}

    def bump(name, ok):
        counts[name] = counts.get(name, 0) + 1
        assert ok, f"{name} failed"

    for _ in range(1000):
        ctx = contexts[int(rng.integers(0, len(contexts)))]
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        c = ctx.random_element(rng)
        p = ctx.p
        bump("ring_axioms", (a * b) * c == a * (b * c)
             and a * (b + c) == a * b + a * c
             and a * ctx.one() == a and ctx.one() * a == a
             and a + ctx.zero() == a)
        bump("involution_laws", a.involution().involution() == a
             and (a * b).involution() == b.involution() * a.involution()
             and a.involution().augmentation() == a.augmentation())
        bump("augmentation_homomorphism",
             (a + b).augmentation() == (a.augmentation() + b.augmentation()) % p
             and (a * b).augmentation() == (a.augmentation() * b.augmentation()) % p)

    # hat laws: exhaustive over every catalog instance, then seeded padding
    hat_instances = []
    for ctx in contexts:
        for c in m.central_order_p_elements(ctx.group, ctx.p):
            h = ctx.hat(c)
            bump("hat_laws", (h * h).is_zero())
            for x in ctx.group.elements():
                bump("hat_laws", h * ctx.embed(x) == ctx.embed(x) * h)
            hat_instances.append((ctx, h))
    while counts["hat_laws"] < 1000:
        ctx, h = hat_instances[int(rng.integers(0, len(hat_instances)))]
        x = ctx.random_element(rng)
        bump("hat_laws", h * x == x * h and (h * h).is_zero())

    ok = all(n >= 1000 for n in counts.values())
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    _line(7, ok, f"algebra law suite ({summary})")
    assert ok, counts


def test_8_inverse_oracle_crosscheck():
    checked_algebras = 0
    checked_elements = 0
    for name, G in CATALOG:
        for p in PRIMES:
            n = G.order
            total = p ** n
            if total > 2 ** 16:
                continue
            ctx = m.GroupAlgebra(G, p)
            # all p^|G| coefficient vectors, one per column
            powers = p ** np.arange(n, dtype=np.int64)
            B = (np.arange(total, dtype=np.int64)[None, :] // powers[:, None]) % p
            Bf = B.astype(np.float32)
            one_vec = np.zeros(n, dtype=np.int64)
            one_vec[G.identity] = 1
            chunk = max(1, 2 ** 22 // total)
            for lo in range(0, total, chunk):
                hi = min(lo + chunk, total)
                block = B[:, lo:hi].T  # (chunk, n) candidate elements a
                mats = block[:, ctx.div].astype(np.float32)  # (chunk, n, n) regular matrices
                # the pairs (a_k, b_j) with a_k * b_j = 1, as flat indices k * total + j:
                # coordinate i of every product is compared with that of 1 in
                # turn, and a pair is dropped at its first mismatch.  Each
                # coordinate is at most n(p-1)^2 before it is reduced mod p.
                live = None
                for i in range(n):
                    coord = (mats[:, i, :] @ Bf).ravel()
                    coord = (coord if live is None else coord[live]).astype(np.int16)
                    coord -= coord // p * p
                    hit = np.flatnonzero(coord == one_vec[i])
                    live = hit if live is None else live[hit]
                rows, cols = np.divmod(live, total)
                bounds = np.searchsorted(rows, np.arange(hi - lo + 1))
                for k in range(hi - lo):
                    a = ctx.from_coeffs(block[k])
                    inv = a.try_inverse()
                    hits = cols[bounds[k]:bounds[k + 1]]
                    if inv is None:
                        assert hits.size == 0, f"{name}@{p}: missed unit"
                    else:
                        expected = int(inv.coeffs @ powers)
                        assert hits.tolist() == [expected], f"{name}@{p}: wrong inverse"
                    checked_elements += 1
            checked_algebras += 1
    ok = checked_algebras > 0
    _line(8, ok, f"try_inverse vs exhaustive search: {checked_elements} elements "
                 f"across {checked_algebras} algebras with p^|G| <= 2^16")
    assert ok


# SHA-256 of the default catalog's reports.  A change that alters the report
# bytes on purpose updates these and says so in CHANGES.md.
REPORT_SHA256 = {
    "json": "17634069590f384b9c78a341882ed4ac5f2b49b34ffaad59e4fbb84916904efb",
    "csv": "47272bd191b0793e6583cb3e0804ff31b57529e61a0e264fc44dd458cc2b38d6",
    "text": "c93f3dbb21b3a412dc2bcd63cb06f08281ecb597415f331de8b809a701e7a8f6",
}


def test_9_report_determinism(catalog_report):
    report1, _ = catalog_report
    report2 = run_catalog(RunConfig())
    ok = all(emit_report(report1, fmt) == emit_report(report2, fmt)
             for fmt in ("json", "csv", "text"))
    digests = {fmt: hashlib.sha256(emit_report(report1, fmt)).hexdigest()
               for fmt in REPORT_SHA256}
    ok = ok and digests == REPORT_SHA256
    _line(9, ok, f"byte-identical catalog reports from two runs, with pinned digests "
                 f"({len(emit_report(report1, 'json'))} bytes of JSON)")
    assert digests == REPORT_SHA256
    assert ok
