"""Catalog orchestration and machine-readable reporting.

A run walks (spec, prime) entries in config order, producing one equivalence
verdict per entry plus witness records and property-suite tallies.  With a
fixed seed the emitted bytes are identical from run to run;
wall-clock timings are collected but only serialized on request, since they
would break that guarantee.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import groups as gr
from .algebra import AlgebraElement, GroupAlgebra
from .catalog import DEFAULT_CATALOG, DEFAULT_ORDER_CAP, build_group, parse_group_spec
from .errors import InvalidConfig, ModunitsError
# witness_skew and witness_char2, the single-column forms of the witness
# families, stay importable from here: perfbench/bench_trace.py traces them here
from .theorem import (
    Budgets,
    EquivalenceVerdict,
    VStatus,
    WitnessRecord,
    centralizer_power_property,
    char2_witnesses,
    skew_witnesses,
    verify_engel_expansion,
    verify_equivalence,
    witness_char2,
    witness_dihedral,
    witness_skew,
)

TOOL_VERSION = "0.1.0"

DEFAULT_SPECS = tuple(text for _, text in DEFAULT_CATALOG)

_EXEMPLAR_RECORDS_PER_CASE = 3


@dataclass(frozen=True)
class RunConfig:
    primes: tuple[int, ...] = (2, 3)
    specs: tuple[str, ...] = DEFAULT_SPECS
    enumeration_cap: int = Budgets.enumeration_cap
    abstract_cap: int = Budgets.abstract_cap
    engel_budget: int = Budgets.engel_budget
    seed: int = Budgets.seed
    output_format: str = "json"
    group_order_cap: int = DEFAULT_ORDER_CAP
    emit_timings: bool = False

    def __post_init__(self):
        if not self.primes:
            raise InvalidConfig("no primes given")
        if min(self.enumeration_cap, self.abstract_cap, self.group_order_cap) <= 0:
            raise InvalidConfig("caps must be positive")
        if self.engel_budget < 0 or self.seed < 0:
            raise InvalidConfig("engel_budget and seed must be non-negative")
        if self.output_format not in ("json", "csv", "text"):
            raise InvalidConfig(f"unknown output format {self.output_format!r}")


@dataclass
class VerificationReport:
    version: str
    config: RunConfig
    verdicts: list[EquivalenceVerdict] = field(default_factory=list)
    witnesses: list[WitnessRecord] = field(default_factory=list)
    properties: dict[str, list[int]] = field(default_factory=dict)
    timings_s: list[float] = field(default_factory=list)

    def tally(self, name: str, ok: bool, count: int = 1) -> None:
        slot = self.properties.setdefault(name, [0, 0])
        slot[0 if ok else 1] += count

    @property
    def passed(self) -> bool:
        if any(counts[1] for counts in self.properties.values()):
            return False
        if any(not w.passed for w in self.witnesses):
            return False
        return all(v.consistent for v in self.verdicts)


def parse_primes(text: str) -> tuple[int, ...]:
    """A comma-separated prime list, as in '2,3'; raises InvalidConfig.

    An entry with (p-1)^2 >= 2^63 is not tested for primality: every GF(p)[G]
    refuses it, and trial division would take ~10^10 steps.
    """
    try:
        primes = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise InvalidConfig(f"bad prime list {text!r}") from None
    for p in primes:
        if (p - 1) ** 2 < 2**63 and not gr.is_prime(p):
            raise InvalidConfig(f"{p} is not prime")
    return primes


# config key -> (RunConfig field, parser of the value text)
_CONFIG_KEYS = {
    "primes": ("primes", parse_primes),
    **{key: (key, int) for key in ("enumeration_cap", "abstract_cap", "engel_budget",
                                   "seed", "group_order_cap")},
    "format": ("output_format", str),
    "emit_timings": ("emit_timings",
                     lambda v: ("0", "false", "no", "1", "true", "yes").index(v.lower()) > 2),
}


def parse_config_file(text: str) -> RunConfig:
    """Key-value config: 'key = value' lines, '#' comments, 'spec' repeatable.

    Raises InvalidConfig, naming the line, for a bad line, key or value.
    """
    kwargs = {}
    specs: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "spec":
            specs.append(value)
            continue
        if key not in _CONFIG_KEYS:
            raise InvalidConfig(f"config line {lineno}: unknown key {key!r}")
        field_name, parse = _CONFIG_KEYS[key]
        try:
            kwargs[field_name] = parse(value)
            RunConfig(**kwargs)  # rejects out-of-range values
        except ValueError:
            raise InvalidConfig(
                f"config line {lineno}: bad value {value!r} for {key}") from None
    if specs:
        kwargs["specs"] = tuple(specs)
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# per-entry work

def _entry_seed(config: RunConfig, index: int) -> int:
    return config.seed * 1_000_003 + index


def _run_witnesses(report: VerificationReport, ctx: GroupAlgebra) -> None:
    G = ctx.group
    p = ctx.p
    centrals = gr.central_order_p_elements(G, p)
    # (case, tally, array constructor, the g it takes with a central c); the
    # constructors are looked up at call time, so a wrapper set on this module is the one called
    families = [(1, "witness_skew_unitary", skew_witnesses, lambda c: G.elements())]
    if p == 2:
        families.append((2, "witness_char2_unitary", char2_witnesses,
                         lambda c: [g for g in G.elements()
                                    if int(G.mul[g, g]) in (G.identity, c)]))
    for case, tally, construct, inputs in families:
        recorded = 0
        for c in centrals:
            gs = inputs(c)
            # each column is unitary: the constructor raises NotUnitary, which
            # fails the entry, otherwise
            w = construct(ctx, gs, c)
            report.tally(tally, True, len(gs))
            for g, col in zip(gs[:_EXEMPLAR_RECORDS_PER_CASE - recorded], w.T):
                report.witnesses.append(WitnessRecord(
                    case=case, group_name=G.name, p=p,
                    inputs={"g": G.labels[g], "c": G.labels[c]},
                    units=(AlgebraElement(ctx, col).to_text(),)))
                recorded += 1
    if p == 2:
        return  # the dihedral construction needs odd p
    involutions = [x for x in G.elements() if gr.element_order(G, x) == 2]
    recorded = 0
    for c in centrals:
        for a in involutions:
            for b in involutions:
                # a = b commutes, and so do involutions with (ab)^2 = 1
                if gr.commutator(G, a, b) == G.identity:
                    continue
                rec = witness_dihedral(ctx, a, b, c)
                report.tally("witness_dihedral_checks", rec.passed)
                if recorded < _EXEMPLAR_RECORDS_PER_CASE or not rec.passed:
                    report.witnesses.append(rec)
                    recorded += 1


def _run_property_suite(report: VerificationReport, ctx: GroupAlgebra,
                        verdict: EquivalenceVerdict, seed: int) -> None:
    G = ctx.group
    p = ctx.p
    rng = np.random.default_rng(seed)

    try:
        G.check_axioms()
        report.tally("group_axioms", True)
    except ValueError:
        report.tally("group_axioms", False)
    report.tally("derived_subgroup_normal", gr.derived_subgroup(G).is_normal())

    # 20 random triples, drawn a, b, c in turn; column j of each (n, 20) array is round j
    draws = rng.integers(0, p, size=(60, G.order)).T
    a, b, c = draws[:, 0::3], draws[:, 1::3], draws[:, 2::3]
    mul, inv = ctx.multiply, G.inv

    def aug(x):
        return x.sum(axis=0, keepdims=True) % p

    ab = mul(a, b)
    laws = {
        "ring_associativity": (mul(ab, c), mul(a, mul(b, c))),
        "ring_distributivity": (mul(a, (b + c) % p), (ab + mul(a, c)) % p),
        "involution_antihomomorphism": (ab[inv], mul(b[inv], a[inv])),
        "involution_order_two": (a[inv][inv], a),
        "augmentation_multiplicative": (aug(ab), aug(a) * aug(b) % p),
    }
    for name, (lhs, rhs) in laws.items():
        held = int((lhs == rhs).all(axis=0).sum())
        report.tally(name, True, held)
        report.tally(name, False, a.shape[1] - held)

    # hat(c) as an (n, 1) column, times every basis element on either side
    basis = np.eye(G.order, dtype=np.int64)
    centrals = gr.central_order_p_elements(G, p)
    for c in centrals:
        h = ctx.hat(c).coeffs[:, None]
        report.tally("hat_square_zero", not mul(h, h).any())
        report.tally("hat_central", bool((mul(h, basis) == mul(basis, h)).all()))

    # only on an enumerated V: for a p-group Q = 1, so the law gives p^(|G|-1) by construction
    if verdict.enumerated and gr.is_p_group(G, p):
        report.tally("unit_count_law", verdict.v_order == p ** (G.order - 1))

    if verdict.criterion:
        report.tally("centralizer_power_property", centralizer_power_property(G, p))

    if centrals:
        for _ in range(2):
            g = int(rng.integers(0, G.order))
            h = int(rng.integers(0, G.order))
            c = centrals[int(rng.integers(0, len(centrals)))]
            report.tally("engel_expansion_identity",
                         verify_engel_expansion(ctx, g, h, c, n=5))


def run_catalog(config: RunConfig) -> VerificationReport:
    """Run every (spec, prime) entry; failures are recorded, never fatal."""
    report = VerificationReport(version=TOOL_VERSION, config=config)
    index = 0
    for spec_text in config.specs:
        for p in config.primes:
            started = time.perf_counter()
            seed = _entry_seed(config, index)
            try:
                spec = parse_group_spec(spec_text)
                G = build_group(spec, cap=config.group_order_cap)
                budgets = Budgets(
                    enumeration_cap=config.enumeration_cap,
                    abstract_cap=config.abstract_cap,
                    engel_budget=config.engel_budget,
                    seed=seed,
                )
                verdict = verify_equivalence(G, p, budgets, spec_text=spec_text)
                ctx = GroupAlgebra(G, p)
                _run_witnesses(report, ctx)
                _run_property_suite(report, ctx, verdict, seed)
            except (ModunitsError, ValueError) as exc:
                verdict = EquivalenceVerdict(
                    group_name=spec_text, spec_text=spec_text, p=p,
                    modular=False, criterion=False,
                    v_status=VStatus("skipped", reason=f"entry failed: {exc}"),
                    vstar_status=VStatus("skipped", reason=f"entry failed: {exc}"),
                    v_order=None, vstar_order=None, consistent=True)
                report.tally("entries_completed", False)
            else:
                report.tally("entries_completed", True)
            report.verdicts.append(verdict)
            report.timings_s.append(time.perf_counter() - started)
            index += 1
    return report


# ---------------------------------------------------------------------------
# serialization

def _status_dict(status: VStatus) -> dict:
    witness = None
    if status.witness is not None:
        witness = [status.witness[0].to_text(), status.witness[1].to_text()]
    return {
        "status": status.kind,
        "class": status.nilpotency_class,
        "witness": witness,
        "reason": status.reason,
    }


def _verdict_dict(v: EquivalenceVerdict) -> dict:
    return {
        "group": v.group_name,
        "spec": v.spec_text,
        "p": v.p,
        "modular": v.modular,
        "criterion": v.criterion,
        "v_order": v.v_order,
        "v": _status_dict(v.v_status),
        "v_star_order": v.vstar_order,
        "v_star": _status_dict(v.vstar_status),
        "consistent": v.consistent,
    }


def _witness_dict(w: WitnessRecord) -> dict:
    return {
        "case": w.case,
        "group": w.group_name,
        "p": w.p,
        "inputs": w.inputs,
        "units": list(w.units),
        "checks": w.checks,
        "passed": w.passed,
    }


def emit_report(report: VerificationReport, fmt: str | None = None) -> bytes:
    """Serialize a report; same report (and default flags) => same bytes."""
    fmt = fmt or report.config.output_format
    if fmt == "json":
        doc = {
            "version": report.version,
            "config": asdict(report.config),
            "verdicts": [_verdict_dict(v) for v in report.verdicts],
            "witnesses": [_witness_dict(w) for w in report.witnesses],
            "properties": {k: {"passed": v[0], "failed": v[1]}
                           for k, v in sorted(report.properties.items())},
            "passed": report.passed,
        }
        if report.config.emit_timings:
            doc["timings_s"] = report.timings_s
        return (json.dumps(doc, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["group", "spec", "p", "modular", "criterion",
                         "v_order", "v_status", "v_class",
                         "v_star_order", "v_star_status", "v_star_class",
                         "consistent"])
        for v in report.verdicts:
            writer.writerow([
                v.group_name, v.spec_text, v.p, v.modular, v.criterion,
                v.v_order, v.v_status.kind, v.v_status.nilpotency_class,
                v.vstar_order, v.vstar_status.kind, v.vstar_status.nilpotency_class,
                v.consistent])
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [f"modunits {report.version}",
                 f"entries: {len(report.verdicts)}  "
                 f"(specs={len(report.config.specs)}, primes={list(report.config.primes)})"]
        for v in report.verdicts:
            tag = "" if v.modular else " (non-modular)"
            lines.append(
                f"[{v.group_name}, p={v.p}]{tag} criterion={'T' if v.criterion else 'F'} "
                f"V={_status_text(v.v_status, v.v_order)} "
                f"V*={_status_text(v.vstar_status, v.vstar_order)} "
                f"{'consistent' if v.consistent else 'INCONSISTENT'}")
        wit_pass = sum(1 for w in report.witnesses if w.passed)
        lines.append(f"witness records: {wit_pass}/{len(report.witnesses)} passed")
        for name, (ok, bad) in sorted(report.properties.items()):
            lines.append(f"property {name}: {ok} passed, {bad} failed")
        lines.append("RESULT: " + ("PASS" if report.passed else "FAIL"))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown output format {fmt!r}")


def _status_text(status: VStatus, order: int | None) -> str:
    size = "?" if order is None else str(order)
    if status.kind == "nilpotent":
        return f"nilpotent(class={status.nilpotency_class},order={size})"
    if status.kind == "non_nilpotent":
        return f"non-nilpotent(order={size})"
    return f"skipped({status.reason})"
