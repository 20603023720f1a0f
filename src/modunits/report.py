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
from dataclasses import dataclass, field, replace

import numpy as np

from . import groups as gr
from .algebra import GroupAlgebra
from .catalog import DEFAULT_CATALOG, build_group, parse_group_spec
from .errors import InvalidConfig, ModunitsError
from .theorem import (
    Budgets,
    EquivalenceVerdict,
    VStatus,
    WitnessRecord,
    centralizer_power_property,
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
    enumeration_cap: int = 2**20
    abstract_cap: int = 4096
    engel_budget: int = 400
    seed: int = 0
    output_format: str = "json"
    group_order_cap: int = 64
    time_budget_s: float = 60.0
    emit_timings: bool = False

    def __post_init__(self):
        if self.enumeration_cap <= 0 or self.abstract_cap <= 0:
            raise InvalidConfig("caps must be positive")
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
    """A comma-separated prime list, as in '2,3'; raises InvalidConfig."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise InvalidConfig(f"bad prime list {text!r}") from None


# config key -> (RunConfig field, parser of the value text)
_CONFIG_KEYS = {
    "primes": ("primes", parse_primes),
    **{key: (key, int) for key in ("enumeration_cap", "abstract_cap", "engel_budget",
                                   "seed", "group_order_cap")},
    "time_budget_s": ("time_budget_s", float),
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
    recorded = {1: 0, 2: 0, 3: 0}

    def record(rec: WitnessRecord) -> None:
        if recorded[rec.case] < _EXEMPLAR_RECORDS_PER_CASE or not rec.passed:
            report.witnesses.append(rec)
            recorded[rec.case] += 1

    for c in centrals:
        for g in G.elements():
            w = witness_skew(ctx, g, c)
            ok = w.is_unitary()
            report.tally("witness_skew_unitary", ok)
            record(WitnessRecord(
                case=1, group_name=G.name, p=p,
                inputs={"g": G.labels[g], "c": G.labels[c]},
                units=(w.to_text(),), checks={"unitary": ok}))
    if p == 2:
        for c in centrals:
            for g in G.elements():
                gsq = int(G.mul[g, g])
                if gsq not in (G.identity, c):
                    continue
                w = witness_char2(ctx, g, c)
                ok = w.is_unitary()
                report.tally("witness_char2_unitary", ok)
                record(WitnessRecord(
                    case=2, group_name=G.name, p=p,
                    inputs={"g": G.labels[g], "c": G.labels[c]},
                    units=(w.to_text(),), checks={"unitary": ok}))
    else:
        involutions = [x for x in G.elements()
                       if gr.element_order(G, x) == 2]
        for c in centrals:
            for a in involutions:
                for b in involutions:
                    if a == b or gr.commutator(G, a, b) == G.identity:
                        continue
                    if gr.element_order(G, int(G.mul[a, b])) <= 2:
                        continue
                    rec = witness_dihedral(ctx, a, b, c)
                    report.tally("witness_dihedral_checks", rec.passed)
                    record(rec)


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

    for _ in range(20):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        c = ctx.random_element(rng)
        report.tally("ring_associativity", (a * b) * c == a * (b * c))
        report.tally("ring_distributivity", a * (b + c) == a * b + a * c)
        report.tally("involution_antihomomorphism",
                     (a * b).involution() == b.involution() * a.involution())
        report.tally("involution_order_two", a.involution().involution() == a)
        report.tally("augmentation_multiplicative",
                     (a * b).augmentation() == (a.augmentation() * b.augmentation()) % p)

    centrals = gr.central_order_p_elements(G, p)
    for c in centrals:
        h = ctx.hat(c)
        report.tally("hat_square_zero", (h * h).is_zero())
        central = all(h * ctx.embed(x) == ctx.embed(x) * h for x in G.elements())
        report.tally("hat_central", central)

    if verdict.v_order is not None and gr.is_p_group(G, p):
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
                    deadline=started + config.time_budget_s,
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


def run_single(spec_text: str, p: int, config: RunConfig) -> VerificationReport:
    """One-entry variant used by the `verify` CLI subcommand."""
    single = replace(config, specs=(spec_text,), primes=(p,))
    return run_catalog(single)


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


def _config_dict(config: RunConfig) -> dict:
    return {
        "primes": list(config.primes),
        "specs": list(config.specs),
        "enumeration_cap": config.enumeration_cap,
        "abstract_cap": config.abstract_cap,
        "engel_budget": config.engel_budget,
        "seed": config.seed,
        "output_format": config.output_format,
        "group_order_cap": config.group_order_cap,
        "time_budget_s": config.time_budget_s,
        "emit_timings": config.emit_timings,
    }


def emit_report(report: VerificationReport, fmt: str | None = None) -> bytes:
    """Serialize a report; same report (and default flags) => same bytes."""
    fmt = fmt or report.config.output_format
    if fmt == "json":
        doc = {
            "version": report.version,
            "config": _config_dict(report.config),
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
