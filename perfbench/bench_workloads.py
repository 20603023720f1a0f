"""The benchmark's workloads, their pinned expected outputs, and the output check.

Each workload is one pass over fixed inputs through the public modunits API.
The workload seed reaches the program only as ``RunConfig.seed`` or the
``seed=`` parameter of ``enumerate_units``/``filter_unitary``.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class PassOutcome:
    """What one pass produced and how it compared with the pinned outputs."""

    entries: list[dict]
    failures: list[str]          # one message per problem found
    attempted: int               # entries run
    failed_entries: int          # entries that raised or disagree with the pins
    decided: int                 # exact answers among the requested ones
    requested: int
    timings_s: list[float] = field(default_factory=list)  # report.timings_s, if any

    @property
    def correct(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Workload:
    """kind "catalog": run_catalog + emit_report; kind "scan": enumerate_units + filter_unitary."""

    name: str
    kind: str
    config: tuple[tuple[str, object], ...] = ()   # RunConfig overrides (catalog kind)
    entries: tuple[tuple[str, int], ...] = ()     # (spec, p) pairs (scan kind)

    def specs(self, mu) -> tuple[str, ...]:
        """The group specs the workload builds, for the set-up measurement."""
        if self.kind == "scan":
            return tuple(dict.fromkeys(spec for spec, _ in self.entries))
        return mu.RunConfig(**dict(self.config)).specs

    def run(self, mu, seed: int, pinned: dict) -> PassOutcome:
        if self.kind == "scan":
            return _scan_pass(mu, self.entries, seed, pinned)
        return _catalog_pass(mu, dict(self.config), seed, pinned)


WORKLOADS = {w.name: w for w in (
    Workload("catalog", "catalog"),
    Workload("scan", "scan", entries=(("catalog:D,10", 2), ("catalog:A4", 3))),
    Workload("falsify", "catalog",
             config=(("specs", ("catalog:D,8", "prod:catalog:D,4|catalog:C,2")), ("primes", (2,)))),
    # smoke variants: the same code paths on inputs that take well under a second
    Workload("catalog-smoke", "catalog",
             config=(("specs", ("catalog:C,2", "catalog:S3")), ("primes", (2,)))),
    Workload("scan-smoke", "scan", entries=(("catalog:S3", 2), ("catalog:C,4", 3))),
    # abstract_cap 64 sends V (128 units) down the falsification path
    Workload("falsify-smoke", "catalog",
             config=(("specs", ("catalog:D,4",)), ("primes", (2,)),
                     ("abstract_cap", 64), ("engel_budget", 50))),
)}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------------------
# catalog kind

def _status_summary(status) -> dict:
    return {"kind": status.kind, "class": status.nilpotency_class}


def verdict_summary(v) -> dict:
    """The parts of a verdict the benchmark pins (reasons and witnesses may change)."""
    return {
        "spec": v.spec_text,
        "p": v.p,
        "modular": v.modular,
        "criterion": v.criterion,
        "v_order": v.v_order,
        "v_star_order": v.vstar_order,
        "v": _status_summary(v.v_status),
        "v_star": _status_summary(v.vstar_status),
    }


def verdict_problems(v, want: dict) -> list[str]:
    """Why one catalog verdict disagrees with its pinned summary (empty if it agrees).

    A status decided in the pinned outputs must come out the same.  A status
    pinned as skipped may become decided, but only on a modular entry and
    only in agreement with the group criterion.  An order pinned as unknown
    (None) is not checked.
    """
    got = verdict_summary(v)
    where = f"{want['spec']}@{want['p']}"
    problems = []
    for key in ("spec", "p", "modular", "criterion"):
        if got[key] != want[key]:
            problems.append(f"{where}: {key} is {got[key]!r}, pinned {want[key]!r}")
    for key in ("v_order", "v_star_order"):
        if want[key] is not None and got[key] != want[key]:
            problems.append(f"{where}: {key} is {got[key]!r}, pinned {want[key]!r}")
    if not v.consistent:
        problems.append(f"{where}: verdict is inconsistent")
    for key, status in (("v", v.v_status), ("v_star", v.vstar_status)):
        if status.reason and status.reason.startswith("entry failed"):
            problems.append(f"{where}: {key} entry raised: {status.reason}")
        elif want[key]["kind"] != "skipped":
            if got[key] != want[key]:
                problems.append(f"{where}: {key} is {got[key]}, pinned {want[key]}")
        elif not status.skipped:
            if not v.modular:
                problems.append(f"{where}: {key} newly decided on a non-modular entry")
            elif (status.kind == "nilpotent") != v.criterion:
                problems.append(f"{where}: {key} newly decided against the criterion")
    return problems


def check_report(report, pinned: dict) -> PassOutcome:
    entries = [verdict_summary(v) for v in report.verdicts]
    failures = []
    failed_entries = 0
    if len(report.verdicts) != len(pinned["entries"]):
        failures.append(f"{len(report.verdicts)} verdicts, pinned {len(pinned['entries'])}")
        failed_entries = len(pinned["entries"])
    else:
        for v, want in zip(report.verdicts, pinned["entries"]):
            problems = verdict_problems(v, want)
            failures += problems
            failed_entries += bool(problems)
    if report.passed != pinned["passed"]:
        failures.append(f"report.passed is {report.passed}, pinned {pinned['passed']}")
    decided = sum(not s.skipped for v in report.verdicts
                  for s in (v.v_status, v.vstar_status))
    return PassOutcome(entries, failures, len(pinned["entries"]), failed_entries, decided,
                       2 * len(pinned["entries"]), list(report.timings_s))


def _catalog_pass(mu, config: dict, seed: int, pinned: dict) -> PassOutcome:
    try:
        report = mu.run_catalog(mu.RunConfig(seed=seed, **config))
        mu.emit_report(report)
    except Exception:
        n = len(pinned["entries"])
        return PassOutcome([], [f"run raised:\n{traceback.format_exc()}"], n, n, 0, 2 * n)
    return check_report(report, pinned)


# ---------------------------------------------------------------------------
# scan kind

def _scan_entry(mu, spec: str, p: int, seed: int) -> dict:
    G = mu.build_group(mu.parse_group_spec(spec))
    V = mu.enumerate_units(mu.GroupAlgebra(G, p), seed=seed)
    Vs = mu.filter_unitary(V, seed=seed)
    well_formed = bool((V.vectors.sum(axis=1) % p == 1).all()
                       and (V.positions_of(Vs.vectors) >= 0).all())
    return {"spec": spec, "p": p, "v_order": len(V), "v_star_order": len(Vs),
            "well_formed": well_formed}


def _scan_pass(mu, entries, seed: int, pinned: dict) -> PassOutcome:
    if len(entries) != len(pinned["entries"]):
        raise ValueError(f"{len(entries)} scan entries, {len(pinned['entries'])} pinned")
    got, failures = [], []
    failed_entries = completed = 0
    for (spec, p), want in zip(entries, pinned["entries"]):
        try:
            entry = _scan_entry(mu, spec, p, seed)
        except Exception:
            entry = {"spec": spec, "p": p, "error": traceback.format_exc()}
            problems = [f"{spec}@{p}: raised:\n{entry['error']}"]
        else:
            completed += 1
            problems = [f"{spec}@{p}: {key} is {entry[key]!r}, pinned {want[key]!r}"
                        for key in ("spec", "p", "v_order", "v_star_order")
                        if entry[key] != want[key]]
            if not entry["well_formed"]:
                problems.append(f"{spec}@{p}: a unit lacks augmentation 1 or V* is not inside V")
        got.append(entry)
        failures += problems
        failed_entries += bool(problems)
    return PassOutcome(got, failures, len(entries), failed_entries, completed, len(entries))
