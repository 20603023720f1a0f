"""Command-line front end.

Subcommands:
    verify           run the equivalence check on one group and prime
    catalog          run the default (or configured) catalog
    witness          run one witness construction family on a group
    enumerate-units  enumerate normalized units and the unitary subgroup

Reports are byte-identical from run to run at a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .algebra import GroupAlgebra
from .catalog import build_group, parse_group_spec
from .errors import InvalidConfig, ModunitsError
from .report import (
    RunConfig,
    VerificationReport,
    emit_report,
    parse_config_file,
    parse_primes,
    run_catalog,
    run_single,
    _run_witnesses,
    _witness_dict,
)
from .units import enumerate_units, filter_unitary

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cap", type=int, default=RunConfig.enumeration_cap,
                        help="enumeration cap on p^(|G|-1), the count of augmentation-1 "
                             "vectors (default %(default)s)")
    parser.add_argument("--abstract-cap", type=int, default=RunConfig.abstract_cap,
                        help="largest unit group whose lower central series is "
                             "computed, and the bound of the lex witness scan; "
                             "used only when G is nilpotent and not abelian")
    parser.add_argument("--engel-budget", type=int, default=RunConfig.engel_budget,
                        help="random pair attempts in the falsification search "
                             "above --abstract-cap; used only when G is nilpotent "
                             "and not abelian, and only on a unit group whose "
                             "order is not a prime power")
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--emit-timings", action="store_true",
                        help="include wall-clock timings (breaks byte determinism)")
    parser.add_argument("--out", type=str, default=None, help="write report to a file")


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        enumeration_cap=args.cap,
        abstract_cap=args.abstract_cap,
        engel_budget=args.engel_budget,
        seed=args.seed,
        output_format=args.format,
        emit_timings=args.emit_timings,
    )


def _write(data: bytes, out: str | None, mode: str = "wb") -> None:
    if out:
        try:
            with open(out, mode) as fh:
                fh.write(data)
        except OSError as exc:
            raise InvalidConfig(f"cannot write output file {out}: {exc}") from exc
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _emit_and_exit(report: VerificationReport, args) -> int:
    _write(emit_report(report), args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modunits",
        description="Unit groups of modular group algebras over prime fields: "
                    "enumeration, unitary subgroups, and nilpotency checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="equivalence check for one group")
    p_verify.add_argument("--spec", required=True)
    p_verify.add_argument("--p", required=True, type=int)
    _add_common(p_verify)

    p_cat = sub.add_parser("catalog", help="run the group catalog")
    p_cat.add_argument("--primes", type=str, default="2,3")
    p_cat.add_argument("--config", type=str, default=None,
                       help="key-value config file (overrides other options)")
    _add_common(p_cat)

    p_wit = sub.add_parser("witness", help="run witness constructions")
    p_wit.add_argument("--case", required=True, type=int, choices=(1, 2, 3))
    p_wit.add_argument("--spec", required=True)
    p_wit.add_argument("--p", required=True, type=int)
    p_wit.add_argument("--out", type=str, default=None)

    p_enum = sub.add_parser("enumerate-units", help="enumerate V and its unitary subgroup")
    p_enum.add_argument("--spec", required=True)
    p_enum.add_argument("--p", required=True, type=int)
    p_enum.add_argument("--cap", type=int, default=RunConfig.enumeration_cap)
    p_enum.add_argument("--limit", type=int, default=32,
                        help="how many elements to print")
    p_enum.add_argument("--out", type=str, default=None)

    args = parser.parse_args(argv)
    try:
        # fail before the run, not after it; appending leaves an existing file as it is
        _write(b"", args.out, mode="ab")
        if args.command == "verify":
            config = _config_from_args(args)
            _check_input(args.spec, args.p, config)
            report = run_single(args.spec, args.p, config)
            return _emit_and_exit(report, args)
        if args.command == "catalog":
            if args.config:
                try:
                    with open(args.config, "r", encoding="utf-8") as fh:
                        text = fh.read()
                except (OSError, UnicodeDecodeError) as exc:
                    raise InvalidConfig(
                        f"cannot read config file {args.config}: {exc}") from exc
                config = parse_config_file(text)
            else:
                config = _config_from_args(args)
                config = replace(config, primes=parse_primes(args.primes))
            report = run_catalog(config)
            return _emit_and_exit(report, args)
        if args.command == "witness":
            return _cmd_witness(args)
        if args.command == "enumerate-units":
            return _cmd_enumerate(args)
    except ModunitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def _check_input(spec_text: str, p: int, config: RunConfig) -> None:
    """Raise the ModunitsError of a spec that does not parse or build, or of a
    p that GF(p)[G] refuses, so that `verify` treats bad input as `witness`
    and `enumerate-units` do."""
    G = build_group(parse_group_spec(spec_text), cap=config.group_order_cap)
    GroupAlgebra(G, p)


def _cmd_witness(args) -> int:
    G = build_group(parse_group_spec(args.spec))
    ctx = GroupAlgebra(G, args.p)
    scratch = VerificationReport(version="", config=RunConfig())
    _run_witnesses(scratch, ctx)
    records = [w for w in scratch.witnesses if w.case == args.case]
    doc = {
        "group": G.name,
        "p": args.p,
        "case": args.case,
        "records": [_witness_dict(w) for w in records],
        "passed": all(w.passed for w in records),
    }
    _write((json.dumps(doc, indent=2) + "\n").encode(), args.out)
    return 0 if doc["passed"] else 1


def _cmd_enumerate(args) -> int:
    if args.limit < 0:
        raise InvalidConfig("--limit must be non-negative")
    G = build_group(parse_group_spec(args.spec))
    ctx = GroupAlgebra(G, args.p)
    V = enumerate_units(ctx, cap=args.cap)
    Vstar = filter_unitary(V)
    doc = {
        "group": G.name,
        "p": args.p,
        "modular": ctx.is_modular,
        "v_order": len(V),
        "v_star_order": len(Vstar),
        "v_elements": [V.element(i).to_text() for i in range(min(len(V), args.limit))],
        "v_star_elements": [Vstar.element(i).to_text()
                            for i in range(min(len(Vstar), args.limit))],
    }
    _write((json.dumps(doc, indent=2) + "\n").encode(), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
