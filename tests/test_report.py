"""Report assembly, serialization determinism, config files, and the CLI."""

import json
import time
from dataclasses import replace

import pytest

import modunits as m
from modunits import cli
from modunits import report as report_module
from modunits.errors import InvalidConfig
from modunits.report import (
    RunConfig,
    VerificationReport,
    _run_property_suite,
    emit_report,
    parse_config_file,
    run_catalog,
    run_single,
)

SMALL = RunConfig(specs=("catalog:C,2", "catalog:S3"), primes=(2,))


@pytest.fixture(scope="module")
def small_report():
    return run_catalog(SMALL)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(enumeration_cap=0)
    with pytest.raises(ValueError):
        RunConfig(output_format="xml")


def test_entry_count(small_report):
    assert len(small_report.verdicts) == len(SMALL.specs) * len(SMALL.primes)
    assert len(small_report.timings_s) == len(small_report.verdicts)


def test_report_passes_and_is_consistent(small_report):
    assert small_report.passed
    assert all(v.consistent for v in small_report.verdicts)


@pytest.mark.parametrize("family,kind", [("skew_witnesses", "skew"),
                                         ("char2_witnesses", "char-2")])
def test_a_witness_that_is_not_unitary_fails_its_entry(monkeypatch, family, kind):
    # GF(2)[C2] builds the skew family, then the char-2 family, for its one
    # central c; the families' unitarity check is the only one on the witness
    # path, so a last column it rejects while one family is built fails the
    # entry, with the Engel identity, the other caller of witness_skew, stubbed out
    monkeypatch.setattr(report_module, "verify_engel_expansion", lambda *args, **kw: True)
    construct = getattr(report_module, family)
    unitary_mask = m.GroupAlgebra.unitary_mask
    built = []

    def last_column_rejected(self, cols):
        mask = unitary_mask(self, cols)
        mask[-1] = False
        return mask

    def corrupted(*args):
        built.append(args)
        with monkeypatch.context() as patch:
            patch.setattr(m.GroupAlgebra, "unitary_mask", last_column_rejected)
            return construct(*args)

    monkeypatch.setattr(report_module, family, corrupted)
    report = run_catalog(RunConfig(specs=("catalog:C,2",), primes=(2,)))
    (verdict,) = report.verdicts
    assert len(built) == 1  # the corrupted family, built once, failed the entry
    for status in (verdict.v_status, verdict.vstar_status):
        assert status.reason.startswith(f"entry failed: {kind} witness ")
        assert status.reason.endswith(" is not unitary")
    assert not report.passed


def _element_wise_families(ctx):
    """The skew and char-2 families one (g, c) pair at a time, each unit
    formed by AlgebraElement arithmetic: (tallies, exemplar records)."""
    G, p = ctx.group, ctx.p
    pairs = [(g, c) for c in m.central_order_p_elements(G, p) for g in G.elements()]
    families = [(1, "witness_skew_unitary", pairs,
                 lambda g, c: ctx.embed(g) - ctx.embed(int(G.inv[g])))]
    if p == 2:
        families.append((2, "witness_char2_unitary",
                         [(g, c) for g, c in pairs if int(G.mul[g, g]) in (G.identity, c)],
                         lambda g, c: ctx.embed(g)))
    tallies, records = {}, []
    for case, tally, inputs, factor in families:
        for k, (g, c) in enumerate(inputs):
            w = ctx.one() + factor(g, c) * ctx.hat(c)
            assert (w.involution() * w).is_one() and w.augmentation() == 1
            tallies[tally] = tallies.get(tally, 0) + 1
            if k < 3:
                records.append(m.WitnessRecord(
                    case=case, group_name=G.name, p=p,
                    inputs={"g": G.labels[g], "c": G.labels[c]},
                    units=(w.to_text(),), checks={"unitary": True}))
    return tallies, records


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("spec", m.report.DEFAULT_SPECS)
def test_batched_witness_families_match_the_element_wise_constructions(spec, p):
    ctx = m.GroupAlgebra(m.build_group(m.parse_group_spec(spec)), p)
    G = ctx.group
    report = VerificationReport(version="", config=SMALL)
    report_module._run_witnesses(report, ctx)
    tallies, records = _element_wise_families(ctx)
    assert {k: v for k, v in report.properties.items()
            if k in ("witness_skew_unitary", "witness_char2_unitary")} == \
        {k: [v, 0] for k, v in tallies.items()}
    assert [w for w in report.witnesses if w.case in (1, 2)] == records
    for c in m.central_order_p_elements(G, p):
        skew = m.theorem.skew_witnesses(ctx, G.elements(), c)
        assert skew.shape == (G.order, G.order)
        for g in G.elements():
            assert m.AlgebraElement(ctx, skew[:, g]) == m.witness_skew(ctx, g, c)
        if p == 2:
            gs = [g for g in G.elements() if int(G.mul[g, g]) in (G.identity, c)]
            char2 = m.theorem.char2_witnesses(ctx, gs, c)
            assert char2.shape == (G.order, len(gs))
            for col, g in zip(char2.T, gs):
                assert m.AlgebraElement(ctx, col) == m.witness_char2(ctx, g, c)


def test_catalog_pass_multiply_count(monkeypatch):
    # the work of one default pass, which depends only on the config and the
    # seed, so a removed re-check or second orbit that comes back shows up here
    calls = 0
    multiply = m.GroupAlgebra.multiply

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return multiply(self, a, b)

    monkeypatch.setattr(m.GroupAlgebra, "multiply", counting)
    assert run_catalog(RunConfig()).passed
    assert calls == 995


def test_catalog_pass_enumerates_only_where_needed(monkeypatch):
    # V is built for a status (D4 and Q8 are nilpotent and not abelian) or at
    # p = 2 where O_2(G) != 1, where |V*| has no law; every other entry, S3,
    # S3xC3 and the groups of odd order at p = 2 among them, takes its orders
    # from the laws
    enumerated = []
    enumerate_units = m.theorem.enumerate_units

    def spy(algebra, **kwargs):
        enumerated.append((algebra.group.name, algebra.p))
        return enumerate_units(algebra, **kwargs)

    monkeypatch.setattr(m.theorem, "enumerate_units", spy)
    report = run_catalog(RunConfig())
    assert report.passed
    names = [v.group_name for v in report.verdicts if v.p == 2]
    o2_trivial = ("C3", "C3xC3", "S3", "S3xC3")
    assert enumerated == [(name, p) for name in names for p in (2, 3)
                          if (p == 2 and name not in o2_trivial) or name in ("D4", "Q8")]
    assert all(v.v_order is not None for v in report.verdicts)
    # the law's |V| of a p-group is p^(|G|-1) by construction, so only an
    # enumerated V is tallied: C3 and C3xC3 at p = 3 drop out
    assert report.properties["unit_count_law"] == [6, 0]


def test_catalog_pass_builds_no_closure_and_no_cayley_table(monkeypatch):
    # the dihedral witness is checked by its defining relations, so nothing
    # on the default pass closes a subgroup or tabulates one
    def refuse(*args, **kwargs):
        raise AssertionError("a closure or a Cayley table was built")

    for name in ("closure_subgroup", "as_abstract_group"):
        monkeypatch.setattr(m.theorem, name, refuse)
        monkeypatch.setattr(m.units, name, refuse)
    monkeypatch.setattr(m.units, "_product_rows", refuse)
    report = run_catalog(RunConfig())
    assert report.passed
    assert report.properties["witness_dihedral_checks"] == [12, 0]


@pytest.mark.parametrize("p,label,tallies", [
    (2, "(1 2)", [0, 1]),    # <(1 2)> is not normal, so its hat is not central
    (3, "(1 2 3)", [1, 0]),  # <(1 2 3)> is normal, so its hat is central
])
def test_hat_central_tallies_a_hat_that_is_not_central(monkeypatch, p, label, tallies):
    G = m.build_group(m.parse_group_spec("catalog:S3"))
    ctx = m.GroupAlgebra(G, p)
    verdict = m.verify_equivalence(G, p)
    report = VerificationReport(version="test", config=SMALL)
    # S3 has no central element of order 2 or 3; feed the suite a non-central one
    monkeypatch.setattr(m.groups, "central_order_p_elements",
                        lambda G, p: [G.labels.index(label)])
    monkeypatch.setattr(report_module, "verify_engel_expansion", lambda *args, **kwargs: True)
    _run_property_suite(report, ctx, verdict, seed=0)
    assert report.properties["hat_central"] == tallies
    assert report.properties["hat_square_zero"] == [1, 0]


def test_zero_entry_report():
    report = run_catalog(RunConfig(specs=(), primes=(2,)))
    assert report.verdicts == []
    assert report.passed
    doc = json.loads(emit_report(report, "json"))
    assert doc["verdicts"] == []


def test_invalid_entry_captured_not_fatal():
    report = run_catalog(RunConfig(specs=("catalog:NOPE", "catalog:C,2"), primes=(2,)))
    assert len(report.verdicts) == 2
    assert report.verdicts[0].v_status.skipped
    assert "entry failed" in report.verdicts[0].v_status.reason
    assert report.verdicts[1].consistent
    assert not report.passed  # the failed entry counts against the run


def test_small_cap_marks_skipped():
    report = run_catalog(RunConfig(specs=("catalog:Q8",), primes=(2,),
                                   enumeration_cap=2**4))
    v = report.verdicts[0]
    assert v.v_status.skipped and "budget exceeded" in v.v_status.reason
    assert report.passed  # skipped entries stay honest but do not fail the run


def test_json_emission_stable_bytes(small_report):
    assert emit_report(small_report, "json") == emit_report(small_report, "json")


def test_json_schema_fields(small_report):
    doc = json.loads(emit_report(small_report, "json"))
    assert set(doc) == {"version", "config", "verdicts", "witnesses",
                        "properties", "passed"}
    verdict = doc["verdicts"][0]
    assert set(verdict) == {"group", "spec", "p", "modular", "criterion",
                            "v_order", "v", "v_star_order", "v_star", "consistent"}
    assert set(verdict["v"]) == {"status", "class", "witness", "reason"}


def test_timings_only_on_request(small_report):
    assert "timings_s" not in json.loads(emit_report(small_report, "json"))
    withtimes = run_catalog(replace(SMALL, emit_timings=True))
    assert "timings_s" in json.loads(emit_report(withtimes, "json"))


def test_csv_row_count(small_report):
    lines = emit_report(small_report, "csv").decode().strip().splitlines()
    assert len(lines) == len(small_report.verdicts) + 1
    assert lines[0].startswith("group,spec,p,modular,criterion")


def test_text_format(small_report):
    text = emit_report(small_report, "text").decode()
    assert "RESULT: PASS" in text
    assert "[S3, p=2]" in text


def test_run_determinism_same_seed():
    a = emit_report(run_catalog(SMALL), "json")
    b = emit_report(run_catalog(SMALL), "json")
    assert a == b


def test_run_determinism_across_interpreters(tmp_path):
    # fresh interpreters with different string-hash seeds print the same bytes,
    # so nothing in a report follows set or dict order of hashed keys
    import os
    import subprocess
    import sys
    from pathlib import Path

    cfg = tmp_path / "run.cfg"
    cfg.write_text("spec = catalog:S3\nprimes = 2,3\n")
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(m.__file__).parents[1]), env.get("PYTHONPATH")]))
        runs.append(subprocess.run(
            [sys.executable, "-m", "modunits.cli", "catalog", "--config", str(cfg)],
            capture_output=True, env=env))
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout
    assert runs[1].stdout == runs[0].stdout
    assert emit_report(run_catalog(RunConfig(specs=("catalog:S3",), primes=(2, 3)))) \
        == runs[0].stdout


def test_reports_do_not_depend_on_the_wall_clock(monkeypatch):
    # a clock that jumps 40 s per reading must change no status and no byte
    config = RunConfig(specs=("catalog:S3", "catalog:D,4"), primes=(2,))
    steady = run_catalog(config)
    ticks = iter(range(0, 10**9, 40))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    jumpy = run_catalog(config)
    assert [v.vstar_status.kind for v in jumpy.verdicts] == ["non_nilpotent", "nilpotent"]
    for fmt in ("json", "csv", "text"):
        assert emit_report(jumpy, fmt) == emit_report(steady, fmt)


def test_run_single():
    report = run_single("catalog:D,4", 2, RunConfig())
    assert len(report.verdicts) == 1
    assert report.verdicts[0].group_name == "D4"
    assert report.passed


# ---------------------------------------------------------------------------
# config files

def test_parse_config_file():
    cfg = parse_config_file("""
# sample config
primes = 2,3
spec = catalog:C,2
spec = prod:catalog:S3|catalog:C,3
enumeration_cap = 4096
seed = 7
format = csv
emit_timings = true
""")
    assert cfg.primes == (2, 3)
    assert cfg.specs == ("catalog:C,2", "prod:catalog:S3|catalog:C,3")
    assert cfg.enumeration_cap == 4096
    assert cfg.seed == 7
    assert cfg.output_format == "csv"
    assert cfg.emit_timings


def test_parse_config_file_bad_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_file("primes = 2\nnot a config line\n")


@pytest.mark.parametrize("line,message", [
    ("enumeraton_cap = 1", "unknown key 'enumeraton_cap'"),
    ("seed = x", "bad value 'x' for seed"),
    ("primes = 2,x", "bad value '2,x' for primes"),
    ("format = xml", "bad value 'xml' for format"),
    ("emit_timings = maybe", "bad value 'maybe' for emit_timings"),
    ("abstract_cap = 0", "bad value '0' for abstract_cap"),
    ("workers = 2", "unknown key 'workers'"),  # removed with the process pool
    ("time_budget_s = 60", "unknown key 'time_budget_s'"),  # removed with the deadline
    ("seed = -1", "bad value '-1' for seed"),
    ("primes =", "bad value '' for primes"),
    ("engel_budget = -5", "bad value '-5' for engel_budget"),
    ("group_order_cap = 0", "bad value '0' for group_order_cap"),
])
def test_parse_config_file_rejects_unknown_key_and_bad_value(line, message):
    with pytest.raises(InvalidConfig, match=f"line 2: {message}"):
        parse_config_file(f"primes = 2\n{line}\n")


# ---------------------------------------------------------------------------
# CLI

def test_cli_verify_exit_zero(capsys):
    rc = cli.main(["verify", "--spec", "catalog:C,2", "--p", "2", "--format", "text"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "RESULT: PASS" in captured.out


def test_cli_catalog_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spec = catalog:C,2\nspec = catalog:S3\nprimes = 2\nformat = json\n")
    rc = cli.main(["catalog", "--config", str(cfg)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(doc["verdicts"]) == 2


@pytest.mark.parametrize("line", ["enumeraton_cap = 1", "seed = x", "primes = 9"])
def test_cli_catalog_bad_config_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"spec = catalog:C,2\n{line}\n")
    rc = cli.main(["catalog", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: config line 2: ")


@pytest.mark.parametrize("argv,message", [
    (["catalog", "--primes", "2,x"], "error: bad prime list '2,x'\n"),
    (["verify", "--spec", "catalog:S3", "--p", "2", "--cap", "0"],
     "error: caps must be positive\n"),
    (["verify", "--spec", "catalog:S3", "--p", "2", "--abstract-cap", "0"],
     "error: caps must be positive\n"),
    (["verify", "--spec", "catalog:S3", "--p", "2", "--seed", "-1"],
     "error: engel_budget and seed must be non-negative\n"),
    (["catalog", "--primes", ""], "error: no primes given\n"),
    (["enumerate-units", "--spec", "catalog:S3", "--p", "2", "--limit", "-1"],
     "error: --limit must be non-negative\n"),
    (["catalog", "--primes", "2,4"], "error: 4 is not prime\n"),
])
def test_cli_bad_flag_value_exits_2(capsys, argv, message):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == message


def test_prime_past_the_int64_bound_fails_the_entry_and_exits_2(capsys):
    report = run_single("catalog:C,4", 2147483647, RunConfig())
    assert not report.passed
    assert report.verdicts[0].v_status.reason.startswith(
        "entry failed: GF(2147483647)[C4]: |G|*(p-1)^2 must stay below 2^63")
    assert "ring_associativity" not in report.properties
    # refused before a primality test, which would take ~10^10 steps here
    huge = run_single("catalog:C,4", 10**20 + 39, RunConfig())
    assert huge.verdicts[0].v_status.reason.startswith("entry failed: GF(100000000000000000039)")
    rc = cli.main(["enumerate-units", "--spec", "catalog:C,4", "--p", "2147483647"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: GF(2147483647)[C4]: ")


@pytest.mark.parametrize("p,message", [
    ("4", "error: 4 is not prime\n"),
    ("2147483647", "error: GF(2147483647)[C4]: |G|*(p-1)^2 must stay below 2^63 "
                   "for exact int64 products\n"),
])
def test_cli_verify_bad_prime_exits_2(capsys, p, message):
    rc = cli.main(["verify", "--spec", "catalog:C,4", "--p", p])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == message


def test_prime_just_below_the_int64_bound_passes():
    report = run_single("catalog:C,4", 1518500213, RunConfig())
    assert report.passed
    assert report.properties["ring_associativity"] == [20, 0]


def test_cli_catalog_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    rc = cli.main(["catalog", "--config", str(missing)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read config file {missing}: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--spec", "catalog:C,2", "--p", "2"],
    ["catalog", "--primes", "2", "--cap", "16"],
    ["witness", "--case", "1", "--spec", "catalog:S3", "--p", "2"],
    ["enumerate-units", "--spec", "catalog:C,2", "--p", "2"],
])
def test_cli_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise RuntimeError("the run started before --out was checked")

    # RuntimeError is not caught per entry, so any work done would surface
    monkeypatch.setattr(m.report, "verify_equivalence", must_not_run)
    monkeypatch.setattr(cli, "_run_witnesses", must_not_run)
    monkeypatch.setattr(cli, "enumerate_units", must_not_run)
    rc = cli.main(argv + ["--out", str(tmp_path / "absent" / "r.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write")


def test_cli_catalog_out_file(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["catalog", "--primes", "2", "--cap", "16", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    skipped = [v for v in doc["verdicts"] if v["v"]["status"] == "skipped"]
    assert skipped  # the tiny cap forces skips but never failures


def test_cli_witness_case1(capsys):
    rc = cli.main(["witness", "--case", "1", "--spec", "prod:catalog:S3|catalog:C,3",
                   "--p", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["passed"]
    assert all(r["case"] == 1 for r in doc["records"])
    assert doc["records"]


def test_cli_witness_case3(capsys):
    rc = cli.main(["witness", "--case", "3", "--spec", "prod:catalog:S3|catalog:C,3",
                   "--p", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["records"]
    assert all(r["checks"]["subgroup_non_nilpotent"] for r in doc["records"])


def test_cli_witness_no_applicable_inputs(capsys):
    rc = cli.main(["witness", "--case", "3", "--spec", "catalog:S3", "--p", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["records"] == []


def test_cli_enumerate_units(capsys):
    rc = cli.main(["enumerate-units", "--spec", "catalog:C,2", "--p", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["v_order"] == 2
    assert doc["v_star_order"] == 2
    assert doc["modular"]


def test_cli_error_exit_code(capsys):
    rc = cli.main(["verify", "--spec", "catalog:NOPE", "--p", "2"])
    captured = capsys.readouterr()
    # a spec that does not parse is bad input, not a failed entry
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: unknown catalog name 'NOPE' (at position 8)\n"


def test_cli_huge_perm_point_is_bad_input(capsys):
    rc = cli.main(["verify", "--spec", "perm:(1 100000000)", "--p", "2"])
    captured = capsys.readouterr()
    assert rc == 2  # as for enumerate-units below
    assert captured.err == "error: cycle point above 4096 (at position 5)\n"
    rc = cli.main(["enumerate-units", "--spec", "perm:(1 100000000)", "--p", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: cycle point above 4096 (at position 5)\n"


@pytest.mark.parametrize("argv", [
    ["catalog", "--workers", "2"],
    ["verify", "--spec", "catalog:S3", "--p", "2", "--workers", "2"],
    ["enumerate-units", "--spec", "catalog:S3", "--p", "2", "--workers", "2"],
    ["catalog", "--time-budget", "60"],
    ["verify", "--spec", "catalog:S3", "--p", "2", "--time-budget", "60"],
])
def test_cli_has_no_workers_flag(argv, capsys):
    """--workers left with the process pool, --time-budget with the deadline."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_cli_enumerate_error(capsys):
    rc = cli.main(["enumerate-units", "--spec", "catalog:NOPE", "--p", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_report_bytes_do_not_depend_on_optimize_flag():
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(m.__file__).parents[1]), env.get("PYTHONPATH")]))
    args = ["-m", "modunits.cli", "verify", "--spec", "catalog:S3", "--p", "3"]
    plain, optimized = (subprocess.run([sys.executable, *flags, *args],
                                       capture_output=True, env=env)
                        for flags in ([], ["-O"]))
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == plain.returncode, optimized.stderr
    assert optimized.stdout == plain.stdout
    assert plain.stdout


def test_console_script_installed():
    """The `modunits` console script declared in pyproject.toml runs `verify`.

    The entry point is resolved from `[project.scripts]` and run in a fresh
    interpreter the way pip's generated launcher runs it, against the same
    `modunits` package this suite imported. Where an installed `modunits` is
    on PATH, it must give the same exit code and output.
    """
    import importlib
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "modunits" in scripts, "no modunits entry in [project.scripts]"
    module, _, attr = scripts["modunits"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{scripts['modunits']} is not a callable"

    args = ["verify", "--spec", "catalog:C,3", "--p", "3", "--format", "csv"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(m.__file__).parents[1]), env.get("PYTHONPATH")]))
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    out = subprocess.run([sys.executable, "-c", launcher, *args],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("\n") == 2, out.stderr  # header + one verdict row

    exe = shutil.which("modunits")
    if exe:
        installed = subprocess.run([exe, *args], capture_output=True, text=True)
        assert installed.returncode == out.returncode, installed.stderr
        assert installed.stdout == out.stdout, installed.stderr
