"""Tests of the benchmark itself, on the smoke variants of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import modunits as mu  # noqa: E402

import bench_workloads as bw  # noqa: E402
from bench_clock import REFERENCE_LOOP_S, SpeedSampler  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ("catalog-smoke", "scan-smoke", "falsify-smoke")


def run_bench(root: Path, workload: str, trace: int = 0):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def test_every_benchmark_workload_has_a_smoke_variant_and_pins():
    expected = bw.load_expected()
    for w in BENCH["workloads"]:
        assert w["name"] in bw.WORKLOADS and f"{w['name']}-smoke" in bw.WORKLOADS
    assert set(bw.WORKLOADS) == set(expected)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", SMOKE)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_wrong_pinned_value_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    pins_path = root / "perfbench" / "expected.json"
    pins = json.loads(pins_path.read_text())
    pins["falsify-smoke"]["entries"][0]["v_star"]["class"] = 3  # the real class is 2
    pins_path.write_text(json.dumps(pins))
    done = run_bench(root, "falsify-smoke")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "MISMATCH" in done.stderr


def test_scan_check_fires_on_wrong_unit_count():
    pins = bw.load_expected()["scan-smoke"]
    pins["entries"][1]["v_order"] += 1
    outcome = bw.WORKLOADS["scan-smoke"].run(mu, 0, pins)
    assert outcome.failed_entries == 1 and not outcome.correct


def _falsify_smoke_verdict():
    w = bw.WORKLOADS["falsify-smoke"]
    report = mu.run_catalog(mu.RunConfig(seed=0, **dict(w.config)))
    return report.verdicts[0], bw.load_expected()["falsify-smoke"]["entries"][0]


def test_skipped_pin_accepts_a_new_verdict_only_if_it_matches_the_criterion():
    v, want = _falsify_smoke_verdict()
    assert v.modular and v.criterion and v.v_status.skipped
    assert bw.verdict_problems(v, want) == []
    decided = dataclasses.replace(v, v_status=dataclasses.replace(
        v.v_status, kind="nilpotent", nilpotency_class=4, reason=None))
    assert bw.verdict_problems(decided, want) == []
    wrong = dataclasses.replace(v, v_status=dataclasses.replace(
        v.v_status, kind="non_nilpotent", reason=None))
    assert any("against the criterion" in msg for msg in bw.verdict_problems(wrong, want))


def test_decided_pin_rejects_a_skip():
    v, want = _falsify_smoke_verdict()
    skipped = dataclasses.replace(v, vstar_status=dataclasses.replace(
        v.vstar_status, kind="skipped", nilpotency_class=None, reason="budget"))
    assert bw.verdict_problems(skipped, want)


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    done = run_bench(root, "catalog")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_speed_sampler_samples_inside_the_region_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(interval_s=0.005) as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [t for t, _ in clock.samples if clock.start <= t < clock.end]
    assert len(inside) >= 5 and len(clock.samples) == len(inside) + 2
    assert 0 < clock.work_s < clock.elapsed_s
    assert clock.reference_s == pytest.approx(
        clock.work_s * REFERENCE_LOOP_S / clock.mean_loop_s)


def test_speed_sampler_without_interval_brackets_the_region():
    with SpeedSampler(interval_s=None) as clock:
        time.sleep(0.01)
    assert len(clock.samples) == 2 and clock.work_s == clock.elapsed_s
    (t0, d0), (t1, d1) = clock.samples
    assert clock.mean_loop_s == pytest.approx((d0 + d1) / 2)
