#!/usr/bin/env python3
"""Benchmark for modunits: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; modunits is imported from its ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json
with no instrumentation; with ``--trace 1`` it makes one untraced and one
traced pass and reports the per-layer metrics.  Pass and set-up times are
reported in reference seconds, corrected for the speed the host gives the
run (bench_clock.py); the raw times go to the run record.  Every answer is checked
against ``expected.json``; a mismatch prints ``"correct": false`` and exits 1.
A fuller record of the run (environment, pass times, entries, spans and
counters) goes to ``perfbench/out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_clock import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 24

# set-up samples: a fresh interpreter imports modunits once untimed, so that
# numpy is loaded and the source files are read, then times `count` imports of
# modunits from scratch, each followed by building the workload's groups; it
# prints the raw and the reference seconds (bench_clock.py) of each
_SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
from bench_clock import SpeedSampler
import modunits
for _ in range(int(sys.argv[3])):
    for name in [m for m in sys.modules if m.partition(".")[0] == "modunits"]:
        del sys.modules[name]
    with SpeedSampler(interval_s=None) as clock:
        import modunits
        for text in sys.argv[4:]:
            modunits.build_group(modunits.parse_group_spec(text))
    print(clock.elapsed_s, clock.reference_s)
"""


def measure_setup(specs, count: int) -> list[tuple[float, float]]:
    """``count`` set-up samples, each (raw seconds, reference seconds)."""
    if not count:
        return []
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), str(count),
                           *specs], cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return [(float(raw), float(ref)) for raw, ref in
            (line.split() for line in done.stdout.strip().splitlines())]


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def timed_pass(workload, mu, seed, pinned):
    with SpeedSampler() as clock:
        outcome = workload.run(mu, seed, pinned)
    return clock, outcome


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "modunits" / "__init__.py").is_file():
        print(f"perfbench: no modunits sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import modunits as mu
    if Path(mu.__file__).resolve().parent != SRC / "modunits":
        print(f"perfbench: imported modunits from {mu.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench_trace
    import bench_workloads as bw

    args = parse_args(argv, bw.WORKLOADS)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = bw.WORKLOADS[args.workload]
    pinned = bw.load_expected()[args.workload]

    # half the set-up samples before the passes and half after, so that the
    # median sees the machine as the passes did; a traced run reports no set-up
    specs = workload.specs(mu)
    samples = 0 if args.trace else SETUP_SAMPLES
    setup = measure_setup(specs, samples // 2)
    clocks, outcomes = [], []
    started = time.perf_counter()
    while True:
        clock, outcome = timed_pass(workload, mu, args.seed, pinned)
        clocks.append(clock)
        outcomes.append(outcome)
        elapsed = [c.elapsed_s for c in clocks]
        if args.trace or time.perf_counter() - started + statistics.median(elapsed) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup(specs, samples - len(setup))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_raw_s": [raw for raw, _ in setup],
              "setup_reference_s": [ref for _, ref in setup],
              "pass_wall_s": [c.elapsed_s for c in clocks],
              "pass_work_s": [c.work_s for c in clocks],
              "pass_mean_loop_s": [c.mean_loop_s for c in clocks],
              "pass_samples": [len(c.samples) for c in clocks],
              "pass_reference_s": [c.reference_s for c in clocks]}
    if args.trace:
        # the traced pass runs without the speed sampler, whose loops would land in spans
        with bench_trace.Tracer() as tracer:
            start = time.perf_counter()
            outcome = workload.run(mu, args.seed, pinned)
            traced_wall = time.perf_counter() - start
        outcomes.append(outcome)
        stats = tracer.span_stats()
        computed = bench_trace.layer_metrics(stats, tracer.counters, traced_wall,
                                             clocks[0].work_s, outcome.timings_s)
        wanted = bench["per_layer"]
        record.update(traced_wall_s=traced_wall, counters=tracer.counters, span_stats=stats,
                      spans=sorted(tracer.spans))
    else:
        computed = {
            "wall_ref_s": statistics.median(c.reference_s for c in clocks),
            "setup_s": statistics.median(ref for _, ref in setup),
            "peak_rss_mb": peak_rss_mb,
            "decided_frac": sum(o.decided for o in outcomes) / sum(o.requested for o in outcomes),
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed_entries for o in outcomes)
    failures = [msg for o in outcomes for msg in o.failures]
    correct = not failures
    record.update(all_metrics=computed, failed_frac=failed / attempted,
                  failures=failures, entries=outcomes[-1].entries)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, separators=(",", ":")) + "\n")

    for msg in failures:
        print(f"perfbench: MISMATCH {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"perfbench: {args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"perfbench: {args.workload} raw pass wall = "
          f"{statistics.median(record['pass_wall_s']):.6g} s over {len(clocks)} pass(es)",
          file=sys.stderr)
    print(f"perfbench: {args.workload} failed_frac = {record['failed_frac']:.6g} "
          f"({failed}/{attempted}); record in {out_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
