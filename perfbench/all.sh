#!/usr/bin/env bash
# Print every end-to-end metric, by name with its unit, for the three benchmark
# workloads, and check every answer; exits non-zero on the first mismatch.
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in catalog scan falsify; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" \
        --seconds "${2:-20}" --trace 0 >/dev/null
done
