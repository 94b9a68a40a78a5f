#!/usr/bin/env bash
# Measures a full baseline: every workload traced once (the record with
# per-layer metrics and the sharded scaling ladder), then every workload
# untraced twice, then compare on the two untraced sets — the A/A check
# that the benchmark agrees with itself within its own bounds.
#
#   benchmark/run.sh [outdir]      (default .bench_build/results)
#
# The traced record of the first run on a machine is what gets committed
# as benchmark/results/baseline.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:-$(dirname "$here")/.bench_build/results}"
mkdir -p "$out"

"$here/bench.sh" -all -trace 1 -out "$out/baseline.json"
"$here/bench.sh" -all -out "$out/untraced-a.json"
"$here/bench.sh" -all -out "$out/untraced-b.json"
"$here/bench.sh" compare "$out/untraced-a.json" "$out/untraced-b.json"
