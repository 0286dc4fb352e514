#!/usr/bin/env bash
# Regenerate the golden-trace JSONs after an INTENDED behaviour change.
# Run from the repo root; pass the build dir as $1 (default: build).
# Commit the refreshed goldens together with the change that moved them.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="${1:-build}"

cmake --build "$build" --target bench_fig3_latency bench_fig5_accuracy \
  bench_scale_poll bench_verbs bench_qos bench_fault_resilience \
  bench_freshness
for b in fig3_latency fig5_accuracy scale_poll verbs qos fault_resilience \
         freshness; do
  RDMAMON_BENCH_DIR=tests/golden "./$build/bench/bench_$b" --quick >/dev/null
  echo "regenerated tests/golden/BENCH_$b.json"
done
